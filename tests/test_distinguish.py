import dataclasses
import time

import pytest

from bbapart.apartness import directed_branching_apartness, extract_derivation
from bbapart.distinguish import (
    InvalidDerivationError,
    NotDistinguishingError,
    _sorted_dedup,
    formula_from_derivation,
    pformula_from_hmlu,
    simplify,
    verify_distinguishes,
)
from bbapart.logic import (
    Diamond,
    Neg,
    PAnd,
    PBOT,
    PDiamond,
    POr,
    PTOP,
    TOP,
    canonical_key,
    diamond,
    sort_key,
    p_embed,
    parse_formula,
)
from bbapart.lts import ActionLabel, TAU, reflexive_closure

from conftest import s

A, B, C, D, E = (ActionLabel(x) for x in "abcde")

DIA = lambda lab: PDiamond(PTOP, lab)  # noqa: E731 - <lab> T


def test_verify_fixsr(fixsr):
    phi = Diamond(diamond(D, TOP), C, TOP)
    res = verify_distinguishes(fixsr, phi, s(fixsr, "s"), s(fixsr, "r"))
    assert res.distinguishes and res.direction == "leftHolds"
    rev = verify_distinguishes(fixsr, phi, s(fixsr, "r"), s(fixsr, "s"))
    assert rev.distinguishes and rev.direction == "rightHolds"


def test_verify_same_state(fixsr):
    phi = Diamond(diamond(D, TOP), C, TOP)
    res = verify_distinguishes(fixsr, phi, 0, 0)
    assert not res.distinguishes and res.direction == "none"


def test_verify_fixg2(fixg2):
    phi = Diamond(diamond(D, diamond(E, TOP)), D, Neg(diamond(E, TOP)))
    res = verify_distinguishes(fixg2, phi, s(fixg2, "q0"), s(fixg2, "p0"))
    assert res.distinguishes and res.direction == "leftHolds"


def test_formula_from_derivation_fixsr(fixsr):
    rel = directed_branching_apartness(fixsr)
    d = extract_derivation(fixsr, rel, s(fixsr, "s"), s(fixsr, "r"))
    assert formula_from_derivation(fixsr, d) == PDiamond(DIA(D), C)


def test_formula_from_derivation_leaf(fixpq):
    rel = directed_branching_apartness(fixpq)
    d = extract_derivation(fixpq, rel, s(fixpq, "p1"), s(fixpq, "p2"))
    # Empty quantifier: the witness a-step alone gives <a> T.
    assert d.children == ()
    assert formula_from_derivation(fixpq, d) == DIA(A)


def test_formula_from_derivation_fixg2(fixg2):
    rel = directed_branching_apartness(fixg2)
    d = extract_derivation(fixg2, rel, s(fixg2, "q0"), s(fixg2, "p0"))
    expected = PDiamond(PDiamond(PTOP, D, (DIA(E),)), D, (), (DIA(E),))
    assert formula_from_derivation(fixg2, d) == expected


def test_formula_from_derivation_rejects_corruption(fixsr):
    rel = directed_branching_apartness(fixsr)
    d = extract_derivation(fixsr, rel, s(fixsr, "s"), s(fixsr, "r"))
    bad_witness = dataclasses.replace(d, witness=(d.witness[0], D, d.witness[2]))
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_witness)
    bad_children = dataclasses.replace(d, children=())
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_children)
    bad_tag = dataclasses.replace(
        d, children=(dataclasses.replace(d.children[0], tag="rightFwd"),))
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_tag)


def test_synthesis_sound_on_fixtures(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        rel = directed_branching_apartness(l)
        for p, q in sorted(rel.holds):
            f = formula_from_derivation(l, extract_derivation(l, rel, p, q))
            res = verify_distinguishes(l, p_embed(f), p, q)
            assert res.distinguishes and res.direction == "leftHolds"


PHI2 = "((<a> T | ~<b> T) <c> T)"


def test_pformula_from_hmlu_chain(fixpq):
    phi = parse_formula(PHI2)
    out = pformula_from_hmlu(fixpq, phi, s(fixpq, "p1"), s(fixpq, "q1"))
    expected = PDiamond(PAnd(DIA(A), DIA(B)), TAU,
                        (PDiamond(PTOP, C),), (DIA(A), DIA(B)))
    assert out == expected


def test_pformula_from_hmlu_delta_minus(fixpq):
    phi = parse_formula(PHI2)
    out = pformula_from_hmlu(fixpq, phi, s(fixpq, "p2"), s(fixpq, "q1"))
    assert out == POr(DIA(A), DIA(B))
    # The disjunction separates the pair from the other side.
    res = verify_distinguishes(fixpq, p_embed(out),
                               s(fixpq, "p2"), s(fixpq, "q1"))
    assert res.distinguishes and res.direction == "rightHolds"


def test_pformula_from_hmlu_p_formula_fixed_point(fixsr):
    # An embedded P-formula without And/Neg structure returns itself.
    g = PDiamond(DIA(D), C)
    out = pformula_from_hmlu(fixsr, p_embed(g), s(fixsr, "s"), s(fixsr, "r"))
    assert canonical_key(out) == canonical_key(g)


def test_pformula_from_hmlu_not_distinguishing(fixsr):
    with pytest.raises(NotDistinguishingError):
        pformula_from_hmlu(fixsr, TOP, s(fixsr, "s"), s(fixsr, "r"))


def test_pformula_from_hmlu_handles_swap(fixsr):
    phi = Diamond(diamond(D, TOP), C, TOP)
    out = pformula_from_hmlu(fixsr, phi, s(fixsr, "r"), s(fixsr, "s"))
    res = verify_distinguishes(fixsr, p_embed(out), s(fixsr, "r"), s(fixsr, "s"))
    assert res.distinguishes


def test_simplify_unit_laws():
    f = PAnd(DIA(A), PTOP)
    assert simplify(f) == DIA(A)
    assert simplify(POr(PBOT, DIA(A))) == DIA(A)
    assert simplify(PDiamond(PTOP, A, (PTOP,), (PBOT,))) == DIA(A)


def test_simplify_collapses_identical_stages():
    inner = PDiamond(DIA(A), B)
    chain = PDiamond(DIA(A), TAU, (inner,), ())
    assert simplify(chain) == inner


def test_simplify_keeps_needed_stage(fixpq):
    phi = parse_formula(PHI2)
    out = pformula_from_hmlu(fixpq, phi, s(fixpq, "p1"), s(fixpq, "q1"))
    # The silent stage is load-bearing here: structural simplification
    # keeps it, and the LTS-checked variant must stay equivalent.
    assert simplify(out) == out
    slim = simplify(out, fixpq)
    res = verify_distinguishes(fixpq, p_embed(slim),
                               s(fixpq, "p1"), s(fixpq, "q1"))
    assert res.distinguishes


def test_simplify_semantic_collapse(fixsr):
    inner = PDiamond(DIA(D), C)
    wrapped = PDiamond(DIA(D), TAU, (inner,), (DIA(C),))
    slim = simplify(wrapped, fixsr)
    # Only s satisfies <d> T, and s has no silent step into a <c>-free
    # state, so the outer layer adds nothing on this LTS.
    for p in range(fixsr.n_states):
        assert (verify_distinguishes(fixsr, p_embed(slim), p, 3).direction
                == verify_distinguishes(fixsr, p_embed(wrapped), p, 3).direction)


def test_sorted_dedup_takes_constant_time_per_item_on_deep_formulas():
    # Conjunctions equal up to commutativity, over a 5,000-deep diamond:
    # deduplication keys each item by its canonical representative.
    deep = PTOP
    for _ in range(5000):
        deep = PDiamond(PTOP, A, (deep,), ())
    f, g = PAnd(deep, DIA(B)), PAnd(DIA(B), deep)
    start = time.perf_counter()
    assert _sorted_dedup([f, g] * 2000) == (min(f, g, key=sort_key),)
    assert time.perf_counter() - start < 1.0


def test_sorted_dedup_orders_keys_nested_past_the_recursion_limit():
    # Two 3,000-deep chains that differ only at the bottom: comparing their
    # keys as tuples recurses past the default recursion limit.
    def chain(last):
        f = DIA(last)
        for _ in range(2999):
            f = PDiamond(PTOP, A, (f,), ())
        return f
    f, g = chain(A), chain(B)
    assert _sorted_dedup([g, f, g]) == (f, g)
