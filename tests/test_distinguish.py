import functools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import distinguish
from bbapart.apartness import (
    ChildStep,
    Derivation,
    directed_branching_apartness,
    extract_derivation,
)
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
    And,
    Diamond,
    Neg,
    PAnd,
    PBOT,
    PDiamond,
    POr,
    PTOP,
    TOP,
    SatEvaluator,
    _children,
    _fold,
    _p_children,
    canonical_key,
    diamond,
    diamond_witness,
    enumerate_pformulas,
    format_pformula,
    sort_key,
    p_and_all,
    p_embed,
    p_or_all,
    parse_formula,
)
from bbapart import cli
from bbapart.cli import main
from bbapart.generate import GenParams, random_lts
from bbapart.lts import ActionLabel, Lts, TAU, reflexive_closure, render_aut
from bbapart.validate import distinguish_pair

from conftest import DATA, s, simplify_two_pass
from test_kernel import ltss

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
    bad_witness = Derivation(d.left, d.right, (d.witness[0], D, d.witness[2]),
                             d.children)
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_witness)
    bad_children = Derivation(d.left, d.right, d.witness, ())
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_children)
    c = d.children[0]
    bad_tag = Derivation(d.left, d.right, d.witness,
                         (ChildStep(c.q_prime, c.q_dprime, "rightFwd", c.sub),))
    with pytest.raises(InvalidDerivationError):
        formula_from_derivation(fixsr, bad_tag)
    elsewhere = Derivation(d.left, d.right, (d.right, *d.witness[1:]), d.children)
    with pytest.raises(InvalidDerivationError, match="witness starts at 5, "):
        formula_from_derivation(fixsr, elsewhere)
    unknown_tag = Derivation(d.left, d.right, d.witness, (
        ChildStep(c.q_prime, c.q_dprime, "sideways", c.sub), *d.children[1:]))
    with pytest.raises(InvalidDerivationError, match="unknown child tag 'sideways'"):
        formula_from_derivation(fixsr, unknown_tag)


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


def per_pair_synthesis(l, phi, p, q):
    """HMLU -> P synthesis by plain recursion, one call per (satisfier,
    non-satisfier) pair of every subformula it reaches."""
    ev = SatEvaluator.of(l)

    def holds(r, g):
        return ev.holds(r, p_embed(g))

    def split(formulas, r):
        return (tuple(g for g in formulas if holds(r, g)),
                tuple(g for g in formulas if not holds(r, g)))

    @functools.cache
    def realize(sub):
        sat = ev.set(sub)
        return _sorted_dedup([synth(sub, r, t) for r in sorted(sat)
                              for t in range(l.n_states) if t not in sat])

    def synth(f, p, q):
        if not ev.holds(p, f):
            p, q = q, p
        assert ev.holds(p, f) and not ev.holds(q, f)
        if isinstance(f, Neg):
            return synth(f.child, q, p)
        if isinstance(f, And):
            return synth(f.left if not ev.holds(q, f.left) else f.right, p, q)
        w = diamond_witness(l, p, f.left, f.label, f.right)
        p_delta, p_psi = realize(f.left), realize(f.right)
        stages = [split(p_delta, r) for r in w.path]
        chain = PDiamond(p_and_all(stages[-1][0]), f.label, *split(p_psi, w.post))
        for i in range(len(stages) - 2, -1, -1):
            chain = PDiamond(p_and_all(stages[i][0]), TAU, (chain,), stages[i + 1][1])
        plus_1, minus_1 = stages[0]
        if holds(q, p_or_all(minus_1)):
            return p_or_all(minus_1)
        if not holds(q, p_and_all(plus_1)):
            return p_and_all(plus_1)
        return chain

    return synth(phi, p, q)


labels = st.sampled_from([TAU, A, B])


@st.composite
def hmlu(draw, depth=None):
    """HMLU formulas up to 4 operators deep over tau, a and b, with
    negations, conjunctions and diamonds whose left side need not be T."""
    if depth is None:
        depth = draw(st.integers(1, 4))
    if depth == 0:
        return draw(st.just(TOP) | labels.map(lambda a: Diamond(TOP, a, TOP)))
    kind, sub = draw(st.integers(0, 3)), hmlu(depth - 1)
    if kind == 0:
        return Neg(draw(sub))
    if kind == 1:
        return And(draw(sub), draw(sub))
    return Diamond(draw(sub), draw(labels), draw(sub))


@settings(max_examples=200, deadline=None)
@given(ltss(), hmlu())
def test_pformula_from_hmlu_matches_per_pair_synthesis(l, phi):
    # Every subformula that separates two states is an input in its own right.
    ev = SatEvaluator.of(l)
    subformulas = []
    _fold(phi, _children, lambda g, _: subformulas.append(g))
    for f in subformulas:
        m = ev.mask(f)
        pairs = [(p, q) for p in range(l.n_states) for q in range(l.n_states)
                 if (m >> p ^ m >> q) & 1]
        for p, q in pairs[::max(1, len(pairs) // 4)]:
            assert pformula_from_hmlu(l, f, p, q) is per_pair_synthesis(l, f, p, q)


def test_pformula_from_hmlu_finds_one_witness_per_satisfier(monkeypatch):
    # <a> x40 on a 40-step a-chain: the k-th diamond from the inside holds
    # at 41 - k states, so 820 witnesses in all; one synthesis per pair of
    # states would find 11,441.
    n = 40
    l = Lts(n + 1, frozenset((i, A, i + 1) for i in range(n)))
    calls = []

    def counting(*args):
        calls.append(args)
        return diamond_witness(*args)

    monkeypatch.setattr(distinguish, "diamond_witness", counting)
    phi = parse_formula("<a> " * n + "T")
    out = pformula_from_hmlu(l, phi, 0, 1)
    assert verify_distinguishes(l, p_embed(out), 0, 1).direction == "leftHolds"
    assert len(calls) <= n * (n + 1) // 2


def test_convert_finds_witnesses_only_for_the_pairs_it_separates(
        capsys, monkeypatch, tmp_path):
    # An a-chain of 150 steps with a b-loop at 0: the pair (0, 1) is
    # separated by <b> T alone, so the 150 nested diamonds, with 11,325
    # satisfiers in all, need no witness.
    n = 150
    aut = tmp_path / "chain.aut"
    aut.write_text(render_aut(Lts(n + 1, frozenset(
        {(i, A, i + 1) for i in range(n)} | {(0, B, 0)}))))
    calls = []

    def counting(*args):
        calls.append(args)
        return diamond_witness(*args)

    monkeypatch.setattr(distinguish, "diamond_witness", counting)
    formula = "(<b> T | " + "<a> " * n + "T)"
    assert main(["convert", "--lts", str(aut), "--formula", formula, "0", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["formula"] == "<b> T"
    assert len(calls) <= 2


def test_distinguish_pair_reaches_canonical_key_through_its_module(
        fixpq, monkeypatch):
    # A tracer that wraps module bindings counts AC deduplication at
    # distinguish.canonical_key: it must be called there, not bypassed.
    calls = []

    def counting(f):
        calls.append(f)
        return canonical_key(f)

    monkeypatch.setattr(distinguish, "canonical_key", counting)
    for p, q in sorted(directed_branching_apartness(fixpq).holds):
        distinguish_pair(fixpq, p, q)
    assert calls


@functools.cache
def pformulas(depth: int):
    """P-formulas ``depth`` levels deep over tau, a and b, rich in what
    ``simplify`` removes: unit conjuncts, and silent stages inside a
    diamond whose negated conjuncts they may or may not repeat.  One
    strategy per depth, so that hypothesis builds each only once."""
    if depth == 0:
        return st.sampled_from([PTOP, PBOT]) | labels.map(DIA)
    sub = pformulas(depth - 1)
    one, two = (st.lists(sub, max_size=k).map(tuple) for k in (1, 2))
    kinds, junctions = st.integers(0, 4), st.sampled_from([PAnd, POr])

    @st.composite
    def formulas(draw):
        kind = draw(kinds)
        if kind == 0:
            return draw(junctions)(draw(sub), draw(sub))
        if kind == 1:
            return PDiamond(draw(sub), draw(labels), draw(two), draw(two))
        left, neg = draw(sub), draw(two)
        inner = PDiamond(left, draw(labels), draw(one), draw(one))
        stage = PDiamond(left, TAU, (inner,),
                         neg if draw(st.booleans()) else draw(two))
        if kind == 2:
            return stage
        return PDiamond(draw(sub), draw(labels), (stage, *draw(one)), neg)

    return formulas()


@settings(max_examples=200, deadline=None)
@given(ltss(), st.integers(1, 3).flatmap(pformulas))
def test_simplify_keeps_satisfaction_and_each_conjunct_once(l, f):
    ev = SatEvaluator.of(l)
    for slim in (simplify(f), simplify(f, l)):
        assert ev.mask(p_embed(slim)) == ev.mask(p_embed(f))
        nodes = []
        _fold(slim, _p_children, lambda g, _: nodes.append(g))
        for g in nodes:
            if isinstance(g, PDiamond):
                for side in (g.pos, g.neg):
                    assert len({canonical_key(h) for h in side}) == len(side)


def _fixpoint(step, f):
    while (g := step(f)) is not f:
        f = g
    return f


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.floats(0.5, 1.5), st.integers(0, 2**32), st.integers(3, 12))
def test_simplify_is_its_own_simplification(n, tau_density, seed, stride):
    # On derivation formulas of apart pairs and on syntheses from enumerated
    # formulas: one call reaches the fixpoint of the two-fold reference,
    # and with the LTS the result still separates the pair.
    l = random_lts(GenParams(n, seed=seed, tau_density=tau_density))
    rel = directed_branching_apartness(l)
    memo: dict = {}
    cases = [(p, q, formula_from_derivation(l, extract_derivation(l, rel, p, q, memo)))
             for p, q in sorted(rel.holds)]
    ev = SatEvaluator.of(reflexive_closure(l))
    for g in enumerate_pformulas(l.visible_actions, 2)[seed % stride::stride]:
        m = ev.mask(p_embed(g))
        sat = [m >> r & 1 for r in range(n)]
        if 0 < sum(sat) < n:
            p, q = sat.index(1), sat.index(0)
            cases.append((p, q, pformula_from_hmlu(l, p_embed(g), p, q)))
    for p, q, f in cases:
        for lts in (None, l):
            slim = simplify(f, lts)
            assert simplify(slim, lts) is slim
            assert slim is _fixpoint(lambda g: simplify_two_pass(g, lts), f)
        assert verify_distinguishes(l, p_embed(slim), p, q).direction == "leftHolds"


def test_simplify_reaches_its_fixpoint_in_one_call():
    # The two folds left a silent stage here that only a second call removed.
    l = random_lts(GenParams(10, seed=64, tau_density=1.0))
    rel = directed_branching_apartness(l)
    f = formula_from_derivation(l, extract_derivation(l, rel, 3, 6))
    assert format_pformula(simplify_two_pass(f)) == "<tau> <b> ~<b> T"
    assert format_pformula(simplify(f)) == "<b> ~<b> T"


def test_cli_distinguish_simplify_checks_what_it_prints(capsys, monkeypatch):
    aut = str(DATA / "fixsr.aut")
    monkeypatch.setattr(cli, "simplify", lambda f, l: PTOP)
    assert main(["distinguish", "--lts", aut, "--simplify", "0", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1


def test_cli_convert_simplify_checks_what_it_prints(capsys, monkeypatch):
    # The result may separate the pair the other way round (p2, q1 gives
    # rightHolds), but never in neither direction.
    lts = ["--lts", str(DATA / "fixpq.aut"), "--names", str(DATA / "fixpq.names.json")]
    argv = ["convert", *lts, "--formula", "((<a> T | ~<b> T) <c> T)", "--simplify",
            "p2", "q1"]
    monkeypatch.setattr(cli, "simplify", lambda f, l: PTOP)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1
