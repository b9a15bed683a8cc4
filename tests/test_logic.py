import pytest
from hypothesis import given, settings, strategies as st

from bbapart.logic import (
    And,
    BOT,
    Diamond,
    FormulaParseError,
    Neg,
    PBOT,
    PDiamond,
    PTOP,
    TOP,
    canonical_key,
    diamond,
    SatEvaluator,
    diamond_witness,
    enumerate_pformulas,
    f_or,
    format_formula,
    format_pformula,
    is_good,
    is_negative,
    is_positive,
    modality_free,
    p_embed,
    p_satisfies,
    parse_formula,
    satisfies,
)
from bbapart.generate import GenParams, random_lts
from bbapart.lts import (
    ActionLabel,
    Lts,
    NonReflexiveLtsError,
    TAU,
    constrained_tau_reach,
    reflexive_closure,
)

from conftest import s

A, B, C, D = (ActionLabel(x) for x in "abcd")


def test_classifier_top():
    assert is_positive(TOP) and is_negative(TOP)
    assert is_good(TOP)


def test_classifier_neither():
    f = Diamond(Neg(diamond(A, TOP)), B, TOP)
    assert not is_positive(f) and not is_negative(f)
    assert not is_good(f)


def test_classifier_nested_diamond():
    f = Diamond(diamond(D, TOP), C, TOP)
    assert is_positive(f) and not is_negative(f)
    assert is_good(f)


def test_diamond_positivity_ignores_right():
    # Positivity of a diamond depends only on its left-hand side.
    assert is_positive(Diamond(TOP, A, Neg(diamond(B, TOP))))


def test_good_checks_right_side_recursively():
    bad_inside = Diamond(TOP, A, Diamond(Neg(diamond(B, TOP)), C, TOP))
    assert is_positive(bad_inside)
    assert not is_good(bad_inside)


def test_modality_free():
    assert modality_free(Neg(And(TOP, BOT)))
    assert not modality_free(diamond(A, TOP))


def test_p_embed_examples():
    assert p_embed(PDiamond(PTOP, A)) == Diamond(TOP, A, TOP)
    assert p_embed(PBOT) == Neg(TOP)
    f = p_embed(PDiamond(PTOP, TAU, (PDiamond(PTOP, C),), (PDiamond(PTOP, B),)))
    assert f == Diamond(TOP, TAU, And(diamond(C, TOP), Neg(diamond(B, TOP))))
    assert is_positive(f) and is_good(f)


def test_satisfies_fixsr(fixsr):
    closed = reflexive_closure(fixsr)
    phi = Diamond(diamond(D, TOP), C, TOP)
    assert satisfies(closed, s(fixsr, "s"), phi)
    assert not satisfies(closed, s(fixsr, "r"), phi)


def test_satisfies_fixpq(fixpq):
    closed = reflexive_closure(fixpq)
    phi = Diamond(TOP, TAU, And(diamond(C, TOP), Neg(diamond(B, TOP))))
    assert satisfies(closed, s(fixpq, "p1"), phi)
    assert satisfies(closed, s(fixpq, "p2"), phi)
    assert not satisfies(closed, s(fixpq, "q1"), phi)


def test_diamond_implies_left(fixsr):
    # p |= d<a>f forces p |= d: the path starts at p.
    closed = reflexive_closure(fixsr)
    phi = Diamond(diamond(D, TOP), C, TOP)
    for p in range(closed.n_states):
        if satisfies(closed, p, phi):
            assert satisfies(closed, p, diamond(D, TOP))


def test_satisfies_requires_reflexive(fixsr):
    with pytest.raises(NonReflexiveLtsError):
        satisfies(fixsr, 0, TOP)


def test_diamond_witness_fixsr(fixsr):
    closed = reflexive_closure(fixsr)
    w = diamond_witness(closed, s(fixsr, "s"), diamond(D, TOP), C, TOP)
    assert w.path == (s(fixsr, "s"),)
    assert w.pre == s(fixsr, "s")
    assert w.post == s(fixsr, "s2")


def test_diamond_witness_fixpq(fixpq):
    closed = reflexive_closure(fixpq)
    w = diamond_witness(closed, s(fixpq, "p1"), TOP, C, TOP)
    assert w.path == (s(fixpq, "p1"), s(fixpq, "p2"))
    assert w.post == s(fixpq, "pc")


def test_diamond_witness_absent(fixsr):
    closed = reflexive_closure(fixsr)
    assert diamond_witness(closed, s(fixsr, "r"), diamond(D, TOP), C, TOP) is None


def test_enumerate_depth0():
    assert enumerate_pformulas(set(), 0) == [PTOP, PBOT]


def test_enumerate_depth1():
    out = enumerate_pformulas({A}, 1)
    assert PDiamond(PTOP, A) in out
    assert PDiamond(PTOP, TAU) in out


def test_enumerate_depth2_contains_example():
    out = enumerate_pformulas({B, C}, 2)
    target = PDiamond(PTOP, TAU, (PDiamond(PTOP, C),), (PDiamond(PTOP, B),))
    assert any(canonical_key(g) == canonical_key(target) for g in out)


def test_enumerate_depth_cap():
    with pytest.raises(ValueError):
        enumerate_pformulas({A}, 4)


def test_p_satisfies_matches_embedding(fixpq):
    closed = reflexive_closure(fixpq)
    for g in enumerate_pformulas(closed.visible_actions, 2)[:80]:
        f = p_embed(g)
        for p in range(closed.n_states):
            assert p_satisfies(closed, p, g) == satisfies(closed, p, f)


@pytest.mark.parametrize("text", [
    "T",
    "F",
    "~T",
    "(T & ~F)",
    "(<a> T | <b> F)",
    "<tau> T",
    "((<d> T) <c> T)",
    "((<a> T | ~<b> T) <c> T)",
])
def test_parse_format_round_trip(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


def test_parse_or_desugars():
    assert parse_formula("(T | F)") == f_or(TOP, BOT)


def test_parse_errors():
    for text in ["", "(T &", "T T", "(T ? F)", "<a>", "(T <a F)"]:
        with pytest.raises(FormulaParseError):
            parse_formula(text)


def test_format_pformula_examples():
    f = PDiamond(PDiamond(PTOP, D), C)
    assert format_pformula(f) == "((<d> T) <c> T)"
    g = PDiamond(PTOP, TAU, (PDiamond(PTOP, C),), (PDiamond(PTOP, B),))
    assert format_pformula(g) == "<tau> (<c> T & ~<b> T)"


def _deep_formula(depth: int):
    """Alternating diamonds, until-diamonds, negations and conjunctions."""
    f = TOP
    for i in range(depth):
        kind = i % 4
        if kind == 0:
            f = diamond(A, f)
        elif kind == 1:
            f = Diamond(diamond(B, TOP), TAU, f)
        elif kind == 2:
            f = Neg(f)
        else:
            f = And(f, f_or(TOP, diamond(C, TOP)))
    return f


def test_deep_formula_round_trip_and_hash():
    f = _deep_formula(5000)
    text = format_formula(f)
    g = parse_formula(text)
    assert g == f and g is not f
    assert hash(g) == hash(f)
    assert len({f, g}) == 1
    assert format_formula(g) == text


def test_deep_formula_checks():
    # An a-chain 0 -> 1 -> ... -> d: d nested <a> hold at 0 and nowhere else.
    d = 1500
    l = reflexive_closure(Lts(d + 1, frozenset((i, A, i + 1) for i in range(d))))
    f = TOP
    for _ in range(d):
        f = diamond(A, f)
    ev = SatEvaluator(l)
    assert ev.set(f) == {0}
    assert ev.holds(0, f) and not ev.holds(1, f)


def test_diamond_witness_reuses_evaluator(fixsr):
    closed = reflexive_closure(fixsr)
    ev = SatEvaluator(closed)
    phi = Diamond(diamond(D, TOP), C, TOP)
    assert ev.holds(s(fixsr, "s"), phi)
    w = diamond_witness(closed, s(fixsr, "s"), phi.left, C, TOP, ev)
    assert w == diamond_witness(closed, s(fixsr, "s"), phi.left, C, TOP)
    assert w.post == s(fixsr, "s2")


def _reference_sat(l, f) -> frozenset:
    """The semantics read directly: a diamond holds at p when some state
    silently reachable from p inside the left set has a labelled step into
    the right set."""
    if f == TOP:
        return frozenset(range(l.n_states))
    if isinstance(f, Neg):
        return frozenset(range(l.n_states)) - _reference_sat(l, f.child)
    if isinstance(f, And):
        return _reference_sat(l, f.left) & _reference_sat(l, f.right)
    left, right = _reference_sat(l, f.left), _reference_sat(l, f.right)
    return frozenset(
        p for p in range(l.n_states)
        if any(dst in right for p1 in constrained_tau_reach(l, p, left)
               for dst in l.succ(p1, f.label)))


_hmlu = st.recursive(
    st.just(TOP),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(And, sub, sub),
        st.builds(Diamond, sub, st.sampled_from([TAU, A, B]), sub)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), _hmlu)
def test_checker_matches_reference_semantics(seed, n, f):
    l = reflexive_closure(random_lts(GenParams(n_states=n, seed=seed)))
    ev = SatEvaluator(l)
    expected = _reference_sat(l, f)
    assert ev.set(f) == expected
    assert all(ev.holds(p, f) == (p in expected) for p in range(n))
