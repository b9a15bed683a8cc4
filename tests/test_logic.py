import copy
import pickle
import time
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import logic, lts
from bbapart.logic import (
    And,
    BOT,
    Diamond,
    FormulaParseError,
    Neg,
    PAnd,
    PBOT,
    PDiamond,
    POr,
    PTOP,
    TOP,
    _compare_keys,
    _p_sat,
    canonical_key,
    diamond,
    SatEvaluator,
    Top,
    diamond_witness,
    enumerate_pformulas,
    f_or,
    format_formula,
    format_pformula,
    formula_to_json,
    is_good,
    is_negative,
    is_positive,
    p_embed,
    p_satisfies,
    parse_formula,
    pformula_to_json,
    sat_set,
    satisfies,
    sort_key,
)
from bbapart.generate import GenParams, random_lts
from bbapart.lts import (
    ActionLabel,
    Lts,
    NonReflexiveLtsError,
    TAU,
    TauClosure,
    reflexive_closure,
)

from conftest import load_fixture, outcome, s, silent_reach, tokenize_by_matches
from test_cli_fuzz import hmlu

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


DEEP_CHAINS = [
    # (one more level around f, the classes of a 5,000-deep chain:
    # positive, negative, good)
    (Neg, (True, True, True)),
    (lambda f: And(f, TOP), (True, True, True)),
    (lambda f: Diamond(f, A, TOP), (True, False, True)),
    (lambda f: Diamond(TOP, A, f), (True, False, True)),
    (lambda f: Diamond(TOP, A, Neg(f)), (True, False, True)),
]


@pytest.mark.parametrize("wrap, expected", DEEP_CHAINS, ids=[
    "neg", "and", "diamond-left", "diamond-right", "diamond-negated-right"])
def test_classifiers_on_5000_deep_chains(wrap, expected):
    # Each node is classified once: no recursion, and no re-walk of a
    # diamond's left side, which made is_good quadratic.
    f = TOP
    for _ in range(5000):
        f = wrap(f)
    assert (is_positive(f), is_negative(f), is_good(f)) == expected
    bad = Diamond(Neg(diamond(A, TOP)), B, f)
    assert not is_good(bad) and is_good(Neg(Neg(f)))


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
    # s4 is outside the left side <d> T.
    assert diamond_witness(closed, s(fixsr, "s4"), diamond(D, TOP), C, TOP) is None


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


def _reference_enumeration(actions, depth: int) -> list:
    """The enumeration with duplicates removed by canonical key."""
    labels = sorted(set(actions) | {TAU}, key=lambda a: a.sort_key)
    level = [PTOP, PBOT]
    for _ in range(depth):
        prev = list(level)
        lefts = [f for f in prev if f is not PBOT]
        operands = [f for f in prev if isinstance(f, PDiamond)]
        seen = {canonical_key(f) for f in level}
        for left in lefts:
            for label in labels:
                for pos in [()] + [(g,) for g in operands]:
                    for neg in [()] + [(g,) for g in operands]:
                        if (pos and neg and canonical_key(pos[0])
                                is canonical_key(neg[0])):
                            continue
                        f = PDiamond(left, label, pos, neg)
                        if canonical_key(f) not in seen:
                            seen.add(canonical_key(f))
                            level.append(f)
    return sorted(level, key=sort_key)


@pytest.mark.parametrize("actions, sizes", [
    ({A}, (2, 4, 44)),
    ({A, B}, (2, 5, 158)),
])
def test_enumeration_sizes(actions, sizes):
    assert tuple(len(enumerate_pformulas(actions, d)) for d in range(3)) == sizes


# Depth 3 over two or three actions tries 11 million and 300 million
# diamonds: out of reach of a test.
@pytest.mark.parametrize("actions, depth", [
    (frozenset("abc"[:k]), d) for k in range(4) for d in range(3)
] + [(frozenset(), 3), (frozenset("a"), 3)])
def test_enumeration_is_its_own_canonical_form(actions, depth):
    actions = {ActionLabel(a) for a in actions}
    out = enumerate_pformulas(actions, depth)
    assert all(canonical_key(f) is f for f in out)
    assert len(set(map(canonical_key, out))) == len(out)
    assert out == _reference_enumeration(actions, depth)


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


def test_formula_to_json_writes_a_negation():
    top = {"type": "top"}
    assert formula_to_json(parse_formula("(~<a> T <tau> T)")) == {
        "type": "diamond", "label": "tau", "right": top,
        "left": {"type": "neg", "child": {"type": "diamond", "left": top, "label": "a",
                                          "right": top}}}


def test_parse_errors():
    for text in ["", "(T &", "T T", "(T ? F)", "<a>", "(T <a F)"]:
        with pytest.raises(FormulaParseError):
            parse_formula(text)
    with pytest.raises(FormulaParseError, match=r"expected '&', '\|' or '<', found 'T'"):
        parse_formula("(T T)")


# Formula text: the grammar's tokens, quoted labels (closed or not),
# characters that start no token, and spaces, Unicode ones too.
_FORMULA_PIECES = st.sampled_from(["<", ">", "(", ")", "&", "|", "~", "T", "F", "a", "b1'",
                                   "tau", "i", '"send(1)"', '"a', '"', "$", "1", "é", "'",
                                   " ", "  ", "\t", "\u00a0", "\n", "\u2003"])


def _parse_by_matches(text, silent):
    with mock.patch.object(logic, "_tokenize", tokenize_by_matches):
        return parse_formula(text, silent)


@settings(max_examples=500, deadline=None)
@given(st.lists(_FORMULA_PIECES, max_size=14).map("".join)
       | hmlu.map(format_formula), st.sampled_from(["tau", "i"]))
def test_the_tokenizer_reads_as_one_match_per_token(text, silent):
    # The same tokens, or the same error text; and so the same formula.
    assert outcome(logic._tokenize, text) == outcome(tokenize_by_matches, text)
    assert outcome(parse_formula, text, silent) == outcome(_parse_by_matches, text, silent)


@pytest.mark.parametrize("text", [
    "a" * 100_000 + "$",   # one identifier, then a character that starts no token
    "<a> " * 33_333 + "T$",  # 100,000 tokens, then one
], ids=["identifier", "tokens"])
def test_a_long_bad_formula_is_rejected_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(FormulaParseError, match=r"unexpected character at '\$'"):
        parse_formula(text)
    assert time.perf_counter() - start < 0.5


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
    assert g == f and g is f
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


def test_diamond_witness_reuses_evaluator():
    # The witness search fills the one evaluator kept with the reflexive
    # closure, which the LTS and its closure share.
    l = load_fixture("fixsr")
    closed = reflexive_closure(l)
    delta = diamond(D, TOP)
    w = diamond_witness(closed, s(l, "s"), delta, C, TOP)
    assert w == diamond_witness(closed, s(l, "s"), delta, C, TOP)
    assert w.post == s(l, "s2")
    ev = SatEvaluator.of(l)
    assert ev is SatEvaluator.of(closed) and delta in ev._memo
    assert ev.holds(s(l, "s"), Diamond(delta, C, TOP))


@pytest.mark.parametrize("stem", ["fix1", "fixsr", "fixpq", "fixg2"])
def test_sat_set_agrees_with_the_evaluator(stem):
    closed = reflexive_closure(load_fixture(stem))
    ev = SatEvaluator(closed)
    for g in enumerate_pformulas(closed.visible_actions, 2):
        f = p_embed(g)
        sets = sat_set(closed, f)
        assert f in sets
        for h, states in sets.items():
            assert states == frozenset(p for p in range(closed.n_states)
                                       if ev.mask(h) >> p & 1)


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
        if any(dst in right for p1 in silent_reach(l, p, left)
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


def _old_sort_key(f):
    """The recursive definition the cached keys must reproduce."""
    if f == PTOP:
        return (0,)
    if f == PBOT:
        return (1,)
    if isinstance(f, PDiamond):
        return (2, f.label.sort_key, _old_sort_key(f.left),
                tuple(map(_old_sort_key, f.pos)), tuple(map(_old_sort_key, f.neg)))
    return (3 if isinstance(f, PAnd) else 4,
            _old_sort_key(f.left), _old_sort_key(f.right))


def _old_canonical_key(f):
    if isinstance(f, PDiamond):
        return (2, f.label.sort_key, _old_canonical_key(f.left),
                tuple(sorted(map(_old_canonical_key, f.pos))),
                tuple(sorted(map(_old_canonical_key, f.neg))))
    if isinstance(f, (PAnd, POr)):
        items, stack = [], [f]
        while stack:
            g = stack.pop()
            if type(g) is type(f):
                stack += [g.left, g.right]
            else:
                items.append(_old_canonical_key(g))
        return (3 if isinstance(f, PAnd) else 4, tuple(sorted(items)))
    return _old_sort_key(f)


def _rebuild(f):
    if isinstance(f, PDiamond):
        return PDiamond(_rebuild(f.left), f.label, tuple(map(_rebuild, f.pos)),
                        tuple(map(_rebuild, f.neg)))
    if isinstance(f, (PAnd, POr)):
        return type(f)(_rebuild(f.left), _rebuild(f.right))
    return type(f)()


pformulas = st.recursive(
    st.sampled_from([PTOP, PBOT]),
    lambda sub: st.one_of(
        st.builds(PAnd, sub, sub),
        st.builds(POr, sub, sub),
        st.builds(PDiamond, sub, st.sampled_from([TAU, A, B]),
                  st.lists(sub, max_size=2).map(tuple),
                  st.lists(sub, max_size=2).map(tuple))),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(pformulas, pformulas)
def test_cached_keys_match_definition(f, g):
    fresh = _rebuild(f)
    assert sort_key(f) == _old_sort_key(f)
    assert _old_canonical_key(canonical_key(f)) == _old_canonical_key(f)
    # Keys are cached on the nodes, outside equality, hashing and repr.
    assert f is fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert (sort_key(f) < sort_key(g)) == (_old_sort_key(f) < _old_sort_key(g))
    # The explicit-stack comparison orders keys as tuple comparison does.
    assert _compare_keys(sort_key(f), sort_key(g)) == (
        (sort_key(f) > sort_key(g)) - (sort_key(f) < sort_key(g)))
    assert _compare_keys(sort_key(f), _old_sort_key(f)) == 0
    # AC-equal formulas share one canonical representative.
    assert ((canonical_key(f) is canonical_key(g))
            == (_old_canonical_key(f) == _old_canonical_key(g)))
    assert canonical_key(canonical_key(f)) is canonical_key(f)


def test_deep_pformula_walks():
    # Twice Python's default recursion limit.
    f = PTOP
    for i in range(2000):
        f = PDiamond(PAnd(PTOP, PTOP) if i % 2 else PTOP, A, (f,), ())
    assert sort_key(f)[0] == 2 and isinstance(canonical_key(f), PDiamond)
    assert pformula_to_json(f)["type"] == "pdiamond"
    assert formula_to_json(p_embed(f))["type"] == "diamond"
    closed = reflexive_closure(Lts(1, frozenset({(0, A, 0)})))
    assert p_satisfies(closed, 0, f)


def test_p_satisfies_is_linear_in_depth():
    # A memo keyed by the nested canonical-key tuple re-hashes it in full
    # on every lookup: 5 to 6 s for this chain.
    f = PTOP
    for _ in range(5000):
        f = PDiamond(PTOP, A, (f,), ())
    closed = reflexive_closure(Lts(2, frozenset({(0, A, 0)})))
    start = time.perf_counter()
    assert p_satisfies(closed, 0, f) and not p_satisfies(closed, 1, f)
    assert time.perf_counter() - start < 1.0


def _reference_p_sat(l, f) -> frozenset:
    """The P semantics read directly, on sets: a diamond holds at p when
    some state silently reachable from p inside the left set has a
    labelled step into every positive conjunct and no negated one."""
    states = frozenset(range(l.n_states))
    if f is PTOP or f is PBOT:
        return states if f is PTOP else frozenset()
    if isinstance(f, (PAnd, POr)):
        left, right = _reference_p_sat(l, f.left), _reference_p_sat(l, f.right)
        return left & right if isinstance(f, PAnd) else left | right
    right = states
    for g in f.pos:
        right &= _reference_p_sat(l, g)
    for g in f.neg:
        right -= _reference_p_sat(l, g)
    left = _reference_p_sat(l, f.left)
    return frozenset(
        p for p in states
        if any(dst in right for p1 in silent_reach(l, p, left)
               for dst in l.succ(p1, f.label)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), pformulas)
def test_p_satisfies_matches_reference_semantics(seed, n, f):
    l = reflexive_closure(random_lts(GenParams(n_states=n, seed=seed)))
    expected = _reference_p_sat(l, f)
    assert all(p_satisfies(l, p, f) == (p in expected) for p in range(n))


def test_p_satisfies_is_independent_of_the_checker(monkeypatch):
    # A fresh LTS, so that no table the evaluator keeps on it is built yet.
    closed = reflexive_closure(load_fixture("fixpq"))
    formulas = enumerate_pformulas(closed.visible_actions, 2)
    expected = [_reference_p_sat(closed, g) for g in formulas]

    # Neither the checker nor the silent closure that the engines share.
    def refuse(*args, **kwargs):
        raise AssertionError("the P-evaluator reached the checker")
    monkeypatch.setattr(Lts, "preimage", refuse)
    monkeypatch.setattr(Lts, "reaching", refuse)
    monkeypatch.setattr(TauClosure, "__init__", refuse)
    monkeypatch.setattr(logic, "SatEvaluator", refuse)
    monkeypatch.setattr(SatEvaluator, "__init__", refuse)
    monkeypatch.setattr(SatEvaluator, "mask", refuse)
    assert _p_sat(closed, formulas) == [sum(1 << p for p in sat) for sat in expected]


def _rebuild_hmlu(f):
    if isinstance(f, Neg):
        return Neg(_rebuild_hmlu(f.child))
    if isinstance(f, And):
        return And(_rebuild_hmlu(f.left), _rebuild_hmlu(f.right))
    if isinstance(f, Diamond):
        return Diamond(_rebuild_hmlu(f.left), f.label, _rebuild_hmlu(f.right))
    return Top()


def _pformula_from_json(data):
    """Rebuild a P-formula from the shape of :func:`pformula_to_json`."""
    kind = data["type"]
    if kind in ("top", "bot"):
        return PTOP if kind == "top" else PBOT
    if kind in ("and", "or"):
        return (PAnd if kind == "and" else POr)(_pformula_from_json(data["left"]),
                                                _pformula_from_json(data["right"]))
    label = TAU if data["label"] == "tau" else ActionLabel(data["label"])
    return PDiamond(_pformula_from_json(data["left"]), label,
                    tuple(map(_pformula_from_json, data["pos"])),
                    tuple(map(_pformula_from_json, data["neg"])))


def _embed_by_definition(f):
    """The HMLU view of a P-formula, from fresh constructor calls."""
    if isinstance(f, (PAnd, POr)):
        make = And if isinstance(f, PAnd) else f_or
        return make(_embed_by_definition(f.left), _embed_by_definition(f.right))
    if isinstance(f, PDiamond):
        parts = ([_embed_by_definition(g) for g in f.pos]
                 + [Neg(_embed_by_definition(g)) for g in f.neg])
        right = parts[-1] if parts else TOP
        for g in reversed(parts[:-1]):
            right = And(g, right)
        return Diamond(_embed_by_definition(f.left), f.label, right)
    return TOP if f is PTOP else Neg(Top())


@settings(max_examples=200, deadline=None)
@given(_hmlu, pformulas)
def test_a_formula_built_twice_is_one_object(f, g):
    assert _rebuild_hmlu(f) is f
    assert parse_formula(format_formula(f)) is f
    assert _rebuild(g) is g
    assert _pformula_from_json(pformula_to_json(g)) is g
    assert _embed_by_definition(g) is p_embed(g)
    assert parse_formula(format_pformula(g)) is p_embed(g)
    assert ActionLabel("a") is A and ActionLabel() is TAU
    # Copies and pickles rebuild through the constructors.
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(g)) is g
    assert copy.copy(A) is A and TAU.name is None


def _interned(cls, parts):
    """The node that the intern table of ``cls`` holds for ``parts``, or
    None when it has no entry for them; a dead entry fails the test."""
    entry = cls._table.get(parts)
    if entry is None:
        return None
    assert entry() is not None, f"a dead entry for {parts!r} is still in the table"
    return entry()


def test_a_stale_callback_leaves_the_newer_entry_for_its_key():
    # As when the collector clears a dead node's reference, and a node with
    # the same parts is made before the old reference's callback runs.
    f = Diamond(TOP, A, BOT)
    parts = (TOP, A, BOT)
    stale = lts._Entry(Neg(TOP), Diamond._forget)
    stale.key = parts
    Diamond._forget(stale)
    assert _interned(Diamond, parts) is f and Diamond(*parts) is f


def test_a_node_and_its_table_entry_die_with_its_last_reference():
    label = ActionLabel("weak_probe")
    f = PDiamond(PTOP, label, (), ())
    h = p_embed(f)
    assert sort_key(f) and canonical_key(f) is f
    nodes = [weakref.ref(f), weakref.ref(h)]
    entries = [(PDiamond, (PTOP, label, (), ())), (Diamond, (TOP, label, TOP))]
    assert all(_interned(cls, parts) is node()
               for (cls, parts), node in zip(entries, nodes))
    del f, h  # no collector pass: the last references go, and the entries
    assert all(node() is None for node in nodes)
    assert all(_interned(cls, parts) is None for cls, parts in entries)
