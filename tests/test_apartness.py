import pytest
from hypothesis import given, settings

from bbapart.apartness import (
    PairNotHeldError,
    branching_apartness,
    check_tau_extension,
    directed_branching_apartness,
    directed_branching_apartness_nonreflexive,
    directed_strong_apartness,
    extract_derivation,
    strong_apartness,
)
from bbapart.generate import GenParams, random_lts
from bbapart.lts import Lts, parse_aut, reflexive_closure
from bbapart.validate import KINDS, check_pair, distinguish_pair

from conftest import layers, load_fixture, s
from test_kernel import ENGINES, ltss


def test_strong_fix1(fix1):
    rel = strong_apartness(fix1)
    assert (s(fix1, "s"), s(fix1, "t")) not in rel
    assert (s(fix1, "q"), s(fix1, "p")) in rel
    assert rel.holds == frozenset((q, p) for p, q in rel.holds)  # symmetric


def test_strong_deadlocks():
    l = parse_aut("des (0,0,2)\n")
    assert strong_apartness(l).holds == frozenset()


def test_directed_strong_fix1(fix1):
    rel = directed_strong_apartness(fix1)
    assert (s(fix1, "q"), s(fix1, "p")) in rel
    assert (s(fix1, "p"), s(fix1, "q")) in rel


def test_directed_strong_needs_witness_step(fix1):
    rel = directed_strong_apartness(fix1)
    deadlock = s(fix1, "p3")
    assert all(pair[0] != deadlock for pair in rel.holds)


def test_branching_fixsr(fixsr):
    rel = branching_apartness(fixsr)
    assert (s(fixsr, "s"), s(fixsr, "r")) in rel
    assert (s(fixsr, "s1"), s(fixsr, "r1")) not in rel


def test_irreflexive(fixsr, fixg2):
    for l in (fixsr, fixg2):
        for engine in (strong_apartness, directed_strong_apartness,
                       branching_apartness, directed_branching_apartness,
                       directed_branching_apartness_nonreflexive):
            assert all(p != q for p, q in engine(l).holds)


def test_directed_branching_fixtures(fixsr, fixg2, fixpq):
    assert (s(fixsr, "s"), s(fixsr, "r")) in directed_branching_apartness(fixsr)
    assert (s(fixg2, "q0"), s(fixg2, "p0")) in directed_branching_apartness(fixg2)
    # p1 has an a-step that p2's silent closure cannot answer.
    assert (s(fixpq, "p1"), s(fixpq, "p2")) in directed_branching_apartness(fixpq)


def test_nonreflexive_engine_agrees(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        assert (directed_branching_apartness_nonreflexive(l).holds
                == directed_branching_apartness(l).holds)


def test_nonreflexive_single_state():
    l = Lts(1, frozenset())
    assert directed_branching_apartness_nonreflexive(l).holds == frozenset()


def test_round_stamps(fixg2):
    rel = directed_branching_apartness(fixg2)
    assert set(rel.rounds) == set(rel.holds)
    assert all(1 <= r <= fixg2.n_states ** 2 for r in rel.rounds.values())


def test_reflexive_invariance(fixsr, fixg2):
    for l in (fixsr, fixg2):
        assert (branching_apartness(l).holds
                == branching_apartness(reflexive_closure(l)).holds)


def test_extract_derivation_fixsr(fixsr):
    rel = directed_branching_apartness(fixsr)
    d = extract_derivation(fixsr, rel, s(fixsr, "s"), s(fixsr, "r"))
    assert d.witness == (s(fixsr, "s"), d.witness[1], s(fixsr, "s2"))
    assert str(d.witness[1]) == "c"
    (child,) = d.children
    assert child.tag == "left"
    sub = child.sub
    assert (sub.left, sub.right) == (s(fixsr, "s"), s(fixsr, "r1"))
    assert str(sub.witness[1]) == "d"
    assert sub.children == ()


def test_extract_derivation_rounds_decrease(fixg2):
    rel = directed_branching_apartness(fixg2)

    def walk(node):
        r = rel.rounds[(node.left, node.right)]
        for c in node.children:
            assert rel.rounds[(c.sub.left, c.sub.right)] < r
            walk(c.sub)

    for p, q in sorted(rel.holds):
        walk(extract_derivation(fixg2, rel, p, q))


def test_extract_derivation_not_held(fixsr):
    rel = directed_branching_apartness(fixsr)
    with pytest.raises(PairNotHeldError):
        extract_derivation(fixsr, rel, s(fixsr, "s3"), s(fixsr, "r2"))


def test_derivation_json_uses_names(fixsr):
    rel = directed_branching_apartness(fixsr)
    d = extract_derivation(fixsr, rel, s(fixsr, "s"), s(fixsr, "r"))
    js = d.to_json(fixsr)
    assert js["conclusion"] == {"left": "s", "right": "r", "kind": "db"}
    assert js["witness"] == {"from": "s", "label": "c", "to": "s2"}
    assert js["children"][0]["tag"] == "left"


def test_tau_extension_empty(fixsr, fixg2, fixpq):
    for l in (fixsr, fixg2, fixpq):
        assert check_tau_extension(l, directed_branching_apartness(l)) == []


@settings(max_examples=200, deadline=None)
@given(ltss())
def test_the_relation_is_its_rows_split_into_disjoint_round_layers(l):
    n = l.n_states
    for engine, _ in ENGINES:
        rel = engine(l)
        assert all(((p, q) in rel) == ((p, q) in rel.holds)
                   for p in range(n) for q in range(n)), engine.__name__
        derived = [0] * n
        for layer in layers(rel):
            assert not any(d & m for d, m in zip(derived, layer)), engine.__name__
            derived = [d | m for d, m in zip(derived, layer)]
        assert tuple(derived) == rel.rows, engine.__name__


def test_queries_leave_the_per_pair_views_unbuilt():
    l = load_fixture("fixg2")  # a fresh LTS: no relation computed yet
    engines = [engine for engine, _ in ENGINES]

    def unbuilt():
        return all("holds" not in vars(engine(l)) and "rounds" not in vars(engine(l))
                   for engine in engines)
    assert unbuilt()
    apart = 0
    for p in range(l.n_states):
        for q in range(l.n_states):
            for kind in KINDS:
                check_pair(l, kind, p, q)
            check_pair(l, "dbranching", p, q, nonreflexive=True)
            if (p, q) in directed_branching_apartness(l):
                distinguish_pair(l, p, q)
                apart += 1
    assert apart and unbuilt()


@pytest.mark.parametrize("p,q", [(-1, 0), (5, 0), (0, -1), (0, 5)])
def test_pair_queries_reject_a_state_out_of_range(p, q):
    l = random_lts(GenParams(5, seed=1))
    out_of_range = pytest.raises(KeyError, match="state index out of range")
    for kind in KINDS:
        with out_of_range:
            check_pair(l, kind, p, q)
    with out_of_range:
        check_pair(l, "dbranching", p, q, nonreflexive=True)
    with out_of_range:
        distinguish_pair(l, p, q)
    for engine, _ in ENGINES:
        # Before and after the whole fixpoint has run.
        with out_of_range:
            engine(l, ((p, q),))
        engine(l)
        with out_of_range:
            engine(l, ((0, 1), (p, q)))


def two_engine_branching_check(l, p, q) -> dict:
    """``check_pair(l, "branching", p, q)`` computed from the symmetric
    engine, with the certificate from the directed one."""
    apart = branching_apartness(l)
    result = {"kind": "branching", "apart": (p, q) in apart,
              "apartReverse": (q, p) in apart, "bisimilar": (p, q) not in apart}
    if result["apart"]:
        db = directed_branching_apartness(l)
        pair = (p, q) if (p, q) in db else (q, p)
        result["derivation"] = extract_derivation(l, db, *pair).to_json(l)
    return result


def _assert_branching_check_is_two_engine(l):
    for p in range(l.n_states):
        for q in range(l.n_states):
            assert check_pair(l, "branching", p, q) == \
                two_engine_branching_check(l, p, q), (p, q)


def test_branching_check_matches_two_engines_on_fixtures():
    for stem in ("fix1", "fixsr", "fixsr_s", "fixpq", "fixg2"):
        _assert_branching_check_is_two_engine(load_fixture(stem))


@settings(max_examples=200, deadline=None)
@given(ltss())
def test_branching_check_matches_two_engines(l):
    _assert_branching_check_is_two_engine(l)
