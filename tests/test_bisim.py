import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import bisim
from bbapart.bisim import (
    BisimRelation,
    bisimilarity,
    branching_bisimilarity,
    directed_branching_bisimilarity,
    directed_strong_bisimilarity,
    refine_once_violations,
    strong_bisimilarity,
)
from bbapart.generate import GenParams, random_lts
from bbapart.lts import Lts, reflexive_closure, tau_closure

from conftest import s

KINDS = ("strong", "dstrong", "branching", "dbranching")


def test_strong_fix1(fix1):
    rel = strong_bisimilarity(fix1)
    assert (s(fix1, "s"), s(fix1, "t")) in rel
    assert (s(fix1, "q"), s(fix1, "p")) not in rel


def test_directed_strong_fix1(fix1):
    rel = directed_strong_bisimilarity(fix1)
    assert (s(fix1, "q"), s(fix1, "p")) not in rel
    assert (s(fix1, "p"), s(fix1, "q")) not in rel


def test_branching_fixsr(fixsr):
    rel = branching_bisimilarity(fixsr)
    assert (s(fixsr, "s"), s(fixsr, "r")) not in rel
    assert (s(fixsr, "s1"), s(fixsr, "r1")) in rel


def test_directed_branching_fixpq(fixpq):
    rel = directed_branching_bisimilarity(fixpq)
    assert (s(fixpq, "p2"), s(fixpq, "p1")) in rel
    assert (s(fixpq, "p1"), s(fixpq, "p2")) not in rel


def test_an_unknown_kind_is_refused(fix1):
    with pytest.raises(KeyError, match="unknown bisimilarity kind: 'weak'"):
        bisimilarity(fix1, "weak")


def test_reflexive(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        for kind in KINDS:
            rel = bisimilarity(l, kind)
            assert all((p, p) in rel for p in range(l.n_states))


def test_symmetric_kinds(fixsr, fixg2):
    for l in (fixsr, fixg2):
        for kind in ("strong", "branching"):
            rel = bisimilarity(l, kind)
            assert rel.holds == frozenset((q, p) for p, q in rel.holds)


def test_output_is_fixed_point(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        for kind in KINDS:
            assert refine_once_violations(l, kind, bisimilarity(l, kind)) == []


def test_order_independence(fixg2):
    rng = random.Random(42)
    n = fixg2.n_states
    pairs = [(p, q) for p in range(n) for q in range(n)]
    for kind in KINDS:
        expected = bisimilarity(fixg2, kind).holds
        _, make_clause, symmetric = bisim._ENGINES[kind]
        for _ in range(3):
            rng.shuffle(pairs)
            refined = bisim._refine(n, make_clause(fixg2), symmetric, order=list(pairs))
            assert refined.holds == expected


def test_order_independence_random_lts():
    rng = random.Random(7)
    for seed in range(5):
        l = random_lts(GenParams(n_states=5, seed=seed))
        pairs = [(p, q) for p in range(5) for q in range(5)]
        rng.shuffle(pairs)
        for kind in KINDS:
            _, make_clause, symmetric = bisim._ENGINES[kind]
            refined = bisim._refine(5, make_clause(l), symmetric, order=list(pairs))
            assert refined.holds == bisimilarity(l, kind).holds


# ---------------------------------------------------------------------------
# A reference oracle: the same deletion algorithm on a set of pairs, each
# clause a membership test per candidate pair.  It checks the bitmask
# oracles, which must compute the same relations.


def _reference_refine(n: int, clause, symmetric: bool, order=None) -> BisimRelation:
    rel = {(p, q) for p in range(n) for q in range(n)}
    pairs = order if order is not None else sorted(rel)
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) not in rel:
                continue
            ok = clause(p, q, rel)
            if ok and symmetric:
                ok = clause(q, p, rel)
            if not ok:
                rel.discard((p, q))
                if symmetric:
                    rel.discard((q, p))
                changed = True
    return BisimRelation(n, frozenset(rel))


def _reference_strong_clause(l: Lts):
    def clause(p, q, rel):
        return all(any((p1, q1) in rel for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return clause


def _reference_dstrong_clause(l: Lts):
    def clause(p, q, rel):
        return all(any((p1, q1) in rel and (q1, p1) in rel
                       for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return clause


def _reference_branching_clause(l: Lts):
    tc = tau_closure(l)

    def clause(p, q, rel):
        for label, p1 in l.out(p):
            if label.silent and (p1, q) in rel:
                continue
            if not any((p, q1) in rel and (p1, q2) in rel
                       for q1, q2 in tc.triples(q, label)):
                return False
        return True
    return clause


def _reference_dbranching_clause(l: Lts):
    l = reflexive_closure(l)
    tc = tau_closure(l)

    def clause(p, q, rel):
        return all(
            any((p, q1) in rel and (p1, q2) in rel and (q2, p1) in rel
                for q1, q2 in tc.triples(q, label))
            for label, p1 in l.out(p))
    return clause


REFERENCE = {
    "strong": (_reference_strong_clause, True),
    "dstrong": (_reference_dstrong_clause, False),
    "branching": (_reference_branching_clause, True),
    "dbranching": (_reference_dbranching_clause, False),
}


@st.composite
def tau_dense_ltss(draw):
    """Random LTSs of 2-10 states with up to three silent steps per state
    on average, so that silent cycles are common."""
    return random_lts(GenParams(
        n_states=draw(st.integers(2, 10)),
        visible_actions=draw(st.integers(1, 3)),
        visible_density=draw(st.floats(0.0, 2.5)),
        tau_density=draw(st.floats(0.0, 3.0)),
        seed=draw(st.integers(0, 2 ** 32))))


@settings(max_examples=150, deadline=None)
@given(tau_dense_ltss())
def test_the_oracles_match_the_pair_set_reference(l):
    for kind in KINDS:
        make_clause, symmetric = REFERENCE[kind]
        rel = bisimilarity(l, kind)
        assert rel.holds == _reference_refine(l.n_states, make_clause(l), symmetric).holds
        assert refine_once_violations(l, kind, rel) == []


def test_dense_silent_steps_make_silent_cycles():
    # The property's densest inputs: most have two states on a silent
    # cycle, each reaching the other.
    def has_cycle(l):
        forward = tau_closure(l).forward
        return any(forward[q] >> r & 1 and forward[r] >> q & 1
                   for q in range(l.n_states) for r in range(q))
    ltss = [random_lts(GenParams(n_states=6, tau_density=3.0, seed=seed)) for seed in range(10)]
    assert sum(map(has_cycle, ltss)) > 5


# ---------------------------------------------------------------------------
# Independence: the oracles read the LTS through a few analyses of their own
# and never through the apartness engines' primitives (preimage, reaching,
# the backward silent closure), so that the duality suites compare two
# independent computations.

BISIM_SOURCE = Path(bisim.__file__).read_text(encoding="utf-8")
LTS_NAMES = {"HashConsed", "Lts", "_bits", "per_lts", "reflexive_closure", "tau_closure"}
ATTRIBUTES = {"n_states", "holds", "out", "succ_masks", "silent", "forward", "bit_length"}


def test_the_oracles_import_nothing_from_the_engines():
    tree = ast.parse(BISIM_SOURCE)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("apartness" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert set(imported) == {"__future__", "lts"}
    assert imported["lts"] <= LTS_NAMES


def test_the_oracles_read_only_their_own_lts_analyses():
    used = {node.attr for node in ast.walk(ast.parse(BISIM_SOURCE))
            if isinstance(node, ast.Attribute)}
    assert used <= ATTRIBUTES, used - ATTRIBUTES
