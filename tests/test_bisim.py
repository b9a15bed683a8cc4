import random

import pytest

from bbapart import bisim
from bbapart.bisim import (
    bisimilarity,
    branching_bisimilarity,
    directed_branching_bisimilarity,
    directed_strong_bisimilarity,
    refine_once_violations,
    strong_bisimilarity,
)
from bbapart.generate import GenParams, random_lts

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
