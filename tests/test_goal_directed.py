"""Goal-directed fixpoints: a pair query runs only the rounds its pairs
need, and each query is one run of its own.

A query's answer must be the one the whole relation gives, its rounds must
be a prefix of the whole relation's, and a later run on the same LTS must
leave it as it was.
"""

import pytest
from hypothesis import given, settings

from bbapart import apartness as ap
from bbapart import validate
from bbapart.generate import GenParams, random_lts
from bbapart.lts import Lts

from conftest import layers
from test_kernel import A, ltss

ENGINES = {**validate._APART_ENGINES,
           "nonreflexive": ap.directed_branching_apartness_nonreflexive}
CHECKS = [(kind, False) for kind in validate.KINDS] + [("dbranching", True)]


def fresh(l: Lts) -> Lts:
    """A copy of ``l`` with nothing computed yet."""
    return Lts(l.n_states, l.transitions)


def distinguish(l: Lts, p: int, q: int):
    try:
        result = validate.distinguish_pair(l, p, q)
    except validate.NotApartError as exc:
        return str(exc)
    return result["formula"], result["derivation"].to_json(l)


def answers(l: Lts, pairs) -> list:
    return [(validate.check_pair(l, kind, p, q, nonreflexive),
             distinguish(l, p, q))
            for p, q in pairs for kind, nonreflexive in CHECKS]


@settings(max_examples=60, deadline=None)
@given(ltss())
def test_goal_directed_answers_equal_full_relation_answers(l):
    full = fresh(l)
    for engine in ENGINES.values():
        engine(full)
    pairs = [(p, q) for p in range(l.n_states) for q in range(l.n_states)]
    expected = answers(full, pairs)
    # Each query on an LTS of its own, then all of them on one LTS, which
    # keeps the rules and relations the earlier ones left.
    singles = []
    for pair in pairs:
        singles += answers(fresh(l), [pair])
    assert singles == expected
    assert answers(fresh(l), pairs) == expected


def count_rounds(monkeypatch) -> list:
    """Replace the rule builders so each rule call (one round) is counted."""
    rounds = []
    for name in ("_step_rule", "_four_rule"):
        build = getattr(ap, name)

        def counted(*args, build=build, **kwargs):
            rule = build(*args, **kwargs)

            def counted_rule(rows, cols):
                rounds.append(None)
                return rule(rows, cols)
            return counted_rule
        monkeypatch.setattr(ap, name, counted)
    return rounds


@pytest.mark.parametrize("kind", list(ENGINES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_full_run_resumes_a_query(monkeypatch, kind, seed):
    # The full run after a query starts afresh and leaves the query's
    # prefix relation as it was.
    l = random_lts(GenParams(n_states=16, seed=seed))
    rounds = count_rounds(monkeypatch)
    whole = ENGINES[kind](fresh(l))
    assert len(rounds) == len(layers(whole)) + 1  # the last round finds nothing
    p, row = next((p, row) for p, row in enumerate(layers(whole)[0]) if row)
    first = (p, (row & -row).bit_length() - 1)
    for goal in [(first,), ((0, 1), (1, 0)), ((5, 5),)]:
        same = fresh(l)
        prefix = ENGINES[kind](same, goal)
        rows, cells = prefix.rows, prefix.cells.tolist()
        assert layers(prefix) == layers(whole)[:len(layers(prefix))]
        if goal == (first,):
            assert len(layers(prefix)) == 1 < len(layers(whole))
        assert ENGINES[kind](same).rows == whole.rows
        assert layers(ENGINES[kind](same)) == layers(whole)
        assert prefix.rows == rows and prefix.cells.tolist() == cells


def a_chains(n: int) -> Lts:
    # Top n + 1 has n + 1 a-steps to deadlock, tops 0 and n + 2 have n.
    return Lts(2 * n + 3, frozenset({(i, A, i + 1) for i in range(n)}
                                    | {(n + 1 + i, A, n + 2 + i) for i in range(n + 1)}))


def test_a_query_on_a_chains_runs_the_rounds_its_pair_needs(monkeypatch):
    n = 12
    rounds = count_rounds(monkeypatch)
    validate.check_pair(a_chains(n), "dbranching", n + 1, 0)
    assert len(rounds) == n + 1
    del rounds[:]
    ap.directed_branching_apartness(a_chains(n))
    whole = len(rounds)
    del rounds[:]
    assert not validate.check_pair(a_chains(n), "dbranching", n + 2, 0)["apart"]
    assert len(rounds) == whole == n + 2


def test_a_full_relation_is_never_a_prefix():
    l = random_lts(GenParams(n_states=16, seed=1))
    whole = ap.directed_branching_apartness(fresh(l))
    p, row = next((p, row) for p, row in enumerate(layers(whole)[0]) if row)
    q = (row & -row).bit_length() - 1
    prefix = ap.directed_branching_apartness(l, ((p, q),))
    assert len(layers(prefix)) == 1 < len(layers(whole))
    assert ap.directed_branching_apartness(l, ((p, q),)) is prefix
    full = ap.directed_branching_apartness(l)
    assert layers(full) == layers(whole)
    assert ap.directed_branching_apartness(l) is full
