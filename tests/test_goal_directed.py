"""Goal-directed fixpoints: a pair query runs only the rounds its pairs
need, and each query is one run of its own.

A query's answer must be the one the whole relation gives, its rounds
before the last must be the whole relation's, its last round must keep only
the new pairs of the rows that decide the goal, and a later run on the same
LTS must leave it as it was.
"""

import pytest
from hypothesis import given, settings

from bbapart import apartness as ap
from bbapart import validate
from bbapart.distinguish import formula_from_derivation
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
    except validate.NotApartError:
        return None
    return result["formula"], result["derivation"].to_json(l)


def answers(l: Lts, pairs) -> list:
    return [(validate.check_pair(l, kind, p, q, nonreflexive),
             distinguish(l, p, q))
            for p, q in pairs for kind, nonreflexive in CHECKS]


def full_answers(l: Lts, pairs) -> list:
    """``answers`` read off the full relations: each verdict from the
    engine that ``check_pair`` asks, each certificate extracted from the
    full directed relation and each formula synthesised from it."""
    db = ap.directed_branching_apartness(l)

    def check(kind, nonreflexive, p, q):
        apart = ENGINES["nonreflexive" if nonreflexive else
                        "dbranching" if kind == "branching" else kind](l)
        forward, backward = (p, q) in apart, (q, p) in apart
        if kind == "branching":
            forward = backward = forward or backward
        result = {"kind": kind, "apart": forward, "apartReverse": backward,
                  "bisimilar": not forward}
        if forward and kind in ("branching", "dbranching"):
            pair = (p, q) if (p, q) in db else (q, p)
            result["derivation"] = ap.extract_derivation(l, db, *pair).to_json(l)
        return result

    def distinguished(p, q):
        if (p, q) not in db:
            return None
        derivation = ap.extract_derivation(l, db, p, q)
        return formula_from_derivation(l, derivation), derivation.to_json(l)
    return [(check(kind, nonreflexive, p, q), distinguished(p, q))
            for p, q in pairs for kind, nonreflexive in CHECKS]


@settings(max_examples=60, deadline=None)
@given(ltss())
def test_goal_directed_answers_equal_full_relation_answers(l):
    pairs = [(p, q) for p in range(l.n_states) for q in range(l.n_states)]
    expected = full_answers(fresh(l), pairs)
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

            def counted_rule(rows, cols, *parts):
                rounds.append(None)
                return rule(rows, cols, *parts)
            return counted_rule
        monkeypatch.setattr(ap, name, counted)
    return rounds


def deciding(kind: str, goal) -> set:
    """The rows that decide a goal: the row of p for each goal pair (p, q),
    and for the symmetric kinds the row of q as well."""
    symmetric = kind in ("strong", "branching")
    return {x for pair in goal for x in (pair if symmetric else pair[:1])}


def symmetric_last_layer(l: Lts, kind: str, before, rows_of: set) -> tuple:
    """The new pairs that the rule of the symmetric ``kind`` fires in the
    rows ``rows_of`` after the layers ``before``, with their transposes."""
    n = l.n_states
    rows = [0] * n
    for layer in before:
        rows = [r | x for r, x in zip(rows, layer)]
    fire = next(ap._step_rule(l, branching=kind == "branching")(rows, rows, rows_of))
    new = [fire[p] & ~rows[p] & ((1 << n) - 1) if p in rows_of else 0 for p in range(n)]
    return tuple(f | sum(1 << x for x in range(n) if new[x] >> p & 1)
                 for p, f in enumerate(new))


@pytest.mark.parametrize("kind", list(ENGINES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_full_run_resumes_a_query(monkeypatch, kind, seed):
    # A query's layers before its last are the whole relation's.  The last
    # round of a held goal keeps only the new pairs of the deciding rows
    # (with their transposes for a symmetric kind), each with the stamp it
    # has in the whole relation.  The full run after a query starts afresh
    # and leaves the query's relation as it was.
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
        *before, last = layers(prefix)
        k = len(before)
        assert tuple(before) == layers(whole)[:k]
        if not all(pair in prefix for pair in goal):
            assert layers(prefix) == layers(whole)
        elif kind in ("strong", "branching"):
            # A deciding row's cell in the whole layer may be the transpose
            # of another row's new pair, which the last round never sees.
            assert last == symmetric_last_layer(l, kind, before, deciding(kind, goal))
            assert all(x & ~w == 0 for x, w in zip(last, layers(whole)[k]))
        else:
            assert last == tuple(row if p in deciding(kind, goal) else 0
                                 for p, row in enumerate(layers(whole)[k]))
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


def record_parts(monkeypatch) -> list:
    """Replace ``_step_rule`` so each part of the rows that the kernel asks
    a rule for is recorded, sorted, as the kernel asks for it."""
    asked = []
    build = ap._step_rule

    def recorded(*args, **kwargs):
        rule = build(*args, **kwargs)

        def recorded_rule(rows, cols, *parts):
            step = rule(rows, cols, *parts)
            for part in parts:
                fire = next(step)
                asked.append(sorted(part))
                yield fire
        return recorded_rule
    monkeypatch.setattr(ap, "_step_rule", recorded)
    return asked


@pytest.mark.parametrize("kind", ["strong", "dbranching"])
def test_a_held_goal_s_last_round_asks_for_the_deciding_rows_only(monkeypatch, kind):
    n = 12
    asked = record_parts(monkeypatch)
    rel = ENGINES[kind](a_chains(n), ((n + 1, 0),))
    rows = sorted(deciding(kind, ((n + 1, 0),)))
    assert rows == ([0, n + 1] if kind == "strong" else [n + 1])
    others = [p for p in range(2 * n + 3) if p not in rows]
    assert asked == [rows, others] * n + [rows]
    assert rel.rounds[(n + 1, 0)] == ENGINES[kind](a_chains(n)).rounds[(n + 1, 0)] == n + 1


@pytest.mark.parametrize("kind", ["strong", "branching"])
def test_a_symmetric_goal_held_by_its_transposed_row_ends_its_round(monkeypatch, kind):
    # 1 -a-> 2; 0 and 2 have no step.  In round 1, the row of 1 fires at 0
    # and the row of 0 does not fire at 1, so only the transposed row holds
    # the goal (0, 1).
    l = Lts(3, frozenset({(1, A, 2)}))
    fire = next(ap._step_rule(l, branching=kind == "branching")([0] * 3, [0] * 3, range(3)))
    assert fire[1] >> 0 & 1 and not fire[0] >> 1 & 1
    asked = record_parts(monkeypatch)
    rel = ENGINES[kind](l, ((0, 1),))
    assert asked == [[0, 1]]
    assert rel.rounds == {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}


@pytest.mark.parametrize("kind", list(ENGINES))
def test_a_goal_never_held_runs_the_whole_fixpoint(monkeypatch, kind):
    # Tops 0 and n + 2 each have n a-steps, so they are bisimilar in every
    # kind; no relation holds a diagonal pair.
    n = 6
    rounds = count_rounds(monkeypatch)
    whole = ENGINES[kind](a_chains(n))
    whole_rounds = len(rounds)
    for goal in [((5, 5),), ((n + 2, 0), (0, n + 2))]:
        del rounds[:]
        rel = ENGINES[kind](a_chains(n), goal)
        assert not any(pair in rel for pair in goal)
        assert len(rounds) == whole_rounds
        assert rel.rows == whole.rows and rel.cells == whole.cells


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
