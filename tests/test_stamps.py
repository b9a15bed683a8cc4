"""The saturation kernel's bookkeeping: the packed transpose that takes a
dense round's fresh pairs into the columns, the compact stamp cells, and
the two paths of a round, which must agree pair for pair."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from bbapart import apartness as ap
from bbapart.lts import Lts

from conftest import layers
from test_engine_corpus import a_chains
from test_kernel import ENGINES, ltss

ALWAYS_DENSE, NEVER_DENSE = 0, 1 << 62


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 130), st.floats(0, 1), st.integers(0, 2**32 - 1))
@example(1, 1.0, 0)
@example(7, 1.0, 0)
@example(8, 0.5, 1)
@example(9, 1.0, 0)
@example(64, 0.0, 0)
@example(65, 1.0, 0)
@example(130, 0.3, 2)
def test_the_packed_transpose_is_the_per_pair_column_update(n, density, seed):
    rng = random.Random(seed)
    rows = [sum(1 << q for q in range(n) if rng.random() < density)
            for _ in range(n)]
    cols = [0] * n
    for p, f in enumerate(rows):
        for q in range(n):
            if f >> q & 1:
                cols[q] |= 1 << p
    assert ap._transpose(rows, n) == cols


def _with_crossover(dense_at, l):
    """Every engine's relation on a fresh copy of ``l``, with the kernel's
    crossover set to ``dense_at``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ap, "_DENSE", dense_at)
        copy = Lts(l.n_states, l.transitions, l.initial)
        return [engine(copy) for engine, _ in ENGINES]


@settings(max_examples=300, deadline=None)
@given(ltss())
def test_dense_and_sparse_rounds_give_the_same_rows_and_stamps(l):
    dense, sparse = _with_crossover(ALWAYS_DENSE, l), _with_crossover(NEVER_DENSE, l)
    for (engine, reference), d, s in zip(ENGINES, dense, sparse):
        assert d.rows == s.rows and d.cells == s.cells, engine.__name__
        holds, rounds = reference(l)
        assert d.holds == holds and d.rounds == rounds, engine.__name__


@pytest.mark.parametrize("dense_at", [ALWAYS_DENSE, NEVER_DENSE])
def test_both_paths_reject_a_rule_that_fires_on_the_diagonal(monkeypatch, dense_at):
    monkeypatch.setattr(ap, "_DENSE", dense_at)
    with pytest.raises(ap.InternalInvariantError, match=r"diagonal pair \(1, 1\)"):
        ap._saturate(3, lambda rows, cols, *parts: ([0b010, 0b010, 0] for _ in parts),
                     symmetric=False)


def test_deep_rounds_keep_one_stamp_cell_per_pair():
    # 303 states, 151 rounds.  A layer of rows per round would take 2.5 MB
    # here; the stamps take 2 bytes per pair, 184 kB.
    n = 150
    l = a_chains(n)
    tracemalloc.start()
    try:
        rel = ap.directed_branching_apartness(l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel.rounds[(n + 1, 0)] == n + 1 and len(layers(rel)) == n + 1
    assert peak < 1_500_000


def test_a_relation_without_pairs_has_no_cells():
    l = Lts(3, frozenset())
    for engine, _ in ENGINES:
        rel = engine(l)
        assert len(rel.cells) == 0
        assert rel.rounds == {} and layers(rel) == ()


@pytest.mark.parametrize("dense_at", [ALWAYS_DENSE, NEVER_DENSE])
def test_stamps_past_two_bytes_widen_the_cells(monkeypatch, dense_at):
    # Round 65,536 widens the cells to 4 bytes.  A run that long takes
    # seconds, so the widening round is lowered to 4 here, in a run that
    # adds one pair per round: the cells widen there and keep the older
    # stamps.
    assert ap._WIDE == 1 << 16
    assert array("H", [ap._WIDE - 1])[0] == ap._WIDE - 1
    with pytest.raises(OverflowError):
        array("H", [ap._WIDE])
    monkeypatch.setattr(ap, "_DENSE", dense_at)
    monkeypatch.setattr(ap, "_WIDE", 4)
    n = 257
    pairs = iter([(0, q) for q in range(1, 7)])

    def rule(rows, cols, *parts):
        p, q = next(pairs)
        fire = [0] * n
        fire[p] = 1 << q
        for _ in parts:
            yield fire
    rel = ap._saturate(n, rule, symmetric=False, goal=((0, 6),))
    assert rel.cells.typecode == "I"
    assert rel.cells[:8].tolist() == [0, 1, 2, 3, 4, 5, 6, 0]
    assert rel.rows[0] == 0b1111110
