"""Greatest-fixpoint bisimilarity oracles.

Deliberately naive relation refinement (start from the full relation,
delete violating pairs until stable), on rows[p] and cols[q], the masks of
the q and p with (p, q) held: an algorithm structurally independent of the
apartness engines, so that the duality cross-checks are meaningful.  Each
oracle runs once per LTS.
"""

from __future__ import annotations

from .lts import HashConsed, Lts, _bits, per_lts, reflexive_closure, tau_closure


class BisimRelation(HashConsed):
    n_states: int
    holds: frozenset  # of (p, q)

    def __contains__(self, pair) -> bool:
        return pair in self.holds


def _refine(n: int, clause, symmetric: bool, order=None) -> BisimRelation:
    # A symmetric relation's columns are its rows: a deletion clears both pairs.
    rows = [(1 << n) - 1] * n
    cols = rows if symmetric else list(rows)
    pairs = order if order is not None else [(p, q) for p in range(n) for q in range(n)]
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if rows[p] >> q & 1 and not (clause(p, q, rows, cols) and
                                         (not symmetric or clause(q, p, rows, cols))):
                rows[p] &= ~(1 << q)
                cols[q] &= ~(1 << p)
                changed = True
    return BisimRelation(n, frozenset((p, q) for p in range(n) for q in _bits(rows[p])))


def _steps(l: Lts) -> list:
    """Per state, its steps: (the label's successor masks, target, silent?)."""
    return [[(l.succ_masks(label), p1, label.silent) for label, p1 in l.out(p)]
            for p in range(l.n_states)]


def _strong_clause(l: Lts):
    steps = _steps(l)

    def clause(p, q, rows, cols):
        for masks, p1, _ in steps[p]:
            if not masks[q] & rows[p1]:
                return False
        return True
    return clause


def _dstrong_clause(l: Lts):
    steps = _steps(l)

    def clause(p, q, rows, cols):
        for masks, p1, _ in steps[p]:
            if not masks[q] & rows[p1] & cols[p1]:
                return False
        return True
    return clause


def _branching_clause(l: Lts):
    steps, forward = _steps(l), tau_closure(l).forward

    def clause(p, q, rows, cols):
        reach = forward[q] & rows[p]  # the q1 with q ->>tau q1 and (p, q1) held
        for masks, p1, silent in steps[p]:
            target = rows[p1]
            if silent and target >> q & 1:
                continue
            x = reach
            while x:  # some q1 in reach with a step into target
                low = x & -x
                if masks[low.bit_length() - 1] & target:
                    break
                x ^= low
            else:
                return False
        return True
    return clause


def _dbranching_clause(l: Lts):
    l = reflexive_closure(l)
    steps, forward = _steps(l), tau_closure(l).forward

    def clause(p, q, rows, cols):
        reach = forward[q] & rows[p]
        for masks, p1, _ in steps[p]:
            target = rows[p1] & cols[p1]
            x = reach
            while x:
                low = x & -x
                if masks[low.bit_length() - 1] & target:
                    break
                x ^= low
            else:
                return False
        return True
    return clause


@per_lts
def strong_bisimilarity(l: Lts) -> BisimRelation:
    """Greatest symmetric relation with exact transfer of every step
    (silent steps treated as ordinary actions)."""
    return _refine(l.n_states, _strong_clause(l), symmetric=True)


@per_lts
def directed_strong_bisimilarity(l: Lts) -> BisimRelation:
    return _refine(l.n_states, _dstrong_clause(l), symmetric=False)


@per_lts
def branching_bisimilarity(l: Lts) -> BisimRelation:
    """Greatest symmetric branching bisimulation, via the classical
    two-clause transfer condition."""
    return _refine(l.n_states, _branching_clause(l), symmetric=True)


@per_lts
def directed_branching_bisimilarity(l: Lts) -> BisimRelation:
    return _refine(l.n_states, _dbranching_clause(l), symmetric=False)


_ENGINES = {
    "strong": (strong_bisimilarity, _strong_clause, True),
    "dstrong": (directed_strong_bisimilarity, _dstrong_clause, False),
    "branching": (branching_bisimilarity, _branching_clause, True),
    "dbranching": (directed_branching_bisimilarity, _dbranching_clause, False),
}


def bisimilarity(l: Lts, kind: str) -> BisimRelation:
    if kind not in _ENGINES:
        raise KeyError(f"unknown bisimilarity kind: {kind!r}")
    return _ENGINES[kind][0](l)


def refine_once_violations(l: Lts, kind: str, rel: BisimRelation) -> list:
    """Pairs a further deletion pass would remove; empty iff ``rel`` is a
    bisimulation of its kind."""
    _, make_clause, symmetric = _ENGINES[kind]
    clause, rows, cols = make_clause(l), [0] * rel.n_states, [0] * rel.n_states
    for p, q in rel.holds:
        rows[p] |= 1 << q
        cols[q] |= 1 << p
    return [(p, q) for p, q in sorted(rel.holds)
            if not clause(p, q, rows, cols) or (symmetric and not clause(q, p, rows, cols))]
