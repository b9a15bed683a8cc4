"""Greatest-fixpoint bisimilarity oracles.

Deliberately naive relation refinement (start from the full relation,
delete violating pairs until stable): the point is an algorithm that is
structurally independent of the apartness engines, so that the duality
cross-checks are meaningful.  Each oracle runs once per LTS.
"""

from __future__ import annotations

from .lts import HashConsed, Lts, per_lts, reflexive_closure, tau_closure


class BisimRelation(HashConsed):
    n_states: int
    holds: frozenset  # of (p, q)

    def __contains__(self, pair) -> bool:
        return pair in self.holds


def _refine(n: int, clause, symmetric: bool, order=None) -> BisimRelation:
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


def _strong_clause(l: Lts):
    def clause(p, q, rel):
        return all(any((p1, q1) in rel for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return clause


def _dstrong_clause(l: Lts):
    def clause(p, q, rel):
        return all(any((p1, q1) in rel and (q1, p1) in rel
                       for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return clause


def _branching_clause(l: Lts):
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


def _dbranching_clause(l: Lts):
    l = reflexive_closure(l)
    tc = tau_closure(l)

    def clause(p, q, rel):
        return all(
            any((p, q1) in rel and (p1, q2) in rel and (q2, p1) in rel
                for q1, q2 in tc.triples(q, label))
            for label, p1 in l.out(p))
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
    clause, held = make_clause(l), rel.holds
    return [(p, q) for p, q in sorted(held)
            if not clause(p, q, held) or (symmetric and not clause(q, p, held))]

