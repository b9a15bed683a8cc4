"""Least-fixpoint engines for the four apartness relations.

All engines use round-based bottom-up saturation: each round evaluates the
rule body for every ordered pair against the previous round's relation, so
round stamps are deterministic and certificate extraction is well-founded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lts import TAU, ActionLabel, Lts, reflexive_closure, tau_closure


class InternalInvariantError(AssertionError):
    """A theorem-backed invariant failed inside an engine."""


class PairNotHeldError(ValueError):
    """Certificate requested for a pair that is not in the relation."""


@dataclass(frozen=True)
class DirectedPairRelation:
    """A boolean relation over ordered state pairs with per-pair round stamps
    (the saturation round at which each pair was first derived)."""

    n_states: int
    holds: frozenset  # of (p, q)
    rounds: dict = field(compare=False, hash=False, default_factory=dict)

    def __contains__(self, pair) -> bool:
        return pair in self.holds

    def symmetric(self, p: int, q: int) -> bool:
        return (p, q) in self.holds or (q, p) in self.holds

    def symmetric_closure(self) -> frozenset:
        return self.holds | frozenset((q, p) for p, q in self.holds)


def _saturate(n: int, body, symmetric: bool) -> DirectedPairRelation:
    holds: set = set()
    rounds: dict = {}
    rnd = 0
    while True:
        rnd += 1
        if rnd > n * n + 1:
            raise InternalInvariantError("fixpoint failed to stabilize")
        prev = frozenset(holds)
        fresh = []
        for p in range(n):
            for q in range(n):
                if (p, q) in holds:
                    continue
                if body(p, q, prev) or (symmetric and body(q, p, prev)):
                    if p == q:
                        raise InternalInvariantError(
                            f"rule fired on the diagonal pair ({p}, {p})")
                    fresh.append((p, q))
        if not fresh:
            break
        for pair in fresh:
            holds.add(pair)
            rounds[pair] = rnd
    return DirectedPairRelation(n, frozenset(holds), rounds)


def strong_apartness(l: Lts) -> DirectedPairRelation:
    """Least symmetric relation closed under the strong rule.

    Every label, the silent one included, is treated as an ordinary action.
    """
    def body(p, q, rel):
        return any(all((p1, q1) in rel for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return _saturate(l.n_states, body, symmetric=True)


def directed_strong_apartness(l: Lts) -> DirectedPairRelation:
    def body(p, q, rel):
        return any(all((p1, q1) in rel or (q1, p1) in rel
                       for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return _saturate(l.n_states, body, symmetric=False)


def branching_apartness(l: Lts) -> DirectedPairRelation:
    """Least symmetric relation closed under the one-rule branching system,
    computed over the silent-step reflexive closure (the relation is
    invariant under that closure)."""
    closed = reflexive_closure(l)
    tc = tau_closure(closed)

    def body(p, q, rel):
        return any(all((p, q1) in rel or (p1, q2) in rel
                       for q1, q2 in tc.triples(q, label))
                   for label, p1 in closed.out(p))
    return _saturate(l.n_states, body, symmetric=True)


def directed_branching_apartness(l: Lts) -> DirectedPairRelation:
    closed = reflexive_closure(l)
    tc = tau_closure(closed)

    def body(p, q, rel):
        return any(all((p, q1) in rel or (p1, q2) in rel or (q2, p1) in rel
                       for q1, q2 in tc.triples(q, label))
                   for label, p1 in closed.out(p))
    return _saturate(l.n_states, body, symmetric=False)


def directed_branching_apartness_nonreflexive(l: Lts) -> DirectedPairRelation:
    """The four-rule system on the raw LTS; agrees with
    :func:`directed_branching_apartness` on every LTS."""
    tc = tau_closure(l)

    def body(p, q, rel):
        def sym(x, y):
            return (x, y) in rel or (y, x) in rel
        tau_succ = l.succ(p, TAU)
        # Weakening along a silent step on the left.
        if any((p1, q) in rel for p1 in tau_succ):
            return True
        # Apart from every state in q's silent closure.
        if all(sym(p, q1) for q1 in tc.reach[q]):
            return True
        # Silent-step rule with the extra right-to-left hypothesis.
        for p1 in tau_succ:
            if (q, p1) in rel and all(
                    (p, q1) in rel or sym(p1, q2)
                    for q1, q2 in tc.triples(q, TAU)):
                return True
        # Visible-step rule.
        for label, p1 in l.out(p):
            if label.silent:
                continue
            if all((p, q1) in rel or sym(p1, q2)
                   for q1, q2 in tc.triples(q, label)):
                return True
        return False
    return _saturate(l.n_states, body, symmetric=False)


# ---------------------------------------------------------------------------
# Derivation certificates

TAG_LEFT = "left"
TAG_RIGHT_FWD = "rightFwd"
TAG_RIGHT_BWD = "rightBwd"


@dataclass(frozen=True)
class ChildStep:
    q_prime: int
    q_dprime: int
    tag: str
    sub: "Derivation"


@dataclass(frozen=True)
class Derivation:
    """A tree certificate of directed branching apartness.

    Each node records the witness step p -label-> p1 and, for every pair
    (q', q'') with q ->>tau q' -label-> q'', one sub-certificate: for the
    pair (p, q') (tag left), (p1, q'') (tag rightFwd), or (q'', p1)
    (tag rightBwd).
    """

    left: int
    right: int
    witness: tuple  # (p, label, p1)
    children: tuple  # of ChildStep

    def to_json(self, lts: Lts | None = None):
        name = lts.state_name if lts is not None else str
        return {
            "conclusion": {"left": name(self.left), "right": name(self.right),
                           "kind": "db"},
            "witness": {"from": name(self.witness[0]),
                        "label": str(self.witness[1]),
                        "to": name(self.witness[2])},
            "children": [
                {"qPrime": name(c.q_prime), "qDoublePrime": name(c.q_dprime),
                 "tag": c.tag, "sub": c.sub.to_json(lts)}
                for c in self.children
            ],
        }


def extract_derivation(l: Lts, rel: DirectedPairRelation, p: int, q: int) -> Derivation:
    """Materialize a derivation for a pair held by
    :func:`directed_branching_apartness`.

    Tie-breaks: among valid witness steps the smallest (label, target) in
    lexicographic order (silent label first, visible labels by name); among
    valid child tags, left before rightBwd before rightFwd.  Round stamps
    decrease strictly from node to child.
    """
    if (p, q) not in rel:
        raise PairNotHeldError(f"pair ({p}, {q}) is not in the relation")
    closed = reflexive_closure(l)
    tc = tau_closure(closed)
    memo: dict = {}

    def build(p: int, q: int) -> Derivation:
        if (p, q) in memo:
            return memo[(p, q)]
        bound = rel.rounds[(p, q)]

        def tag_for(p1, q1, q2):
            for tag, pair in ((TAG_LEFT, (p, q1)),
                              (TAG_RIGHT_BWD, (q2, p1)),
                              (TAG_RIGHT_FWD, (p1, q2))):
                if pair in rel.holds and rel.rounds[pair] < bound:
                    return tag, pair
            return None

        for label, p1 in closed.out(p):
            assignment = []
            for q1, q2 in tc.triples(q, label):
                choice = tag_for(p1, q1, q2)
                if choice is None:
                    break
                assignment.append((q1, q2, choice))
            else:
                children = tuple(
                    ChildStep(q1, q2, tag, build(*pair))
                    for q1, q2, (tag, pair) in assignment)
                node = Derivation(p, q, (p, label, p1), children)
                memo[(p, q)] = node
                return node
        raise InternalInvariantError(
            f"no witness step re-derives pair ({p}, {q}) at round {bound}")

    return build(p, q)


def check_tau_extension(l: Lts, rel: DirectedPairRelation) -> list:
    """Violations of the silent-extension theorem: p ->>tau p', q ->>tau q',
    (p', q) held but (p, q') not.  Always empty for a correct engine."""
    closed = reflexive_closure(l)
    reach = tau_closure(closed).reach
    violations = []
    for p in range(l.n_states):
        for q in range(l.n_states):
            for p1 in reach[p]:
                if (p1, q) not in rel.holds:
                    continue
                for q1 in reach[q]:
                    if (p, q1) not in rel.holds:
                        violations.append({"p": p, "pPrime": p1, "q": q, "qPrime": q1})
    return violations
