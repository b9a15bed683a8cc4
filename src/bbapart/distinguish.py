"""Distinguishing-formula synthesis.

Two synthesizers produce P-formulas that separate a pair of states: one
walks a directed-branching-apartness derivation certificate, the other
transforms an arbitrary distinguishing HMLU formula via a chain of
silent-step stages along a diamond witness path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apartness import (
    TAG_LEFT,
    TAG_RIGHT_BWD,
    TAG_RIGHT_FWD,
    Derivation,
    InternalInvariantError,
)
from .logic import (
    And,
    Diamond,
    Formula,
    Neg,
    PBot,
    PDiamond,
    PFormula,
    PTop,
    SatEvaluator,
    Top,
    PAnd,
    POr,
    canonical_key,
    diamond_witness,
    p_and_all,
    p_embed,
    p_or_all,
    _p_sat,
    sort_key,
)
from .lts import TAU, Lts, reflexive_closure, tau_closure


class InvalidDerivationError(ValueError):
    """The supplied derivation fails re-validation against the LTS."""


class NotDistinguishingError(ValueError):
    """Synthesis from a formula that separates neither direction."""


DIRECTION_LEFT = "leftHolds"
DIRECTION_RIGHT = "rightHolds"
DIRECTION_NONE = "none"


@dataclass(frozen=True)
class VerifyResult:
    distinguishes: bool
    direction: str


@dataclass(frozen=True)
class ChainStage:
    """One stage of the silent-step chain: the per-state positive conjuncts
    and negative disjuncts selected from the realized formula set."""

    index: int
    delta_plus: tuple  # of PFormula, canonically sorted
    delta_minus: tuple  # of PFormula, canonically sorted


@dataclass(frozen=True)
class RightSide:
    """The right-hand side of the final visible step: positive conjuncts
    and negated conjuncts."""

    pos: tuple  # of PFormula
    neg: tuple  # of PFormula


def verify_distinguishes(l: Lts, phi: Formula, p: int, q: int) -> VerifyResult:
    """Evaluate ``phi`` on both states (over the silent-step reflexive
    closure) and report which side satisfies it."""
    ev = SatEvaluator(reflexive_closure(l))
    p_in, q_in = ev.holds(p, phi), ev.holds(q, phi)
    if p_in and not q_in:
        return VerifyResult(True, DIRECTION_LEFT)
    if q_in and not p_in:
        return VerifyResult(True, DIRECTION_RIGHT)
    return VerifyResult(False, DIRECTION_NONE)


def _sorted_dedup(items) -> tuple:
    """Canonical subterm order with structural duplicates removed."""
    out, seen = [], set()
    for g in sorted(items, key=sort_key):
        key = canonical_key(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# Derivation -> P-formula


def formula_from_derivation(l: Lts, d: Derivation) -> PFormula:
    """Turn a directed-branching-apartness derivation for (p, q) into a
    P-formula satisfied by p and not by q.

    Each node becomes Delta<alpha>Psi: Delta conjoins the formulas of the
    left-tagged children, Psi's positive conjuncts come from the
    rightFwd-tagged children and its negated conjuncts from the
    rightBwd-tagged ones.  The derivation is re-validated first.
    """
    closed = reflexive_closure(l)
    tc = tau_closure(closed)

    def build(node: Derivation) -> PFormula:
        p, label, p1 = node.witness
        if p != node.left:
            raise InvalidDerivationError(
                f"witness starts at {p}, conclusion's left state is {node.left}")
        if (p, label, p1) not in closed.transitions:
            raise InvalidDerivationError(
                f"witness step {(p, str(label), p1)} is not a transition")
        expected = set(tc.triples(node.right, label))
        covered = {(c.q_prime, c.q_dprime) for c in node.children}
        if covered != expected or len(node.children) != len(expected):
            raise InvalidDerivationError(
                f"children cover {sorted(covered)}, need {sorted(expected)}")
        lefts, pos, neg = [], [], []
        for c in node.children:
            if c.tag == TAG_LEFT:
                want = (node.left, c.q_prime)
                lefts.append(c)
            elif c.tag == TAG_RIGHT_FWD:
                want = (p1, c.q_dprime)
                pos.append(c)
            elif c.tag == TAG_RIGHT_BWD:
                want = (c.q_dprime, p1)
                neg.append(c)
            else:
                raise InvalidDerivationError(f"unknown child tag {c.tag!r}")
            got = (c.sub.left, c.sub.right)
            if got != want:
                raise InvalidDerivationError(
                    f"{c.tag} child proves {got}, expected {want}")
        delta = p_and_all(_sorted_dedup(build(c.sub) for c in lefts))
        return PDiamond(delta, label,
                        _sorted_dedup(build(c.sub) for c in pos),
                        _sorted_dedup(build(c.sub) for c in neg))

    return build(d)


# ---------------------------------------------------------------------------
# HMLU formula -> P-formula


def _formula_size(f: Formula) -> int:
    if isinstance(f, Top):
        return 1
    if isinstance(f, Neg):
        return 1 + _formula_size(f.child)
    if isinstance(f, And):
        return 1 + _formula_size(f.left) + _formula_size(f.right)
    if isinstance(f, Diamond):
        return 1 + _formula_size(f.left) + _formula_size(f.right)
    raise TypeError(f)


def pformula_from_hmlu(l: Lts, phi: Formula, p: int, q: int) -> PFormula:
    """Synthesize a P-formula separating p and q from any distinguishing
    HMLU formula.

    Sub-distinguishers for the diamond's left and right sides are realized
    relative to the LTS at hand: for every (satisfier, non-satisfier) pair
    a recursive call on the subformula yields one P-formula, deduplicated
    into the sets that drive the stage chain.  Raises
    :class:`NotDistinguishingError` when ``phi`` separates neither
    direction.
    """
    closed = reflexive_closure(l)
    ev = SatEvaluator(closed)
    memo: dict = {}
    psat: dict = {}
    guard = _formula_size(phi) + 1

    def th(g: PFormula) -> frozenset:
        return _p_sat(closed, g, psat)

    def synth(f: Formula, p: int, q: int, depth: int) -> PFormula:
        if depth > guard:
            raise InternalInvariantError("synthesis recursion exceeded formula size")
        # Normalize so that p satisfies f and q does not.
        if not ev.holds(p, f):
            p, q = q, p
        if not ev.holds(p, f) or ev.holds(q, f):
            raise NotDistinguishingError(
                f"formula does not distinguish states {p} and {q}")
        key = (f, p, q)
        if key in memo:
            return memo[key]
        if isinstance(f, Neg):
            result = synth(f.child, q, p, depth + 1)
        elif isinstance(f, And):
            conj = f.left if not ev.holds(q, f.left) else f.right
            result = synth(conj, p, q, depth + 1)
        elif isinstance(f, Diamond):
            result = synth_diamond(f, p, q, depth)
        else:
            raise InternalInvariantError(f"unexpected distinguishing shape: {f}")
        memo[key] = result
        return result

    def realize(sub: Formula, depth: int) -> tuple:
        """Per-pair distinguishers for a subformula, over all pairs of a
        satisfying and a non-satisfying state."""
        sat = ev.set(sub)
        out = []
        for r in sorted(sat):
            for s in range(closed.n_states):
                if s not in sat:
                    out.append(synth(sub, r, s, depth + 1))
        return _sorted_dedup(out)

    def synth_diamond(f: Diamond, p: int, q: int, depth: int) -> PFormula:
        w = diamond_witness(closed, p, f.left, f.label, f.right, ev)
        if w is None:
            raise InternalInvariantError("no witness for a satisfied diamond")
        p_delta = realize(f.left, depth)
        p_psi = realize(f.right, depth)
        stages = tuple(
            ChainStage(i + 1,
                       tuple(g for g in p_delta if r in th(g)),
                       tuple(g for g in p_delta if r not in th(g)))
            for i, r in enumerate(w.path))
        right = RightSide(tuple(g for g in p_psi if w.post in th(g)),
                          tuple(g for g in p_psi if w.post not in th(g)))
        # Phi_n carries the visible step; each earlier stage wraps it in a
        # silent step constrained by the next stage's disjuncts.
        phi_i = PDiamond(p_and_all(stages[-1].delta_plus), f.label,
                         right.pos, right.neg)
        for i in range(len(stages) - 2, -1, -1):
            phi_i = PDiamond(p_and_all(stages[i].delta_plus), TAU,
                             (phi_i,), stages[i + 1].delta_minus)
        delta_minus_1 = p_or_all(stages[0].delta_minus)
        if q in th(delta_minus_1):
            return delta_minus_1
        delta_plus_1 = p_and_all(stages[0].delta_plus)
        if q not in th(delta_plus_1):
            return delta_plus_1
        return phi_i

    result = synth(phi, p, q, 0)
    check = verify_distinguishes(l, p_embed(result), p, q)
    if not check.distinguishes:
        raise InternalInvariantError("synthesized formula fails to distinguish")
    return result


# ---------------------------------------------------------------------------
# Simplification


def _canon_multiset(items) -> tuple:
    return tuple(sorted(canonical_key(g) for g in items))


def _structural_simplify(f: PFormula, incoming_neg: tuple) -> PFormula:
    if isinstance(f, (PTop, PBot)):
        return f
    if isinstance(f, (PAnd, POr)):
        left = _structural_simplify(f.left, ())
        right = _structural_simplify(f.right, ())
        unit = PTop if isinstance(f, PAnd) else PBot
        if isinstance(left, unit):
            return right
        if isinstance(right, unit):
            return left
        return type(f)(left, right)
    left = _structural_simplify(f.left, ())
    neg = tuple(_structural_simplify(g, ()) for g in f.neg
                if not isinstance(g, PBot))
    pos = tuple(_structural_simplify(g, neg) for g in f.pos
                if not isinstance(g, PTop))
    # Chain-stage collapse: a silent layer whose delta-plus matches its
    # single continuation's and whose delta-minus matches the enclosing
    # layer's is redundant.
    if (f.label.silent and len(pos) == 1 and isinstance(pos[0], PDiamond)
            and canonical_key(left) == canonical_key(pos[0].left)
            and _canon_multiset(neg) == _canon_multiset(incoming_neg)):
        return pos[0]
    return PDiamond(left, f.label, pos, neg)


def _semantic_collapse(l: Lts, f: PFormula, memo: dict) -> PFormula:
    if isinstance(f, (PTop, PBot)):
        return f
    if isinstance(f, (PAnd, POr)):
        return type(f)(_semantic_collapse(l, f.left, memo),
                       _semantic_collapse(l, f.right, memo))
    out = PDiamond(_semantic_collapse(l, f.left, memo), f.label,
                   tuple(_semantic_collapse(l, g, memo) for g in f.pos),
                   tuple(_semantic_collapse(l, g, memo) for g in f.neg))
    while (out.label.silent and len(out.pos) == 1
           and isinstance(out.pos[0], PDiamond)
           and canonical_key(out.left) == canonical_key(out.pos[0].left)
           and _p_sat(l, out, memo) == _p_sat(l, out.pos[0], memo)):
        out = out.pos[0]
    return out


def simplify(f: PFormula, l: Lts | None = None) -> PFormula:
    """Drop unit conjuncts/disjuncts and redundant silent-step layers.

    Purely structural by default; when an LTS is supplied, additionally
    collapses silent layers whose removal is satisfaction-equivalent on
    that LTS (checked by re-evaluation).
    """
    out = _structural_simplify(f, ())
    if l is not None:
        closed = reflexive_closure(l)
        out = _semantic_collapse(closed, out, {})
    return out
