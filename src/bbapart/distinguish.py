"""Distinguishing-formula synthesis.

Two synthesizers produce P-formulas that separate a pair of states: one
walks a directed-branching-apartness derivation certificate, the other
transforms an arbitrary distinguishing HMLU formula via a chain of
silent-step stages along a diamond witness path.  Both are one bottom-up
walk over a DAG (the derivation, or the formula), with no recursion.
"""

from __future__ import annotations

from functools import cache, cmp_to_key

from .apartness import (
    TAG_LEFT,
    TAG_RIGHT_BWD,
    TAG_RIGHT_FWD,
    Derivation,
    InternalInvariantError,
)
from .logic import (
    And,
    Formula,
    Neg,
    PBot,
    PDiamond,
    PFormula,
    PTop,
    SatEvaluator,
    PAnd,
    POr,
    _children,
    _compare_keys,
    _p_children,
    canonical_key,
    diamond_witness,
    p_and_all,
    p_embed,
    p_or_all,
    sort_key,
)
from .lts import TAU, HashConsed, Lts, _bits, _fold, reflexive_closure, tau_closure


class InvalidDerivationError(ValueError):
    """The supplied derivation fails re-validation against the LTS."""


class NotDistinguishingError(ValueError):
    """Synthesis from a formula that separates neither direction."""


class FormulaTooDeepError(ValueError):
    """Synthesis from a formula nested deeper than
    :data:`MAX_SYNTHESIS_DEPTH`."""


# HMLU -> P synthesis nests each diamond's realized sides in every stage, so
# its time and output outgrow the formula: nested `<a>` on an a-chain takes
# 0.23 s for 0.47 MB at depth 150 and 5.4 s for 7.3 MB at 600 (Python 3.11,
# one Xeon core).  Deeper formulas are refused to keep answers small.
MAX_SYNTHESIS_DEPTH = 200


DIRECTION_LEFT = "leftHolds"
DIRECTION_RIGHT = "rightHolds"
DIRECTION_NONE = "none"


class VerifyResult(HashConsed):
    distinguishes: bool
    direction: str


def verify_distinguishes(l: Lts, phi: Formula, p: int, q: int) -> VerifyResult:
    """Evaluate ``phi`` on both states (over the silent-step reflexive
    closure) and report which side satisfies it."""
    ev = SatEvaluator.of(l)
    p_in, q_in = ev.holds(p, phi), ev.holds(q, phi)
    if p_in and not q_in:
        return VerifyResult(True, DIRECTION_LEFT)
    if q_in and not p_in:
        return VerifyResult(True, DIRECTION_RIGHT)
    return VerifyResult(False, DIRECTION_NONE)


def _dedup(items) -> tuple:
    """``items`` in order, less each one AC-equal to an earlier one."""
    first: dict = {}
    for g in items:
        first.setdefault(canonical_key(g), g)
    return tuple(first.values())


def _sorted_dedup(items: list) -> tuple:
    """Canonical subterm order with structural duplicates removed."""
    try:
        ordered = sorted(items, key=sort_key)
    except RecursionError:  # keys too deep for the built-in comparison
        ordered = sorted(items, key=cmp_to_key(
            lambda f, g: _compare_keys(sort_key(f), sort_key(g))))
    return _dedup(ordered)


# ---------------------------------------------------------------------------
# Derivation -> P-formula


def formula_from_derivation(l: Lts, d: Derivation,
                            memo: dict | None = None) -> PFormula:
    """Turn a directed-branching-apartness derivation for (p, q) into a
    P-formula satisfied by p and not by q.

    Each node becomes Delta<alpha>Psi: Delta conjoins the formulas of the
    left-tagged children, Psi's positive conjuncts come from the
    rightFwd-tagged children and its negated conjuncts from the
    rightBwd-tagged ones.  The derivation is re-validated first.  Each
    node of the derivation DAG is validated and synthesised once, so time
    is linear in the DAG, not in the tree it unfolds to.  Pass the same
    ``memo`` (a dict, from a node to its formula) to calls on one LTS to
    share nodes between derivations.
    """
    closed = reflexive_closure(l)
    tc = tau_closure(closed)

    def premises(node: Derivation) -> list:
        """Validate ``node``; its sub-derivations, left-tagged first, then
        rightFwd, then rightBwd."""
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
        groups = {TAG_LEFT: [], TAG_RIGHT_FWD: [], TAG_RIGHT_BWD: []}
        for c in node.children:
            if c.tag == TAG_LEFT:
                want = (node.left, c.q_prime)
            elif c.tag == TAG_RIGHT_FWD:
                want = (p1, c.q_dprime)
            elif c.tag == TAG_RIGHT_BWD:
                want = (c.q_dprime, p1)
            else:
                raise InvalidDerivationError(f"unknown child tag {c.tag!r}")
            got = (c.sub.left, c.sub.right)
            if got != want:
                raise InvalidDerivationError(
                    f"{c.tag} child proves {got}, expected {want}")
            groups[c.tag].append(c.sub)
        return [sub for group in groups.values() for sub in group]

    def conclude(node: Derivation, formulas: list) -> PFormula:
        n_left = sum(c.tag == TAG_LEFT for c in node.children)
        n_pos = n_left + sum(c.tag == TAG_RIGHT_FWD for c in node.children)
        return PDiamond(p_and_all(_sorted_dedup(formulas[:n_left])),
                        node.witness[1],
                        _sorted_dedup(formulas[n_left:n_pos]),
                        _sorted_dedup(formulas[n_pos:]))

    return _fold(d, premises, conclude, memo)


# ---------------------------------------------------------------------------
# HMLU formula -> P-formula


def _formula_depth(f: Formula) -> int:
    """Operator nesting depth of ``f``: 0 for T, 1 for ``<a> T``."""
    return _fold(f, _children, lambda g, sub: 1 + max(sub) if sub else 0)


def pformula_from_hmlu(l: Lts, phi: Formula, p: int, q: int) -> PFormula:
    """Synthesize a P-formula separating p and q from any distinguishing
    HMLU formula.

    A walk down from (phi, {p}, {q}) records, per diamond, the satisfiers
    some pair reaches; a walk up ``phi`` gives each three candidates from
    its witness path.  Which one separates a satisfier r from a state s
    depends only on whether s satisfies two of them, so whole sets of
    pairs are answered by mask tests.  Raises
    :class:`NotDistinguishingError` when ``phi`` separates neither
    direction, and :class:`FormulaTooDeepError` when it is nested deeper
    than :data:`MAX_SYNTHESIS_DEPTH`.
    """
    guard = _formula_depth(phi)
    if guard > MAX_SYNTHESIS_DEPTH:
        raise FormulaTooDeepError(
            f"formula is nested {guard} deep; synthesis accepts at most "
            f"{MAX_SYNTHESIS_DEPTH}")
    ev = SatEvaluator.of(l)
    # Normalize so that p satisfies phi and q does not.
    if not ev.holds(p, phi):
        p, q = q, p
    if not ev.holds(p, phi) or ev.holds(q, phi):
        raise NotDistinguishingError(
            f"formula does not distinguish states {p} and {q}")
    needed: dict = {}  # diamond -> mask of the satisfiers some pair reaches
    candidates: dict = {}  # diamond -> one entry per needed satisfier

    def mask(g: PFormula) -> int:
        return ev.mask(p_embed(g))

    def leaves(stack: list):
        """From each (f, left, right) on ``stack``, where ``left`` satisfies
        f and ``right`` does not, the diamonds (g, left, right) separating
        them; the caller may push more items between two of them."""
        seen = set()
        while stack:
            g, left, right = item = stack.pop()
            if not left or not right or item in seen:
                continue
            seen.add(item)
            if isinstance(g, Neg):
                stack.append((g.child, right, left))
            elif isinstance(g, And):
                # A pair is separated by the left conjunct if it can be.
                m = ev.mask(g.left)
                stack += [(g.left, left, right & ~m), (g.right, left, right & m)]
            else:
                yield g, left, right

    def separate(f: Formula, left: int, right: int) -> list:
        """The formulas separating each state of ``left``, which satisfy
        ``f``, from each state of ``right``, which do not (with repeats)."""
        out = []
        for g, left, right in leaves([(f, left, right)]):
            # Each pair (r, s) takes delta-minus if s satisfies it, else
            # delta-plus if s fails that, else r's stage chain.
            for r, minus, m_minus, plus, m_plus, chain in candidates[g]:
                if left >> r & 1:
                    if right & m_minus:
                        out.append(minus)
                    if right & ~m_minus & ~m_plus:
                        out.append(plus)
                    if right & ~m_minus & m_plus:
                        out.append(chain)
        return out

    @cache
    def realize(sub: Formula) -> tuple:
        return _sorted_dedup(separate(sub, ev.mask(sub), ev.mask(Neg(sub))))

    def split(formulas: tuple, r: int) -> tuple:
        """The formulas ``r`` satisfies, and those it does not."""
        return (tuple(g for g in formulas if mask(g) >> r & 1),
                tuple(g for g in formulas if not mask(g) >> r & 1))

    def build(f: Formula, _) -> list:
        if f not in needed:
            return []
        p_delta, p_psi = realize(f.left), realize(f.right)
        entries = []
        for r in _bits(needed[f]):
            w = diamond_witness(l, r, f.left, f.label, f.right)
            if w is None:
                raise InternalInvariantError("no witness for a satisfied diamond")
            # Per state of the silent path, its positive conjuncts
            # (delta-plus) and negative disjuncts (delta-minus).
            stages = [split(p_delta, s) for s in w.path]
            # Phi_n carries the visible step; each earlier stage wraps it in
            # a silent step constrained by the next stage's disjuncts.
            chain = PDiamond(p_and_all(stages[-1][0]), f.label,
                             *split(p_psi, w.post))
            for i in range(len(stages) - 2, -1, -1):
                chain = PDiamond(p_and_all(stages[i][0]), TAU,
                                 (chain,), stages[i + 1][1])
            minus, plus = p_or_all(stages[0][1]), p_and_all(stages[0][0])
            entries.append((r, minus, mask(minus), plus, mask(plus), chain))
        return entries

    # A satisfier some pair reaches needs its diamond's sides realized.
    stack = [(phi, 1 << p, 1 << q)]
    for g, left, _ in leaves(stack):
        needed[g] = needed.get(g, 0) | left
        stack += [(h, ev.mask(h), ev.mask(Neg(h))) for h in (g.left, g.right)]
    _fold(phi, _children, build, candidates)
    result, = separate(phi, 1 << p, 1 << q)
    check = verify_distinguishes(l, p_embed(result), p, q)
    if not check.distinguishes:
        raise InternalInvariantError("synthesized formula fails to distinguish")
    return result


# ---------------------------------------------------------------------------
# Simplification


def _silent_stage(f: PFormula) -> bool:
    """``f`` is a silent layer with one continuation of the same delta-plus."""
    return (isinstance(f, PDiamond) and f.label.silent and len(f.pos) == 1
            and isinstance(f.pos[0], PDiamond)
            and canonical_key(f.left) is canonical_key(f.pos[0].left))


def simplify(f: PFormula, l: Lts | None = None) -> PFormula:
    """Drop unit conjuncts/disjuncts, repeated conjuncts and redundant
    silent-step layers, in one bottom-up fold whose result is its own
    simplification.

    Per diamond: its negated conjuncts are simplified, kept once, and F
    dropped; a positive conjunct that is a silent stage whose negated
    conjuncts are the same set as the diamond's is replaced by its
    continuation (elsewhere, a stage with no negated conjuncts is); then
    the positive conjuncts are kept once and T dropped.  When an LTS is
    supplied, the silent layers whose removal keeps the satisfaction set
    on it are collapsed too (checked by re-evaluation).
    """
    ev = None if l is None else SatEvaluator.of(l)

    def collapse(g: PFormula, neg: tuple = ()) -> PFormula:
        # Sound as silent steps are reflexive: beside the conjuncts ~M,
        # D<tau>(Psi & ~M) & ~M is Psi & ~M for Psi = D<a>X.
        if _silent_stage(g) and ({canonical_key(h) for h in g.neg}
                                 == {canonical_key(h) for h in neg}):
            return g.pos[0]
        return g

    def build(g: PFormula, sub: list) -> PFormula:
        if isinstance(g, (PTop, PBot)):
            return g
        if isinstance(g, (PAnd, POr)):
            left, right = map(collapse, sub)
            unit = PTop if isinstance(g, PAnd) else PBot
            if isinstance(left, unit):
                return right
            if isinstance(right, unit):
                return left
            return type(g)(left, right)
        n_pos = len(g.pos)
        neg = tuple(h for h in _dedup(map(collapse, sub[1 + n_pos:]))
                    if not isinstance(h, PBot))
        pos = tuple(h for h in _dedup(collapse(h, neg) for h in sub[1:1 + n_pos])
                    if not isinstance(h, PTop))
        out = PDiamond(collapse(sub[0]), g.label, pos, neg)
        while (ev is not None and _silent_stage(out)
               and ev.mask(p_embed(out)) == ev.mask(p_embed(out.pos[0]))):
            out = out.pos[0]
        return out

    return collapse(_fold(f, _p_children, build))
