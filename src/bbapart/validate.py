"""Theorem-level cross-validation suites and pair-query plumbing.

Every suite returns a list of counterexample records (empty = property
holds); :func:`cross_validate` bundles them into a report.  The suites
deliberately pit independently implemented components against each other:
least-fixpoint apartness engines vs. greatest-fixpoint bisimilarity
oracles, derivation-based synthesis vs. direct model checking, bounded
formula enumeration vs. relational characterizations.
"""

from __future__ import annotations

from functools import lru_cache

from . import apartness as ap
from . import bisim as bs
from .distinguish import (
    DIRECTION_LEFT,
    formula_from_derivation,
    verify_distinguishes,
)
from .generate import campaign_instances, random_lts
from .logic import (
    And,
    Neg,
    PDiamond,
    SatEvaluator,
    TOP,
    BOT,
    enumerate_pformulas,
    _p_sat,
    p_embed,
)
from .lts import TAU, Lts, _bits, _union, per_lts, reflexive_closure, tau_closure

ENUM_STATE_LIMIT = 5
ENUM_DEPTH = 2

_APART_ENGINES = {
    "strong": ap.strong_apartness,
    "dstrong": ap.directed_strong_apartness,
    "branching": ap.branching_apartness,
    "dbranching": ap.directed_branching_apartness,
}

KINDS = tuple(_APART_ENGINES)


class NotApartError(ValueError):
    """Distinguishing requested for a pair outside the apartness relation,
    which is directed branching bisimilar, by duality."""


# ---------------------------------------------------------------------------
# Relation-level suites


def _pairs(n: int):
    return ((p, q) for p in range(n) for q in range(n))


def _differences(rows: tuple, others: tuple) -> list:
    """``(p, q, held)`` per pair in exactly one of two relations, given by
    their row masks, in (p, q) order; ``held`` tells whether ``rows``
    holds it."""
    return [(p, q, bool(row >> q & 1))
            for p, (row, other) in enumerate(zip(rows, others))
            for q in _bits(row ^ other)]


def duality_violations(l: Lts, kind: str) -> list:
    """Pairs where apartness and bisimilarity of the same kind agree
    (they must be exact complements), compared row by row."""
    complement = [(1 << l.n_states) - 1] * l.n_states
    for p, q in bs.bisimilarity(l, kind).holds:
        complement[p] ^= 1 << q
    return [{"kind": kind, "p": p, "q": q, "apart": held}
            for p, q, held in _differences(_APART_ENGINES[kind](l).rows, complement)]


def symmetric_closure_violations(l: Lts, branching: bool = True) -> list:
    """The symmetric closure of a directed apartness must equal its
    symmetric counterpart (branching or strong)."""
    names = ("dbranching", "branching") if branching else ("dstrong", "strong")
    directed, symmetric = (_APART_ENGINES[name](l).rows for name in names)
    closure = [r | c for r, c in zip(directed, ap._transpose(directed, l.n_states))]
    return [{"branching": branching, "p": p, "q": q, "inClosure": held}
            for p, q, held in _differences(closure, symmetric)]


def reflexive_invariance_violations(l: Lts) -> list:
    """Directed branching apartness must not change under the silent-step
    reflexive closure: the four-rule engine, which reads the LTS as
    given, must compute the same relation on the LTS and on its closure."""
    raw = ap.directed_branching_apartness_nonreflexive(l)
    closed = ap.directed_branching_apartness_nonreflexive(reflexive_closure(l))
    return [{"p": p, "q": q, "inOriginal": held}
            for p, q, held in _differences(raw.rows, closed.rows)]


def nonreflexive_agreement_violations(l: Lts) -> list:
    """The four-rule engine on the raw LTS must compute the same relation
    as the one-rule engine on the closure."""
    apart = ap.directed_branching_apartness(l)
    raw = ap.directed_branching_apartness_nonreflexive(l)
    return [{"p": p, "q": q, "inClosureEngine": held}
            for p, q, held in _differences(apart.rows, raw.rows)]


def tau_extension_violations(l: Lts) -> list:
    return ap.check_tau_extension(l, ap.directed_branching_apartness(l))


def apartness_stuttering_violations(l: Lts) -> list:
    """If r ->>tau p ->>tau t and p is branching-apart from q, then r or t
    is branching-apart from q."""
    rows = ap.branching_apartness(l).rows
    forward = tau_closure(reflexive_closure(l)).forward
    return [{"r": r, "p": p, "t": t, "q": q} for r in range(l.n_states)
            for p in _bits(forward[r]) for t in _bits(forward[p])
            for q in _bits(rows[p] & ~rows[r] & ~rows[t])]


def bisim_stuttering_violations(l: Lts) -> list:
    """If p ->>tau r ->>tau q and p, q are branching bisimilar, so are
    p and r."""
    bisim_rel = bs.branching_bisimilarity(l)
    forward = tau_closure(reflexive_closure(l)).forward
    return [{"p": p, "r": r, "q": q} for p in range(l.n_states)
            for r in _bits(forward[p]) if (p, r) not in bisim_rel
            for q in _bits(forward[r]) if (p, q) in bisim_rel]


def conjunction_violations(l: Lts) -> list:
    """Branching bisimilarity must be the two-way intersection of directed
    branching bisimilarity."""
    branching_rel = bs.branching_bisimilarity(l)
    directed_rel = bs.directed_branching_bisimilarity(l)
    return [{"p": p, "q": q, "branching": (p, q) in branching_rel}
            for p, q in _pairs(l.n_states)
            if ((p, q) in branching_rel)
            != ((p, q) in directed_rel and (q, p) in directed_rel)]


def fixed_point_violations(l: Lts) -> list:
    """Each greatest-fixpoint output must survive one more deletion pass."""
    out = []
    for kind in KINDS:
        for p, q in bs.refine_once_violations(l, kind, bs.bisimilarity(l, kind)):
            out.append({"kind": kind, "p": p, "q": q})
    return out


@per_lts
def synthesis_violations(l: Lts) -> list:
    """Every directed-branching-apart pair must yield, via derivation
    extraction and formula synthesis, a P-formula its left state satisfies
    and its right state does not.  Run once per LTS: the logical
    characterization reads the same verdicts.  The pairs share one memo
    of derivation nodes and one of their formulas, so a sub-derivation
    common to several pairs is extracted and synthesised once."""
    apart = ap.directed_branching_apartness(l)
    ev = SatEvaluator.of(l)
    derivations: dict = {}
    formulas: dict = {}
    out = []
    for p, row in enumerate(apart.rows):
        for q in _bits(row):
            try:
                d = ap.extract_derivation(l, apart, p, q, memo=derivations)
                f = p_embed(formula_from_derivation(l, d, memo=formulas))
            except Exception as exc:  # noqa: BLE001 - reported as a counterexample
                out.append({"p": p, "q": q, "error": repr(exc)})
                continue
            if not (ev.holds(p, f) and not ev.holds(q, f)):
                out.append({"p": p, "q": q, "formula": repr(f)})
    return out


# ---------------------------------------------------------------------------
# Enumeration-gated logic suites


@lru_cache(maxsize=16)
def _enumeration(actions: frozenset, depth: int) -> tuple:
    """``(g, embedding)`` per P-formula ``g`` enumerated over ``actions`` to
    ``depth``, in enumeration order: it depends on the alphabet alone, so
    it is built once per alphabet and kept, with the formulas' embeddings
    and sort keys, for the last sixteen alphabets (a campaign of four
    actions has sixteen; an entry takes 0.12 MB for two actions, 0.64 MB
    for four, 3.3 MB for six)."""
    return tuple((g, p_embed(g)) for g in enumerate_pformulas(actions, depth))


def _enum_context(l: Lts) -> tuple:
    """The reflexive closure, its evaluator, and ``(g, satisfaction mask)``
    per P-formula ``g`` of the enumeration of its alphabet, the mask from
    the checker on its embedding (see :func:`p_embed`); computed once per
    LTS."""
    ev = SatEvaluator.of(l)
    return ev.lts, ev, tuple((g, ev.mask(f)) for g, f in
                             _enumeration(l.visible_actions, ENUM_DEPTH))


def tau_transfer_violations(l: Lts) -> list:
    """Positive formulas transfer satisfaction backward along silent
    steps, negative ones forward; checked on embedded enumerated
    P-formulas and their negations."""
    closed, _, enumeration = l.memo(_enum_context)
    silent = closed.succ_masks(TAU)
    full = (1 << closed.n_states) - 1
    # A silent step from outside the satisfying states into them breaks
    # backward transfer for the positive embedding, and forward transfer
    # for its negation: found once per distinct mask.
    steps = {sat: [(p, p1) for p in _bits(full & ~sat) for p1 in _bits(silent[p] & sat)]
             for sat in {sat for _, sat in enumeration}}
    return [{"formula": repr(g), "p": p, "pPrime": p1} for g, sat in enumeration
            for p, p1 in steps[sat]]


def simpler_diamond_violations(l: Lts) -> list:
    """For diamonds with a positive left side, the constrained-path
    semantics must coincide with the simpler two-step formulation
    (some silent-reachable delta-state with a step into a psi-state)."""
    closed, ev, enumeration = l.memo(_enum_context)
    sats = dict(enumeration)  # an enumerated diamond's left side is enumerated
    out = []
    for (g, f), (_, sat) in zip(_enumeration(l.visible_actions, ENUM_DEPTH), enumeration):
        if isinstance(g, PDiamond):
            simpler = closed.memo(_two_step, g.label, sats[g.left], ev.mask(f.right))
            if simpler != sat:
                out += [{"formula": repr(g), "p": p, "simpler": bool(simpler >> p & 1)}
                        for p in _bits(simpler ^ sat)]
    return out


def _two_step(l: Lts, label, left: int, right: int) -> int:
    """The delta-states (``left``) with a ``label``-step into a psi-state
    (``right``), then every state silently reaching one of them: once per
    LTS and class of equal masks."""
    succ = l.succ_masks(label)
    return _union(sum(1 << p for p in _bits(left) if succ[p] & right), tau_closure(l).back)


def p_embed_agreement_violations(l: Lts) -> list:
    """The direct P-formula evaluator and the HMLU checker applied to the
    embedding must agree everywhere."""
    closed, _, enumeration = l.memo(_enum_context)
    masks = _p_sat(closed, [g for g, _ in enumeration])
    return [{"formula": repr(g), "p": p} for (g, sat), psat in zip(enumeration, masks)
            for p in _bits(psat ^ sat)]


def modality_free_violations(l: Lts) -> list:
    """Formulas without modalities are constant: satisfied everywhere or
    nowhere."""
    ev = SatEvaluator.of(l)
    samples = [TOP, BOT, Neg(BOT), And(TOP, TOP), And(TOP, BOT),
               Neg(And(TOP, BOT)), And(Neg(BOT), Neg(TOP))]
    out = []
    for f in samples:
        sat = ev.set(f)
        if sat and len(sat) != l.n_states:
            out.append({"formula": repr(f), "satCount": len(sat)})
    return out


def good_formula_violations(l: Lts) -> list:
    """A positive good formula separating p from q forces (p, q) into
    directed branching apartness (its negation, a negative good formula,
    forces the same pair from the other side)."""
    rows = ap.directed_branching_apartness(l).rows
    closed, _, enumeration = l.memo(_enum_context)
    full = (1 << closed.n_states) - 1
    # The separated pairs outside the relation, once per distinct mask.
    pairs = {sat: [(p, q) for p in _bits(sat) for q in _bits(full & ~sat & ~rows[p])]
             for sat in {sat for _, sat in enumeration}}
    return [{"formula": repr(g), "p": p, "q": q} for g, sat in enumeration
            for p, q in pairs[sat]]


def characterization_violations(l: Lts) -> list:
    """Two-sided logical characterization at desk scale.

    Directed: a depth-bounded theory non-inclusion forces apartness, and
    every apart pair is separated by its synthesized formula.  Symmetric:
    a pair is distinguishable by some bounded formula (either polarity)
    iff it is branching apart, with apart pairs separated by synthesis.
    """
    n = l.n_states
    full = (1 << n) - 1
    apart = ap.directed_branching_apartness(l).rows
    branching_apart = ap.branching_apartness(l).rows
    # Per state p, the q satisfying every enumerated formula p satisfies,
    # and the q some enumerated formula tells apart from p: one fold over
    # the distinct satisfaction masks.
    included, separable = [full] * n, [0] * n
    for sat in {sat for _, sat in l.memo(_enum_context)[2]}:
        for p in range(n):
            if sat >> p & 1:
                included[p] &= sat
                separable[p] |= full & ~sat
            else:
                separable[p] |= sat
    unsound = [0] * n
    for v in synthesis_violations(l):
        unsound[v["p"]] |= 1 << v["q"]
    out = []
    for p in range(n):
        excluded = full & ~included[p]
        issues = (
            (excluded & ~apart[p], "non-inclusion without apartness"),
            (unsound[p], "synthesis fails inclusion witness"),
            (separable[p] & ~branching_apart[p], "separable but not branching apart"),
            (excluded & ~branching_apart[p] & ~(1 << p),
             "bisimilar pair has unequal theories"),
        )
        out += [{"p": p, "q": q, "issue": issue}
                for q in range(n) for mask, issue in issues if mask >> q & 1]
    return out


# ---------------------------------------------------------------------------
# Reports


class ValidationReport:
    def __init__(self, entries: tuple):
        # Per property {"name", "status": "pass" | "fail"}, and with a
        # failure its first "counterexample".
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(e["status"] == "pass" for e in self.entries)

    def to_json(self):
        return {"ok": self.ok, "properties": list(self.entries)}


def _entry(name: str, violations: list) -> dict:
    if not violations:
        return {"name": name, "status": "pass"}
    return {"name": name, "status": "fail", "counterexample":
            dict(violations[0], violationCount=len(violations))}


def cross_validate(l: Lts) -> ValidationReport:
    """Run every property suite on one LTS.

    The enumeration-gated suites run at depth ``ENUM_DEPTH`` on LTSs with
    at most ``ENUM_STATE_LIMIT`` states and are skipped otherwise.
    """
    entries = [_entry(f"duality-{kind}", duality_violations(l, kind)) for kind in KINDS]
    entries += [
        _entry("symmetric-closure-branching",
               symmetric_closure_violations(l, branching=True)),
        _entry("symmetric-closure-strong",
               symmetric_closure_violations(l, branching=False)),
        _entry("reflexive-invariance", reflexive_invariance_violations(l)),
        _entry("nonreflexive-engine-agreement",
               nonreflexive_agreement_violations(l)),
        _entry("tau-extension", tau_extension_violations(l)),
        _entry("apartness-stuttering", apartness_stuttering_violations(l)),
        _entry("bisim-stuttering", bisim_stuttering_violations(l)),
        _entry("conjunction-corollary", conjunction_violations(l)),
        _entry("bisim-fixed-point", fixed_point_violations(l)),
        _entry("synthesis-soundness", synthesis_violations(l)),
        _entry("modality-free-constant", modality_free_violations(l)),
    ]
    if l.n_states <= ENUM_STATE_LIMIT:
        entries += [
            _entry("tau-transfer", tau_transfer_violations(l)),
            _entry("simpler-diamond", simpler_diamond_violations(l)),
            _entry("p-embed-agreement", p_embed_agreement_violations(l)),
            _entry("good-formula-soundness", good_formula_violations(l)),
            _entry("logical-characterization", characterization_violations(l)),
        ]
    return ValidationReport(tuple(entries))


def run_campaign(count: int = 200, seed: int = 0, **params) -> ValidationReport:
    """Cross-validate a stream of seeded random LTSs and aggregate per
    property: its first failure, whose counterexample records the
    offending generator seed and state count."""
    first: dict = {}
    for g in campaign_instances(count, seed, **params):
        for e in cross_validate(random_lts(g)).entries:
            if "counterexample" not in first.get(e["name"], ()):
                first[e["name"]] = e
                if "counterexample" in e:
                    e["counterexample"].update(seed=g.seed, nStates=g.n_states)
    return ValidationReport(tuple(first.values()))


# ---------------------------------------------------------------------------
# Pair queries


def check_pair(l: Lts, kind: str, p: int, q: int,
               nonreflexive: bool = False, silent_label: str = "tau") -> dict:
    """Apartness in both directions plus the bisimilarity verdict; for the
    branching kinds an apart pair also carries a derivation certificate.

    Bisimilarity of a kind is the exact complement of apartness of that
    kind, so the verdict is read off the relation; the ``duality-*``
    properties check that complement against the oracles.  Branching
    apartness is read off the symmetric closure of the directed relation,
    one fixpoint for verdict and certificate, as
    ``symmetric-closure-branching`` checks.  The certificate writes the
    silent action as ``silent_label``.  ``nonreflexive`` (the four-rule
    engine) is for kind dbranching only: with another it is a ValueError."""
    if kind not in KINDS:
        raise KeyError(f"unknown relation kind: {kind!r}")
    if nonreflexive and kind != "dbranching":
        raise ValueError(f"nonreflexive applies to kind dbranching only, not {kind}")
    # Only the rounds the verdict needs; branching waits for (p, q), its
    # certificate's pick, and reads (q, p) off the fixpoint if never held.
    goal = ((p, q),) if kind == "branching" else ((p, q), (q, p))
    if nonreflexive:
        apart = ap.directed_branching_apartness_nonreflexive(l, goal)
    else:
        apart = _APART_ENGINES["dbranching" if kind == "branching" else kind](l, goal)
    forward, backward = (p, q) in apart, (q, p) in apart
    if kind == "branching":
        forward = backward = forward or backward
    result = {"kind": kind, "apart": forward, "apartReverse": backward,
              "bisimilar": not forward}
    if forward and kind in ("branching", "dbranching"):
        # Certificates come from the directed engine (its round stamps, not
        # the four-rule engine's); for the symmetric kind the held
        # direction of the directed relation supplies one.
        db = ap.directed_branching_apartness(l, goal[:1]) if nonreflexive else apart
        pair = (p, q) if (p, q) in db else (q, p)
        result["derivation"] = ap.extract_derivation(l, db, *pair).to_json(l, silent_label)
    return result


def distinguish_pair(l: Lts, p: int, q: int) -> dict:
    """Synthesize a distinguishing P-formula for a directed-branching-apart
    pair, together with the derivation it came from.  A pair that is not
    apart is directed branching bisimilar, by duality."""
    apart = ap.directed_branching_apartness(l, ((p, q),))
    if (p, q) not in apart:
        raise NotApartError(
            f"states {l.state_name(p)} and {l.state_name(q)} are not apart "
            "— directed branching bisimilar")
    derivation = ap.extract_derivation(l, apart, p, q)
    formula = formula_from_derivation(l, derivation)
    check = verify_distinguishes(l, p_embed(formula), p, q)
    if check.direction != DIRECTION_LEFT:
        raise ap.InternalInvariantError("synthesized formula fails verification")
    return {"formula": formula, "derivation": derivation}
