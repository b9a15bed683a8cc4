"""Theorem-level cross-validation suites and pair-query plumbing.

Every suite returns a list of counterexample records (empty = property
holds); :func:`cross_validate` bundles them into a report.  The suites
deliberately pit independently implemented components against each other:
least-fixpoint apartness engines vs. greatest-fixpoint bisimilarity
oracles, derivation-based synthesis vs. direct model checking, bounded
formula enumeration vs. relational characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .lts import Lts, reflexive_closure, tau_closure

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
    """Distinguishing requested for a pair outside the apartness relation;
    carries the bisimilarity verdict."""

    def __init__(self, message: str, bisimilar: bool):
        super().__init__(message)
        self.bisimilar = bisimilar


# ---------------------------------------------------------------------------
# Relation-level suites


def _pairs(n: int):
    return ((p, q) for p in range(n) for q in range(n))


def duality_violations(l: Lts, kind: str, apart=None, bisim_rel=None) -> list:
    """Pairs where apartness and bisimilarity of the same kind agree
    (they must be exact complements)."""
    apart = _APART_ENGINES[kind](l) if apart is None else apart
    bisim_rel = bs.bisimilarity(l, kind) if bisim_rel is None else bisim_rel
    return [{"kind": kind, "p": p, "q": q, "apart": (p, q) in apart}
            for p, q in _pairs(l.n_states)
            if ((p, q) in apart) == ((p, q) in bisim_rel)]


def symmetric_closure_violations(l: Lts, directed=None, symmetric=None,
                                 branching: bool = True) -> list:
    """The symmetric closure of a directed apartness must equal its
    symmetric counterpart (branching or strong)."""
    if directed is None:
        directed = (ap.directed_branching_apartness(l) if branching
                    else ap.directed_strong_apartness(l))
    if symmetric is None:
        symmetric = (ap.branching_apartness(l) if branching
                     else ap.strong_apartness(l))
    closure = directed.symmetric_closure()
    return [{"branching": branching, "p": p, "q": q,
             "inClosure": (p, q) in closure}
            for p, q in sorted(closure ^ symmetric.holds)]


def reflexive_invariance_violations(l: Lts, apart=None) -> list:
    """Branching apartness must not change under the silent-step
    reflexive closure of the LTS."""
    apart = ap.branching_apartness(l) if apart is None else apart
    closed = ap.branching_apartness(reflexive_closure(l))
    return [{"p": p, "q": q, "inOriginal": (p, q) in apart}
            for p, q in sorted(apart.holds ^ closed.holds)]


def nonreflexive_agreement_violations(l: Lts, apart=None) -> list:
    """The four-rule engine on the raw LTS must compute the same relation
    as the one-rule engine on the closure."""
    apart = ap.directed_branching_apartness(l) if apart is None else apart
    raw = ap.directed_branching_apartness_nonreflexive(l)
    return [{"p": p, "q": q, "inClosureEngine": (p, q) in apart}
            for p, q in sorted(apart.holds ^ raw.holds)]


def tau_extension_violations(l: Lts, apart=None) -> list:
    apart = ap.directed_branching_apartness(l) if apart is None else apart
    return ap.check_tau_extension(l, apart)


def apartness_stuttering_violations(l: Lts, apart=None) -> list:
    """If r ->>tau p ->>tau t and p is branching-apart from q, then r or t
    is branching-apart from q."""
    apart = ap.branching_apartness(l) if apart is None else apart
    reach = tau_closure(reflexive_closure(l)).reach
    out = []
    for r in range(l.n_states):
        for p in reach[r]:
            for t in reach[p]:
                for q in range(l.n_states):
                    if ((p, q) in apart and (r, q) not in apart
                            and (t, q) not in apart):
                        out.append({"r": r, "p": p, "t": t, "q": q})
    return out


def bisim_stuttering_violations(l: Lts, bisim_rel=None) -> list:
    """If p ->>tau r ->>tau q and p, q are branching bisimilar, so are
    p and r."""
    bisim_rel = bs.branching_bisimilarity(l) if bisim_rel is None else bisim_rel
    reach = tau_closure(reflexive_closure(l)).reach
    out = []
    for p in range(l.n_states):
        for r in reach[p]:
            for q in reach[r]:
                if (p, q) in bisim_rel and (p, r) not in bisim_rel:
                    out.append({"p": p, "r": r, "q": q})
    return out


def conjunction_violations(l: Lts, branching_rel=None, directed_rel=None) -> list:
    """Branching bisimilarity must be the two-way intersection of directed
    branching bisimilarity."""
    branching_rel = (bs.branching_bisimilarity(l) if branching_rel is None
                     else branching_rel)
    directed_rel = (bs.directed_branching_bisimilarity(l) if directed_rel is None
                    else directed_rel)
    return [{"p": p, "q": q, "branching": (p, q) in branching_rel}
            for p, q in _pairs(l.n_states)
            if ((p, q) in branching_rel)
            != ((p, q) in directed_rel and (q, p) in directed_rel)]


def fixed_point_violations(l: Lts, relations=None) -> list:
    """Each greatest-fixpoint output must survive one more deletion pass."""
    out = []
    for kind in KINDS:
        rel = (relations or {}).get(kind) or bs.bisimilarity(l, kind)
        for p, q in bs.refine_once_violations(l, kind, rel):
            out.append({"kind": kind, "p": p, "q": q})
    return out


def synthesis_violations(l: Lts, apart=None) -> list:
    """Every directed-branching-apart pair must yield, via derivation
    extraction and formula synthesis, a P-formula its left state satisfies
    and its right state does not."""
    apart = ap.directed_branching_apartness(l) if apart is None else apart
    ev = SatEvaluator(reflexive_closure(l))
    out = []
    for p, q in sorted(apart.holds):
        try:
            d = ap.extract_derivation(l, apart, p, q)
            f = p_embed(formula_from_derivation(l, d))
        except Exception as exc:  # noqa: BLE001 - reported as a counterexample
            out.append({"p": p, "q": q, "error": repr(exc)})
            continue
        if not (ev.holds(p, f) and not ev.holds(q, f)):
            out.append({"p": p, "q": q, "formula": repr(f)})
    return out


# ---------------------------------------------------------------------------
# Enumeration-gated logic suites


def _enum_context(l: Lts, depth: int):
    closed = reflexive_closure(l)
    formulas = enumerate_pformulas(closed.visible_actions, depth)
    return closed, SatEvaluator(closed), formulas


def tau_transfer_violations(l: Lts, depth: int = ENUM_DEPTH) -> list:
    """Positive formulas transfer satisfaction backward along silent
    steps, negative ones forward; checked on embedded enumerated
    P-formulas and their negations."""
    closed, ev, formulas = _enum_context(l, depth)
    silent_steps = [(p, p1) for p, label, p1 in closed.transitions if label.silent]
    out = []
    for g in formulas:
        sat = ev.set(p_embed(g))
        for p, p1 in silent_steps:
            # Backward transfer for the positive embedding; the same
            # configuration also breaks forward transfer of its negation.
            if p1 in sat and p not in sat:
                out.append({"formula": repr(g), "p": p, "pPrime": p1})
    return out


def simpler_diamond_violations(l: Lts, depth: int = ENUM_DEPTH) -> list:
    """For diamonds with a positive left side, the constrained-path
    semantics must coincide with the simpler two-step formulation
    (some silent-reachable delta-state with a step into a psi-state)."""
    closed, ev, formulas = _enum_context(l, depth)
    reach = tau_closure(closed).reach
    out = []
    for g in formulas:
        if not isinstance(g, PDiamond):
            continue
        f = p_embed(g)
        s_delta, s_right = ev.set(f.left), ev.set(f.right)
        sat = ev.set(f)
        for p in range(closed.n_states):
            simpler = any(p1 in s_delta
                          and any(dst in s_right
                                  for dst in closed.succ(p1, g.label))
                          for p1 in reach[p])
            if simpler != (p in sat):
                out.append({"formula": repr(g), "p": p, "simpler": simpler})
    return out


def p_embed_agreement_violations(l: Lts, depth: int = ENUM_DEPTH) -> list:
    """The direct P-formula evaluator and the HMLU checker applied to the
    embedding must agree everywhere."""
    closed, ev, formulas = _enum_context(l, depth)
    psat: dict = {}  # the P-evaluator's own memo, shared across formulas
    out = []
    for g in formulas:
        sat = ev.set(p_embed(g))
        direct = _p_sat(closed, g, psat)
        for p in range(closed.n_states):
            if (p in direct) != (p in sat):
                out.append({"formula": repr(g), "p": p})
    return out


def modality_free_violations(l: Lts) -> list:
    """Formulas without modalities are constant: satisfied everywhere or
    nowhere."""
    closed = reflexive_closure(l)
    ev = SatEvaluator(closed)
    samples = [TOP, BOT, Neg(BOT), And(TOP, TOP), And(TOP, BOT),
               Neg(And(TOP, BOT)), And(Neg(BOT), Neg(TOP))]
    out = []
    for f in samples:
        sat = ev.set(f)
        if sat and len(sat) != closed.n_states:
            out.append({"formula": repr(f), "satCount": len(sat)})
    return out


def good_formula_violations(l: Lts, depth: int = ENUM_DEPTH, apart=None) -> list:
    """A positive good formula separating p from q forces (p, q) into
    directed branching apartness (its negation, a negative good formula,
    forces the same pair from the other side)."""
    apart = ap.directed_branching_apartness(l) if apart is None else apart
    closed, ev, formulas = _enum_context(l, depth)
    out = []
    for g in formulas:
        sat = ev.set(p_embed(g))
        for p in sat:
            for q in range(closed.n_states):
                if q not in sat and (p, q) not in apart:
                    out.append({"formula": repr(g), "p": p, "q": q})
    return out


def characterization_violations(l: Lts, depth: int = ENUM_DEPTH,
                                apart=None, branching_apart=None) -> list:
    """Two-sided logical characterization at desk scale.

    Directed: a depth-bounded theory non-inclusion forces apartness, and
    every apart pair is separated by its synthesized formula.  Symmetric:
    a pair is distinguishable by some bounded formula (either polarity)
    iff it is branching apart, with apart pairs separated by synthesis.
    """
    apart = ap.directed_branching_apartness(l) if apart is None else apart
    branching_apart = (ap.branching_apartness(l) if branching_apart is None
                       else branching_apart)
    closed, ev, formulas = _enum_context(l, depth)
    sats = [ev.set(p_embed(g)) for g in formulas]
    out = []
    for p, q in _pairs(l.n_states):
        included = all(q in s for s in sats if p in s)
        separable = any((p in s) != (q in s) for s in sats)
        if not included and (p, q) not in apart:
            out.append({"p": p, "q": q, "issue": "non-inclusion without apartness"})
        if (p, q) in apart:
            f = p_embed(formula_from_derivation(
                l, ap.extract_derivation(l, apart, p, q)))
            if not (ev.holds(p, f) and not ev.holds(q, f)):
                out.append({"p": p, "q": q, "issue": "synthesis fails inclusion witness"})
        if separable and (p, q) not in branching_apart:
            out.append({"p": p, "q": q, "issue": "separable but not branching apart"})
        if p != q and (p, q) not in branching_apart and not included:
            out.append({"p": p, "q": q, "issue": "bisimilar pair has unequal theories"})
    return out


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class PropertyResult:
    name: str
    status: str  # "pass" | "fail"
    counterexample: dict | None = None

    def to_json(self):
        entry = {"name": self.name, "status": self.status}
        if self.counterexample is not None:
            entry["counterexample"] = self.counterexample
        return entry


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def to_json(self):
        return {"ok": self.ok, "properties": [e.to_json() for e in self.entries]}


def _entry(name: str, violations: list) -> PropertyResult:
    if not violations:
        return PropertyResult(name, "pass")
    head = dict(violations[0])
    head["violationCount"] = len(violations)
    return PropertyResult(name, "fail", head)


def cross_validate(l: Lts, enumeration_depth="auto",
                   _corrupt_duality_pair=None) -> ValidationReport:
    """Run every property suite on one LTS.

    ``enumeration_depth="auto"`` enables the enumeration-gated suites at
    depth 2 on LTSs with at most 5 states and skips them otherwise; pass
    an int to force a depth, or None to skip.  ``_corrupt_duality_pair``
    toggles one pair in the directed branching apartness fed to the
    duality check — a harness self-test hook proving failures surface.
    """
    if enumeration_depth == "auto":
        enumeration_depth = ENUM_DEPTH if l.n_states <= ENUM_STATE_LIMIT else None

    aparts = {kind: engine(l) for kind, engine in _APART_ENGINES.items()}
    bisims = {kind: bs.bisimilarity(l, kind) for kind in KINDS}

    duality_aparts = dict(aparts)
    if _corrupt_duality_pair is not None:
        rel = aparts["dbranching"]
        duality_aparts["dbranching"] = ap.DirectedPairRelation(
            rel.n_states, rel.holds ^ {tuple(_corrupt_duality_pair)}, rel.rounds)

    entries = [
        _entry(f"duality-{kind}",
               duality_violations(l, kind, duality_aparts[kind], bisims[kind]))
        for kind in KINDS
    ]
    entries += [
        _entry("symmetric-closure-branching",
               symmetric_closure_violations(
                   l, aparts["dbranching"], aparts["branching"], branching=True)),
        _entry("symmetric-closure-strong",
               symmetric_closure_violations(
                   l, aparts["dstrong"], aparts["strong"], branching=False)),
        _entry("reflexive-invariance",
               reflexive_invariance_violations(l, aparts["branching"])),
        _entry("nonreflexive-engine-agreement",
               nonreflexive_agreement_violations(l, aparts["dbranching"])),
        _entry("tau-extension",
               tau_extension_violations(l, aparts["dbranching"])),
        _entry("apartness-stuttering",
               apartness_stuttering_violations(l, aparts["branching"])),
        _entry("bisim-stuttering",
               bisim_stuttering_violations(l, bisims["branching"])),
        _entry("conjunction-corollary",
               conjunction_violations(l, bisims["branching"], bisims["dbranching"])),
        _entry("bisim-fixed-point", fixed_point_violations(l, bisims)),
        _entry("synthesis-soundness",
               synthesis_violations(l, aparts["dbranching"])),
        _entry("modality-free-constant", modality_free_violations(l)),
    ]
    if enumeration_depth is not None:
        d = enumeration_depth
        entries += [
            _entry("tau-transfer", tau_transfer_violations(l, d)),
            _entry("simpler-diamond", simpler_diamond_violations(l, d)),
            _entry("p-embed-agreement", p_embed_agreement_violations(l, d)),
            _entry("good-formula-soundness",
                   good_formula_violations(l, d, aparts["dbranching"])),
            _entry("logical-characterization",
                   characterization_violations(l, d, aparts["dbranching"],
                                               aparts["branching"])),
        ]
    return ValidationReport(tuple(entries))


def run_campaign(count: int = 200, seed: int = 0, **params) -> ValidationReport:
    """Cross-validate a stream of seeded random LTSs and aggregate per
    property; a failing entry records the offending generator seed."""
    agg: dict = {}
    for g in campaign_instances(count, seed, **params):
        report = cross_validate(random_lts(g))
        for e in report.entries:
            agg.setdefault(e.name, None)
            if e.status == "fail" and agg[e.name] is None:
                agg[e.name] = dict(e.counterexample or {},
                                   seed=g.seed, nStates=g.n_states)
    return ValidationReport(tuple(
        PropertyResult(name, "fail" if cx else "pass", cx)
        for name, cx in agg.items()))


# ---------------------------------------------------------------------------
# Pair queries


def check_pair(l: Lts, kind: str, p: int, q: int,
               nonreflexive: bool = False) -> dict:
    """Apartness in both directions plus the bisimilarity verdict; for the
    branching kinds an apart pair also carries a derivation certificate."""
    if kind not in KINDS:
        raise KeyError(f"unknown relation kind: {kind!r}")
    if not (0 <= p < l.n_states and 0 <= q < l.n_states):
        raise KeyError("state index out of range")
    engine = (ap.directed_branching_apartness_nonreflexive
              if kind == "dbranching" and nonreflexive
              else _APART_ENGINES[kind])
    apart = engine(l)
    result = {
        "kind": kind,
        "apart": (p, q) in apart,
        "apartReverse": (q, p) in apart,
        "bisimilar": (p, q) in bs.bisimilarity(l, kind),
    }
    if result["apart"] and kind in ("branching", "dbranching"):
        # Certificates come from the directed engine (its round stamps, not
        # the four-rule engine's); for the symmetric kind the held
        # direction of the directed relation supplies one.
        db = (apart if kind == "dbranching" and not nonreflexive
              else ap.directed_branching_apartness(l))
        pair = (p, q) if (p, q) in db else (q, p)
        result["derivation"] = ap.extract_derivation(l, db, *pair).to_json(l)
    return result


def distinguish_pair(l: Lts, p: int, q: int) -> dict:
    """Synthesize a distinguishing P-formula for a directed-branching-apart
    pair, together with the derivation it came from."""
    apart = ap.directed_branching_apartness(l)
    if (p, q) not in apart:
        bisimilar = (p, q) in bs.directed_branching_bisimilarity(l)
        raise NotApartError(
            f"states {l.state_name(p)} and {l.state_name(q)} are not apart "
            "— directed branching bisimilar", bisimilar)
    derivation = ap.extract_derivation(l, apart, p, q)
    formula = formula_from_derivation(l, derivation)
    check = verify_distinguishes(l, p_embed(formula), p, q)
    if check.direction != DIRECTION_LEFT:
        raise ap.InternalInvariantError("synthesized formula fails verification")
    return {"formula": formula, "derivation": derivation}
