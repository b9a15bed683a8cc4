"""Reference answers and output checks, kept apart from the code paths the
benchmark times.

Verdicts of ``check`` come from the bisimilarity oracles (by duality, the
apartness of a kind is the complement of its bisimilarity), computed once
per LTS outside the timed region.  Every formula a command emits is rebuilt
from its ``formulaJson`` and evaluated with the independent P-formula
evaluator ``logic.p_satisfies``.  Structured families use closed forms.

Each ``check_*`` function takes a command's parsed JSON output and returns
None when it is right, or a short reason.
"""

from __future__ import annotations

from collections import deque


class Context:
    """One generated LTS with lazily computed reference relations."""

    def __init__(self, bb, lts):
        self.bb = bb
        self.lts = lts
        self._closed = None
        self._bisim: dict = {}

    @property
    def closed(self):
        if self._closed is None:
            self._closed = self.bb.lts.reflexive_closure(self.lts)
        return self._closed

    def bisim(self, kind: str) -> frozenset:
        if kind not in self._bisim:
            self._bisim[kind] = self.bb.bisim.bisimilarity(self.lts, kind).holds
        return self._bisim[kind]

    def sat(self, p: int, f) -> bool:
        return self.bb.logic.p_satisfies(self.closed, p, f)

    def name(self, p: int) -> str:
        return self.lts.state_name(p)


def pformula_from_json(bb, data):
    """Rebuild a P-formula from the ``formulaJson`` shape."""
    logic = bb.logic
    kind = data["type"]
    if kind == "top":
        return logic.PTOP
    if kind == "bot":
        return logic.PBOT
    if kind in ("and", "or"):
        cls = logic.PAnd if kind == "and" else logic.POr
        return cls(pformula_from_json(bb, data["left"]),
                   pformula_from_json(bb, data["right"]))
    if kind == "pdiamond":
        label = data["label"]
        return logic.PDiamond(
            pformula_from_json(bb, data["left"]),
            bb.lts.TAU if label == "tau" else bb.lts.ActionLabel(label),
            tuple(pformula_from_json(bb, g) for g in data["pos"]),
            tuple(pformula_from_json(bb, g) for g in data["neg"]))
    raise ValueError(f"unknown formula node {kind!r}")


def own_sat_set(bb, lts, f) -> frozenset:
    """Satisfaction set of a P-formula on the reflexive closure of ``lts``,
    written here so that choosing workload inputs never runs the code
    under test.  Used only to pick separated pairs, never as a reference."""
    logic, tau = bb.logic, bb.lts.TAU
    n = lts.n_states
    everything = frozenset(range(n))
    steps = set(lts.transitions) | {(p, tau, p) for p in range(n)}
    tau_pred: dict = {}
    for src, label, dst in steps:
        if label == tau:
            tau_pred.setdefault(dst, []).append(src)
    memo: dict = {}

    def sat(g) -> frozenset:
        if id(g) in memo:
            return memo[id(g)]
        if isinstance(g, logic.PTop):
            s = everything
        elif isinstance(g, logic.PBot):
            s = frozenset()
        elif isinstance(g, logic.PAnd):
            s = sat(g.left) & sat(g.right)
        elif isinstance(g, logic.POr):
            s = sat(g.left) | sat(g.right)
        else:
            left = sat(g.left)
            right = everything
            for h in g.pos:
                right &= sat(h)
            for h in g.neg:
                right -= sat(h)
            found = {src for src, label, dst in steps
                     if label == g.label and src in left and dst in right}
            queue = deque(found)
            while queue:
                cur = queue.popleft()
                for prev in tau_pred.get(cur, ()):
                    if prev in left and prev not in found:
                        found.add(prev)
                        queue.append(prev)
            s = frozenset(found)
        memo[id(g)] = s
        return s

    return sat(f)


def derivation_conclusion(d):
    """(left, right) names of a derivation certificate's root, or None."""
    c = d.get("conclusion") if isinstance(d, dict) else None
    return (c.get("left"), c.get("right")) if isinstance(c, dict) else None


def _check_separates(ctx: Context, out: dict, p: int, q: int):
    """The emitted formula, rebuilt from formulaJson, holds at p only, and
    the formula text renders the same formula."""
    try:
        f = pformula_from_json(ctx.bb, out["formulaJson"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"formulaJson unreadable: {exc!r}"
    if ctx.bb.logic.format_pformula(f) != out.get("formula"):
        return "formula text and formulaJson differ"
    if not ctx.sat(p, f):
        return "formula fails at the left state"
    if ctx.sat(q, f):
        return "formula holds at the right state"
    return None


def oracle_verdict(ctx: Context, kind: str, p: int, q: int) -> tuple:
    """(apart, apartReverse, certificate pair) by duality with the oracles;
    the certificate pair is the direction held by directed branching
    apartness."""
    rel = ctx.bisim(kind)
    db_pair = (p, q) if (p, q) not in ctx.bisim("dbranching") else (q, p)
    return (p, q) not in rel, (q, p) not in rel, db_pair


def check_check(ctx: Context, kind: str, p: int, q: int, expected: tuple,
                out: dict):
    """``bbapart check``: verdicts in both directions, the bisimilarity
    field when present, and a certificate for apart branching pairs.
    ``expected`` is shaped like :func:`oracle_verdict`'s result."""
    apart, apart_reverse, db_pair = expected
    if out.get("kind") != kind:
        return f"kind {out.get('kind')!r}"
    if out.get("apart") is not apart or out.get("apartReverse") is not apart_reverse:
        return "apartness verdict differs from the reference"
    if "bisimilar" in out and out["bisimilar"] is apart:
        return "bisimilar field differs from the reference"
    if apart and kind in ("branching", "dbranching"):
        names = (ctx.name(db_pair[0]), ctx.name(db_pair[1]))
        if derivation_conclusion(out.get("derivation")) != names:
            return "certificate missing or for the wrong pair"
    elif "derivation" in out:
        return "certificate for a pair that is not apart"
    return None


def check_distinguish(ctx: Context, p: int, q: int, apart: bool, out: dict):
    """``bbapart distinguish``: the verdict, the certificate's root, and a
    formula that separates the pair."""
    if not apart:
        if out.get("apart") is not False:
            return "claims apart for a bisimilar pair"
        if "bisimilar" in out and out["bisimilar"] is not True:
            return "bisimilar field differs from the reference"
        return None
    if out.get("apart") is not True:
        return "claims not apart for an apart pair"
    if derivation_conclusion(out.get("derivation")) != (ctx.name(p), ctx.name(q)):
        return "derivation missing or for the wrong pair"
    return _check_separates(ctx, out, p, q)


def check_convert(ctx: Context, source, p: int, q: int, out: dict):
    """The source formula separates p and q; the converted P-formula must
    separate them the same way round."""
    left_holds = ctx.sat(p, source)
    direction = "leftHolds" if left_holds else "rightHolds"
    if out.get("distinguishes") is not True or out.get("direction") != direction:
        return "direction differs from the reference"
    if out.get("resultDirection", direction) != direction:
        return "result direction differs from the source direction"
    return _check_separates(ctx, out, *((p, q) if left_holds else (q, p)))


def check_mc_random(ctx: Context, state: int, source, out: dict):
    """``bbapart mc`` on an embedded P-formula: the verdict must match
    p_satisfies on the source, and a witness must be a real silent path
    through left-hand states ending in a labelled step into the right side."""
    holds = ctx.sat(state, source)
    if out.get("holds") is not holds:
        return "verdict differs from p_satisfies"
    logic = ctx.bb.logic
    if not (holds and isinstance(source, logic.PDiamond)):
        return None if "witness" not in out else "unexpected witness"
    w = out.get("witness")
    if not isinstance(w, dict):
        return "witness missing"
    index = {ctx.name(s): s for s in range(ctx.lts.n_states)}
    try:
        path = [index[s] for s in w["path"]]
        pre, post = index[w["pre"]], index[w["post"]]
    except (KeyError, TypeError):
        return "witness names unknown states"
    steps = ctx.closed.transitions
    tau = ctx.bb.lts.TAU
    if not path or path[0] != state or path[-1] != pre:
        return "witness path has the wrong endpoints"
    if any((a, tau, b) not in steps for a, b in zip(path, path[1:])):
        return "witness path is not a silent path"
    if (pre, source.label, post) not in steps:
        return "witness step is not a transition"
    if not all(ctx.sat(s, source.left) for s in path):
        return "witness path leaves the left-hand side"
    if not (all(ctx.sat(post, g) for g in source.pos)
            and not any(ctx.sat(post, g) for g in source.neg)):
        return "witness target misses the right-hand side"
    return None


def check_mc_exact(expected: dict, out: dict):
    """``bbapart mc`` on a structured family with a closed-form answer."""
    for key, value in expected.items():
        if out.get(key) != value:
            return f"{key} differs from the closed form"
    return None


def check_validate(out: dict):
    if out.get("ok") is not True:
        failing = [e.get("name") for e in out.get("properties", ())
                   if e.get("status") != "pass"]
        return f"validation failed: {failing}"
    return None
