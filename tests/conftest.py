import re
from pathlib import Path

import pytest

from bbapart import apartness as ap
from bbapart.distinguish import _dedup, _silent_stage
from bbapart.logic import (FormulaParseError, PAnd, PBot, PDiamond, POr, PTop, SatEvaluator,
                           _by_id, _p_children, _reach_inside, canonical_key, p_embed)
from bbapart.lts import (TAU, ActionLabel, AutParseError, Lts, NonReflexiveLtsError, _bits,
                         _fold, _union, load_names, parse_aut, tau_closure)
from bbapart.validate import _enum_context

DATA = Path(__file__).parent / "data"


def load_fixture(stem: str):
    l = parse_aut((DATA / f"{stem}.aut").read_text())
    sidecar = DATA / f"{stem}.names.json"
    if sidecar.exists():
        l = l.with_names(load_names(sidecar))
    return l


@pytest.fixture(scope="session")
def fix1():
    """Strong-comparison figure: s/s'/t are strongly bisimilar pairs,
    q and p differ only in where the b/c choice is resolved."""
    return load_fixture("fix1")


@pytest.fixture(scope="session")
def fixsr():
    """s offers c both before and after a silent step, r only after."""
    return load_fixture("fixsr")


@pytest.fixture(scope="session")
def fixsr_s():
    """The s-component of fixsr on its own (5 states, 4 transitions)."""
    return load_fixture("fixsr_s")


@pytest.fixture(scope="session")
def fixpq():
    """The until-logic example: p1/p2 vs q1/q2 with a/b/c steps."""
    return load_fixture("fixpq")


@pytest.fixture(scope="session")
def fixg2():
    """The synthesis example with mutually-reachable d/c/e loops."""
    return load_fixture("fixg2")


def s(l, name: str) -> int:
    """Resolve a display name to a state index."""
    return l.state_index(name)


def silent_reach(l, p: int, allowed) -> frozenset:
    """The states reachable from ``p`` along silent paths inside the
    collection ``allowed``, both ends included (empty when ``p`` is
    outside it), by a search over state sets: a reference for the
    package's mask searches."""
    seen = {p} if p in allowed else set()
    stack = list(seen)
    while stack:
        for q in l.succ(stack.pop(), TAU):
            if q in allowed and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def layers(rel) -> tuple:
    """``layers(rel)[r - 1][p]``: the mask of the q whose pair (p, q) has
    round stamp r in the relation ``rel``, rebuilt from its stamp cells."""
    n = rel.n_states
    out = [[0] * n for _ in range(max(rel.cells, default=0))]
    for i, r in enumerate(rel.cells):
        if r:
            out[r - 1][i // n] |= 1 << i % n
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# Line-at-a-time readers of both grammars, as the package read them before
# it read them in bulk: the references of the parity tests.

_HEADER = re.compile(r"\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_STEP = re.compile(r"\(\s*(\d+)\s*,(.*),\s*(\d+)\s*\)$")


def parse_aut_by_lines(text: str, silent_label: str = "tau") -> Lts:
    """``parse_aut``, one body line at a time."""
    lines = text.splitlines()
    if not lines:
        raise AutParseError("empty input, expected des header", 1)
    header = _HEADER.match(lines[0])
    if not header:
        raise AutParseError(f"malformed header: {lines[0]!r}", 1)
    initial, _decl_trans, n_states = (int(g) for g in header.groups())
    if n_states < 1:
        raise AutParseError("state count must be positive", 1)
    if initial >= n_states:
        raise AutParseError(f"initial state {initial} out of range", 1)
    transitions = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        m = _STEP.match(line)
        if not m:
            if re.match(r'^\(\s*\d+\s*,\s*"[^"]*$', line):
                raise AutParseError(f"unterminated label: {line!r}", lineno)
            raise AutParseError(f"malformed transition: {line!r}", lineno)
        src, token, dst = int(m[1]), m[2].strip(), int(m[3])
        if token.startswith('"'):
            if not (len(token) >= 2 and token.endswith('"')):
                raise AutParseError(f"unterminated label: {line!r}", lineno)
            token = token[1:-1]
        if src >= n_states or dst >= n_states:
            raise AutParseError(f"out-of-range state index in {line!r}", lineno)
        try:
            label = TAU if token == silent_label else ActionLabel(token)
        except ValueError as exc:
            raise AutParseError(str(exc), lineno) from exc
        transitions.add((src, label, dst))
    return Lts(n_states, frozenset(transitions), initial)


_TOKEN = re.compile(r'\s*(<|>|\(|\)|&|\||~|[A-Za-z_][A-Za-z0-9_\']*|"[^\s"]+")')


def tokenize_by_matches(text: str) -> list:
    """The formula tokenizer, one regular-expression match per token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def outcome(read, *args):
    """What ``read(*args)`` gives: ``("value", result)``, or the type,
    text and (for ``AutParseError``) line of the ``ValueError`` it raises."""
    try:
        return "value", read(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# ---------------------------------------------------------------------------
# The enumeration suites and the P-evaluator as they read before they worked
# once per distinct mask or diamond class: one pass of each per formula.
# The references of the per-class parity tests.


def tau_transfer_violations_by_formula(l: Lts) -> list:
    closed, _, enumeration = l.memo(_enum_context)
    silent = closed.succ_masks(TAU)
    full = (1 << closed.n_states) - 1
    return [{"formula": repr(g), "p": p, "pPrime": p1} for g, sat in enumeration
            for p in _bits(full & ~sat) for p1 in _bits(silent[p] & sat)]


def simpler_diamond_violations_by_formula(l: Lts) -> list:
    closed, ev, enumeration = l.memo(_enum_context)
    back = tau_closure(closed).back
    out = []
    for g, sat in enumeration:
        if not isinstance(g, PDiamond):
            continue
        f = p_embed(g)
        right, succ = ev.mask(f.right), closed.succ_masks(g.label)
        target = sum(1 << p1 for p1 in _bits(ev.mask(f.left)) if succ[p1] & right)
        simpler = _union(target, back)
        out += [{"formula": repr(g), "p": p, "simpler": bool(simpler >> p & 1)}
                for p in _bits(simpler ^ sat)]
    return out


def good_formula_violations_by_formula(l: Lts) -> list:
    rows = ap.directed_branching_apartness(l).rows
    closed, _, enumeration = l.memo(_enum_context)
    full = (1 << closed.n_states) - 1
    return [{"formula": repr(g), "p": p, "q": q} for g, sat in enumeration
            for p in _bits(sat) for q in _bits(full & ~sat & ~rows[p])]


def p_sat_by_formula(l: Lts, f, memo: dict) -> int:
    """The P-evaluator's mask of ``f``: one fold per call, and the
    diamond step once per diamond node."""
    full = (1 << l.n_states) - 1

    def build(g, sub: list) -> int:
        if isinstance(g, PTop):
            return full
        if isinstance(g, PBot):
            return 0
        if isinstance(g, PAnd):
            return sub[0] & sub[1]
        if isinstance(g, POr):
            return sub[0] | sub[1]
        if isinstance(g, PDiamond):
            if not l.has_reflexive_silent_steps:
                raise NonReflexiveLtsError("apply reflexive_closure first")
            right = full
            for m in sub[1:1 + len(g.pos)]:
                right &= m
            for m in sub[1 + len(g.pos):]:
                right &= ~m
            into = sum(1 << p for p, succ in
                       enumerate(l.succ_masks(g.label)) if succ & right)
            return sum(1 << p for p, reach in
                       enumerate(l.memo(_reach_inside, sub[0])) if reach & into)
        raise TypeError(g)

    return _fold(f, _p_children, build, memo)


def p_embed_agreement_violations_by_formula(l: Lts) -> list:
    closed, _, enumeration = l.memo(_enum_context)
    psat: dict = {}
    return [{"formula": repr(g), "p": p} for g, sat in enumeration
            for p in _bits(p_sat_by_formula(closed, g, psat) ^ sat)]


# ---------------------------------------------------------------------------
# ``simplify`` as it read in two folds: the structural pass, then one that
# keeps each conjunct once and makes the LTS-checked collapse.  Its result
# is not always its own simplification; the reference of the one-fold
# property tests, iterated to a fixpoint.


def _structural_simplify_two_pass(f):
    def collapse(g, incoming_neg: tuple):
        if _silent_stage(g) and (_by_id(map(canonical_key, g.neg))
                                 == _by_id(map(canonical_key, incoming_neg))):
            return g.pos[0]
        return g

    def build(g, sub: list):
        if isinstance(g, (PTop, PBot)):
            return g
        if isinstance(g, (PAnd, POr)):
            left, right = (collapse(h, ()) for h in sub)
            unit = PTop if isinstance(g, PAnd) else PBot
            if isinstance(left, unit):
                return right
            if isinstance(right, unit):
                return left
            return type(g)(left, right)
        n_pos = len(g.pos)
        neg = tuple(collapse(h, ()) for c, h in zip(g.neg, sub[1 + n_pos:])
                    if not isinstance(c, PBot))
        pos = tuple(collapse(h, neg) for c, h in zip(g.pos, sub[1:])
                    if not isinstance(c, PTop))
        return PDiamond(collapse(sub[0], ()), g.label, pos, neg)

    return collapse(_fold(f, _p_children, build), ())


def simplify_two_pass(f, l: Lts | None = None):
    ev = None if l is None else SatEvaluator.of(l)

    def build(g, sub: list):
        if isinstance(g, (PTop, PBot)):
            return g
        if isinstance(g, (PAnd, POr)):
            return type(g)(*sub)
        n_pos = len(g.pos)
        out = PDiamond(sub[0], g.label, _dedup(sub[1:1 + n_pos]),
                       _dedup(sub[1 + n_pos:]))
        while (ev is not None and _silent_stage(out)
               and ev.mask(p_embed(out)) == ev.mask(p_embed(out.pos[0]))):
            out = out.pos[0]
        return out

    return _fold(_structural_simplify_two_pass(f), _p_children, build)
