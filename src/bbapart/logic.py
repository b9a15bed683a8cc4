"""Hennessy-Milner Logic with Until: syntax, classifiers, and model checking.

The until modality ``d<a>f`` holds in ``p`` when some tau-path through
d-states (every state on the path, endpoints included) ends in an a-step
into an f-state.  The checker requires the LTS to have reflexive silent
steps; close it with :func:`bbapart.lts.reflexive_closure` first.

P-formulas are the negation-free fragment, with negation readmitted only
for conjuncts on the right of a diamond.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress

from .lts import (
    TAU,
    ActionLabel,
    Lts,
    NonReflexiveLtsError,
    constrained_tau_reach,
    tau_closure,
)


class FormulaParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# HMLU abstract syntax


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


def _children(f: Formula) -> tuple:
    if isinstance(f, Neg):
        return (f.child,)
    if isinstance(f, (And, Diamond)):
        return (f.left, f.right)
    return ()


def _formula_eq(f: Formula, g: Formula) -> bool:
    """Structural equality by an explicit walk over pairs of nodes; cached
    hashes reject most unequal pairs at once."""
    stack = [(f, g)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if type(a) is not type(b) or hash(a) != hash(b):
            return False
        if isinstance(a, Diamond) and a.label != b.label:
            return False
        stack.extend(zip(_children(a), _children(b)))
    return True


class _Node(Formula):
    """A compound HMLU node: its hash is computed once, from its fields
    (children give their cached hashes), so neither ``hash`` nor ``==``
    recurses."""

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((type(self).__name__, *vars(self).values())))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return _formula_eq(self, other)


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    child: Formula


@dataclass(frozen=True, eq=False)
class And(_Node):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Diamond(_Node):
    left: Formula
    label: ActionLabel
    right: Formula


TOP = Top()
BOT = Neg(TOP)


def f_or(a: Formula, b: Formula) -> Formula:
    return Neg(And(Neg(a), Neg(b)))


def diamond(label: ActionLabel, f: Formula) -> Formula:
    """Plain diamond <a>f, i.e. T<a>f."""
    return Diamond(TOP, label, f)


def is_positive(f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return is_negative(f.child)
    if isinstance(f, And):
        return is_positive(f.left) and is_positive(f.right)
    if isinstance(f, Diamond):
        # Positivity of a diamond depends only on its left-hand side.
        return is_positive(f.left)
    raise TypeError(f)


def is_negative(f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return is_positive(f.child)
    if isinstance(f, And):
        return is_negative(f.left) and is_negative(f.right)
    if isinstance(f, Diamond):
        return False
    raise TypeError(f)


def is_good(f: Formula) -> bool:
    """Every diamond occurrence has a positive left-hand side."""
    if isinstance(f, (Top,)):
        return True
    if isinstance(f, Neg):
        return is_good(f.child)
    if isinstance(f, And):
        return is_good(f.left) and is_good(f.right)
    if isinstance(f, Diamond):
        return is_positive(f.left) and is_good(f.left) and is_good(f.right)
    raise TypeError(f)


def modality_free(f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return modality_free(f.child)
    if isinstance(f, And):
        return modality_free(f.left) and modality_free(f.right)
    return False


# ---------------------------------------------------------------------------
# P-formulas


class PFormula:
    __slots__ = ()


@dataclass(frozen=True)
class PTop(PFormula):
    pass


@dataclass(frozen=True)
class PBot(PFormula):
    pass


@dataclass(frozen=True)
class PAnd(PFormula):
    left: PFormula
    right: PFormula


@dataclass(frozen=True)
class POr(PFormula):
    left: PFormula
    right: PFormula


@dataclass(frozen=True)
class PDiamond(PFormula):
    """Encodes  left <label> (/\\ pos  /\\  /\\ ~neg);  empty lists mean T."""

    left: PFormula
    label: ActionLabel
    pos: tuple = ()
    neg: tuple = ()


PTOP = PTop()
PBOT = PBot()


def sort_key(f: PFormula) -> tuple:
    """A fixed total order on P-formulas, used for canonical list ordering."""
    if isinstance(f, PTop):
        return (0,)
    if isinstance(f, PBot):
        return (1,)
    if isinstance(f, PDiamond):
        return (2, f.label.sort_key, sort_key(f.left),
                tuple(sort_key(g) for g in f.pos), tuple(sort_key(g) for g in f.neg))
    if isinstance(f, PAnd):
        return (3, sort_key(f.left), sort_key(f.right))
    if isinstance(f, POr):
        return (4, sort_key(f.left), sort_key(f.right))
    raise TypeError(f)


def canonical_key(f: PFormula) -> tuple:
    """Structural identity after flattening And/Or chains into sorted lists."""
    if isinstance(f, (PTop, PBot)):
        return sort_key(f)
    if isinstance(f, PDiamond):
        return (2, f.label.sort_key, canonical_key(f.left),
                tuple(sorted(canonical_key(g) for g in f.pos)),
                tuple(sorted(canonical_key(g) for g in f.neg)))
    if isinstance(f, (PAnd, POr)):
        tag = 3 if isinstance(f, PAnd) else 4
        items = []
        stack = [f]
        while stack:
            g = stack.pop()
            if type(g) is type(f):
                stack.extend([g.left, g.right])
            else:
                items.append(canonical_key(g))
        return (tag, tuple(sorted(items)))
    raise TypeError(f)


def p_and_all(items) -> PFormula:
    """Right-fold conjunction; the empty conjunction is T."""
    items = list(items)
    if not items:
        return PTOP
    result = items[-1]
    for g in reversed(items[:-1]):
        result = PAnd(g, result)
    return result


def p_or_all(items) -> PFormula:
    """Right-fold disjunction; the empty disjunction is F."""
    items = list(items)
    if not items:
        return PBOT
    result = items[-1]
    for g in reversed(items[:-1]):
        result = POr(g, result)
    return result


def p_embed(f: PFormula) -> Formula:
    """View a P-formula as an HMLU formula.  The result is positive and good."""
    if isinstance(f, PTop):
        return TOP
    if isinstance(f, PBot):
        return BOT
    if isinstance(f, PAnd):
        return And(p_embed(f.left), p_embed(f.right))
    if isinstance(f, POr):
        return f_or(p_embed(f.left), p_embed(f.right))
    if isinstance(f, PDiamond):
        parts = [p_embed(g) for g in f.pos] + [Neg(p_embed(g)) for g in f.neg]
        if not parts:
            right: Formula = TOP
        else:
            right = parts[-1]
            for g in reversed(parts[:-1]):
                right = And(g, right)
        return Diamond(p_embed(f.left), f.label, right)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Satisfaction


class SatEvaluator:
    """Bottom-up satisfaction sets with a memo shared across queries.

    The memo holds one int bitmask per subformula (bit ``p`` set when state
    ``p`` satisfies it), filled by an explicit post-order walk, so formulas
    of any depth are checked in O(|f| * (n + m)).  Requires reflexive
    silent steps; raises :class:`NonReflexiveLtsError` otherwise.
    """

    def __init__(self, l: Lts):
        if not l.has_reflexive_silent_steps:
            raise NonReflexiveLtsError(
                "satisfaction is defined on LTSs with reflexive silent steps; "
                "apply reflexive_closure first")
        self.lts = l
        self._all = (1 << l.n_states) - 1
        self._memo: dict = {}
        # Silent predecessors without the reflexive self-loops, which never
        # extend a backward search; states with none are absent.
        self._tau_pred = {}
        for q, srcs in l.predecessors(TAU).items():
            proper = tuple(p for p in srcs if p != q)
            if proper:
                self._tau_pred[q] = proper

    def mask(self, f: Formula) -> int:
        """The states satisfying ``f``, as a bitmask."""
        memo = self._memo
        stack = [f]
        while stack:
            g = stack[-1]
            if g in memo:
                stack.pop()
                continue
            missing = [c for c in _children(g) if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if isinstance(g, Top):
                memo[g] = self._all
            elif isinstance(g, Neg):
                memo[g] = self._all ^ memo[g.child]
            elif isinstance(g, And):
                memo[g] = memo[g.left] & memo[g.right]
            elif isinstance(g, Diamond):
                memo[g] = self._diamond(memo[g.left], g.label, memo[g.right])
            else:
                raise TypeError(g)
        return memo[f]

    def _diamond(self, left: int, label: ActionLabel, right: int) -> int:
        """States of ``left`` with a silent path inside ``left`` to a state
        with a ``label``-step into ``right``: the label-predecessors of
        ``right`` in ``left``, then one backward BFS along silent steps."""
        n = self.lts.n_states
        in_left = _flags(left, n)
        label_pred = self.lts.predecessors(label)
        found = {p for q in compress(range(n), _flags(right, n))
                 for p in label_pred.get(q, ()) if in_left[p]}
        tau_pred = self._tau_pred
        stack = [p for p in found if p in tau_pred]
        while stack:
            for p in tau_pred[stack.pop()]:
                if in_left[p] and p not in found:
                    found.add(p)
                    if p in tau_pred:
                        stack.append(p)
        flags = bytearray(n)
        for p in found:
            flags[p] = 1
        return int(flags[::-1].translate(_FLAGS_TO_DIGITS), 2)

    def set(self, g: Formula) -> frozenset:
        return _members(self.mask(g), self.lts.n_states)

    def holds(self, p: int, g: Formula) -> bool:
        return bool(self.mask(g) >> p & 1)


_DIGITS_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAGS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(mask: int, n: int) -> bytes:
    """Byte ``p`` is 1 when bit ``p`` of ``mask`` is set, else 0."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_DIGITS_TO_FLAGS)


def _members(mask: int, n: int) -> frozenset:
    return frozenset(compress(range(n), _flags(mask, n)))


def sat_set(l: Lts, f: Formula) -> dict:
    """Satisfaction sets, one per subformula of ``f``."""
    ev = SatEvaluator(l)
    ev.mask(f)
    return {g: _members(m, l.n_states) for g, m in ev._memo.items()}


def satisfies(l: Lts, p: int, f: Formula) -> bool:
    return SatEvaluator(l).holds(p, f)


def p_satisfies(l: Lts, p: int, f: PFormula) -> bool:
    """Direct P-formula evaluator, independent of :func:`p_embed`."""
    return p in _p_sat(l, f, {})


def _p_sat(l: Lts, f: PFormula, memo: dict) -> frozenset:
    key = canonical_key(f)
    if key in memo:
        return memo[key]
    if isinstance(f, PTop):
        s = frozenset(range(l.n_states))
    elif isinstance(f, PBot):
        s = frozenset()
    elif isinstance(f, PAnd):
        s = _p_sat(l, f.left, memo) & _p_sat(l, f.right, memo)
    elif isinstance(f, POr):
        s = _p_sat(l, f.left, memo) | _p_sat(l, f.right, memo)
    elif isinstance(f, PDiamond):
        if not l.has_reflexive_silent_steps:
            raise NonReflexiveLtsError("apply reflexive_closure first")
        s_left = _p_sat(l, f.left, memo)
        right = frozenset(range(l.n_states))
        for g in f.pos:
            right &= _p_sat(l, g, memo)
        for g in f.neg:
            right -= _p_sat(l, g, memo)
        s = frozenset(
            p for p in range(l.n_states)
            if any(any(dst in right for dst in l.succ(p1, f.label))
                   for p1 in constrained_tau_reach(l, p, s_left)))
    else:
        raise TypeError(f)
    memo[key] = s
    return s


@dataclass(frozen=True)
class DiamondWitness:
    """A witness for p |= d<a>f: the tau-path, its endpoint, and the a-target."""

    path: tuple  # p = path[0] ->tau ... ->tau path[-1] = pre
    pre: int
    post: int


def diamond_witness(l: Lts, p: int, delta: Formula, label: ActionLabel,
                    psi: Formula, ev: SatEvaluator | None = None
                    ) -> DiamondWitness | None:
    """Materialize the existential in the diamond semantics.

    Returns a shortest witness path (ties broken towards smaller state
    indices), or None when the diamond does not hold at ``p``.  Pass the
    caller's evaluator of ``l`` as ``ev`` to reuse its memo.
    """
    ev = SatEvaluator(l) if ev is None else ev
    s_delta = ev.set(delta)
    s_psi = ev.set(psi)
    if p not in s_delta:
        return None
    # BFS over s_delta, visiting successors in index order.
    parent = {p: None}
    frontier = [p]
    order = [p]
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for dst in l.succ(cur, TAU):
                if dst in s_delta and dst not in parent:
                    parent[dst] = cur
                    nxt_frontier.append(dst)
                    order.append(dst)
        frontier = nxt_frontier
    for pre in order:  # BFS order: shortest first, then smallest index
        hits = sorted(dst for dst in l.succ(pre, label) if dst in s_psi)
        if hits:
            path = []
            cur = pre
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            return DiamondWitness(tuple(reversed(path)), pre, hits[0])
    return None


# ---------------------------------------------------------------------------
# Enumeration

MAX_ENUM_DEPTH = 3


def enumerate_pformulas(actions, depth: int) -> list:
    """All P-formulas of a canonical shape with diamond nesting <= depth.

    Shape: T and F at depth 0; at depth d, diamonds whose left-hand side is
    any strictly shallower formula other than F, and whose right-hand side
    carries at most one positive and one negative conjunct, both strictly
    shallower diamonds.  The silent action is always included; duplicates
    are removed structurally.
    """
    if depth > MAX_ENUM_DEPTH:
        raise ValueError(f"enumeration depth limited to {MAX_ENUM_DEPTH}")
    labels = sorted(set(actions) | {TAU}, key=lambda a: a.sort_key)
    level: list = [PTOP, PBOT]
    for _ in range(depth):
        prev = list(level)
        lefts = [f for f in prev if not isinstance(f, PBot)]
        operands = [f for f in prev if isinstance(f, PDiamond)]
        seen = {canonical_key(f) for f in level}
        for left in lefts:
            for label in labels:
                for pos in [()] + [(g,) for g in operands]:
                    for neg in [()] + [(g,) for g in operands]:
                        if pos and neg and canonical_key(pos[0]) == canonical_key(neg[0]):
                            continue
                        f = PDiamond(left, label, pos, neg)
                        key = canonical_key(f)
                        if key not in seen:
                            seen.add(key)
                            level.append(f)
    return sorted(level, key=sort_key)


# ---------------------------------------------------------------------------
# Text grammar


_TOKEN_RE = re.compile(r'\s*(<|>|\(|\)|&|\||~|[A-Za-z_][A-Za-z0-9_\']*)')


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_formula(text: str, silent_label: str = "tau") -> Formula:
    """Parse the fully parenthesized grammar:

    formula := "T" | "F" | "~" formula | "(" formula "&" formula ")"
             | "(" formula "|" formula ")" | "(" formula "<" label ">" formula ")"
             | "<" label ">" formula
    """
    tokens = _tokenize(text)
    idx = 0

    def take(expected=None):
        nonlocal idx
        if idx >= len(tokens):
            raise FormulaParseError("unexpected end of formula")
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise FormulaParseError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def label():
        tok = take()
        if tok in ("<", ">", "(", ")", "&", "|", "~"):
            raise FormulaParseError(f"expected action label, found {tok!r}")
        lab = TAU if tok == silent_label else ActionLabel(tok)
        take(">")
        return lab

    # Open constructs wait on an explicit stack, so nesting depth is
    # unbounded.  Frames are (kind, argument): "~" and "<" (with its label)
    # for the prefixes, "(" before its operator, and "&)", "|)" or "<)"
    # (with the left operand and label) for a binary operator awaiting its
    # right operand and ")".
    stack: list = []
    while True:
        tok = take()
        if tok in ("~", "(", "<"):
            stack.append((tok, label() if tok == "<" else None))
            continue
        if tok not in ("T", "F"):
            raise FormulaParseError(f"unexpected token {tok!r}")
        value = TOP if tok == "T" else BOT
        while stack:
            kind, arg = stack.pop()
            if kind == "~":
                value = Neg(value)
            elif kind == "<":
                value = Diamond(TOP, arg, value)
            elif kind == "(":
                op = take()
                if op == ")":  # plain grouping
                    continue
                if op not in ("&", "|", "<"):
                    raise FormulaParseError(
                        f"expected '&', '|' or '<', found {op!r}")
                stack.append((op + ")", (value, label() if op == "<" else None)))
                break
            else:
                left, lab = arg
                value = (And(left, value) if kind == "&)" else
                         f_or(left, value) if kind == "|)" else
                         Diamond(left, lab, value))
                take(")")
        else:
            break

    if idx != len(tokens):
        raise FormulaParseError(f"trailing input: {' '.join(tokens[idx:])!r}")
    return value


def _opens_with_paren(f: Formula) -> bool:
    """Whether the rendering of ``f`` starts with "("."""
    if isinstance(f, Neg):
        return _is_or(f.child)
    return isinstance(f, And) or (isinstance(f, Diamond)
                                  and not isinstance(f.left, Top))


def _is_or(c: Formula) -> bool:
    """``c`` is the body ~a & ~b of the Or sugar ~(~a & ~b)."""
    return (isinstance(c, And) and isinstance(c.left, Neg)
            and isinstance(c.right, Neg))


def format_formula(f: Formula, silent_label: str = "tau") -> str:
    """Render in the text grammar; re-parsing yields an equal AST."""
    out = []
    stack: list = [f]  # formulas still to render, and literal text
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, Top):
            out.append("T")
        elif isinstance(g, Neg):
            c = g.child
            if isinstance(c, Top):
                out.append("F")
            elif _is_or(c):
                out.append("(")
                stack += [")", c.right.child, " | ", c.left.child]
            else:
                out.append("~")
                stack.append(c)
        elif isinstance(g, And):
            out.append("(")
            stack += [")", g.right, " & ", g.left]
        elif isinstance(g, Diamond):
            lab = silent_label if g.label.silent else g.label.name
            if isinstance(g.left, Top):
                out.append(f"<{lab}> ")
                stack.append(g.right)
            elif _opens_with_paren(g.left):
                out.append("(")
                stack += [")", g.right, f" <{lab}> ", g.left]
            else:
                out.append("((")
                stack += [")", g.right, f") <{lab}> ", g.left]
        else:
            raise TypeError(g)
    return "".join(out)


def format_pformula(f: PFormula, silent_label: str = "tau") -> str:
    return format_formula(p_embed(f), silent_label)


def formula_to_json(f: Formula):
    if isinstance(f, Top):
        return {"type": "top"}
    if isinstance(f, Neg):
        return {"type": "neg", "child": formula_to_json(f.child)}
    if isinstance(f, And):
        return {"type": "and", "left": formula_to_json(f.left),
                "right": formula_to_json(f.right)}
    if isinstance(f, Diamond):
        return {"type": "diamond", "left": formula_to_json(f.left),
                "label": str(f.label), "right": formula_to_json(f.right)}
    raise TypeError(f)


def pformula_to_json(f: PFormula):
    if isinstance(f, PTop):
        return {"type": "top"}
    if isinstance(f, PBot):
        return {"type": "bot"}
    if isinstance(f, PAnd):
        return {"type": "and", "left": pformula_to_json(f.left),
                "right": pformula_to_json(f.right)}
    if isinstance(f, POr):
        return {"type": "or", "left": pformula_to_json(f.left),
                "right": pformula_to_json(f.right)}
    if isinstance(f, PDiamond):
        return {"type": "pdiamond", "left": pformula_to_json(f.left),
                "label": str(f.label),
                "pos": [pformula_to_json(g) for g in f.pos],
                "neg": [pformula_to_json(g) for g in f.neg]}
    raise TypeError(f)
