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
from functools import reduce
from itertools import islice
from operator import and_, or_

from .lts import (
    TAU,
    ActionLabel,
    HashConsed,
    Lts,
    NonReflexiveLtsError,
    _bits,
    _fold,
    _union,
    reflexive_closure,
)


class FormulaParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# HMLU abstract syntax


class Formula(HashConsed):
    __slots__ = ()


class Top(Formula):
    pass


def _children(f: Formula) -> tuple:
    if isinstance(f, Neg):
        return (f.child,)
    if isinstance(f, (And, Diamond)):
        return (f.left, f.right)
    return ()


class Neg(Formula):
    child: Formula


class And(Formula):
    left: Formula
    right: Formula


class Diamond(Formula):
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


def _classify(f: Formula, sub: list) -> tuple:
    """Whether ``f`` is (positive, negative, good), from the same three of
    each child; :func:`_fold` classifies each node once."""
    if isinstance(f, Top):
        return (True, True, True)
    if isinstance(f, Neg):
        positive, negative, good = sub[0]
        return (negative, positive, good)
    if isinstance(f, And):
        return tuple(map(all, zip(*sub)))
    if isinstance(f, Diamond):
        # Positivity of a diamond depends only on its left-hand side.
        (positive, _, good), right = sub
        return (positive, False, positive and good and right[2])
    raise TypeError(f)


def is_positive(f: Formula) -> bool:
    return _fold(f, _children, _classify)[0]


def is_negative(f: Formula) -> bool:
    return _fold(f, _children, _classify)[1]


def is_good(f: Formula) -> bool:
    """Every diamond occurrence has a positive left-hand side."""
    return _fold(f, _children, _classify)[2]


# ---------------------------------------------------------------------------
# P-formulas


class PFormula(HashConsed):
    __slots__ = ()


class PTop(PFormula):
    pass


class PBot(PFormula):
    pass


class PAnd(PFormula):
    left: PFormula
    right: PFormula


class POr(PFormula):
    left: PFormula
    right: PFormula


class PDiamond(PFormula):
    """Encodes  left <label> (/\\ pos  /\\  /\\ ~neg);  empty lists mean T."""

    left: PFormula
    label: ActionLabel
    pos: tuple = ()
    neg: tuple = ()

    def __new__(cls, left, label, pos=(), neg=()):
        return super().__new__(cls, left, label, pos, neg)


PTOP = PTop()
PBOT = PBot()


def _p_children(f: PFormula) -> tuple:
    if isinstance(f, PDiamond):
        return (f.left, *f.pos, *f.neg)
    if isinstance(f, (PAnd, POr)):
        return (f.left, f.right)
    return ()


def _cached(f: PFormula, attr: str, children, make):
    """``make(g)`` for ``f``, stored on each node as the attribute ``attr``
    and computed once per node, children first.  The attribute is not a
    field of the node, so ``repr`` ignores it."""
    def missing(g):
        return [c for c in children(g) if attr not in vars(c)]

    def build(g, _):
        object.__setattr__(g, attr, make(g))

    if attr not in vars(f):
        # Most new nodes are built from parts that have it: no walk then.
        if missing(f):
            _fold(f, missing, build)
        else:
            build(f, ())
    return vars(f)[attr]


def _make_sort_key(f: PFormula) -> tuple:
    if isinstance(f, PTop):
        return (0,)
    if isinstance(f, PBot):
        return (1,)
    if isinstance(f, PDiamond):
        return (2, f.label.sort_key, f.left._sort_key,
                tuple(g._sort_key for g in f.pos),
                tuple(g._sort_key for g in f.neg))
    if isinstance(f, PAnd):
        return (3, f.left._sort_key, f.right._sort_key)
    if isinstance(f, POr):
        return (4, f.left._sort_key, f.right._sort_key)
    raise TypeError(f)


def sort_key(f: PFormula) -> tuple:
    """A fixed total order on P-formulas, used for canonical list ordering.
    Computed once per node and kept on it."""
    return _cached(f, "_sort_key", _p_children, _make_sort_key)


def _compare_keys(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as ``a < b``, ``a == b`` or ``a > b`` for two
    :func:`sort_key` tuples: tuple comparison by an explicit stack, for
    keys nested too deep for the interpreter's own.  Identical subtuples,
    which hash-consed formulas share, compare equal without a walk."""
    stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        while i < len(x) and i < len(y):
            u, v = x[i], y[i]
            i += 1
            if u is v:
                continue
            if type(u) is tuple and type(v) is tuple:
                stack.append((x, y, i))
                x, y, i = u, v, 0
            elif u != v:
                return -1 if u < v else 1
        if len(x) != len(y):
            return -1 if len(x) < len(y) else 1
    return 0


def _flat(f: PFormula) -> list:
    """The operands of the And (or Or) chain rooted at ``f``: its nearest
    descendants of another type."""
    items, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is type(f):
            stack.extend([g.left, g.right])
        else:
            items.append(g)
    return items


def _canon_children(f: PFormula) -> tuple:
    if isinstance(f, (PAnd, POr)):
        return tuple(_flat(f))
    return _p_children(f)


def _by_id(items) -> tuple:
    """Live nodes in one fixed order, so equal multisets give equal tuples."""
    return tuple(sorted(items, key=id))


def _make_canon(f: PFormula) -> PFormula | None:
    """The canonical representative of ``f`` built from its children's
    (see :func:`canonical_key`), or None when that is ``f`` itself."""
    if isinstance(f, PDiamond):
        rep = PDiamond(canonical_key(f.left), f.label,
                       _by_id(map(canonical_key, f.pos)),
                       _by_id(map(canonical_key, f.neg)))
    elif isinstance(f, (PAnd, POr)):
        items = _by_id(map(canonical_key, _flat(f)))
        rep = p_and_all(items) if isinstance(f, PAnd) else p_or_all(items)
    else:
        rep = f
    return None if rep is f else rep


def canonical_key(f: PFormula) -> PFormula:
    """The one node shared by every P-formula equal to ``f`` up to
    associativity and commutativity of And/Or and the order of a
    diamond's conjuncts: And/Or chains flattened and operand multisets
    put in one fixed order, so AC-equal formulas have identical
    representatives and a set of them is keyed in constant time.
    Computed once per node and kept on it (a node that is its own
    representative keeps None, so it holds no reference to itself)."""
    return _cached(f, "_canon", _canon_children, _make_canon) or f


def _right_fold(make, items, empty):
    """``make(x1, make(x2, ... xk))`` over ``items`` x1 .. xk; ``empty``
    when there are none."""
    items = list(items)
    if not items:
        return empty
    result = items[-1]
    for g in reversed(items[:-1]):
        result = make(g, result)
    return result


def p_and_all(items) -> PFormula:
    """Right-fold conjunction; the empty conjunction is T."""
    return _right_fold(PAnd, items, PTOP)


def p_or_all(items) -> PFormula:
    """Right-fold disjunction; the empty disjunction is F."""
    return _right_fold(POr, items, PBOT)


def _make_embedding(f: PFormula) -> Formula:
    if isinstance(f, PTop):
        return TOP
    if isinstance(f, PBot):
        return BOT
    if isinstance(f, PAnd):
        return And(f.left._embedding, f.right._embedding)
    if isinstance(f, POr):
        return f_or(f.left._embedding, f.right._embedding)
    if isinstance(f, PDiamond):
        parts = ([g._embedding for g in f.pos]
                 + [Neg(g._embedding) for g in f.neg])
        return Diamond(f.left._embedding, f.label, _right_fold(And, parts, TOP))
    raise TypeError(f)


def p_embed(f: PFormula) -> Formula:
    """View a P-formula as an HMLU formula.  The result is positive and good.
    Computed once per node and kept on it, so a P-formula embedded twice,
    or shared between formulas, gives the same HMLU object, which the
    checker's memo then finds by identity."""
    return _cached(f, "_embedding", _p_children, _make_embedding)


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

    @classmethod
    def of(cls, l: Lts) -> "SatEvaluator":
        """The evaluator of the reflexive closure of ``l``, kept with the
        closure, so that every caller on the LTS shares its memo."""
        return reflexive_closure(l).memo(cls)

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
                left = memo[g.left]
                memo[g] = self.lts.reaching(
                    self.lts.preimage(g.label, memo[g.right]) & left, left)
            else:
                raise TypeError(g)
        return memo[f]

    def set(self, g: Formula) -> frozenset:
        return frozenset(_bits(self.mask(g)))

    def holds(self, p: int, g: Formula) -> bool:
        return bool(self.mask(g) >> p & 1)


def sat_set(l: Lts, f: Formula) -> dict:
    """Satisfaction sets, one per subformula of ``f``."""
    ev = SatEvaluator(l)
    ev.mask(f)
    return {g: frozenset(_bits(m)) for g, m in ev._memo.items()}


def satisfies(l: Lts, p: int, f: Formula) -> bool:
    return SatEvaluator(l).holds(p, f)


def p_satisfies(l: Lts, p: int, f: PFormula) -> bool:
    """Direct P-formula evaluator, independent of :func:`p_embed` and of
    the checker: it reads diamonds forward, from each state along silent
    steps, where :class:`SatEvaluator` searches backward from the
    label-preimage."""
    return bool(_p_sat(l, (f,))[0] >> p & 1)


def _reach_inside(l: Lts, allowed: int) -> tuple:
    """Per state p, the mask of the states reachable from p along silent
    paths inside the mask ``allowed`` (0 when p is outside it), by a
    forward frontier search from each state."""
    silent, out = l.succ_masks(TAU), []
    for p in range(l.n_states):
        seen = frontier = allowed & 1 << p
        while frontier:
            frontier = _union(frontier, silent) & allowed & ~seen
            seen |= frontier
        out.append(seen)
    return tuple(out)


def _p_sat(l: Lts, formulas) -> list:
    """The satisfaction mask of each P-formula in the sequence ``formulas``
    (bit ``p`` set when state ``p`` satisfies it), in one walk that
    evaluates each node once, children first, by an explicit stack.  A
    diamond holds at p when p's forward silent reach inside the left mask
    meets the states with a labelled step into the right mask; each reach
    and successor table, and each diamond step, is computed once per LTS
    (:meth:`Lts.memo`)."""
    full, memo = (1 << l.n_states) - 1, {}
    for root in formulas:
        stack = [root]
        while stack:
            g = stack[-1]
            if g in memo:
                stack.pop()
                continue
            sub = _p_children(g)
            missing = [c for c in sub if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            sub = [memo[c] for c in sub]
            if isinstance(g, PDiamond):
                neg = 1 + len(g.pos)  # where the negated conjuncts start
                right = reduce(and_, sub[1:neg], full) & ~reduce(or_, sub[neg:], 0)
                memo[g] = l.memo(_p_diamond, g.label, sub[0], right)
            elif isinstance(g, (PAnd, POr)):
                memo[g] = sub[0] & sub[1] if isinstance(g, PAnd) else sub[0] | sub[1]
            elif isinstance(g, (PTop, PBot)):
                memo[g] = full if isinstance(g, PTop) else 0
            else:
                raise TypeError(g)
    return [memo[g] for g in formulas]


def _p_diamond(l: Lts, label: ActionLabel, left: int, right: int) -> int:
    """The mask of a diamond of left mask ``left`` and combined right mask
    ``right`` (see :func:`_p_sat`), once per LTS and class: formulas of
    equal masks share it."""
    if not l.has_reflexive_silent_steps:
        raise NonReflexiveLtsError("apply reflexive_closure first")
    into = sum(1 << p for p, succ in enumerate(l.succ_masks(label)) if succ & right)
    return sum(1 << p for p, reach in enumerate(l.memo(_reach_inside, left)) if reach & into)


class DiamondWitness(HashConsed):
    """A witness for p |= d<a>f: the tau-path, its endpoint, and the a-target."""

    path: tuple  # p = path[0] ->tau ... ->tau path[-1] = pre
    pre: int
    post: int


def diamond_witness(l: Lts, p: int, delta: Formula, label: ActionLabel,
                    psi: Formula) -> DiamondWitness | None:
    """Materialize the existential in the diamond semantics, on the
    reflexive closure of ``l`` (with the shared :meth:`SatEvaluator.of`).

    Returns a shortest witness path (ties broken towards smaller state
    indices), or None when the diamond does not hold at ``p``.
    """
    ev = SatEvaluator.of(l)
    l = ev.lts
    s_delta, s_psi = ev.mask(delta), ev.mask(psi)
    if not s_delta >> p & 1:
        return None
    # BFS over s_delta, visiting successors in index order, so the first
    # state with a step into psi ends a shortest path, of smallest indices.
    parent, queue = {p: None}, [p]
    for pre in queue:  # the queue grows while it is read
        post = next((q for q in l.succ(pre, label) if s_psi >> q & 1), None)
        if post is not None:
            path = [pre]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return DiamondWitness(tuple(reversed(path)), pre, post)
        for dst in l.succ(pre, TAU):
            if s_delta >> dst & 1 and dst not in parent:
                parent[dst] = pre
                queue.append(dst)
    return None


# ---------------------------------------------------------------------------
# Enumeration

MAX_ENUM_DEPTH = 3


def enumerate_pformulas(actions, depth: int) -> list:
    """All P-formulas of a canonical shape with diamond nesting <= depth.

    Shape: T and F at depth 0; at depth d, diamonds whose left-hand side is
    any strictly shallower formula other than F, and whose right-hand side
    carries at most one positive and one negative conjunct, both strictly
    shallower diamonds, and not the same one.  The silent action is always
    included.  Every formula of this shape is its own
    :func:`canonical_key` (a diamond with at most one conjunct per side,
    built from such formulas), so duplicates are removed by identity.
    """
    if depth > MAX_ENUM_DEPTH:
        raise ValueError(f"enumeration depth limited to {MAX_ENUM_DEPTH}")
    labels = sorted(set(actions) | {TAU}, key=lambda a: a.sort_key)
    level: list = [PTOP, PBOT]
    for _ in range(depth):
        prev = list(level)
        lefts = [f for f in prev if not isinstance(f, PBot)]
        operands = [()] + [(f,) for f in prev if isinstance(f, PDiamond)]
        seen = set(level)
        for left in lefts:
            for label in labels:
                for pos in operands:
                    for neg in operands:
                        if pos and pos == neg:
                            continue
                        f = PDiamond(left, label, pos, neg)
                        if f not in seen:
                            seen.add(f)
                            level.append(f)
    return sorted(level, key=sort_key)


# ---------------------------------------------------------------------------
# Text grammar


# A label is an identifier, or any .aut label in double quotes.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_VALID_RE = re.compile(rf'<|>|\(|\)|&|\||~|{_IDENT_RE.pattern}|"[^\s"]+"')
# Every other character but space is a token of its own, so one scan
# splits the whole text, in time linear in it, and an invalid token marks
# the first character that starts no valid one.
_TOKEN_RE = re.compile(rf"{_VALID_RE.pattern}|\S")


def _tokenize(text: str) -> list:
    tokens = _TOKEN_RE.findall(text)
    bad = {token for token in set(tokens) if not _VALID_RE.fullmatch(token)}
    if bad:
        i = next(i for i, token in enumerate(tokens) if token in bad)
        pos = next(islice(_TOKEN_RE.finditer(text), i - 1, None)).end() if i else 0
        raise FormulaParseError(f"unexpected character at {text[pos:]!r}")
    return tokens


def parse_formula(text: str, silent_label: str = "tau") -> Formula:
    """Parse the fully parenthesized grammar:

    formula := "T" | "F" | "~" formula | "(" formula "&" formula ")"
             | "(" formula "|" formula ")" | "(" formula "<" label ">" formula ")"
             | "<" label ">" formula
    label   := identifier | '"' .aut label '"'
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
        name = tok[1:-1] if tok[0] == '"' else tok
        lab = TAU if name == silent_label else ActionLabel(name)
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
            lab = g.label.token(silent_label)
            lab = lab if _IDENT_RE.fullmatch(lab) else f'"{lab}"'
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


def _formula_json_node(f: Formula, sub: list) -> dict:
    if isinstance(f, Top):
        return {"type": "top"}
    if isinstance(f, Neg):
        return {"type": "neg", "child": sub[0]}
    if isinstance(f, And):
        return {"type": "and", "left": sub[0], "right": sub[1]}
    if isinstance(f, Diamond):
        return {"type": "diamond", "left": sub[0], "label": str(f.label),
                "right": sub[1]}
    raise TypeError(f)


def formula_to_json(f: Formula):
    return _fold(f, _children, _formula_json_node)


def pformula_to_json(f: PFormula, silent_label: str = "tau"):
    """JSON form of ``f``, with the silent action written as
    ``silent_label``; a shared subformula gives one shared dict, which
    ``json`` writes out at each place it occurs."""
    def node(g: PFormula, sub: list) -> dict:
        if isinstance(g, PTop):
            return {"type": "top"}
        if isinstance(g, PBot):
            return {"type": "bot"}
        if isinstance(g, PAnd):
            return {"type": "and", "left": sub[0], "right": sub[1]}
        if isinstance(g, POr):
            return {"type": "or", "left": sub[0], "right": sub[1]}
        if isinstance(g, PDiamond):
            n_pos = len(g.pos)
            return {"type": "pdiamond", "left": sub[0],
                    "label": g.label.token(silent_label),
                    "pos": sub[1:1 + n_pos], "neg": sub[1 + n_pos:]}
        raise TypeError(g)

    return _fold(f, _p_children, node)
