"""Finite labelled transition systems with a distinguished silent action.

States are dense integer indices ``0 .. n_states - 1``.  All values here are
immutable; operations return new objects and never mutate their input.
"""

from __future__ import annotations

import functools
import json
import re
import weakref
from functools import cached_property, reduce
from itertools import count, repeat
from operator import and_, or_, rshift
from pathlib import Path


class AutParseError(ValueError):
    """Raised on malformed Aldebaran (.aut) input; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonReflexiveLtsError(ValueError):
    """Raised when an operation requires reflexive silent steps.

    Apply :func:`reflexive_closure` first.
    """


_NAME_RE = re.compile(r'^[^\s"]+\Z')
_HEADER = re.compile(r"\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
# A step line.  The label is all between the first comma and the last, less
# the whitespace at its ends: one greedy scan finds it, in time linear in
# the line.  A lazy label would try each split of a run of whitespace
# before a comma, in time quadratic in the run.
_STEP = re.compile(r"\(\s*(\d+)\s*,(.*),\s*(\d+)\s*\)$")


class HashConsed:
    """Immutable value records, hash-consed: calling a subclass returns the
    one live instance of it with the same parts (its annotated fields, in
    order), compared by identity, so ``==`` is ``is`` and hashing takes
    constant time; for formulas, equal formulas are one object and a
    formula is a DAG by construction.  Each class keeps its instances in a
    weak-value table, so an instance and its entry die with the instance's
    last user.  Fields cannot be assigned, and ``repr`` names them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._table = weakref.WeakValueDictionary()

    def __new__(cls, *parts):
        node = cls._table.get(parts)
        if node is None:
            node = cls._table[parts] = object.__new__(cls)
            vars(node).update(zip(cls._fields, parts))
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({parts})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class ActionLabel(HashConsed):
    """An action: either the silent action or a named visible action.

    ``name is None`` encodes the silent action.  Labels are interned by
    name (see :class:`HashConsed`).  Visible names are case-sensitive,
    nonempty, and contain no whitespace or quotes.
    """

    name: str | None = None

    def __new__(cls, name=None):
        if name is not None and not _NAME_RE.match(name):
            raise ValueError(f"invalid action name: {name!r}")
        return super().__new__(cls, name)

    @property
    def silent(self) -> bool:
        return self.name is None

    @property
    def sort_key(self) -> tuple:
        # Silent sorts before every visible label; visibles sort by name.
        return (0, "") if self.silent else (1, self.name)

    def token(self, silent_label: str = "tau") -> str:
        """The name, or ``silent_label`` for the silent action."""
        return silent_label if self.silent else self.name

    __str__ = token


TAU = ActionLabel()

_NO_STEP_MASKS = (0, (), (), (), 0)


def _bits(mask: int):
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(x: int, masks) -> int:
    """The OR of ``masks[i]`` over the set bits ``i`` of ``x``."""
    out = 0
    while x:
        low = x & -x
        out |= masks[low.bit_length() - 1]
        x ^= low
    return out


def _fold(root, children, build, memo=None, key=id):
    """Bottom-up evaluation over a DAG, by an explicit post-order walk.

    ``children(node)`` is called once per node, before any of its children
    is built; ``build(node, results)`` gets the children's results in the
    same order.  Each node is built once per ``key`` (object identity by
    default), so shared sub-terms cost nothing extra and depth is
    unbounded.  Pass ``memo`` to share results between calls.
    """
    memo = {} if memo is None else memo
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        k = key(node)
        if k in memo:
            continue
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack.extend((c, None) for c in reversed(kids))
        else:
            memo[k] = build(node, [memo[key(c)] for c in kids])
    return memo[key(root)]


def _step_order(step: tuple) -> tuple:
    """The one order of steps (source, label, target): by source, then
    label (see :attr:`ActionLabel.sort_key`), then target."""
    return step[0], step[1].sort_key, step[2]


class Lts:
    """A finite LTS: state count, transition set, initial state.

    ``names`` optionally maps each state index to a display string.  A
    value record like :class:`HashConsed`'s, but never interned: equal
    LTSs compare and hash equal, and each keeps its own analyses.
    """

    n_states: int
    transitions: frozenset  # of (src: int, label: ActionLabel, dst: int)
    initial: int
    names: tuple | None
    _fields = tuple(__annotations__)
    __reduce__, __repr__ = HashConsed.__reduce__, HashConsed.__repr__
    __setattr__ = __delattr__ = HashConsed.__setattr__

    def __init__(self, n_states, transitions, initial=0, names=None):
        vars(self).update(zip(self._fields, (n_states, transitions, initial, names)))
        if self.n_states < 1:
            raise ValueError("an LTS needs at least one state")
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")
        for src, label, dst in self.transitions:
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise ValueError(f"transition endpoint out of range: {(src, str(label), dst)}")
        if self.names is not None and len(self.names) != self.n_states:
            raise ValueError("names tuple must cover every state")

    def __eq__(self, other):
        return type(other) is Lts and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    @cached_property
    def actions(self) -> frozenset:
        return frozenset(label for _, label, _ in self.transitions)

    @cached_property
    def visible_actions(self) -> frozenset:
        return frozenset(a for a in self.actions if not a.silent)

    @cached_property
    def _steps(self) -> tuple:
        """The one index of the steps, from one pass over them in step
        order: per state, its out-steps; per (label, state), the targets
        of its steps; per label, its step masks in two forms: the mask of
        the states entered with, per state, the mask of its predecessors;
        and the diagonals, per offset d = q - p the shift n + d with the
        mask of the sources p of a step p -> p + d; last, the mask of the
        states entered from another state."""
        n = self.n_states
        out = [[] for _ in range(n)]
        succ: dict = {}
        by_label: dict = {}
        for p, label, q in sorted(self.transitions, key=_step_order):
            out[p].append((label, q))
            succ.setdefault((label, p), []).append(q)
            if label not in by_label:
                by_label[label] = ([0] * n, {})
            preds, diagonals = by_label[label]
            preds[q] |= 1 << p
            diagonals[q - p] = diagonals.get(q - p, 0) | 1 << p
        return (tuple(map(tuple, out)), {key: tuple(qs) for key, qs in succ.items()},
                {label: (sum(1 << q for q, m in enumerate(preds) if m), tuple(preds),
                         tuple(n + d for d in diagonals), tuple(diagonals.values()),
                         sum(1 << q for q, m in enumerate(preds) if m & ~(1 << q)))
                 for label, (preds, diagonals) in by_label.items()})

    def out(self, p: int) -> tuple:
        """Outgoing (label, target) pairs of ``p``, in step order."""
        return self._steps[0][p]

    def succ(self, p: int, label: ActionLabel) -> tuple:
        """Targets of ``label``-steps from ``p``, ascending."""
        return self._steps[1].get((label, p), ())

    def succ_masks(self, label: ActionLabel) -> tuple:
        """Per state, the mask of its ``label``-successors, built on first
        use per label."""
        return self.memo(_succ_masks, label)

    def entered(self, label: ActionLabel) -> int:
        """The mask of the states entered by a ``label``-step from another
        state."""
        return self._steps[2].get(label, _NO_STEP_MASKS)[4]

    def preimage(self, label: ActionLabel, x: int) -> int:
        """The states with a ``label``-step into the bitmask ``x`` (bit
        ``p`` stands for state ``p``; ``x`` is non-negative).

        Each call takes the cheaper of two unions: the predecessor masks of
        the targets in ``x``, one per target, or ``x`` shifted along each
        diagonal and masked by its sources, one per diagonal, in C."""
        targets, preds, shifts, diagonals, _ = \
            self._steps[2].get(label, _NO_STEP_MASKS)
        hit = x & targets
        if hit.bit_count() <= len(shifts):
            return _union(hit, preds)
        # Bit q of hit << n, shifted down by n + d, lands on bit q - d.
        return reduce(or_, map(and_, map(rshift, repeat(hit << self.n_states),
                                         shifts), diagonals), 0)

    def reaching(self, x: int, within: int) -> int:
        """``x`` plus the states of the bitmask ``within`` with a silent
        path into ``x`` through states of ``within``: a backward search by
        :meth:`preimage`, which only the states entered by a silent step
        from another state extend, so its frontiers hold n bits at most."""
        entered = self.entered(TAU)
        frontier = x & entered
        while frontier:
            frontier = self.preimage(TAU, frontier) & within & ~x
            x |= frontier
            frontier &= entered
        return x

    @cached_property
    def has_reflexive_silent_steps(self) -> bool:
        return all((p, TAU, p) in self.transitions for p in range(self.n_states))

    def memo(self, compute, *args):
        """``compute(self, *args)``, computed once per LTS and arguments: the
        one analysis of this LTS, shared by every caller, so never mutated."""
        memo = self.__dict__.setdefault("_memo", {})
        key = (compute, *args)
        if key not in memo:
            memo[key] = compute(self, *args)
        return memo[key]

    def state_name(self, p: int) -> str:
        if self.names is not None:
            return self.names[p]
        return str(p)

    def state_index(self, token: str) -> int:
        """Resolve a state given either its index or its display name."""
        if self.names is not None and token in self.names:
            return self.names.index(token)
        try:
            p = int(token)
        except ValueError:
            raise KeyError(f"unknown state: {token!r}") from None
        if not 0 <= p < self.n_states:
            raise KeyError(f"state index out of range: {p}")
        return p

    def with_names(self, names) -> "Lts":
        return Lts(self.n_states, self.transitions, self.initial, tuple(names))


def parse_aut(text: str, silent_label: str = "tau") -> Lts:
    """Parse the Aldebaran format: ``des (<init>,<#trans>,<#states>)`` then
    one ``(<from>,"<label>",<to>)`` per line.

    The ``silent_label`` token maps to the silent action.  Duplicate
    transitions are deduplicated.
    """
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
    labels: dict = {}  # one ActionLabel per token, so lookups hit by identity
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
        label = labels.get(token)
        if label is None:
            try:
                label = TAU if token == silent_label else ActionLabel(token)
            except ValueError as exc:
                raise AutParseError(str(exc), lineno) from exc
            labels[token] = label
        transitions.add((src, label, dst))
    return Lts(n_states, frozenset(transitions), initial)


def render_aut(l: Lts, silent_label: str = "tau") -> str:
    """The ``.aut`` text of ``l``; ``ValueError`` on a visible label named ``silent_label``."""
    lines = [f"des ({l.initial},{len(l.transitions)},{l.n_states})"]
    for src, label, dst in sorted(l.transitions, key=_step_order):
        if not label.silent and label.name == silent_label:
            raise ValueError(f"visible action {label.name!r} is named like the silent action")
        lines.append(f'({src},"{label.token(silent_label)}",{dst})')
    return "\n".join(lines) + "\n"


def _succ_masks(l: Lts, label: ActionLabel) -> tuple:
    """See :meth:`Lts.succ_masks`."""
    return tuple(sum(1 << q for q in l.succ(p, label)) for p in range(l.n_states))


def per_lts(compute):
    """``compute(l)``, run once per LTS ``l`` (see :meth:`Lts.memo`)."""
    return functools.wraps(compute)(lambda l: l.memo(compute))


def load_names(path) -> tuple:
    """Load a sidecar name map: a JSON object from state index to name.
    Raises ``ValueError`` on any other JSON value, or when an index below
    the number of names is missing, or when a name would make a state
    ambiguous: a name given twice, or one that ``int`` reads as the index
    of another state."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(data, dict)
            and all(isinstance(name, str) for name in data.values())):
        raise ValueError("expected a JSON object mapping state indices to names")
    names = {int(k): v for k, v in data.items()}
    missing = [i for i in range(len(names)) if i not in names]
    if missing:
        raise ValueError(f"state index {missing[0]} is missing")
    names = tuple(names[i] for i in range(len(names)))
    first: dict = {}
    for i, name in enumerate(names):
        if first.setdefault(name, i) != i:
            raise ValueError(f"name {name!r} is given to states {first[name]} and {i}")
        try:
            other = int(name)
        except ValueError:
            continue
        if other != i and 0 <= other < len(names):
            raise ValueError(f"name {name!r} of state {i} reads as the index of state {other}")
    return names


@per_lts
def reflexive_closure(l: Lts) -> Lts:
    """The input plus a silent self-loop on every state.  Idempotent, and
    computed once per LTS: an input that already has every self-loop is
    its own closure."""
    if l.has_reflexive_silent_steps:
        return l
    loops = frozenset((p, TAU, p) for p in range(l.n_states))
    return Lts(l.n_states, l.transitions | loops, l.initial, l.names)


class TauClosure:
    """Silent reachability as bitmasks: ``forward[q]`` holds the states
    q ->>tau reaches, q included, and ``back[q]`` those that reach q; the
    (q', q'') with q ->>tau q' -alpha-> q'' are built per (q, alpha)."""

    def __init__(self, lts: Lts, forward: tuple, components: list):
        self.lts, self.forward, self._components = lts, forward, components
        # triples(q, label): sorted (q', q'') with q ->>tau q' -label-> q''.
        self.triples = functools.cache(lambda q, label: tuple(
            (q1, q2) for q1 in _bits(forward[q]) for q2 in lts.succ(q1, label)))

    @cached_property
    def back(self) -> tuple:
        """Per state q, the mask of the states that reach q, sources first."""
        back, succ = [0] * self.lts.n_states, self.lts._steps[1].get
        for members in reversed(self._components):
            mask = reduce(or_, (1 << m | back[m] for m in members))
            for m in members:
                back[m] = mask
                for w in succ((TAU, m), ()):
                    back[w] |= mask
        return tuple(back)

    @cached_property
    def reach(self) -> tuple:
        """Per state q, the frozenset of ``forward[q]``."""
        return tuple(frozenset(_bits(m)) for m in self.forward)


@per_lts
def tau_closure(l: Lts) -> TauClosure:
    """Silent reachability of ``l``, once per LTS: Tarjan's strongly connected
    components of the silent steps, each found after every component it
    reaches, so its forward mask takes one OR per step leaving it."""
    n, succ = l.n_states, l._steps[1].get
    # Per state: DFS number from 1 (0 while unvisited, n + 1 once its
    # component is done), low link, and forward mask, whole once done.
    order, low, forward = [0] * n, [0] * n, [0] * n
    stack, components, visits = [], [], count(1)  # components: members, sinks first
    for root in range(n):
        if order[root]:
            continue
        order[root] = low[root] = next(visits)
        stack.append(root)
        work = [(root, iter(succ((TAU, root), ())))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if not order[w]:
                    order[w] = low[w] = next(visits)
                    stack.append(w)
                    work.append((w, iter(succ((TAU, w), ()))))
                    break
                forward[v] |= forward[w]  # w done, or in v's component
                low[v] = min(low[v], order[w])
            else:
                work.pop()
                if low[v] == order[v]:  # v is the first of its component
                    members, mask, w = [], 0, None
                    while w != v:
                        w = stack.pop()
                        members.append(w)
                        mask |= 1 << w | forward[w]
                    for m in members:
                        forward[m], order[m] = mask, n + 1
                    components.append(members)
                if work:
                    u = work[-1][0]
                    forward[u] |= forward[v]
                    low[u] = min(low[u], low[v])
    return TauClosure(l, tuple(forward), components)

