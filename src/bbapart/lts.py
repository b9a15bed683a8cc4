"""Finite labelled transition systems with a distinguished silent action.

States are dense integer indices ``0 .. n_states - 1``.  All values here are
immutable; operations return new objects and never mutate their input.
"""

from __future__ import annotations

import functools
import json
import re
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
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


_NAME_RE = re.compile(r'^[^\s"]+$')
_HEADER = re.compile(r"\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_STEP = re.compile(r'^\(\s*(\d+)\s*,\s*(.*?)\s*,\s*(\d+)\s*\)$')


class HashConsed:
    """Hash-consing: calling a subclass returns the one live instance of it
    with the same parts, compared by identity, so ``==`` is ``is`` and
    hashing takes constant time; for formulas, equal formulas are one
    object and a formula is a DAG by construction.  Each class keeps its
    instances in a weak-value table, so an instance and its entry die
    with the instance's last user."""

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


@dataclass(frozen=True, eq=False, init=False)
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

    def __str__(self) -> str:
        return "tau" if self.silent else self.name


TAU = ActionLabel()

_NO_STEP_MASKS = (0, (), (), ())


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


def _step_order(step: tuple) -> tuple:
    """The one order of steps (source, label, target): by source, then
    label (see :attr:`ActionLabel.sort_key`), then target."""
    return step[0], step[1].sort_key, step[2]


@dataclass(frozen=True)
class Lts:
    """A finite LTS: state count, transition set, initial state.

    ``names`` optionally maps each state index to a display string.
    """

    n_states: int
    transitions: frozenset  # of (src: int, label: ActionLabel, dst: int)
    initial: int = 0
    names: tuple | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("an LTS needs at least one state")
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")
        for src, label, dst in self.transitions:
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise ValueError(f"transition endpoint out of range: {(src, str(label), dst)}")
        if self.names is not None and len(self.names) != self.n_states:
            raise ValueError("names tuple must cover every state")

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
        mask of the sources p of a step p -> p + d."""
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
                         tuple(n + d for d in diagonals), tuple(diagonals.values()))
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
        preds = self._steps[2].get(label, _NO_STEP_MASKS)[1]
        return sum(1 << q for q, m in enumerate(preds) if m & ~(1 << q))

    def preimage(self, label: ActionLabel, x: int) -> int:
        """The states with a ``label``-step into the bitmask ``x`` (bit
        ``p`` stands for state ``p``; ``x`` is non-negative).

        Each call takes the cheaper of two unions: the predecessor masks of
        the targets in ``x``, one per target, or ``x`` shifted along each
        diagonal and masked by its sources, one per diagonal, in C."""
        targets, preds, shifts, diagonals = \
            self._steps[2].get(label, _NO_STEP_MASKS)
        hit = x & targets
        if hit.bit_count() <= len(shifts):
            return _union(hit, preds)
        # Bit q of hit << n, shifted down by n + d, lands on bit q - d.
        return reduce(or_, map(and_, map(rshift, repeat(hit << self.n_states),
                                         shifts), diagonals), 0)

    @cached_property
    def has_reflexive_silent_steps(self) -> bool:
        return all((p, TAU, p) in self.transitions for p in range(self.n_states))

    def memo(self, compute, *args):
        """``compute(self, *args)``, computed once per LTS and arguments: the
        one analysis of this LTS, shared by every caller, so never mutated,
        except that a fixpoint's progress record only grows."""
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
        src, token, dst = int(m.group(1)), m.group(2), int(m.group(3))
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
        token = silent_label if label.silent else label.name
        lines.append(f'({src},"{token}",{dst})')
    return "\n".join(lines) + "\n"


def _succ_masks(l: Lts, label: ActionLabel) -> tuple:
    """See :meth:`Lts.succ_masks`."""
    return tuple(sum(1 << q for q in l.succ(p, label)) for p in range(l.n_states))


def per_lts(compute):
    """``compute(l)``, run once per LTS ``l`` (see :meth:`Lts.memo`)."""
    return functools.wraps(compute)(lambda l: l.memo(compute))


def load_names(path) -> tuple:
    """Load a sidecar name map: a JSON object from state index to name.
    Raises ``ValueError`` on any other JSON value."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(data, dict)
            and all(isinstance(name, str) for name in data.values())):
        raise ValueError("expected a JSON object mapping state indices to names")
    names = {int(k): v for k, v in data.items()}
    return tuple(names[i] for i in range(len(names)))


@per_lts
def reflexive_closure(l: Lts) -> Lts:
    """The input plus a silent self-loop on every state.  Idempotent, and
    computed once per LTS: an input that already has every self-loop is
    its own closure."""
    if l.has_reflexive_silent_steps:
        return l
    loops = frozenset((p, TAU, p) for p in range(l.n_states))
    return Lts(l.n_states, l.transitions | loops, l.initial, l.names)


@dataclass(frozen=True)
class TauClosure:
    """Reflexive-transitive silent reachability, plus the (q', q'') pairs
    reachable as q ->>tau q' ->alpha q'' for each (q, alpha)."""

    lts: Lts
    reach: tuple  # per state, frozenset of tau-reachable states (incl. itself)

    def triples(self, q: int, label: ActionLabel) -> tuple:
        """Sorted (q', q'') with q ->>tau q' -label-> q''."""
        return self._triple_map.get((q, label), ())

    @cached_property
    def _triple_map(self) -> dict:
        result: dict = {}
        for q in range(self.lts.n_states):
            for q1 in self.reach[q]:
                for label, q2 in self.lts.out(q1):
                    result.setdefault((q, label), set()).add((q1, q2))
        return {k: tuple(sorted(v)) for k, v in result.items()}

    @cached_property
    def back(self) -> tuple:
        """Per state ``q'``, the bitmask of the states ``q`` with
        ``q ->>tau q'``."""
        back = [0] * self.lts.n_states
        for q, reach in enumerate(self.reach):
            for q1 in reach:
                back[q1] |= 1 << q
        return tuple(back)


@per_lts
def tau_closure(l: Lts) -> TauClosure:
    """Silent reachability of ``l``, computed once per LTS."""
    states = range(l.n_states)
    every = frozenset(states)
    return TauClosure(l, tuple(_tau_reach(l, p, every) for p in states))


def constrained_tau_reach(l: Lts, p: int, allowed) -> frozenset:
    """States reachable from ``p`` along tau-paths lying entirely inside
    ``allowed`` (both endpoints included).  Empty if ``p`` is not allowed."""
    allowed = frozenset(allowed)
    return _tau_reach(l, p, allowed) if p in allowed else frozenset()


def _tau_reach(l: Lts, p: int, allowed: frozenset) -> frozenset:
    """:func:`constrained_tau_reach` for an allowed ``p``."""
    seen = {p}
    frontier = [p]
    while frontier:
        cur = frontier.pop()
        for nxt in l.succ(cur, TAU):
            if nxt in allowed and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
