"""Finite labelled transition systems with a distinguished silent action.

States are dense integer indices ``0 .. n_states - 1``.  All values here are
immutable; operations return new objects and never mutate their input.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType


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


@dataclass(frozen=True)
class ActionLabel:
    """An action: either the silent action or a named visible action.

    ``name is None`` encodes the silent action; there is exactly one such
    value up to equality.  Visible names are case-sensitive, nonempty, and
    contain no whitespace or quotes.
    """

    name: str | None = None

    def __post_init__(self):
        if self.name is not None and not _NAME_RE.match(self.name):
            raise ValueError(f"invalid action name: {self.name!r}")

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

_NO_STEPS = MappingProxyType({})


def _group(triples) -> dict:
    """``{label: {state: (other, ...)}}`` from (label, state, other)
    triples, keeping their order within each group."""
    index: dict = {}
    for label, state, other in triples:
        index.setdefault(label, {}).setdefault(state, []).append(other)
    return {label: {state: tuple(others) for state, others in by_state.items()}
            for label, by_state in index.items()}


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
    def _out(self) -> tuple:
        out = [[] for _ in range(self.n_states)]
        for src, label, dst in self.transitions:
            out[src].append((label, dst))
        return tuple(tuple(sorted(o, key=lambda t: (t[0].sort_key, t[1]))) for o in out)

    def out(self, p: int) -> tuple:
        """Outgoing (label, target) pairs of ``p``, sorted by (label, target)."""
        return self._out[p]

    @cached_property
    def _succ_index(self) -> dict:
        return _group((label, p, dst) for p, out in enumerate(self._out)
                      for label, dst in out)

    @cached_property
    def _pred_index(self) -> dict:
        return _group((label, dst, p) for p, out in enumerate(self._out)
                      for label, dst in out)

    def succ(self, p: int, label: ActionLabel) -> tuple:
        """Targets of ``label``-steps from ``p``, ascending."""
        return self._succ_index.get(label, _NO_STEPS).get(p, ())

    def predecessors(self, label: ActionLabel) -> dict:
        """Sources of ``label``-steps, ascending, keyed by target state;
        targets without such a step are absent."""
        return self._pred_index.get(label, _NO_STEPS)

    @cached_property
    def has_reflexive_silent_steps(self) -> bool:
        return all((p, TAU, p) in self.transitions for p in range(self.n_states))

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
    header = re.match(r"\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$", lines[0])
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
        m = re.match(r'^\(\s*(\d+)\s*,\s*(.*?)\s*,\s*(\d+)\s*\)$', line)
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
            label = labels[token] = TAU if token == silent_label else ActionLabel(token)
        transitions.add((src, label, dst))
    return Lts(n_states, frozenset(transitions), initial)


def render_aut(l: Lts, silent_label: str = "tau") -> str:
    lines = [f"des ({l.initial},{len(l.transitions)},{l.n_states})"]
    for src, label, dst in sorted(l.transitions, key=lambda t: (t[0], t[1].sort_key, t[2])):
        token = silent_label if label.silent else label.name
        lines.append(f'({src},"{token}",{dst})')
    return "\n".join(lines) + "\n"


def load_names(path) -> tuple:
    """Load a sidecar name map: a JSON object from state index to name."""
    data = json.loads(Path(path).read_text())
    names = {int(k): v for k, v in data.items()}
    return tuple(names[i] for i in range(len(names)))


def reflexive_closure(l: Lts) -> Lts:
    """The input plus a silent self-loop on every state.  Idempotent."""
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


def tau_closure(l: Lts) -> TauClosure:
    reach = []
    for p in range(l.n_states):
        seen = {p}
        frontier = [p]
        while frontier:
            cur = frontier.pop()
            for nxt in l.succ(cur, TAU):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach.append(frozenset(seen))
    return TauClosure(l, tuple(reach))


def constrained_tau_reach(l: Lts, p: int, allowed) -> frozenset:
    """States reachable from ``p`` along tau-paths lying entirely inside
    ``allowed`` (both endpoints included).  Empty if ``p`` is not allowed."""
    allowed = frozenset(allowed)
    if p not in allowed:
        return frozenset()
    seen = {p}
    frontier = [p]
    while frontier:
        cur = frontier.pop()
        for nxt in l.succ(cur, TAU):
            if nxt in allowed and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
