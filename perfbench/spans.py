"""Span tracing of bbapart from the outside.

:func:`install` replaces every public function of the traced modules (and a
few named methods) with a wrapper that records a span: name, parent, start
and end.  It rebinds the wrapper at every binding the program calls
through: the defining module, every module that imported the name, and the
dispatch tables ``validate._APART_ENGINES`` and ``bisim._ENGINES``.

Re-entrant calls are folded into the outermost span.  While a wrapped
function runs, its own home binding (module global or class attribute)
points back at the original, so self-recursion adds no wrapper frames and
the program hits Python's recursion limit at the same depth as untraced.

Structural counts are taken from returned objects after a span closes,
with the span clock paused, so counting never shows up as program time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

TRACED_MODULES = ("lts", "apartness", "bisim", "logic", "distinguish",
                  "validate", "cli", "generate")

# Public methods traced in addition to module-level functions.
TRACED_METHODS = (
    ("logic", "SatEvaluator", "holds"),
    ("logic", "SatEvaluator", "set"),
    ("apartness", "Derivation", "to_json"),
    ("validate", "ValidationReport", "to_json"),
)


SPAN_COLUMNS = ("id", "parent", "op", "name", "start_ns", "end_ns")


class Tracer:
    """Spans kept in memory, one array per column of ``SPAN_COLUMNS``;
    ``parent`` is -1 for a root span, ``op`` the index of the operation
    (the request the span belongs to) and ``name`` an index into
    ``names``.  Self time, call counts and structural counts are also
    summed per name while ``record`` only controls whether spans are kept."""

    def __init__(self):
        self.enabled = False
        self.record = True
        self.names: list = []
        self._name_ids: dict = {}
        self.columns = {c: array("q") for c in SPAN_COLUMNS}
        self._entered = 0
        self._stack: list = []  # [span_id, name_id, start_ns, child_ns]
        self._paused_ns = 0
        self.op = -1
        self.self_ns: defaultdict = defaultdict(int)
        self.calls: defaultdict = defaultdict(int)
        self.counts: defaultdict = defaultdict(int)
        self.errors: list = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clock(self) -> int:
        return perf_counter_ns() - self._paused_ns

    @property
    def span_count(self) -> int:
        return len(self.columns["id"])

    def enter(self, nid: int) -> None:
        self._stack.append([self._entered, nid, self.clock(), 0])
        self._entered += 1

    def exit(self) -> None:
        end = self.clock()
        span_id, nid, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if self.record:
            for col, value in zip(self.columns.values(),
                                  (span_id, parent[0] if parent else -1,
                                   self.op, nid, start, end)):
                col.append(value)
        name = self.names[nid]
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1

    def measure(self, fn, result) -> None:
        """Run a counting function with the span clock stopped.  A failure
        is recorded, never raised into the program."""
        t0 = perf_counter_ns()
        try:
            for key, value in fn(result):
                self.counts[key] += value
        except Exception as exc:  # noqa: BLE001 - must not change the program's behaviour
            self.errors.append(f"{fn.__name__}: {exc!r}")
        self._paused_ns += perf_counter_ns() - t0

    def reset_totals(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def write(self, path) -> None:
        """Write the spans, gzipped: one JSON header line naming the
        columns and the span names, then each column as native int64s."""
        with gzip.open(path, "wb", compresslevel=1) as fh:
            header = {"columns": SPAN_COLUMNS, "count": self.span_count,
                      "dtype": "int64", "byteorder": sys.byteorder,
                      "names": self.names}
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self.columns.values():
                fh.write(col.tobytes())


def _wrap(tracer: Tracer, name: str, fn, homes, measure):
    nid = tracer.name_id(name)
    active = [False]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if active[0] or not tracer.enabled:
            return fn(*args, **kwargs)
        active[0] = True
        for home, attr in homes:
            setattr(home, attr, fn)
        tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
            for home, attr in homes:
                setattr(home, attr, wrapper)
            active[0] = False
        if measure is not None:
            tracer.measure(measure, result)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# Structural counts, computed from returned objects


def _relation_counts(rel):
    stamps = rel.rounds.values()
    return (("apartness.rounds", max(stamps, default=0)),
            ("apartness.pairs_held", len(rel.holds)))


def _reach_counts(tc):
    return (("lts.tau_closure.reach_pairs", sum(len(r) for r in tc.reach)),)


def dag_and_tree(root, children) -> tuple:
    """Distinct nodes by object identity, and the size of the unfolded
    tree, by an iterative post-order walk."""
    tree: dict = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in tree:
            continue
        if expanded:
            tree[id(node)] = 1 + sum(tree[id(c)] for c in children(node))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children(node) if id(c) not in tree)
    return len(tree), tree[id(root)]


def _derivation_children(d):
    return [c.sub for c in d.children]


def _pformula_children(f):
    kids = []
    for attr in ("left", "right"):
        sub = getattr(f, attr, None)
        if sub is not None:
            kids.append(sub)
    kids.extend(getattr(f, "pos", ()))
    kids.extend(getattr(f, "neg", ()))
    return kids


def _derivation_counts(d):
    dag, tree = dag_and_tree(d, _derivation_children)
    return (("apartness.derivation.dag_nodes", dag),
            ("apartness.derivation.tree_nodes", tree))


def _formula_counts(f):
    dag, tree = dag_and_tree(f, _pformula_children)
    return (("distinguish.formula.dag_nodes", dag),
            ("distinguish.formula.tree_nodes", tree))


MEASURES = {
    "apartness.strong_apartness": _relation_counts,
    "apartness.directed_strong_apartness": _relation_counts,
    "apartness.branching_apartness": _relation_counts,
    "apartness.directed_branching_apartness": _relation_counts,
    "apartness.directed_branching_apartness_nonreflexive": _relation_counts,
    "lts.tau_closure": _reach_counts,
    "apartness.extract_derivation": _derivation_counts,
    "distinguish.formula_from_derivation": _formula_counts,
}


def install(tracer: Tracer, package: str = "bbapart") -> int:
    """Wrap the traced functions of an imported package; returns how many
    bindings now point at a wrapper."""
    modules = {name: sys.modules[f"{package}.{name}"] for name in TRACED_MODULES}
    wrappers: dict = {}  # id(original) -> wrapper

    for short, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[id(value)] = (value, _wrap(
                tracer, name, value, [(mod, attr)], MEASURES.get(name)))
    for short, cls_name, attr in TRACED_METHODS:
        cls = getattr(modules[short], cls_name)
        fn = vars(cls)[attr]
        name = f"{short}.{cls_name}.{attr}"
        wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, [(cls, attr)], None))
        setattr(cls, attr, wrappers[id(fn)][1])

    def swap(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else value

    bound = len(TRACED_METHODS)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if swap(value) is not value:
                setattr(mod, attr, swap(value))
                bound += 1
    validate, bisim = modules["validate"], modules["bisim"]
    for kind, engine in list(validate._APART_ENGINES.items()):
        validate._APART_ENGINES[kind] = swap(engine)
        bound += 1
    for kind, row in list(bisim._ENGINES.items()):
        bisim._ENGINES[kind] = tuple(swap(v) for v in row)
        bound += 1
    return bound
