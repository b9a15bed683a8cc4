#!/usr/bin/env python3
"""Benchmark of the ``bbapart`` command line, run in-process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload random-queries --seed 1 --seconds 36 --trace 0

One process, one thread, one client in a closed loop: each operation is a
``bbapart`` command line passed to ``bbapart.cli.main`` with stdout and
stderr captured in memory, and the next starts when it returns.  An
operation's latency is what a user of that command pays: parse the ``.aut``
file, compute the answer, build and emit the JSON.  The workload's list of
operations is run in whole passes until ``--seconds`` have gone by.
Each operation and each set-up runs between two runs of a fixed
calibration loop; the gated times are in reference seconds, which
divide out the speed of the machine at that moment (see ``cal_time``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps the package's public functions (see
``spans.py``) and alternates traced passes with passes that have the
wrappers switched off; it prints per-layer self times, call counts and
structural counts per traced pass, checks that every traced output is
byte-identical to the untraced one, and reports the overhead.

Every output is checked against a reference computed outside the timed
region (see ``reference.py``).  An operation fails when an exception
escapes ``cli.main``, its exit code is not 0, its answer is wrong, or it
gives no answer within ``OP_TIMEOUT_S``.  Every failure makes the run
incorrect except two, which are counted as failed ops only: no answer
in time, and the exception of a recorded defect on an op that names it.
An output that changes between passes also makes the run incorrect.
The last line of stdout is the result as JSON; a fuller report is
printed before it and written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import spans
import workloads

PACKAGE = "bbapart"
MODULES = ("lts", "apartness", "bisim", "logic", "distinguish", "generate",
           "validate", "cli")
SETUP_REPS = 9
# An op with no answer after this long is stopped and counted as failed;
# the slowest op that answers takes about 1.5 s.
OP_TIMEOUT_S = 10.0
TIMEOUT = "timeout"
P90_MIN_SAMPLES = 100
OUT_DIR = Path(".perfbench")
# Gated times are in reference seconds: wall seconds scaled by
# CAL_REF_S / (the calibration loop's time measured next to them).  The
# loop takes about CAL_REF_S on an idle 2-vCPU x86-64 virtual machine with
# Python 3.11.  Around each op the loop runs for CAL_SHARE of the op's last
# time, and at least once, on each side.
CAL_REF_S = 0.003
CAL_SHARE = 0.02

# The figures gated in BENCHMARK.json: ones every workload has and that
# repeat from seed to seed.  out_bytes swings with the certificate sizes
# of random pairs; a median over a mix of commands jumps between the
# clusters of the mix; the p90 of deep-structures rests on two operations.
# Those, the per-command percentiles, the wall-clock figures and
# failed_ratio are in the printed report only.
END_TO_END = ("setup_s", "ref_ops_per_s", "ref_latency_gmean_s", "peak_rss_mb")


# ---------------------------------------------------------------------------
# Calibration


def _cal_loop() -> None:
    d: dict = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i


def cal_time(budget: float) -> float:
    """Mean time of the calibration loop, run for ``budget`` seconds and at
    least once.

    On a shared machine a fixed loop of Python code takes from 1x to 2x its
    best time, in spells of a fraction of a second to minutes, and code
    run next to it slows alike.  Over 90 s in which the median wall time
    of a 100 ms ``check`` per 5 s window moved between 112 and 150 ms, its
    time divided by the loop's time next to it stayed between 35.0 and
    38.4 loop times, and within 35.0-36.2 in 16 of 18 windows."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _cal_loop()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / n


def timed_ref(fn, expected: float):
    """Run ``fn()`` between two calibrations; returns (its result, wall
    seconds, reference seconds).  ``expected`` sizes the calibrations."""
    before = cal_time(CAL_SHARE * expected)
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    after = cal_time(CAL_SHARE * elapsed)
    return result, elapsed, elapsed * CAL_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run, per pass


def _self(*names):
    return lambda t: sum(t.self_s.get(n, 0.0) for n in names)


def _calls(*names):
    return lambda t: sum(t.calls.get(n, 0) for n in names)


def _count(key):
    return lambda t: t.counts.get(key, 0)


def _module_self(module):
    return lambda t: sum(v for k, v in t.self_s.items()
                         if k.split(".", 1)[0] == module)


APART_ENGINES = {
    "strong": "apartness.strong_apartness",
    "dstrong": "apartness.directed_strong_apartness",
    "branching": "apartness.branching_apartness",
    "dbranching": "apartness.directed_branching_apartness",
    "dbranching_nonreflexive": "apartness.directed_branching_apartness_nonreflexive",
}
BISIM_ENGINES = {
    "strong": "bisim.strong_bisimilarity",
    "dstrong": "bisim.directed_strong_bisimilarity",
    "branching": "bisim.branching_bisimilarity",
    "dbranching": "bisim.directed_branching_bisimilarity",
}
SAT_ENTRIES = ("logic.SatEvaluator.holds", "logic.SatEvaluator.set",
               "logic.sat_set", "logic.satisfies")
VALIDATE_SUITES = (
    "duality_violations", "symmetric_closure_violations",
    "reflexive_invariance_violations", "nonreflexive_agreement_violations",
    "tau_extension_violations", "apartness_stuttering_violations",
    "bisim_stuttering_violations", "conjunction_violations",
    "fixed_point_violations", "synthesis_violations",
    "tau_transfer_violations", "simpler_diamond_violations",
    "p_embed_agreement_violations", "modality_free_violations",
    "good_formula_violations", "characterization_violations",
)


def _span(name, calls=False):
    rows = [(f"{name}.s", "s", _self(name))]
    if calls:
        rows.append((f"{name}.calls", "count", _calls(name)))
    return rows


PER_LAYER = (
    *[(f"apartness.{k}.s", "s", _self(v)) for k, v in APART_ENGINES.items()],
    ("apartness.engine.calls", "count", _calls(*APART_ENGINES.values())),
    ("apartness.rounds", "count", _count("apartness.rounds")),
    ("apartness.pairs_held", "count", _count("apartness.pairs_held")),
    *_span("apartness.extract_derivation", calls=True),
    ("apartness.to_json.s", "s", _self("apartness.Derivation.to_json")),
    ("apartness.derivation.dag_nodes", "count", _count("apartness.derivation.dag_nodes")),
    ("apartness.derivation.tree_nodes", "count", _count("apartness.derivation.tree_nodes")),
    *_span("apartness.check_tau_extension"),
    ("apartness.self.s", "s", _module_self("apartness")),
    *_span("lts.parse_aut"),
    *_span("lts.reflexive_closure", calls=True),
    *_span("lts.tau_closure", calls=True),
    ("lts.tau_closure.reach_pairs", "count", _count("lts.tau_closure.reach_pairs")),
    ("lts.self.s", "s", _module_self("lts")),
    *[(f"bisim.{k}.s", "s", _self(v)) for k, v in BISIM_ENGINES.items()],
    ("bisim.calls", "count", _calls(*BISIM_ENGINES.values())),
    *_span("bisim.refine_once_violations"),
    ("bisim.self.s", "s", _module_self("bisim")),
    ("logic.sat.s", "s", _self(*SAT_ENTRIES)),
    ("logic.sat.calls", "count", _calls(*SAT_ENTRIES)),
    *_span("logic.diamond_witness"),
    *_span("logic.parse_formula"),
    ("logic.format.s", "s", _self("logic.format_formula", "logic.format_pformula")),
    ("logic.to_json.s", "s", _self("logic.formula_to_json", "logic.pformula_to_json")),
    *_span("logic.p_satisfies", calls=True),
    *_span("logic.enumerate_pformulas", calls=True),
    *_span("logic.canonical_key", calls=True),
    *_span("logic.sort_key", calls=True),
    *_span("logic.p_embed"),
    ("logic.self.s", "s", _module_self("logic")),
    *_span("distinguish.formula_from_derivation", calls=True),
    ("distinguish.formula.dag_nodes", "count", _count("distinguish.formula.dag_nodes")),
    ("distinguish.formula.tree_nodes", "count", _count("distinguish.formula.tree_nodes")),
    ("distinguish.formula.chars", "chars", _count("distinguish.formula.chars")),
    *_span("distinguish.verify_distinguishes"),
    *_span("distinguish.pformula_from_hmlu"),
    *_span("distinguish.simplify"),
    ("distinguish.self.s", "s", _module_self("distinguish")),
    *[(f"validate.{s}.s", "s", _self(f"validate.{s}")) for s in VALIDATE_SUITES],
    *_span("validate.check_pair"),
    *_span("validate.distinguish_pair"),
    *_span("validate.cross_validate"),
    ("validate.self.s", "s", _module_self("validate")),
    ("cli.self.s", "s", _module_self("cli")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.out_bytes", "bytes", _count("cli.out_bytes")),
    ("generate.self.s", "s", lambda t: t.setup_generate_s),
    ("trace.spans", "count", lambda t: t.spans),
    # Summed per-op median latency, in reference seconds, tracing off and on.
    ("trace.untraced_s", "s", lambda t: t.untraced_s),
    ("trace.traced_s", "s", lambda t: t.traced_s),
    ("trace.overhead_s", "s", lambda t: t.traced_s - t.untraced_s),
)


# ---------------------------------------------------------------------------
# Set-up


class SetupError(Exception):
    """The checkout has no importable package source."""


def import_package(root: Path) -> SimpleNamespace:
    """Import a fresh copy of the package from ``root/src``."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SetupError(f"{PACKAGE} imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def set_up(root: Path, workload: str, seed: int, workdir: Path, expected: float):
    """Import the package and write the workload's inputs; returns (wall
    seconds, reference seconds, package, ops)."""
    workdir.mkdir(parents=True)

    def work():
        bb = import_package(root)
        return bb, workloads.WORKLOADS[workload](bb, seed, workdir)

    (bb, ops), wall, ref_s = timed_ref(work, expected)
    return wall, ref_s, bb, ops


# ---------------------------------------------------------------------------
# Running operations


class Sample(NamedTuple):
    """One run of an op: wall seconds and reference seconds."""

    op: int
    seconds: float
    failed: bool
    ref_s: float


@dataclass
class Outcome:
    """What an op produced the first time it ran."""

    digest: str
    nbytes: int
    failure: str | None
    wrong: bool
    formula_chars: int
    timed_out: bool = False
    ref_s: float = 0.0


class OpTimeout(BaseException):
    """Raised into the program when an op runs past ``OP_TIMEOUT_S``.  It is
    not an Exception, so the program's own handlers let it through."""


def _alarm(signum, frame):
    raise OpTimeout


def run_op(main, argv):
    """Run one command in-process; returns (exit code, escaped exception
    name or TIMEOUT, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            rc = main(argv)
        except OpTimeout:
            rc, error = None, TIMEOUT
        except Exception as exc:  # noqa: BLE001 - an escape is a failed op
            rc, error = None, type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        sys.stdout, sys.stderr = saved
    return rc, error, out.getvalue()


class Runner:
    """Runs ops, keeps latency samples and checks outputs.

    An op's output is checked the first time it runs; later runs must
    produce the same bytes.  An op that ran out of time is not run again:
    later passes count it as failed, at the time of its first run.  Each
    run sits between two calibrations (:func:`timed_ref`)."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.last_s = [0.0] * len(ops)
        self.samples: list = []
        self.nondeterministic = 0

    def judge(self, op, rc, error, text) -> Outcome:
        data = text.encode()
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        failure, wrong, chars = None, False, 0
        if error == TIMEOUT:
            failure = f"no answer within {OP_TIMEOUT_S:g} s"
        elif error is not None:
            failure = f"exception {error}"
            wrong = error != op.known_failure
        else:
            try:
                out = json.loads(text)
            except ValueError:
                out = None
            if not isinstance(out, dict):
                failure = "stdout is not a JSON object"
            else:
                failure = op.check(out)
                if op.cmd in ("distinguish", "convert"):
                    chars = len(out.get("formula", ""))
            if rc != 0:
                failure = f"exit code {rc}" + (f": {failure}" if failure else "")
            wrong = failure is not None
        return Outcome(digest, len(data), failure, wrong, chars, error == TIMEOUT)

    def execute(self, i: int) -> None:
        op = self.ops[i]
        rec = self.first[i]
        if rec is not None and rec.timed_out:
            self.samples.append(Sample(i, OP_TIMEOUT_S, True, rec.ref_s))
            return
        # Each op starts from a collected heap, as a fresh process would, so
        # that peak memory does not hang on where the collector last ran.
        gc.collect()
        (rc, error, text), elapsed, ref_s = timed_ref(
            lambda: run_op(self.main, op.argv), self.last_s[i])
        self.last_s[i] = elapsed
        if rec is None:
            rec = self.first[i] = self.judge(op, rc, error, text)
            rec.ref_s = ref_s
            failed = rec.failure is not None
        else:
            same = hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == rec.digest
            if not same:
                self.nondeterministic += 1
            failed = rec.failure is not None or not same
        self.samples.append(Sample(i, elapsed, failed, ref_s))

    def run_pass(self) -> None:
        for i in range(len(self.ops)):
            self.execute(i)

    @property
    def wrong(self) -> int:
        return sum(1 for r in self.first if r is not None and r.wrong)

    def per_pass(self, field: str) -> int:
        return sum(getattr(r, field) for r in self.first)


def run_for(runner: Runner, seconds: float, between=lambda: None) -> int:
    """Whole passes, at least one, and another only while the last pass's
    length still fits in ``seconds``; calls ``between`` after each pass and
    returns the pass count."""
    t0 = time.perf_counter()
    passes, last = 0, 0.0
    while passes == 0 or time.perf_counter() - t0 + last <= seconds:
        t1 = time.perf_counter()
        runner.run_pass()
        last = time.perf_counter() - t1
        passes += 1
        between()
    return passes


def _latencies(samples, field: str = "seconds") -> list:
    """The wall or reference seconds of the samples.  A failed op counts as
    slower than any answer: the summed latency of all samples stands in
    for its time."""
    times = [getattr(s, field) for s in samples]
    cap = sum(times)
    return [cap if s.failed else t for s, t in zip(samples, times)]


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile of the samples' wall latencies."""
    data = sorted(_latencies(samples))
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Metrics a user of the commands sees


def per_op(runner: Runner, samples) -> list:
    """One sample per op: the median of its passes, wall and reference
    seconds apart."""
    runs: dict = {}
    for s in samples:
        runs.setdefault(s.op, []).append(s)
    return [Sample(i, statistics.median(s.seconds for s in ss),
                   runner.first[i].failure is not None,
                   statistics.median(s.ref_s for s in ss))
            for i, ss in sorted(runs.items())]


def user_metrics(runner: Runner, samples, setups: list, rss_mb: float) -> dict:
    """Every end-to-end figure, as {name: {"value", "unit"[, "samples"]}}.

    ``setups`` holds (wall, reference) seconds per set-up.  Throughput, the
    geometric mean and the overall percentiles use each op's median pass
    (see :func:`per_op`), in reference seconds for the gated ``ref_``
    figures and in wall seconds for the others.  Per-command percentiles
    use every sample's wall time; a p90 needs at least 100 of them."""
    ops = per_op(runner, samples)
    answered = sum(1 for s in ops if not s.failed)
    failed = sum(1 for s in samples if s.failed)
    out = {
        "setup_s": (statistics.median(r for _, r in setups), "s"),
        "ref_ops_per_s": (answered / sum(s.ref_s for s in ops), "1/s"),
        "ref_latency_gmean_s": (statistics.geometric_mean(_latencies(ops, "ref_s")), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "wall_setup_s": (statistics.median(w for w, _ in setups), "s"),
        "wall_ops_per_s": (answered / sum(s.seconds for s in ops), "1/s"),
        "wall_latency_gmean_s": (statistics.geometric_mean(_latencies(ops)), "s"),
        "latency_p50_s": (percentile(ops, 0.5), "s"),
        "latency_p90_s": (percentile(ops, 0.9), "s"),
        "out_bytes": (runner.per_pass("nbytes"), "bytes"),
        "failed_ratio": (failed / len(samples), "1"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in out.items()}
    by_cmd: dict = {}
    for sample in samples:
        by_cmd.setdefault(runner.ops[sample.op].cmd, []).append(sample)
    for cmd, cmd_samples in sorted(by_cmd.items()):
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            if label == "p90" and len(cmd_samples) < P90_MIN_SAMPLES:
                continue
            metrics[f"{cmd}_{label}_s"] = {"value": percentile(cmd_samples, q),
                                           "unit": "s", "samples": len(cmd_samples)}
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# The traced run


def traced(runner: Runner, bb, workload: str, seed: int, seconds: float,
           workdir: Path, trace_path: Path) -> tuple:
    """After the caller's untraced pass, alternate traced passes with
    passes that have the wrappers switched off, until ``seconds`` have gone
    by; returns (per-layer metrics, details, all checks held)."""
    t0 = time.perf_counter()
    untraced, traced_samples = list(runner.samples), []
    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    runner.main = bb.cli.main
    snapshots, self_s = [], {}
    while not snapshots or time.perf_counter() - t0 < seconds:
        tracer.reset_totals()
        tracer.enabled = True
        start = len(runner.samples)
        for i in range(len(runner.ops)):
            tracer.op = i
            runner.execute(i)
        traced_samples += runner.samples[start:]
        tracer.enabled = False
        for name, ns in tracer.self_ns.items():
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9
        snapshots.append((dict(tracer.calls), dict(tracer.counts),
                          sum(tracer.calls.values())))
        tracer.record = False  # spans of the first traced pass are kept
        start = len(runner.samples)
        runner.run_pass()
        untraced += runner.samples[start:]
    passes = len(snapshots)
    repeatable = all(s == snapshots[0] for s in snapshots)

    # One more set-up, traced, for the generator's share of set-up time.
    tracer.reset_totals()
    tracer.enabled = True
    tracer.op = -1
    (workdir / "traced-setup").mkdir()
    workloads.WORKLOADS[workload](bb, seed, workdir / "traced-setup")
    setup_generate_s = sum(ns for name, ns in tracer.self_ns.items()
                           if name.startswith("generate.")) / 1e9
    tracer.enabled = False
    tracer.write(trace_path)

    calls, counts, n_spans = snapshots[0]
    counts = dict(counts)
    counts["distinguish.formula.chars"] = runner.per_pass("formula_chars")
    counts["cli.out_bytes"] = runner.per_pass("nbytes")
    totals = SimpleNamespace(
        self_s={k: v / passes for k, v in self_s.items()}, calls=calls,
        counts=counts, spans=n_spans,
        untraced_s=sum(s.ref_s for s in per_op(runner, untraced)),
        traced_s=sum(s.ref_s for s in per_op(runner, traced_samples)),
        setup_generate_s=setup_generate_s)
    metrics = {name: {"value": fn(totals), "unit": unit}
               for name, unit, fn in PER_LAYER}
    info = {"traced_passes": passes, "bindings": bindings,
            "counts_repeat_across_passes": repeatable,
            "counting_errors": tracer.errors[:10],
            "overhead_ratio": totals.traced_s / totals.untraced_s,
            "trace_file": str(trace_path),
            "self_s_by_function": dict(sorted(totals.self_s.items())),
            "calls_by_function": dict(sorted(calls.items()))}
    return metrics, info, repeatable and not tracer.errors


# ---------------------------------------------------------------------------


def check_spec(root: Path) -> None:
    """The metric names in BENCHMARK.json must be the ones printed here."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    want = ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})
    have = (set(END_TO_END), {n for n, _, _ in PER_LAYER})
    if want != have:
        raise SetupError("BENCHMARK.json metric names differ from perfbench/run.py")


def report_groups(runner: Runner, samples) -> dict:
    """Median latency and sample count per family and size."""
    groups: dict = {}
    for sample in samples:
        groups.setdefault(runner.ops[sample.op].group, []).append(sample)
    return {g: {"samples": len(ss), "p50_s": percentile(ss, 0.5)}
            for g, ss in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    name = f"{args.workload}-seed{args.seed}"
    try:
        check_spec(root)
        signal.signal(signal.SIGALRM, _alarm)
        setups, last = [], {}

        def set_up_again():
            if len(setups) < SETUP_REPS:
                wall, ref_s, last["bb"], last["ops"] = set_up(
                    root, args.workload, args.seed, workdir / f"setup{len(setups)}",
                    setups[-1][0] if setups else 0.0)
                setups.append((wall, ref_s))
                # Free the package copy just replaced, outside any timing.
                gc.collect()

        set_up_again()
        if args.trace:
            # The tracer wraps the copy of the package imported last.
            while len(setups) < SETUP_REPS:
                set_up_again()
        bb, ops = last["bb"], last["ops"]
        runner = Runner(bb.cli.main, ops)
        if args.trace:
            runner.run_pass()
        else:
            # Set-up is repeated between passes, so that its median, like
            # the ops' median passes, spans the run rather than one spell.
            run_for(runner, args.seconds, set_up_again)
            while len(setups) < SETUP_REPS:
                set_up_again()
        timed = list(runner.samples)
        user = user_metrics(runner, timed, setups, peak_rss_mb())
        if args.trace:
            metrics, info, trace_ok = traced(
                runner, bb, args.workload, args.seed, args.seconds, workdir,
                OUT_DIR / f"trace-{name}.spans.gz")
        else:
            metrics = {n: user[n] for n in END_TO_END}
            info, trace_ok = {}, True
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.samples)
    failed = sum(1 for s in runner.samples if s.failed)
    failures: dict = {}
    for op, rec in zip(runner.ops, runner.first):
        if rec.failure is not None:
            key = f"{op.group}: {rec.failure}"
            failures[key] = failures.get(key, 0) + 1
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops_per_pass": len(ops),
        "timed_passes": len(timed) // len(ops),
        "setup_reps_wall_ref_s": setups,
        "attempted": attempted, "failed": failed, "failures": failures,
        "wrong_answers": runner.wrong,
        "outputs_changed_between_passes": runner.nondeterministic,
        "end_to_end": user, "groups": report_groups(runner, timed),
        "per_layer": metrics if args.trace else None, **info,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": runner.wrong == 0 and runner.nondeterministic == 0 and trace_ok,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
