"""The benchmark's workloads: inputs made from a seed, written as ``.aut``
files, and the ``bbapart`` commands run on them.

Each workload function takes the imported package (``bb``, with the
submodules as attributes), the seed and a directory to write into, and
returns a list of :class:`Op`.  The program under test sees only the
files and the command lines; each op carries the check that its output is
right.

random-queries
    Seeded ``random_lts`` instances (default densities) of 32, 48 and 64
    states, each with one extra state cloned from a random state, so that
    a bisimilar pair is known without running any engine.  Per LTS:
    ``check`` of a random pair for every kind and ``--nonreflexive``,
    ``distinguish`` of one random pair and of the clone pair, ``mc`` of
    two enumerated P-formulas, and ``convert`` of an enumerated formula
    on a pair it separates (none when no enumerated formula separates two
    states, as when silent cycles join every state).
deep-structures
    Families with closed-form answers, each at a ladder of sizes: two
    a-chains of lengths n and n+1 (``check``, every kind), the tau-chain
    pair of the derivation blow-up (``distinguish``), a forward tau-chain
    ending in an a-step (``mc``, plain and until diamond), and nested
    ``<a>...<a> T`` on an a-chain (``mc``) at depths on both sides of the
    recursion limit.  The seed picks the action name and the line order of
    each file; the families' shape, and so their cost, does not depend on it.
campaign
    ``validate --lts`` on each LTS of the seeded ``campaign_instances``
    stream (2 to 8 states).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import reference as ref

CHECK_VARIANTS = (("strong", []), ("dstrong", []), ("branching", []),
                  ("dbranching", []), ("dbranching", ["--nonreflexive"]))

RQ_SIZES = (32, 48, 64)
RQ_PER_SIZE = 3
RQ_ENUM_DEPTH = 2

ACHAIN_SIZES = (6, 12, 18)
TAUCHAIN_SIZES = (3, 4, 5, 6)
FORWARD_SIZES = (125, 250, 500)
NESTED_DEPTHS = (100, 200, 600, 1200)
# Nested diamonds this deep escape cli.main as RecursionError (ROADMAP
# item 5); those ops are counted as failed until the defect is fixed.
NESTED_FAILS_FROM = 600
# Action names for the structured families: one letter, never the silent
# token "i" nor the formula constants.
LABEL_CHOICES = "abcdefghjklmnopqrsuvwxyz"

CAMPAIGN_COUNT = 56


@dataclass
class Op:
    """One command: its argument vector, a group naming the family and size
    for the report, and the check of its parsed JSON output.
    ``known_failure`` names the exception of a recorded defect that the op
    is expected to raise; raising it is a failed op, not a wrong answer."""

    cmd: str
    argv: list
    group: str
    check: Callable[[dict], str | None]
    known_failure: str | None = None


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# random-queries


def _with_clone(bb, base, rng: random.Random):
    """``base`` plus a new last state with the out-steps of a random state."""
    n = base.n_states
    c = rng.randrange(n)
    clone = {(n, label, dst) for src, label, dst in base.transitions if src == c}
    return bb.lts.Lts(n + 1, base.transitions | frozenset(clone)), c


def _separated(bb, lts, formulas, rng: random.Random):
    """A formula from ``formulas`` with a pair it separates, in random order;
    None if every formula holds at all states or at none."""
    for g in rng.sample(formulas, len(formulas)):
        sat = ref.own_sat_set(bb, lts, g)
        if 0 < len(sat) < lts.n_states:
            p = rng.choice(sorted(sat))
            q = rng.choice(sorted(set(range(lts.n_states)) - sat))
            return (g, p, q) if rng.random() < 0.5 else (g, q, p)
    return None


def _check_by_oracle(ctx, kind, p, q, out):
    return ref.check_check(ctx, kind, p, q, ref.oracle_verdict(ctx, kind, p, q), out)


def _distinguish_by_oracle(ctx, p, q, out):
    apart = (p, q) not in ctx.bisim("dbranching")
    return ref.check_distinguish(ctx, p, q, apart, out)


def random_queries(bb, seed: int, workdir: Path) -> list:
    ops = []
    for i, n in enumerate(s for s in RQ_SIZES for _ in range(RQ_PER_SIZE)):
        rng = random.Random(seed * 1_000_003 + i)
        base = bb.generate.random_lts(
            bb.generate.GenParams(n - 1, seed=rng.randrange(2 ** 31)))
        lts, cloned = _with_clone(bb, base, rng)
        path = _write(workdir, f"rq{i}-n{n}.aut", bb.lts.render_aut(lts))
        ctx = ref.Context(bb, lts)
        tag = f"random-n{n}"

        for kind, extra in CHECK_VARIANTS:
            p, q = rng.sample(range(n), 2)
            ops.append(Op("check", ["check", "--lts", path, "--kind", kind,
                                    *extra, str(p), str(q)],
                          f"{tag}/{kind}{''.join(extra)}",
                          partial(_check_by_oracle, ctx, kind, p, q)))
        p, q = rng.sample(range(n), 2)
        ops.append(Op("distinguish", ["distinguish", "--lts", path, str(p), str(q)],
                      f"{tag}/random-pair", partial(_distinguish_by_oracle, ctx, p, q)))
        p, q = (n - 1, cloned) if rng.random() < 0.5 else (cloned, n - 1)
        ops.append(Op("distinguish", ["distinguish", "--lts", path, str(p), str(q)],
                      f"{tag}/clone-pair",
                      partial(ref.check_distinguish, ctx, p, q, False)))

        diamonds = [g for g in bb.logic.enumerate_pformulas(
            lts.visible_actions, RQ_ENUM_DEPTH) if isinstance(g, bb.logic.PDiamond)]
        for g in rng.sample(diamonds, 2):
            state = rng.randrange(n)
            text = bb.logic.format_pformula(g)
            ops.append(Op("mc", ["mc", "--lts", path, "--state", str(state),
                                 "--formula", text],
                          f"{tag}/enumerated",
                          partial(ref.check_mc_random, ctx, state, g)))

        separated = _separated(bb, lts, diamonds, rng)
        if separated is None:
            continue
        g, p, q = separated
        ops.append(Op("convert", ["convert", "--lts", path, "--formula",
                                  bb.logic.format_pformula(g), str(p), str(q)],
                      f"{tag}/separated",
                      partial(ref.check_convert, ctx, g, p, q)))
    return ops


# ---------------------------------------------------------------------------
# deep-structures


def _write_shuffled(bb, workdir: Path, name: str, lts, rng: random.Random) -> str:
    """Render ``lts`` with its transition lines in a seeded order."""
    header, *lines = bb.lts.render_aut(lts).splitlines()
    rng.shuffle(lines)
    return _write(workdir, name, "\n".join([header, *lines]) + "\n")


def _chain(start: int, length: int, label) -> set:
    return {(start + i, label, start + i + 1) for i in range(length)}


def deep_structures(bb, seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    lts_mod, tau = bb.lts, bb.lts.TAU
    name = rng.choice(LABEL_CHOICES)
    a = lts_mod.ActionLabel(name)
    ops = []

    # Two a-chains: top 0 has n steps, top n+1 has n+1.  Every kind holds
    # the pair apart both ways; n+2 and 0 sit n steps from the end, so they
    # are bisimilar.
    for n in ACHAIN_SIZES:
        lts = lts_mod.Lts(2 * n + 3, frozenset(_chain(0, n, a) | _chain(n + 1, n + 1, a)))
        path = _write_shuffled(bb, workdir, f"achain-n{n}.aut", lts, rng)
        ctx = ref.Context(bb, lts)
        p, q = n + 1, 0
        for kind, extra in CHECK_VARIANTS:
            ops.append(Op("check", ["check", "--lts", path, "--kind", kind,
                                    *extra, str(p), str(q)],
                          f"achain-n{n}/{kind}{''.join(extra)}",
                          partial(ref.check_check, ctx, kind, p, q, (True, True, (p, q)))))
        ops.append(Op("check", ["check", "--lts", path, "--kind", "dbranching",
                                str(n + 2), "0"],
                      f"achain-n{n}/bisimilar",
                      partial(ref.check_check, ctx, "dbranching", n + 2, 0,
                              (False, False, None))))

    # Tau-chains of k states: 0..k-1 ends in an a-loop, k..2k-1 in deadlock.
    # The derivation for (k, 0) is a small DAG with an exponential tree.
    for k in TAUCHAIN_SIZES:
        steps = _chain(0, k - 1, tau) | {(k - 1, a, k - 1)} | _chain(k, k - 1, tau)
        lts = lts_mod.Lts(2 * k, frozenset(steps))
        path = _write_shuffled(bb, workdir, f"tauchain-k{k}.aut", lts, rng)
        ctx = ref.Context(bb, lts)
        ops.append(Op("distinguish", ["distinguish", "--lts", path, str(k), "0"],
                      f"tauchain-k{k}", partial(ref.check_distinguish, ctx, k, 0, True)))

    # Forward tau-chain 0 ->tau ... ->tau m-1 ->a m: both diamonds hold at 0
    # with the whole chain as their witness path.
    for m in FORWARD_SIZES:
        lts = lts_mod.Lts(m + 1, frozenset(_chain(0, m - 1, tau) | {(m - 1, a, m)}))
        path = _write_shuffled(bb, workdir, f"forward-m{m}.aut", lts, rng)
        expected = {"holds": True,
                    "witness": {"path": [str(s) for s in range(m)],
                                "pre": str(m - 1), "post": str(m)}}
        for label, formula in (("plain", f"<{name}> T"),
                               ("until", f"((<{name}> T) <{name}> T)")):
            ops.append(Op("mc", ["mc", "--lts", path, "--state", "0",
                                 "--formula", formula],
                          f"forward-m{m}/{label}",
                          partial(ref.check_mc_exact, expected)))

    # d nested diamonds on an a-chain of d steps: holds at 0, witnessed by
    # the first step.
    expected = {"holds": True, "witness": {"path": ["0"], "pre": "0", "post": "1"}}
    for d in NESTED_DEPTHS:
        lts = lts_mod.Lts(d + 1, frozenset(_chain(0, d, a)))
        path = _write_shuffled(bb, workdir, f"nested-d{d}.aut", lts, rng)
        ops.append(Op("mc", ["mc", "--lts", path, "--state", "0",
                             "--formula", f"<{name}> " * d + "T"],
                      f"nested-d{d}", partial(ref.check_mc_exact, expected),
                      known_failure="RecursionError" if d >= NESTED_FAILS_FROM else None))
    return ops


# ---------------------------------------------------------------------------
# campaign


def campaign(bb, seed: int, workdir: Path) -> list:
    ops = []
    for i, g in enumerate(bb.generate.campaign_instances(CAMPAIGN_COUNT, seed)):
        path = _write(workdir, f"campaign{i}.aut",
                      bb.lts.render_aut(bb.generate.random_lts(g)))
        ops.append(Op("validate", ["validate", "--lts", path],
                      f"campaign-n{g.n_states}", ref.check_validate))
    return ops


def interleaved(make_ops):
    """The workload's ops in a seeded order, so that a slow spell of the
    machine is spread over every family and size instead of one."""
    def build(bb, seed: int, workdir: Path) -> list:
        ops = make_ops(bb, seed, workdir)
        random.Random(f"order-{seed}").shuffle(ops)
        return ops
    return build


WORKLOADS = {
    "random-queries": interleaved(random_queries),
    "deep-structures": interleaved(deep_structures),
    "campaign": interleaved(campaign),
}
