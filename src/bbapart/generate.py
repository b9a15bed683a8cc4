"""Seeded random LTS generation for property campaigns.

The generator is fully documented so instances are reproducible: it draws
from Python's Mersenne Twister (``random.Random(seed)``), visiting states
in index order.  For every state it first draws the visible transitions,
then the silent ones.  A density ``d`` yields ``floor(d)`` draws plus one
more with probability ``d - floor(d)``; each draw picks a label index with
``randrange`` (visible phase only) and then a target with ``randrange``.
Duplicates collapse because transitions form a set.  A phase stops once
the state has all its steps of that phase (``visible_actions * n_states``
visible, ``n_states`` silent), so below those densities no draw is skipped.
"""

from __future__ import annotations

import math
import operator
import random

from .lts import TAU, ActionLabel, HashConsed, Lts


def _action_name(i: int) -> str:
    # a, b, ..., z, a1, b1, ..., skipping i, so that no name is a silent
    # token ("tau" or "i").
    letter = "abcdefghjklmnopqrstuvwxyz"[i % 25]
    return letter if i < 25 else f"{letter}{i // 25}"


class GenParams(HashConsed):
    """Parameters for :func:`random_lts`; densities are expected out-degrees
    per state, kept as floats, and counts and the seed as ints, so that
    equal parameters make one record whatever types they come in."""

    n_states: int
    visible_actions: int
    visible_density: float
    tau_density: float
    seed: int

    def __new__(cls, n_states=8, visible_actions=2, visible_density=1.5,
                tau_density=0.7, seed=0):
        n_states, visible_actions, seed = map(operator.index,
                                              (n_states, visible_actions, seed))
        if n_states < 1:
            raise ValueError("n_states must be >= 1")
        if visible_actions < 0:
            raise ValueError("visible_actions must be >= 0")
        if not all(math.isfinite(d) and d >= 0 for d in (visible_density, tau_density)):
            raise ValueError("densities must be finite and >= 0")
        if visible_density > 0 and visible_actions == 0:
            raise ValueError("visible transitions need at least one action")
        return super().__new__(cls, n_states, visible_actions, float(visible_density),
                               float(tau_density), seed)


def _draw_count(rng: random.Random, density: float) -> int:
    base = math.floor(density)
    frac = density - base
    return base + (1 if frac > 0 and rng.random() < frac else 0)


def random_lts(g: GenParams) -> Lts:
    """Deterministic in ``g.seed``; see the module docstring for the exact
    drawing procedure."""
    rng = random.Random(g.seed)
    labels = [ActionLabel(_action_name(i)) for i in range(g.visible_actions)]
    transitions = set()
    for src in range(g.n_states):
        full = len(transitions) + g.visible_actions * g.n_states
        for _ in range(_draw_count(rng, g.visible_density)):
            if len(transitions) == full:
                break
            label = labels[rng.randrange(g.visible_actions)]
            transitions.add((src, label, rng.randrange(g.n_states)))
        full = len(transitions) + g.n_states
        for _ in range(_draw_count(rng, g.tau_density)):
            if len(transitions) == full:
                break
            transitions.add((src, TAU, rng.randrange(g.n_states)))
    return Lts(g.n_states, frozenset(transitions))


def campaign_instances(count: int, seed: int, min_states: int = 2,
                       max_states: int = 8, visible_actions: int = 2,
                       visible_density: float = 1.5,
                       tau_density: float = 0.7):
    """The seeded instance stream used by the validation campaign: state
    counts cycle through [min_states, max_states], per-instance seeds are
    derived from the campaign seed."""
    if min_states > max_states:
        raise ValueError("min_states must be <= max_states")
    span = max_states - min_states + 1
    for i in range(count):
        yield GenParams(n_states=min_states + i % span,
                        visible_actions=visible_actions,
                        visible_density=visible_density,
                        tau_density=tau_density,
                        seed=seed * 1_000_003 + i)
