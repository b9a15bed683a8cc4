"""Golden digests of the five apartness engines on a fixed corpus.

Each digest is the sha256 of one engine's ``rows`` and round layers
(rebuilt from its stamp cells) on every LTS of the corpus in order.  Any
change to the saturation kernel must leave every relation and every stamp
as it was.
"""

import hashlib

import pytest

from bbapart import apartness as ap
from bbapart.generate import GenParams, random_lts
from bbapart.lts import TAU, ActionLabel, Lts

from conftest import layers

A, B = ActionLabel("a"), ActionLabel("b")


def a_chains(n: int) -> Lts:
    """Top 0 has n a-steps to deadlock and top n + 1 has n + 1."""
    return Lts(2 * n + 3, frozenset({(i, A, i + 1) for i in range(n)}
                                    | {(n + 1 + i, A, n + 2 + i)
                                       for i in range(n + 1)}))


def tau_chains(k: int) -> Lts:
    """0..k-1: a silent chain ending in an a-loop; k..2k-1: a silent chain
    ending in deadlock."""
    return Lts(2 * k, frozenset({(i, TAU, i + 1) for i in range(k - 1)}
                                | {(k - 1, A, k - 1)}
                                | {(k + i, TAU, k + i + 1) for i in range(k - 1)}))


def tau_cycle() -> Lts:
    """A silent 4-cycle with an a-exit, entered silently from state 5."""
    return Lts(7, frozenset({(i, TAU, (i + 1) % 4) for i in range(4)}
                            | {(2, A, 4), (4, B, 4), (5, TAU, 0), (5, A, 6),
                               (6, TAU, 6)}))


def corpus() -> list:
    return ([random_lts(GenParams(n, seed=seed))
             for n in (8, 32, 64, 128) for seed in range(1, 6)]
            + [a_chains(n) for n in (6, 12)]
            + [tau_chains(k) for k in range(3, 7)]
            + [tau_cycle()])


DIGESTS = {
    "strong_apartness":
        "3abee4cbc82b2cc3cd95c8687108f393e35816da0917bd5162b520c0ab8eb4ce",
    "directed_strong_apartness":
        "e190237a9cc0184a384694d841e935ccec4bbcd28f3c9b1cb4226747077087d0",
    "branching_apartness":
        "13fe177fc9de6060a43c6600667bb551a2995606ed698e22f6798f66838fbb43",
    "directed_branching_apartness":
        "ae3f71c117f52bf873467a3a497a317e8c88b9d53e5f0b4bbef0fae2cd079b8a",
    "directed_branching_apartness_nonreflexive":
        "ae3f71c117f52bf873467a3a497a317e8c88b9d53e5f0b4bbef0fae2cd079b8a",
}


def digest(engine) -> str:
    h = hashlib.sha256()
    for l in corpus():
        rel = engine(l)
        h.update(repr((rel.rows, layers(rel))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_matches_its_golden_digest(name):
    assert digest(getattr(ap, name)) == DIGESTS[name]
