from pathlib import Path

import pytest

from bbapart.lts import TAU, load_names, parse_aut

DATA = Path(__file__).parent / "data"


def load_fixture(stem: str):
    l = parse_aut((DATA / f"{stem}.aut").read_text())
    sidecar = DATA / f"{stem}.names.json"
    if sidecar.exists():
        l = l.with_names(load_names(sidecar))
    return l


@pytest.fixture(scope="session")
def fix1():
    """Strong-comparison figure: s/s'/t are strongly bisimilar pairs,
    q and p differ only in where the b/c choice is resolved."""
    return load_fixture("fix1")


@pytest.fixture(scope="session")
def fixsr():
    """s offers c both before and after a silent step, r only after."""
    return load_fixture("fixsr")


@pytest.fixture(scope="session")
def fixsr_s():
    """The s-component of fixsr on its own (5 states, 4 transitions)."""
    return load_fixture("fixsr_s")


@pytest.fixture(scope="session")
def fixpq():
    """The until-logic example: p1/p2 vs q1/q2 with a/b/c steps."""
    return load_fixture("fixpq")


@pytest.fixture(scope="session")
def fixg2():
    """The synthesis example with mutually-reachable d/c/e loops."""
    return load_fixture("fixg2")


def s(l, name: str) -> int:
    """Resolve a display name to a state index."""
    return l.state_index(name)


def silent_reach(l, p: int, allowed) -> frozenset:
    """The states reachable from ``p`` along silent paths inside the
    collection ``allowed``, both ends included (empty when ``p`` is
    outside it), by a search over state sets: a reference for the
    package's mask searches."""
    seen = {p} if p in allowed else set()
    stack = list(seen)
    while stack:
        for q in l.succ(stack.pop(), TAU):
            if q in allowed and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def layers(rel) -> tuple:
    """``layers(rel)[r - 1][p]``: the mask of the q whose pair (p, q) has
    round stamp r in the relation ``rel``, rebuilt from its stamp cells."""
    n = rel.n_states
    out = [[0] * n for _ in range(max(rel.cells, default=0))]
    for i, r in enumerate(rel.cells):
        if r:
            out[r - 1][i // n] |= 1 << i % n
    return tuple(map(tuple, out))
