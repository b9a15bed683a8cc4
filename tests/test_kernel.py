"""The bit-parallel saturation kernel against a pair-at-a-time reference.

The reference engines below evaluate each rule body once per ordered pair
and round, exactly as the paper's derivation rules read.  The kernel must
give the same relation and the same round stamps on every LTS, since
certificates read a pair's stamp as the height of its derivation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import apartness as ap, lts as lts_module
from bbapart.cli import main
from bbapart.lts import TAU, ActionLabel, Lts, reflexive_closure, tau_closure

A, B = ActionLabel("a"), ActionLabel("b")


# ---------------------------------------------------------------------------
# Reference: one rule-body evaluation per ordered pair and round


def ref_saturate(n, body, symmetric):
    holds, rounds, rnd = set(), {}, 0
    while True:
        rnd += 1
        prev = frozenset(holds)
        fresh = [(p, q) for p in range(n) for q in range(n)
                 if (p, q) not in holds
                 and (body(p, q, prev) or (symmetric and body(q, p, prev)))]
        if not fresh:
            return holds, rounds
        assert all(p != q for p, q in fresh)
        for pair in fresh:
            holds.add(pair)
            rounds[pair] = rnd


def ref_strong(l, directed):
    def body(p, q, rel):
        return any(all((p1, q1) in rel or (directed and (q1, p1) in rel)
                       for q1 in l.succ(q, label))
                   for label, p1 in l.out(p))
    return ref_saturate(l.n_states, body, symmetric=not directed)


def ref_branching(l, directed):
    closed = reflexive_closure(l)
    tc = tau_closure(closed)

    def body(p, q, rel):
        return any(all((p, q1) in rel or (p1, q2) in rel
                       or (directed and (q2, p1) in rel)
                       for q1, q2 in tc.triples(q, label))
                   for label, p1 in closed.out(p))
    return ref_saturate(l.n_states, body, symmetric=not directed)


def ref_four_rule(l):
    tc = tau_closure(l)

    def body(p, q, rel):
        def sym(x, y):
            return (x, y) in rel or (y, x) in rel
        tau_succ = l.succ(p, TAU)
        if any((p1, q) in rel for p1 in tau_succ):
            return True
        if all(sym(p, q1) for q1 in tc.reach[q]):
            return True
        for p1 in tau_succ:
            if (q, p1) in rel and all((p, q1) in rel or sym(p1, q2)
                                      for q1, q2 in tc.triples(q, TAU)):
                return True
        return any(all((p, q1) in rel or sym(p1, q2)
                       for q1, q2 in tc.triples(q, label))
                   for label, p1 in l.out(p) if not label.silent)
    return ref_saturate(l.n_states, body, symmetric=False)


ENGINES = (
    (ap.strong_apartness, lambda l: ref_strong(l, directed=False)),
    (ap.directed_strong_apartness, lambda l: ref_strong(l, directed=True)),
    (ap.branching_apartness, lambda l: ref_branching(l, directed=False)),
    (ap.directed_branching_apartness, lambda l: ref_branching(l, directed=True)),
    (ap.directed_branching_apartness_nonreflexive, ref_four_rule),
)


@st.composite
def ltss(draw):
    """LTSs of 1-10 states over tau, a and b, with some silent self-loops
    and one silent cycle through distinct states on top of random steps."""
    n = draw(st.integers(1, 10))
    state = st.integers(0, n - 1)
    steps = set(draw(st.lists(st.tuples(state, st.sampled_from([TAU, A, B]), state),
                              max_size=3 * n)))
    steps |= {(p, TAU, p) for p in draw(st.sets(state))}
    cycle = draw(st.lists(state, unique=True, max_size=n))
    if len(cycle) > 1:
        steps |= {(p, TAU, q) for p, q in zip(cycle, cycle[1:] + cycle[:1])}
    return Lts(n, frozenset(steps))


@settings(max_examples=300, deadline=None)
@given(ltss())
def test_kernel_matches_pair_at_a_time_engines(l):
    for engine, reference in ENGINES:
        holds, rounds = reference(l)
        rel = engine(l)
        assert rel.holds == holds, engine.__name__
        assert rel.rounds == rounds, engine.__name__


def test_kernel_on_a_chains():
    # Top n+1 has n+1 a-steps to deadlock and top 0 has n: apart in every
    # kind, at round n + 1, after n + 1 rounds of one new layer each.
    n = 12
    l = Lts(2 * n + 3, frozenset({(i, A, i + 1) for i in range(n)}
                                 | {(n + 1 + i, A, n + 2 + i) for i in range(n + 1)}))
    for engine, reference in ENGINES:
        holds, rounds = reference(l)
        rel = engine(l)
        assert rel.holds == holds and rel.rounds == rounds, engine.__name__
        assert rel.rounds[(n + 1, 0)] == n + 1


def test_kernel_rejects_a_rule_that_fires_on_the_diagonal():
    with pytest.raises(ap.InternalInvariantError, match=r"diagonal pair \(1, 1\)"):
        ap._saturate(3, lambda rows, cols, *parts: ([0b010, 0b010, 0] for _ in parts),
                     symmetric=False)


def test_validate_campaign_200_is_ok(capsys):
    assert main(["validate", "--campaign", "--count", "200"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_engines_on_long_a_chains():
    # The closed form of test_kernel_on_a_chains, at a size where a round
    # that walks every state's escape masks bit by bit would take minutes:
    # n + 1 is apart from 0 at round n + 1, and n + 2, with n steps left
    # like 0, is not.
    n = 256
    l = Lts(2 * n + 3, frozenset({(i, A, i + 1) for i in range(n)}
                                 | {(n + 1 + i, A, n + 2 + i) for i in range(n + 1)}))
    for engine, _ in ENGINES:
        rel = engine(l)
        assert (n + 1, 0) in rel and rel.rounds[(n + 1, 0)] == n + 1, engine.__name__
        assert (n + 2, 0) not in rel, engine.__name__


# ---------------------------------------------------------------------------
# Label preimages


def _preimage_by_definition(l, label, x):
    return sum(1 << p for p in range(l.n_states)
               if any(x >> q & 1 for q in l.succ(p, label)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_preimage_matches_its_definition(data):
    # Closures too: every state has a silent self-loop.
    l = data.draw(st.one_of(ltss(), ltss().map(reflexive_closure)))
    full = (1 << l.n_states) - 1
    x = data.draw(st.one_of(st.just(0), st.just(full), st.integers(0, full),
                            st.integers(0, l.n_states - 1).map(lambda p: 1 << p)))
    for label in (TAU, A, B):
        assert l.preimage(label, x) == _preimage_by_definition(l, label, x)


def test_preimage_takes_each_path(monkeypatch):
    # a-steps lie on one diagonal (+1) and b-steps on two (-1, +3), so one
    # target is cheaper as a per-target union and many go by the diagonals.
    unions = []
    union = lts_module._union
    monkeypatch.setattr(lts_module, "_union",
                        lambda x, masks: unions.append(x) or union(x, masks))
    n = 8
    l = Lts(n, frozenset({(i, A, i + 1) for i in range(n - 1)}
                         | {(i, B, i - 1) for i in range(1, n)} | {(0, B, 3)}))
    full = (1 << n) - 1
    for label, x, per_target in ((A, 1 << 5, True), (A, full, False),
                                 (B, 0b1100, True), (B, full, False),
                                 (B, 0b1001, True), (B, 0b1011, False)):
        unions.clear()
        assert l.preimage(label, x) == _preimage_by_definition(l, label, x)
        assert bool(unions) == per_target, (label, bin(x))
