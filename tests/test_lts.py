import pytest
from hypothesis import given, strategies as st

from bbapart.generate import GenParams, random_lts
from bbapart.lts import (
    TAU,
    ActionLabel,
    AutParseError,
    Lts,
    constrained_tau_reach,
    parse_aut,
    reflexive_closure,
    render_aut,
    tau_closure,
)

from conftest import s


def test_parse_minimal():
    l = parse_aut('des (0,1,2)\n(0,"a",1)')
    assert l.n_states == 2
    assert l.transitions == frozenset({(0, ActionLabel("a"), 1)})


def test_parse_silent_self_loop():
    l = parse_aut('des (0,1,1)\n(0,"tau",0)')
    assert l.transitions == frozenset({(0, TAU, 0)})
    assert l.has_reflexive_silent_steps


def test_parse_fixsr_component(fixsr_s):
    assert fixsr_s.n_states == 5
    assert len(fixsr_s.transitions) == 4


def test_parse_alternate_silent_token():
    l = parse_aut('des (0,1,1)\n(0,"i",0)', silent_label="i")
    assert l.transitions == frozenset({(0, TAU, 0)})


def test_parse_deduplicates():
    l = parse_aut('des (0,2,2)\n(0,"a",1)\n(0,"a",1)')
    assert len(l.transitions) == 1


@pytest.mark.parametrize("text,line", [
    ("dse (0,1,2)", 1),
    ('des (0,1,2)\n(0,"a",5)', 2),
    ('des (0,1,2)\n(0,"a,1)', 2),
    ('des (2,0,2)', 1),
])
def test_parse_errors_carry_line(text, line):
    with pytest.raises(AutParseError) as exc:
        parse_aut(text)
    assert exc.value.line == line


def test_render_round_trip(fixsr):
    assert parse_aut(render_aut(fixsr)) == Lts(
        fixsr.n_states, fixsr.transitions, fixsr.initial)


def test_reflexive_closure_counts(fixsr_s):
    closed = reflexive_closure(fixsr_s)
    assert closed.n_states == 5
    assert len(closed.transitions) == 9
    assert closed.transitions >= fixsr_s.transitions
    assert reflexive_closure(closed) == closed


def test_tau_closure_reach(fixsr):
    reach = tau_closure(fixsr).reach
    assert reach[s(fixsr, "s")] == {s(fixsr, "s"), s(fixsr, "s1")}
    assert reach[s(fixsr, "s2")] == {s(fixsr, "s2")}


def test_triples(fixpq):
    closed = reflexive_closure(fixpq)
    tc = tau_closure(closed)
    q1, q2, qc = (s(fixpq, n) for n in ("q1", "q2", "qc"))
    assert tc.triples(q1, ActionLabel("c")) == ((q2, qc),)


def test_constrained_tau_reach(fixsr):
    closed = reflexive_closure(fixsr)
    st_ = s(fixsr, "s")
    assert constrained_tau_reach(closed, st_, set()) == frozenset()
    assert constrained_tau_reach(closed, st_, {st_}) == {st_}
    # With every state allowed, the constrained reach is the tau closure.
    every = range(fixsr.n_states)
    reach = tau_closure(closed).reach
    for p in every:
        assert constrained_tau_reach(closed, p, every) == reach[p]


def test_state_name_resolution(fixsr):
    assert fixsr.state_index("s") == 0
    assert fixsr.state_index("3") == 3
    with pytest.raises(KeyError):
        fixsr.state_index("nope")


def test_label_validation():
    with pytest.raises(ValueError):
        ActionLabel("")
    with pytest.raises(ValueError):
        ActionLabel("a b")
    assert ActionLabel().silent
    assert not ActionLabel("a").silent


@given(st.integers(min_value=0, max_value=2**32))
def test_random_lts_render_round_trip(seed):
    l = random_lts(GenParams(n_states=5, seed=seed))
    again = parse_aut(render_aut(l))
    assert again.transitions == l.transitions
    assert again.n_states == l.n_states


def _filtered_succ(l, p, label):
    return tuple(dst for lab, dst in l.out(p) if lab == label)


def _filtered_pred(l, q, label):
    return tuple(src for src in range(l.n_states)
                 for lab, dst in l.out(src) if lab == label and dst == q)


def _assert_indices_agree(l):
    labels = l.actions | {TAU, ActionLabel("unused")}
    for label in labels:
        for p in range(l.n_states):
            assert l.succ(p, label) == _filtered_succ(l, p, label)
            assert l.predecessors(label).get(p, ()) == _filtered_pred(l, p, label)


@pytest.mark.parametrize("stem", ["fix1", "fixsr", "fixsr_s", "fixpq", "fixg2"])
def test_indices_agree_on_fixtures(stem, request):
    l = request.getfixturevalue(stem)
    _assert_indices_agree(l)
    _assert_indices_agree(reflexive_closure(l))


@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 12))
def test_indices_agree_on_random_lts(seed, n):
    _assert_indices_agree(random_lts(GenParams(n_states=n, seed=seed)))
