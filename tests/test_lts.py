import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import lts
from bbapart.cli import main
from bbapart.generate import GenParams, random_lts
from bbapart.logic import _reach_inside
from bbapart.lts import (
    TAU,
    ActionLabel,
    AutParseError,
    Lts,
    _LINE,
    parse_aut,
    reflexive_closure,
    render_aut,
    tau_closure,
)
from bbapart.validate import check_pair

from conftest import outcome, parse_aut_by_lines, s, silent_reach
from test_kernel import ltss


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


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty input, expected des header"),
    ("des (0,0,0)", "line 1: state count must be positive"),
])
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(AutParseError) as exc:
        parse_aut(text)
    assert str(exc.value) == message


_LONG = "1" * 5000  # more digits than int() reads from text


@pytest.mark.parametrize("text, message", [
    (f'des (0,1,2)\n({_LONG},"a",0)', f"line 2: out-of-range state index in '({_LONG},\"a\",0)'"),
    (f'des (0,1,2)\n\n(0,"a",{_LONG})', f"line 3: out-of-range state index in '(0,\"a\",{_LONG})'"),
    (f'des (0,1,{_LONG})\n(0,"a",0)', "line 1: header number too long"),
    (f'des ({_LONG},1,2)', "line 1: header number too long"),
    (f'des (0,{_LONG},2)', "line 1: header number too long"),
])
def test_an_over_long_number_is_a_parse_error(tmp_path, capsys, text, message):
    with pytest.raises(AutParseError) as exc:
        parse_aut(text)
    assert str(exc.value) == message
    path = tmp_path / "long.aut"
    path.write_text(text)
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# The step pattern whose lazy label backtracked quadratically on a line
# that is no step: the reference for the lines accepted and their fields.
_LAZY_STEP = re.compile(r'^\(\s*(\d+)\s*,\s*(.*?)\s*,\s*(\d+)\s*\)$')


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet='(),"0123 \tab\u00a0\u2003', max_size=16))
def test_the_step_pattern_reads_lines_as_the_lazy_one(line):
    line = line.strip()
    m, lazy = _LINE.match(line), _LAZY_STEP.match(line)
    assert (m[1] and (m[1], m[2][1:-1].strip(), m[3])) == (lazy and lazy.groups())


def test_a_long_malformed_step_line_is_rejected_in_linear_time():
    # The lazy label of the old step pattern tried every split of the
    # whitespace run: 1.26 s at 20,000 spaces, minutes at 200,000.
    line = "(0,a" + " " * 199_995 + "x"
    start = time.perf_counter()
    with pytest.raises(AutParseError) as exc:
        parse_aut(f"des (0,1,2)\n{line}")
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == f"line 2: malformed transition: {line!r}"


# Pieces of .aut body lines: whitespace (Unicode spaces too), numbers (some
# out of range, one in Arabic-Indic digits, which int() reads), label
# fields good and bad (quoted, bare, empty, silent, unterminated, with
# spaces or inner quotes) and lines that are no step.
_SPACES = st.sampled_from(["", "", " ", "\t", "\u00a0", "\u2003 "])
_NUMBERS = st.sampled_from(["0", "0", "1", "1", "2", "3", "9", "007", "\u0662"])
_FIELDS = st.sampled_from(['"a"', "b", '"tau"', "tau", "i", '"send(1)"', "x,y", '"a b"',
                           '""', "", '"a', 'a"', '"a"b"', '"é"', "a b"])
_JUNK = st.sampled_from(["foo", "(1,2)", '(0,"a",1', '0,"a",1)', "(x,a,1)", '(0, "ab',
                         '((0,a,1))', "(0,a,1) x", "des (0,1,2)", '(0,"a)'])
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028", "\x0c"])


@st.composite
def aut_texts(draw):
    """A header of one to four states, then body lines at random: steps
    with any spacing, blank lines, and malformed, unterminated,
    out-of-range and bad-label lines anywhere, under any line breaks."""
    n = draw(st.integers(1, 4))
    lines = [f"des ({draw(st.integers(0, n - 1))},0,{n})"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["step", "step", "step", "blank", "junk", "text"]))
        if kind == "step":
            src, field, dst = draw(_NUMBERS), draw(_FIELDS), draw(_NUMBERS)
            w = [draw(_SPACES) for _ in range(6)]
            lines.append(f"{w[0]}({w[1]}{src}{w[2]},{field},{w[3]}{dst}{w[4]}){w[5]}")
        elif kind == "blank":
            lines.append(draw(_SPACES))
        elif kind == "junk":
            lines.append(draw(_JUNK))
        else:
            lines.append(draw(st.text(max_size=6).filter(lambda t: len(f"<{t}>".splitlines()) == 1)))
    breaks = [draw(_BREAKS) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks))


@settings(max_examples=500, deadline=None)
@given(aut_texts(), st.sampled_from(["tau", "i"]), st.sampled_from([lts._BLOCK, 1, 3]))
def test_parse_aut_reads_as_the_line_loop(text, silent, block):
    # An equal LTS, or the same error text on the same line, whatever the
    # blocks the body is read in.
    with mock.patch.object(lts, "_BLOCK", block):
        assert outcome(parse_aut, text, silent) == outcome(parse_aut_by_lines, text, silent)


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


def test_reach_inside(fixsr):
    closed = reflexive_closure(fixsr)
    st_ = s(fixsr, "s")
    assert _reach_inside(closed, 0)[st_] == 0
    assert _reach_inside(closed, 1 << st_)[st_] == 1 << st_
    # With every state allowed, the constrained reach is the tau closure.
    every = (1 << fixsr.n_states) - 1
    assert _reach_inside(closed, every) == tau_closure(closed).forward


@settings(max_examples=300, deadline=None)
@given(ltss(), st.booleans())
def test_tau_closure_matches_a_set_based_search(l, closed):
    # Silent cycles included: the closure collapses them first.
    if closed:
        l = reflexive_closure(l)
    tc = tau_closure(l)
    states = range(l.n_states)
    reach = [silent_reach(l, q, states) for q in states]
    assert tc.forward == tuple(sum(1 << q1 for q1 in r) for r in reach)
    assert tc.back == tuple(sum(1 << q for q in states if q1 in reach[q])
                            for q1 in states)
    assert tc.reach == tuple(reach)
    for q in states:
        for label in (TAU, *l.visible_actions, ActionLabel("c")):
            assert tc.triples(q, label) == tuple(sorted(
                (q1, q2) for q1 in reach[q] for a, q2 in l.out(q1) if a is label))


def test_dbranching_check_on_a_long_silent_chain_stays_small():
    # 0 -tau-> 1 -tau-> ... -tau-> 4000 -a-> 4000: every state is bisimilar
    # to the last.  Silent reachability holds about 8 million pairs; as
    # one mask per state it takes a few MB.
    n = 4000
    l = Lts(n + 1, frozenset({(i, TAU, i + 1) for i in range(n)}
                             | {(n, ActionLabel("a"), n)}))
    tracemalloc.start()
    try:
        result = check_pair(l, "dbranching", 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["bisimilar"] is True
    assert peak < 40_000_000


def test_the_step_index_of_a_closure_grows_linearly():
    # The closure of des (0,1,n) / (0,"a",0) has n silent self-loops.  They
    # are kept as one mask, so the index grows like the steps; a bit per
    # loop in its predecessor mask would take n ** 2 / 2 bits.
    peaks = []
    for n in (10_000, 20_000):
        closed = reflexive_closure(Lts(n, frozenset({(0, ActionLabel("a"), 0)})))
        tracemalloc.start()
        try:
            closed._steps
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0], peaks


@pytest.mark.parametrize("parts, message", [
    ((0, frozenset()), "at least one state"),
    ((2, frozenset(), 2), "initial state out of range"),
    ((2, frozenset({(0, TAU, 2)})), "endpoint out of range"),
    ((2, frozenset(), 0, ("a",)), "cover every state"),
])
def test_lts_refuses_malformed_parts(parts, message):
    with pytest.raises(ValueError, match=message):
        Lts(*parts)


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
    with pytest.raises(ValueError):  # "$" would match before the newline
        ActionLabel("a\n")
    assert ActionLabel().silent
    assert not ActionLabel("a").silent


@given(st.integers(min_value=0, max_value=2**32))
def test_random_lts_render_round_trip(seed):
    l = random_lts(GenParams(n_states=5, seed=seed))
    again = parse_aut(render_aut(l))
    assert again.transitions == l.transitions
    assert again.n_states == l.n_states


def _assert_indices_agree(l):
    """Every view of the step index against the transition set itself."""
    labels = l.actions | {TAU, ActionLabel("unused")}
    for p in range(l.n_states):
        assert l.out(p) == tuple(sorted(((lab, dst) for src, lab, dst in l.transitions
                                         if src == p),
                                        key=lambda step: (step[0].sort_key, step[1])))
    for label in labels:
        steps = {(src, dst) for src, lab, dst in l.transitions if lab == label}
        entered = {dst for src, dst in steps if src != dst}
        assert l.entered(label) == sum(1 << q for q in entered)
        for p in range(l.n_states):
            targets = sorted(dst for src, dst in steps if src == p)
            assert l.succ(p, label) == tuple(targets)
            assert l.succ_masks(label)[p] == sum(1 << dst for dst in targets)
            assert l.preimage(label, 1 << p) == sum(1 << src for src, dst in steps
                                                    if dst == p)


@pytest.mark.parametrize("stem", ["fix1", "fixsr", "fixsr_s", "fixpq", "fixg2"])
def test_indices_agree_on_fixtures(stem, request):
    l = request.getfixturevalue(stem)
    _assert_indices_agree(l)
    _assert_indices_agree(reflexive_closure(l))


@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 12))
def test_indices_agree_on_random_lts(seed, n):
    _assert_indices_agree(random_lts(GenParams(n_states=n, seed=seed)))


def _reaching_by_search(l, x, within):
    """``x`` plus the states of ``within`` with a silent path into ``x``
    through states of ``within``, by a backward search over state sets."""
    found = {q for q in range(l.n_states) if x >> q & 1}
    stack = list(found)
    while stack:
        q = stack.pop()
        for p, label, dst in l.transitions:
            if label == TAU and dst == q and within >> p & 1 and p not in found:
                found.add(p)
                stack.append(p)
    return sum(1 << q for q in found)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reaching_matches_a_set_based_search(data):
    l = data.draw(ltss())
    n, full = l.n_states, (1 << l.n_states) - 1
    # Masks that leave out one state or a random part cut silent paths.
    masks = st.one_of(st.just(full), st.integers(0, full),
                      st.integers(0, n - 1).map(lambda p: full & ~(1 << p)))
    within = data.draw(masks)
    x = data.draw(st.one_of(st.just(0), masks))
    for m in (l, reflexive_closure(l)):
        for y in (x, x & within):
            assert m.reaching(y, within) == _reaching_by_search(m, y, within)
