import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bbapart
from bbapart import apartness, bisim, validate
from bbapart.cli import main
from bbapart.distinguish import pformula_from_hmlu, simplify
from bbapart.generate import GenParams, campaign_instances, random_lts
from bbapart.logic import format_pformula, p_satisfies, parse_formula, pformula_to_json
from bbapart.lts import TAU, ActionLabel, Lts, reflexive_closure, render_aut
from bbapart.validate import (
    NotApartError,
    check_pair,
    cross_validate,
    distinguish_pair,
    run_campaign,
)

from conftest import DATA, load_fixture, s


def test_random_lts_deterministic():
    g = GenParams(n_states=6, seed=123)
    assert random_lts(g) == random_lts(g)


def test_random_lts_tau_density_zero():
    l = random_lts(GenParams(n_states=6, tau_density=0.0, seed=5))
    assert not any(label.silent for _, label, _ in l.transitions)


def test_random_lts_golden():
    # Pinned output of the documented drawing procedure; a change here
    # means the generator algorithm changed and fixtures must be re-cut.
    text = render_aut(random_lts(GenParams(n_states=4, seed=3)))
    assert text == (
        'des (0,11,4)\n'
        '(0,"tau",3)\n'
        '(0,"a",2)\n'
        '(0,"b",0)\n'
        '(1,"tau",1)\n'
        '(1,"a",1)\n'
        '(1,"b",3)\n'
        '(2,"tau",0)\n'
        '(2,"a",0)\n'
        '(2,"a",3)\n'
        '(3,"a",2)\n'
        '(3,"b",3)\n'
    )


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_states=0)
    with pytest.raises(ValueError):
        GenParams(visible_density=-1.0)
    with pytest.raises(ValueError):
        GenParams(visible_actions=0, visible_density=1.0)


@pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1)])
def test_gen_params_store_one_type_per_field(first, second):
    # Records are interned by ==, so 1 and 1.0 find one record: its repr
    # must not depend on which was built first.
    a = GenParams(visible_density=first, tau_density=first, seed=7)
    b = GenParams(visible_density=second, tau_density=second, seed=7)
    assert a is b
    assert repr(b) == ("GenParams(n_states=8, visible_actions=2, "
                       "visible_density=1.0, tau_density=1.0, seed=7)")


def test_gen_params_refuse_a_float_state_count_with_or_without_an_int_twin():
    with pytest.raises(TypeError):
        GenParams(n_states=5.0, seed=3)
    twin = GenParams(n_states=5, seed=3)
    with pytest.raises(TypeError):
        random_lts(GenParams(n_states=5.0, seed=3))
    assert random_lts(twin).n_states == 5


def test_campaign_instances_cycle_sizes():
    sizes = [g.n_states for g in campaign_instances(9, seed=0)]
    assert sizes == [2, 3, 4, 5, 6, 7, 8, 2, 3]


def test_cross_validate_fixtures(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        report = cross_validate(l)
        assert report.ok, [e for e in report.entries if e["status"] != "pass"]


def test_cross_validate_corruption_detected(monkeypatch, fixsr):
    # An engine that toggles the pair (0, 5) fails the duality check on
    # that pair; (5, 0) stays held, so the symmetric closure is unchanged.
    engines = bbapart.validate._APART_ENGINES
    engine = engines["dbranching"]

    def corrupted(l):
        rel = engine(l)
        rows = list(rel.rows)
        rows[0] ^= 1 << 5
        return apartness.DirectedPairRelation(rel.n_states, tuple(rows), rel.cells)
    monkeypatch.setitem(engines, "dbranching", corrupted)
    report = cross_validate(fixsr)
    failing = [e for e in report.entries if e["status"] != "pass"]
    assert [e["name"] for e in failing] == ["duality-dbranching"]
    assert failing[0]["counterexample"] == {
        "kind": "dbranching", "p": 0, "q": 5,
        "apart": (0, 5) not in engine(fixsr), "violationCount": 1}


def test_reflexive_invariance_fails_for_an_engine_that_reads_the_loops(
        monkeypatch, fixsr):
    # The property compares the four-rule engine on the raw LTS with the
    # same engine on its reflexive closure, so an engine whose answer
    # depends on the silent self-loops fails it.
    engine = apartness.directed_branching_apartness_nonreflexive

    def loop_sensitive(l):
        rel = engine(l)
        if not l.has_reflexive_silent_steps:
            return rel
        return apartness.DirectedPairRelation(
            rel.n_states, (rel.rows[0] ^ 1, *rel.rows[1:]), rel.cells)
    monkeypatch.setattr(apartness, "directed_branching_apartness_nonreflexive",
                        loop_sensitive)
    assert not fixsr.has_reflexive_silent_steps
    failing = [e for e in cross_validate(fixsr).entries if e["status"] != "pass"]
    assert [e["name"] for e in failing] == ["reflexive-invariance"]
    assert failing[0]["counterexample"] == {"p": 0, "q": 0, "inOriginal": False,
                                            "violationCount": 1}


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cross_validate_random(seed):
    l = random_lts(GenParams(n_states=4, seed=seed))
    assert cross_validate(l).ok


def test_run_campaign_small():
    report = run_campaign(count=8, seed=3)
    assert report.ok
    assert {e["name"] for e in report.entries} >= {
        "duality-strong", "synthesis-soundness", "tau-extension"}


def test_run_campaign_records_the_first_failing_instance(monkeypatch):
    # Sizes cycle 2, 3, 4, 2, ...: the 3- and 4-state instances fail.
    monkeypatch.setattr(validate, "modality_free_violations",
                        lambda l: [{"state": 0}] * (l.n_states - 2))
    report = run_campaign(count=4, seed=5, max_states=4)
    first = list(campaign_instances(4, 5, max_states=4))[1]
    assert not report.ok
    assert next(e for e in report.entries if e["name"] == "modality-free-constant") == {
        "name": "modality-free-constant", "status": "fail",
        "counterexample": {"state": 0, "violationCount": 1, "seed": first.seed,
                           "nStates": 3}}


def test_check_pair_fixsr(fixsr):
    res = check_pair(fixsr, "dbranching", s(fixsr, "s"), s(fixsr, "r"))
    assert res["apart"] and not res["bisimilar"]
    assert res["derivation"]["conclusion"] == {
        "left": "s", "right": "r", "kind": "db"}


def test_check_pair_fix1(fix1):
    res = check_pair(fix1, "strong", s(fix1, "s"), s(fix1, "t"))
    assert not res["apart"] and res["bisimilar"]
    assert "derivation" not in res


def test_check_pair_diagonal(fixg2):
    res = check_pair(fixg2, "branching", 2, 2)
    assert not res["apart"] and res["bisimilar"]


def test_check_pair_nonreflexive_engine(fixsr):
    res = check_pair(fixsr, "dbranching", s(fixsr, "s"), s(fixsr, "r"),
                     nonreflexive=True)
    assert res["apart"]


@pytest.mark.parametrize("kind", ["strong", "dstrong", "branching"])
def test_nonreflexive_with_another_kind_is_a_usage_error(capsys, fixsr, kind):
    # The four-rule engine answers directed branching apartness only.
    with pytest.raises(ValueError, match="dbranching only"):
        check_pair(fixsr, kind, 0, 5, nonreflexive=True)
    assert main(["check", "--lts", str(DATA / "fixsr.aut"), "--kind", kind,
                 "--nonreflexive", "0", "5"]) == 2
    assert capsys.readouterr() == (
        "", f"error: nonreflexive applies to kind dbranching only, not {kind}\n")


def test_check_pair_bad_kind(fixsr):
    with pytest.raises(KeyError):
        check_pair(fixsr, "weak", 0, 1)
    with pytest.raises(KeyError):
        check_pair(fixsr, "strong", 0, 99)


def test_distinguish_pair_fixsr(fixsr):
    res = distinguish_pair(fixsr, s(fixsr, "s"), s(fixsr, "r"))
    from bbapart.logic import format_pformula
    assert format_pformula(res["formula"]) == "((<d> T) <c> T)"


def test_distinguish_pair_not_apart(fixsr):
    with pytest.raises(NotApartError) as exc:
        distinguish_pair(fixsr, s(fixsr, "s1"), s(fixsr, "r1"))
    assert "directed branching bisimilar" in str(exc.value)


def test_query_path_runs_no_bisimilarity_oracle(monkeypatch, capsys):
    # Bisimilarity is read off apartness by duality; only validation runs
    # the oracles, and every oracle goes through _refine.
    def refuse(*args, **kwargs):
        raise AssertionError("bisimilarity oracle on the query path")
    monkeypatch.setattr(bisim, "_refine", refuse)
    lts = ["--lts", str(DATA / "fixpq.aut"), "--names", str(DATA / "fixpq.names.json")]
    for p, q in (("p1", "p2"), ("p2", "q1"), ("q1", "q1")):
        for kind in ("strong", "dstrong", "branching", "dbranching"):
            assert main(["check", *lts, "--kind", kind, p, q]) == 0
        assert main(["check", *lts, "--kind", "dbranching", "--nonreflexive", p, q]) == 0
        assert main(["distinguish", *lts, p, q]) == 0
    assert main(["mc", *lts, "--state", "p1", "--formula", "<a> T"]) == 0
    assert main(["convert", *lts, "--formula", "((<a> T | ~<b> T) <c> T)",
                 "p2", "q1"]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="oracle"):
        bisim.bisimilarity(load_fixture("fixpq"), "strong")


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_cli_parse(capsys):
    code, out = run_cli(capsys, "parse", str(DATA / "fixsr.aut"),
                        "--names", str(DATA / "fixsr.names.json"))
    assert code == 0
    assert out["states"] == 9 and out["transitions"] == 7
    assert out["initial"] == "s"


def test_cli_check_warns_on_silent_strong(capsys):
    code = main(["check", "--lts", str(DATA / "fixsr.aut"),
                 "--kind", "strong", "0", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_cli_distinguish(capsys):
    code, out = run_cli(capsys, "distinguish",
                        "--lts", str(DATA / "fixsr.aut"),
                        "--names", str(DATA / "fixsr.names.json"), "s", "r")
    assert code == 0
    assert out["formula"] == "((<d> T) <c> T)"
    assert out["derivation"]["witness"] == {"from": "s", "label": "c", "to": "s2"}


def test_cli_distinguish_not_apart_is_success(capsys):
    code, out = run_cli(capsys, "distinguish",
                        "--lts", str(DATA / "fix1.aut"),
                        "--names", str(DATA / "fix1.names.json"), "s", "t")
    assert code == 0
    assert out["apart"] is False and out["bisimilar"] is True


def test_cli_mc(capsys):
    code, out = run_cli(capsys, "mc", "--lts", str(DATA / "fixsr.aut"),
                        "--names", str(DATA / "fixsr.names.json"),
                        "--state", "s", "--formula", "((<d> T) <c> T)")
    assert code == 0
    assert out["holds"] is True
    assert out["witness"] == {"path": ["s"], "pre": "s", "post": "s2"}


def test_cli_mc_deeply_nested(capsys, tmp_path):
    # 1200 nested <a> on an a-chain of 1200 steps: deeper than Python's
    # default recursion limit allows a recursive checker to go.
    d = 1200
    aut = tmp_path / "chain.aut"
    aut.write_text(render_aut(Lts(d + 1, frozenset(
        (i, ActionLabel("a"), i + 1) for i in range(d)))))
    code, out = run_cli(capsys, "mc", "--lts", str(aut), "--state", "0",
                        "--formula", "<a> " * d + "T")
    assert code == 0
    assert out["holds"] is True
    assert out["witness"] == {"path": ["0"], "pre": "0", "post": "1"}


@pytest.mark.parametrize("formula", ["<a> T", "((<a> T) <a> T)"])
def test_cli_mc_forward_tau_chain(capsys, tmp_path, formula):
    # 0 ->tau 1 ->tau ... ->tau m-1 ->a m: the witness is the whole chain.
    m = 2000
    steps = {(i, TAU, i + 1) for i in range(m - 1)} | {(m - 1, ActionLabel("a"), m)}
    aut = tmp_path / "forward.aut"
    aut.write_text(render_aut(Lts(m + 1, frozenset(steps))))
    code, out = run_cli(capsys, "mc", "--lts", str(aut), "--state", "0",
                        "--formula", formula)
    assert code == 0
    assert out["holds"] is True
    assert out["witness"] == {"path": [str(i) for i in range(m)],
                              "pre": str(m - 1), "post": str(m)}


def test_cli_convert(capsys):
    # A formula that separates p2 and q1 makes them branching apart and
    # says nothing of the direction: this P-formula holds at q1.
    lts = ["--lts", str(DATA / "fixpq.aut"), "--names", str(DATA / "fixpq.names.json")]
    code, out = run_cli(capsys, "convert", *lts,
                        "--formula", "((<a> T | ~<b> T) <c> T)", "p2", "q1")
    assert code == 0
    assert (out["formula"], out["direction"], out["resultDirection"]) == (
        "(<a> T | <b> T)", "leftHolds", "rightHolds")
    # distinguish gives a formula in the asked direction.
    code, out = run_cli(capsys, "distinguish", *lts, "p2", "q1")
    assert code == 0 and out["apart"] is True
    for state, holds in (("p2", True), ("q1", False)):
        code, mc = run_cli(capsys, "mc", *lts, "--state", state, "--formula", out["formula"])
        assert code == 0 and mc["holds"] is holds


def test_cli_convert_a_formula_that_does_not_distinguish(capsys):
    code, out = run_cli(capsys, "convert", "--lts", str(DATA / "fixpq.aut"),
                        "--formula", "T", "0", "1")
    assert code == 0
    assert out == {"distinguishes": False,
                   "message": "formula does not distinguish the states"}


@pytest.mark.parametrize("stem, text, p, q, direction, result", [
    ("fixsr", "((<d> T) <c> T)", "s", "r", "leftHolds", "leftHolds"),
    ("fixsr", "((<d> T) <c> T)", "r", "s", "rightHolds", "rightHolds"),
    # A formula with a negation may give a P-formula that separates the
    # pair the other way round; the pair is apart in both directions.
    ("fixpq", "((<a> T | ~<b> T) <c> T)", "p2", "q1", "leftHolds", "rightHolds"),
], ids=["s-r", "r-s", "p2-q1-reversed"])
def test_cli_convert_simplify(capsys, stem, text, p, q, direction, result):
    code, out = run_cli(capsys, "convert", "--lts", str(DATA / f"{stem}.aut"),
                        "--names", str(DATA / f"{stem}.names.json"),
                        "--formula", text, "--simplify", p, q)
    assert code == 0 and out["distinguishes"] is True
    assert (out["direction"], out["resultDirection"]) == (direction, result)
    l = load_fixture(stem)
    i, j = s(l, p), s(l, q)
    f = simplify(pformula_from_hmlu(l, parse_formula(text), i, j), l)
    assert out["formula"] == format_pformula(f)
    assert out["formulaJson"] == pformula_to_json(f)
    holds, fails = (i, j) if result == "leftHolds" else (j, i)
    closed = reflexive_closure(l)
    assert p_satisfies(closed, holds, f) and not p_satisfies(closed, fails, f)


def test_cli_json_writes_the_silent_action_with_the_tau_label(capsys, tmp_path):
    # With --tau-label i, "tau" is a visible action: the silent step 0 -> 1
    # and the visible step 1 -> 2 must differ in JSON as in formula text.
    aut = tmp_path / "i.aut"
    aut.write_text('des (0,3,4)\n(0,"i",1)\n(1,"tau",2)\n(3,"tau",2)\n')
    lts = ["--lts", str(aut), "--tau-label", "i"]
    code, out = run_cli(capsys, "distinguish", *lts, "0", "2")
    assert code == 0 and out["formula"] == "<i> <tau> T"
    outer = out["formulaJson"]
    assert [outer["label"], outer["pos"][0]["label"]] == ["i", "tau"]
    assert out["derivation"]["witness"] == {"from": "0", "label": "i", "to": "1"}
    code, out = run_cli(capsys, "check", *lts, "--kind", "dbranching", "0", "2")
    assert code == 0
    assert out["derivation"]["witness"] == {"from": "0", "label": "i", "to": "1"}
    code, out = run_cli(capsys, "convert", *lts, "--formula", "<i> <tau> T", "0", "2")
    assert code == 0 and out["formula"] == "<i> (<i> <tau> T & <tau> T)"
    outer = out["formulaJson"]
    assert [outer["label"], *(g["label"] for g in outer["pos"]),
            outer["pos"][0]["pos"][0]["label"]] == ["i", "i", "tau", "tau"]


def test_cli_random_deterministic(capsys, tmp_path):
    out_file = tmp_path / "r.aut"
    code = main(["random", "--states", "4", "--seed", "3",
                 "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text() == render_aut(random_lts(GenParams(n_states=4, seed=3)))


def test_cli_random_stops_drawing_once_every_step_is_drawn(capsys):
    # 2 states, 2 visible actions: 8 visible steps and 4 silent ones in all;
    # a density of 1e9 asks for 2e9 draws per state and phase.
    start = time.perf_counter()
    code = main(["random", "--states", "2", "--vdensity", "1e9",
                 "--tdensity", "1e9"])
    assert code == 0 and time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "des (0,12,2)" and len(set(lines[1:])) == 12


def test_cli_validate(capsys):
    code, out = run_cli(capsys, "validate", "--lts", str(DATA / "fixsr.aut"))
    assert code == 0
    assert out["ok"] is True


def test_cli_byte_stable(capsys):
    argv = ["distinguish", "--lts", str(DATA / "fixg2.aut"),
            "--names", str(DATA / "fixg2.names.json"), "q0", "p0"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["parse", "/nonexistent.aut"],
    ["check", "--lts", "tests/data/fixsr.aut", "--kind", "strong", "0", "zz"],
    ["mc", "--lts", "tests/data/fixsr.aut", "--state", "0", "--formula", "(T"],
    ["check", "--lts", "tests/data/fixsr.aut", "--kind", "weird", "0", "1"],
])
def test_cli_usage_errors(capsys, argv):
    if "fixsr" in " ".join(argv):
        argv = [a.replace("tests/data", str(DATA)) for a in argv]
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["strong", "dstrong", "branching"])
@pytest.mark.parametrize("state, message", [
    ("99", "state index out of range: 99"), ("zz", "unknown state: 'zz'")])
def test_cli_a_bad_state_is_one_error_line(capsys, tmp_path, kind, state, message):
    # The states are resolved before the strong kinds warn about silent steps.
    aut = tmp_path / "t.aut"
    aut.write_text('des (0,2,3)\n(0,"a",1)\n(1,"tau",2)\n')
    assert main(["check", "--lts", str(aut), "--kind", kind, "0", state]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_names_missing_an_index_say_which(capsys, tmp_path):
    aut = tmp_path / "t.aut"
    aut.write_text('des (0,1,3)\n(0,"a",1)\n')
    names = tmp_path / "n.json"
    names.write_text('{"0": "a", "2": "b"}')
    assert main(["parse", str(aut), "--names", str(names)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load names from {names}: state index 1 is missing\n")


@pytest.mark.parametrize("sidecar, reason", [
    ('{"0": "a", "1": "a", "2": "c"}', "name 'a' is given to states 0 and 1"),
    ('{"0": "a", "1": "2", "2": "c"}', "name '2' of state 1 reads as the index of state 2"),
])
def test_cli_rejects_names_that_make_a_state_ambiguous(capsys, tmp_path, sidecar, reason):
    aut = tmp_path / "t.aut"
    aut.write_text('des (0,1,3)\n(0,"a",1)\n')
    names = tmp_path / "n.json"
    names.write_text(sidecar)
    assert main(["check", "--lts", str(aut), "--names", str(names),
                 "--kind", "dbranching", "0", "2"]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot load names from {names}: {reason}\n")
    # A name that reads as its own state's index is no other state's.
    names.write_text('{"0": "a", "1": "1", "2": "+2"}')
    assert main(["parse", str(aut), "--names", str(names)]) == 0


@pytest.mark.parametrize("sidecar", ["[1, 2]", '"x"', "null", "3",
                                     '{"0": 1, "1": 2}', '{"0": "s", "1": ["t"]}'])
def test_cli_rejects_names_that_are_not_an_index_to_name_object(
        capsys, tmp_path, sidecar):
    aut = tmp_path / "t.aut"
    aut.write_text('des (0,1,2)\n(0,"a",1)\n')
    names = tmp_path / "n.json"
    names.write_text(sidecar)
    assert main(["parse", str(aut), "--names", str(names)]) == 2
    assert "cannot load names" in capsys.readouterr().err


def test_cli_parse_label_with_whitespace(capsys, tmp_path):
    aut = tmp_path / "bad.aut"
    aut.write_text('des (0,1,2)\n(0,"a b",1)\n')
    assert main(["parse", str(aut)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["parse", "{aut}"],
    ["check", "--lts", "{aut}", "--kind", "strong", "0", "1"],
    ["validate", "--lts", "{aut}"],
])
def test_cli_input_that_is_not_utf8_is_one_error_line(capsys, tmp_path, command):
    aut = tmp_path / "latin1.aut"
    aut.write_bytes('des (0,1,2)\n(0,"é",1)\n'.encode("latin-1"))
    assert main([arg.format(aut=aut) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {aut}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("p,q", [("0", "1"), ("1", "0")])
def test_cli_convert_deeply_nested(capsys, tmp_path, p, q):
    # 1200 nested <a> on an a-chain of 1200 steps separates states 0 and 1;
    # synthesis may refuse a formula this deep, but must not crash.
    d = 1200
    aut = tmp_path / "chain.aut"
    aut.write_text(render_aut(Lts(d + 1, frozenset(
        (i, ActionLabel("a"), i + 1) for i in range(d)))))
    code = main(["convert", "--lts", str(aut), "--formula", "<a> " * d + "T", p, q])
    assert code in (0, 2)
    capsys.readouterr()


def test_cli_convert_deep_formula_within_a_small_stack(capsys, tmp_path):
    # 200 nested <a>, the deepest formula synthesis accepts, answered with
    # only 60 frames to spare: no walk may recurse per nesting level.
    d = 200
    aut = tmp_path / "chain.aut"
    aut.write_text(render_aut(Lts(d + 1, frozenset(
        (i, ActionLabel("a"), i + 1) for i in range(d)))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        code = main(["convert", "--lts", str(aut), "--formula",
                     "<a> " * d + "T", "0", "1"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["resultDirection"] == "leftHolds"


def test_cli_validate_campaign_options(capsys):
    code, out = run_cli(capsys, "validate", "--campaign", "--count", "3",
                        "--max-states", "3")
    assert code == 0 and out["ok"] is True
    assert main(["validate", "--campaign", "--min-states", "4",
                 "--max-states", "3"]) == 2
    capsys.readouterr()


def test_cli_validate_needs_an_lts_or_a_campaign(capsys):
    assert main(["validate"]) == 2
    assert capsys.readouterr() == ("", "error: validate needs --lts or --campaign\n")


@pytest.mark.parametrize("given", [["--lts", "/nonexistent.aut"],
                                   ["--names", str(DATA / "fixpq.names.json")],
                                   ["--lts", str(DATA / "fixpq.aut")]])
def test_cli_validate_campaign_rejects_an_lts_or_names(capsys, given):
    # A campaign generates its own LTSs; a file given with it would be
    # ignored, and a run that reports ok would not have read it.
    assert main(["validate", "--campaign", "--count", "1", *given]) == 2
    assert capsys.readouterr() == (
        "", "error: --campaign generates its LTSs: it takes no --lts or --names\n")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_validate_campaign_rejects_a_count_below_one(capsys, count):
    assert main(["validate", "--campaign", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--count" in captured.err


def test_cli_random_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.aut"
    assert main(["random", "--states", "3", "-o", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("command", [["random", "--states", "5"],
                                     ["validate", "--campaign", "--count", "2"]])
@pytest.mark.parametrize("density", [["--vdensity", "nan"], ["--tdensity", "inf"],
                                     ["--vdensity=-inf"]])
def test_cli_rejects_non_finite_densities(capsys, command, density):
    assert main(command + density) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_python_dash_m_runs_the_cli():
    # From a source checkout: the package is importable, not installed.
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "bbapart", "parse", str(DATA / "fixsr.aut")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["states"] == load_fixture("fixsr").n_states
