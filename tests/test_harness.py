import json

import pytest
from hypothesis import given, settings, strategies as st

from bbapart.cli import main
from bbapart.generate import GenParams, campaign_instances, random_lts
from bbapart.lts import TAU, ActionLabel, Lts, render_aut
from bbapart.validate import (
    NotApartError,
    check_pair,
    cross_validate,
    distinguish_pair,
    run_campaign,
)

from conftest import DATA, s


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


def test_campaign_instances_cycle_sizes():
    sizes = [g.n_states for g in campaign_instances(9, seed=0)]
    assert sizes == [2, 3, 4, 5, 6, 7, 8, 2, 3]


def test_cross_validate_fixtures(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        report = cross_validate(l)
        assert report.ok, [e.to_json() for e in report.entries
                           if e.status != "pass"]


def test_cross_validate_corruption_detected(fixsr):
    report = cross_validate(fixsr, _corrupt_duality_pair=(0, 5))
    failing = [e for e in report.entries if e.status != "pass"]
    assert [e.name for e in failing] == ["duality-dbranching"]
    cx = failing[0].counterexample
    assert {"p", "q", "apart"} <= set(cx)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cross_validate_random(seed):
    l = random_lts(GenParams(n_states=4, seed=seed))
    assert cross_validate(l).ok


def test_run_campaign_small():
    report = run_campaign(count=8, seed=3)
    assert report.ok
    assert {e.name for e in report.entries} >= {
        "duality-strong", "synthesis-soundness", "tau-extension"}


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
    assert exc.value.bisimilar


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
    code, out = run_cli(capsys, "convert", "--lts", str(DATA / "fixpq.aut"),
                        "--names", str(DATA / "fixpq.names.json"),
                        "--formula", "((<a> T | ~<b> T) <c> T)", "p2", "q1")
    assert code == 0
    assert out["formula"] == "(<a> T | <b> T)"


def test_cli_random_deterministic(capsys, tmp_path):
    out_file = tmp_path / "r.aut"
    code = main(["random", "--states", "4", "--seed", "3",
                 "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text() == render_aut(random_lts(GenParams(n_states=4, seed=3)))


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
