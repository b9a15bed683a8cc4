"""``cli.main`` reads a valid command line straight from the command table,
and falls back to the full parser for anything else: every command line
must be answered exactly as with the full parser."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bbapart
from bbapart import cli
from bbapart.cli import main

from conftest import DATA

SUBCOMMANDS = ("parse", "check", "distinguish", "mc", "convert", "random",
               "validate")


def handed_over(tmp_dir) -> list:
    """Valid-looking command lines outside the strict form: argparse reads
    them (an abbreviation, a negative number, an attached value, an option
    as a value, a lone ``-``)."""
    aut = str(DATA / "fixsr.aut")
    return [
        ["check", "--lts", aut, "--kin", "dbranching", "0", "5"],
        ["random", "--states", "5", "--seed", "-1"],
        ["random", "--states", "5", "--seed", "3", "-o" + str(tmp_dir / "o.aut")],
        ["convert", "--lts", aut, "--formula", "--simplify", "0", "5"],
        ["parse", "-"],
    ]


def answered() -> list:
    """Command lines in the strict form in less usual shapes."""
    aut = str(DATA / "fixsr.aut")
    return [
        ["check", "0", "5", "--lts", aut, "--kind", "dbranching"],
        ["check", "--lts", aut, "--kind", "strong", "--kind", "dbranching", "0", "5"],
        ["check", "--lts", aut, "--kind", "strong", "", "5"],
    ]


def argv_sequence(tmp_dir) -> list:
    """Help, usage errors and ops interleaved on one fixture."""
    aut = str(DATA / "fixsr.aut")
    names = ["--names", str(DATA / "fixsr.names.json")]
    return [
        ["--help"],
        *([sub, "--help"] for sub in SUBCOMMANDS),
        [],
        ["frobnicate"],
        ["parse", aut, "--extra"],
        ["check", "--lts", aut, "--kind", "strong", "0"],
        ["parse", "/nonexistent.aut"],
        ["check", "--lts", aut, "--kind", "strong", "0", "zz"],
        ["mc", "--lts", aut, "--state", "0", "--formula", "(T"],
        ["check", "--lts", aut, "--kind", "weird", "0", "1"],
        ["check", "--lts", aut, *names, "--kind", "dbranching", "s", "r"],
        ["distinguish", "--lts", aut, *names, "--simplify", "s", "r"],
        ["check", "--lts", aut, "--kind", "dbranching", "--nonreflexive", "0", "5"],
        ["parse", aut, *names],
        ["mc", "--lts", aut, "--state", "0", "--formula", "(<d> T <c> T)"],
        ["convert", "--lts", aut, "--formula", "(<d> T <c> T)", "0", "5"],
        ["random", "--states", "5", "--seed", "3", "-o", str(tmp_dir / "r.aut")],
        ["distinguish", "--lts", aut, *names, "s", "r"],
        ["check", "--lts", aut, "--kind", "branching", "0", "5"],
        # A valid command with an argument left over: the top-level usage.
        ["check", "--lts", aut, "--kind", "dbranching", "0", "5", "--bogus"],
        ["--he"],
        ["check", "--he"],
        ["check", "--lts", aut, "--kind=strong", "0", "5"],
        ["check", "--lts", aut, "--kind", "strong", "--", "0", "5"],
        ["check", "--lts", aut, "--kind", "strong", "0", "parse"],
        ["parse", "check"],
        ["validate", "--count", "x"],
        *handed_over(tmp_dir),
        *answered(),
    ]


def _run(capsys, argv) -> tuple:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_main_answers_as_the_full_parser(capsys, monkeypatch, tmp_path):
    sequence = argv_sequence(tmp_path)
    named = [_run(capsys, argv) for argv in sequence]
    # The reference: every command line through the full parser only.
    monkeypatch.setattr(cli, "_command_args", lambda argv: None)
    full = [_run(capsys, argv) for argv in sequence]
    for argv, got, want in zip(sequence, named, full):
        assert got == want, argv
    # Every kind of answer is in the sequence: help, usage error, result.
    assert {code for code, _, _ in full} == {cli.EXIT_OK, cli.EXIT_USAGE}
    assert full[0][1].startswith("usage: bbapart")
    err = next(err for argv, (_, _, err) in zip(sequence, full) if "--bogus" in argv)
    assert err.startswith("usage: bbapart [-h]")
    assert "unrecognized arguments: --bogus" in err


def test_the_matcher_answers_only_the_strict_form(tmp_path):
    for argv in handed_over(tmp_path):
        assert cli._command_args(argv) is None, argv
    for argv in answered():
        assert cli._command_args(argv) is not None, argv
    args = vars(cli._command_args(answered()[1]))
    assert args == {"func": cli.cmd_check, "lts": str(DATA / "fixsr.aut"),
                    "tau_label": "tau", "names": None, "kind": "dbranching",
                    "nonreflexive": False, "p": "0", "q": "5"}


def test_the_matcher_reads_the_table_once_and_the_function_per_call(monkeypatch, capsys):
    for name, (help, entries) in cli._COMMANDS.items():
        assert isinstance(help, str) and callable(getattr(cli, "cmd_" + name)), name
        for flags, settings in entries:
            if any(callable(v) and v not in (int, float) for v in settings.values()):
                pytest.fail(f"{name} {flags}: a function in the table")
    argv = answered()[0]
    assert cli._command_args(argv).func is cli.cmd_check
    calls = []

    def wrapped(args):  # as the benchmark's tracer rebinds a command
        calls.append(args.kind)
        return cli.EXIT_OK
    monkeypatch.setattr(cli, "cmd_check", wrapped)
    # Both readers: the matcher, and the full parser on an abbreviation.
    assert main(argv) == cli.EXIT_OK
    assert main([token.replace("--kind", "--kin") for token in argv]) == cli.EXIT_OK
    assert calls == ["dbranching", "dbranching"]
    assert capsys.readouterr() == ("", "")
    monkeypatch.setattr(cli, "_COMMANDS", {})  # the matcher's views are built by now
    assert cli._command_args(argv).func is wrapped


def test_shared_options_are_defined_once_with_help():
    """``--tau-label`` and ``--names`` are one entry each, with one help
    text, wherever a subcommand takes them."""
    for option in ("--tau-label", "--names"):
        found = {id(entry) for _, entries in cli._COMMANDS.values()
                 for entry in entries if entry[0] == (option,)}
        assert len(found) == 1, option
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.dest == "command").choices
    for name in SUBCOMMANDS:
        text = " ".join(subs[name].format_help().split())
        assert "token naming the silent action in .aut, formula and JSON text" in text, name
        assert ("JSON sidecar mapping state indices to names" in text) is (
            name != "random"), name


def _parsers_built(monkeypatch, argv) -> list:
    """The ``prog`` of every ``ArgumentParser`` that ``main(argv)`` builds."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert main(argv) == cli.EXIT_OK, argv
    finally:
        monkeypatch.undo()
    return built


def test_a_valid_command_builds_no_parser(monkeypatch, capsys):
    aut = str(DATA / "fixsr.aut")
    assert _parsers_built(monkeypatch, ["check", "--lts", aut, "--kind", "dbranching",
                                        "0", "5"]) == []
    assert _parsers_built(monkeypatch, ["validate", "--lts", aut]) == []
    # Help still goes through the full parser, with every subcommand.
    assert len(_parsers_built(monkeypatch, ["--help"])) == 1 + len(SUBCOMMANDS)
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    for sub in SUBCOMMANDS:
        assert f"\n    {sub} " in out, sub


def test_a_valid_command_does_not_import_argparse():
    # A fresh process: which of argparse and gettext are loaded after each
    # command line.
    code = """if True:
        import contextlib, io, sys
        from bbapart import cli
        aut = sys.argv[1]
        loaded = []
        for argv in (["check", "--lts", aut, "--kind", "dbranching", "0", "5"],
                     ["distinguish", "--lts", aut, "0", "5"], ["--help"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            loaded.append(sorted({"argparse", "gettext"} & sys.modules.keys()))
        print(loaded)
    """
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(DATA / "fixsr.aut")],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    assert done.stdout == "[[], [], ['argparse', 'gettext']]\n"


# Values for any argument: valid ones, and ones that only argparse may read.
VALUES = ["0", "5", "s", "", " ", "a b", "x=y", "strong", "dbranching", "tau",
          "i", "7", "+3", " 4 ", "1_0", "٣", "0x10", "2.5", "1e3", "nan",
          "inf", "1e999", "ü", "check", "-", "--", "-1", "-.5", "-x", "--lts",
          "-o", "--kind=strong"]
ANY_VALUE = st.sampled_from(VALUES) | st.text(max_size=3)


def _valid(value: str, settings: dict) -> bool:
    """Whether ``value`` is a strict-form value of the entry ``settings``."""
    if value.startswith("-"):
        return False
    try:
        value = settings.get("type", str)(value)
    except ValueError:
        return False
    return value in settings.get("choices", [value])


def _valid_values(settings: dict):
    """Strict-form values for the entry ``settings``, awkward ones too."""
    if "choices" in settings:
        return st.sampled_from(settings["choices"])
    kind = settings.get("type", str)
    if kind is str:
        return st.sampled_from(["0", "5", "s", "", " ", "a b", "x=y", "check", "ü"])
    spelled = st.sampled_from(["+3", " 4 ", "1_0", "٣", "nan", "inf", "1e999"])
    return (st.integers(0, 300).map(str) | spelled).filter(lambda v: _valid(v, settings))


# The ways a drawn argv may leave the strict form.
NOISE = ("missing", "spelling", "values", "extra")


@st.composite
def command_lines(draw) -> tuple:
    """A subcommand, argv drawn from its table entries, and whether that
    argv has the strict form.  A clean draw takes only strict-form pieces;
    a noisy one may also leave out arguments, spell options as
    abbreviations or ``--opt=value``, take any value, or add a token."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    entries = cli._COMMANDS[name][1]
    noise = draw(st.sampled_from([(), (), *((kind,) for kind in NOISE), NOISE]))

    def odd(kind) -> bool:
        return kind in noise and draw(st.integers(0, 3)) == 0

    def value(settings) -> str:
        return draw(ANY_VALUE if odd("values") else _valid_values(settings))

    pieces, strict = [], True
    for flags, settings in entries:
        if not flags[0].startswith("-"):  # a positional
            if odd("missing"):
                strict = False
                continue
            token = value(settings)
            strict &= _valid(token, settings)
            pieces.append([token])
            continue
        times = draw(st.integers(0, 2))
        if settings.get("required") and times == 0 and not odd("missing"):
            times = 1
        strict &= times > 0 or not settings.get("required")
        for _ in range(times):
            flag = draw(st.sampled_from(flags))
            if odd("spelling"):  # an abbreviation
                flag, strict = flag[:-1], False
            if settings.get("action") == "store_true":
                pieces.append([flag])
                continue
            token = value(settings)
            strict &= _valid(token, settings)
            if odd("spelling"):
                pieces.append([f"{flag}={token}"])
                strict = False
            else:
                pieces.append([flag, token])
    if odd("extra"):  # a token left over
        pieces.append([draw(ANY_VALUE)])
        strict = False
    argv = [token for piece in draw(st.permutations(pieces)) for token in piece]
    return name, argv, strict


def _argparse_args(name, argv):
    """The parse of ``argv`` by an ``ArgumentParser`` built from the table
    entries of subcommand ``name``, as a dict, or None on any message."""
    parser = argparse.ArgumentParser(prog="bbapart " + name)
    for flags, settings in cli._COMMANDS[name][1]:
        parser.add_argument(*flags, **settings)
    parser.set_defaults(func=getattr(cli, "cmd_" + name))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _same(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        type(got[k]) is type(want[k])
        and (got[k] == want[k] or isinstance(got[k], float)
             and math.isnan(got[k]) and math.isnan(want[k]))
        for k in got)


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_the_matcher_reads_what_argparse_reads(line):
    name, argv, strict = line
    got = cli._command_args([name, *argv])
    if strict:
        assert got is not None
    if got is not None:
        want = _argparse_args(name, argv)
        assert want is not None
        assert _same(vars(got), want), (vars(got), want)
