"""``cli.main`` parses a command line with the parser of the subcommand it
names alone, and falls back to the full parser for anything else: every
command line must be answered exactly as with the full parser."""

import argparse

from bbapart import cli
from bbapart.cli import main

from conftest import DATA

SUBCOMMANDS = ("parse", "check", "distinguish", "mc", "convert", "random",
               "validate")


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


def test_a_valid_command_builds_one_parser(monkeypatch, capsys):
    aut = str(DATA / "fixsr.aut")
    assert _parsers_built(monkeypatch, ["check", "--lts", aut, "--kind", "dbranching",
                                        "0", "5"]) == ["bbapart check"]
    assert _parsers_built(monkeypatch, ["validate", "--lts", aut]) == ["bbapart validate"]
    # Help still goes through the full parser, with every subcommand.
    assert len(_parsers_built(monkeypatch, ["--help"])) == 1 + len(SUBCOMMANDS)
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    for sub in SUBCOMMANDS:
        assert f"\n    {sub} " in out, sub
