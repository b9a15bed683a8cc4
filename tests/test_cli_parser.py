"""``cli.main`` gives only the subcommands its argv names their arguments:
every command line must be answered exactly as with the full parser."""

import pytest

from bbapart import cli
from bbapart.cli import build_parser, main

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
    ]


def _run(capsys, argv) -> tuple:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_main_answers_as_the_full_parser(capsys, monkeypatch, tmp_path):
    sequence = argv_sequence(tmp_path)
    named = [_run(capsys, argv) for argv in sequence]
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: build_parser())
    full = [_run(capsys, argv) for argv in sequence]
    assert named == full
    # Every kind of answer is in the sequence: help, usage error, result.
    assert {code for code, _, _ in full} == {cli.EXIT_OK, cli.EXIT_USAGE}
    assert full[0][1].startswith("usage: bbapart")


def test_unnamed_subcommands_get_no_arguments(capsys):
    parser = build_parser(["check"])
    with pytest.raises(SystemExit):
        parser.parse_args(["parse", "x.aut"])
    assert "unrecognized arguments: x.aut" in capsys.readouterr().err
    assert build_parser().parse_args(["parse", "x.aut"]).file == "x.aut"
