"""JSON output of the command line: the same bytes as ``json.dump(...,
indent=2)``, at any nesting depth; a write that fails is one error line."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bbapart
from bbapart import cli
from bbapart.apartness import TAG_RIGHT_FWD, ChildStep, Derivation
from bbapart.lts import ActionLabel

from conftest import DATA

A = ActionLabel("a")

FIXTURE_COMMANDS = [
    ["parse", str(DATA / "fixsr.aut")],
    ["check", "--kind", "dbranching", "s", "r"],
    ["check", "--kind", "branching", "r", "s"],
    ["check", "--kind", "strong", "s", "s"],
    ["check", "--kind", "dbranching", "--nonreflexive", "s", "r"],
    ["distinguish", "s", "r"],
    ["distinguish", "--simplify", "s", "r"],
    ["distinguish", "s", "s"],
    ["mc", "--state", "s", "--formula", "((<d> T) <c> T)"],
    ["validate"],
]


def dump(payload) -> str:
    chunks = []
    cli._dump(payload, chunks.append)
    return "".join(chunks)


def test_cli_outputs_are_json_dump_bytes(capsys):
    for argv in FIXTURE_COMMANDS:
        if argv[0] != "parse":
            argv = [argv[0], "--lts", str(DATA / "fixsr.aut"),
                    "--names", str(DATA / "fixsr.names.json"), *argv[1:]]
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text())
payloads = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_dump_matches_json_dump(payload):
    assert dump(payload) == json.dumps(payload, indent=2)


def chain_derivation(depth: int) -> Derivation:
    """A derivation ``depth`` rounds deep: each node one rightFwd child."""
    d = Derivation(depth, depth + 1, (depth, A, depth + 1), ())
    for i in range(depth - 1, -1, -1):
        d = Derivation(i, i + 1, (i, A, i + 1),
                       (ChildStep(i + 2, i + 2, TAG_RIGHT_FWD, d),))
    return d


def test_certificate_at_the_old_limit_matches_json_dump():
    # Long enough to be written in several pieces.
    payload = chain_derivation(300).to_json()
    writes = []
    cli._dump(payload, writes.append)
    assert len(writes) > 1
    assert "".join(writes) == json.dumps(payload, indent=2)


class _Sink:
    """Counts what is written and keeps only the last line."""

    def __init__(self):
        self.size, self.tail = 0, ""

    def write(self, text):
        self.size += len(text)
        self.tail = (self.tail + text)[-200:]


def test_2000_round_certificate_prints(monkeypatch):
    # Three containers per round: 6,000 levels of nesting, where a
    # recursive encoder stops at about 330 rounds.
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli._emit(chain_derivation(2000).to_json()) == cli.EXIT_OK
    assert sink.tail.endswith("\n      }\n    }\n  ]\n}\n")
    assert sink.size > 2000 * 6000


class _FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` raises ``error``."""

    def __init__(self, error, method):
        super().__init__()
        setattr(self, method, self._fail)
        self.error = error

    def _fail(self, *args):
        raise self.error


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", [
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
    OSError(errno.ENOSPC, "No space left on device")])
@pytest.mark.parametrize("argv", [
    ["check", "--lts", str(DATA / "fixsr.aut"), "--kind", "dbranching", "0", "5"],
    ["random", "--states", "3"]])
def test_a_failed_write_to_stdout_is_one_error_line(capsys, monkeypatch, argv,
                                                    error, method):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error, method))
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"
    if isinstance(error, BrokenPipeError):
        # The flush at exit writes to os.devnull instead.
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
    else:
        assert isinstance(sys.stdout, _FailingStdout)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_2_without_a_traceback():
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "bbapart", "check", "--lts",
             str(DATA / "fixsr.aut"), "--kind", "dbranching", "0", "0"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert done.returncode == cli.EXIT_USAGE
    assert done.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["--help"], ["check", "--help"],
    ["check", "--lts", str(DATA / "fixsr.aut"), "--kind", "dbranching", "0", "0"]])
def test_help_and_output_on_a_full_device_exit_2(argv, unbuffered):
    # argparse ignores a failed write of its help; with stdout buffered,
    # the flush at exit fails too unless stdout is dropped first.
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "bbapart", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    assert (done.returncode, done.stderr) == (
        cli.EXIT_USAGE, "error: [Errno 28] No space left on device\n")


def _bbapart_env(unbuffered: str) -> dict:
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONUNBUFFERED": unbuffered,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("aut", [
    'des (0,1,100000)\n(0,"a",0)\n',  # silent reachability: n^2/2 mask bits
    "des (0,0,300000000)\n",           # the reflexive closure's steps
], ids=["masks", "closure"])
def test_running_out_of_memory_exits_2_with_one_error_line(tmp_path, aut):
    resource = pytest.importorskip("resource")
    path = tmp_path / "m.aut"
    path.write_text(aut)
    limit = 256 << 20

    def limit_memory():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    done = subprocess.run(
        [sys.executable, "-m", "bbapart", "check", "--lts", str(path),
         "--kind", "dbranching", "0", "1"],
        capture_output=True, text=True, env=_bbapart_env(""),
        preexec_fn=limit_memory, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        cli.EXIT_USAGE, "", "error: out of memory\n")


FIXSR = str(DATA / "fixsr.aut")
STRONG_CHECK = ["check", "--lts", FIXSR, "--kind", "strong", "0", "5"]
BAD_STATE = ["mc", "--lts", FIXSR, "--state", "99", "--formula", "T"]


# With stderr buffered, a line left in its buffer by a failed write makes
# the flush at exit fail too, and the process exit 120, unless stderr is
# dropped first; so every case runs buffered and unbuffered.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("redirect", [
    "2>&-",            # started without file descriptor 2: sys.stderr is None
    "2</dev/null",     # descriptor 2 open for reading only: every write fails
    pytest.param("2>/dev/full", marks=pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs /dev/full"))])
@pytest.mark.parametrize("argv,code,answers", [
    (STRONG_CHECK, cli.EXIT_OK, True),  # its warning is lost, not its answer
    (BAD_STATE, cli.EXIT_USAGE, False),
    (["check", "--bogus"], cli.EXIT_USAGE, False)])
def test_a_failed_stderr_keeps_the_exit_code_and_stdout(argv, code, answers,
                                                        redirect, unbuffered):
    done = subprocess.run(["sh", "-c", f'exec "$0" "$@" {redirect}',
                           sys.executable, "-m", "bbapart", *argv],
                          stdout=subprocess.PIPE, text=True,
                          env=_bbapart_env(unbuffered), timeout=60)
    assert done.returncode == code
    if answers:
        assert json.loads(done.stdout) == {"kind": "strong", "apart": True,
                                           "apartReverse": True, "bisimilar": False}
    else:
        assert done.stdout == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    STRONG_CHECK, BAD_STATE, ["--help"], ["check", "--bogus"],
    ["check", "--lts", FIXSR, "--kind", "dbranching", "0", "5"]])
def test_stdout_and_stderr_on_one_closed_pipe_exit_2(argv, unbuffered):
    # Nothing can be written anywhere: the exit code is all that is left.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "bbapart", *argv],
                              stdout=write, stderr=write,
                              env=_bbapart_env(unbuffered), timeout=60)
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_USAGE
