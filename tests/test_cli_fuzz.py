"""Command-line fuzzing: any ``.aut`` text, names sidecar, state token and
formula string ends in exit code 0, 2 or 3, never in an exception."""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from bbapart.cli import main
from bbapart.logic import TOP, And, Diamond, Neg, format_formula
from bbapart.lts import TAU, ActionLabel

MAX_STATES = 6

LONG = "1" * 5000  # more digits than int() reads from text
BAD_LINES = ['(0,"a b",1)', '(0,"a,1)', f'({MAX_STATES + 3},"a",0)', '(0,"",1)',
             '(0,a"b,1)', "des (0,0,0)", "(0,1)", "garbage", f'({LONG},"a",0)',
             f"des (0,1,{LONG})"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
hmlu = st.recursive(
    st.just(TOP),
    lambda sub: st.one_of(
        sub.map(Neg), st.builds(And, sub, sub),
        st.builds(Diamond, sub, st.sampled_from([TAU, ActionLabel("a"),
                                                 ActionLabel("b")]), sub)),
    max_leaves=6)


@st.composite
def cli_inputs(draw):
    """Mostly well-formed inputs over at most six states: the bytes of an
    ``.aut`` file that may carry one damaged line, UTF-8 or not, a names
    sidecar that may be any JSON or none, two state tokens and a formula
    text, each of them valid or not."""
    n = draw(st.integers(1, MAX_STATES))
    state = st.integers(0, n - 1)
    tau = draw(st.sampled_from(["tau", "i"]))
    steps = draw(st.lists(st.tuples(state, st.sampled_from([tau, "a", "b"]), state),
                          max_size=3 * n))
    lines = [f"des ({draw(state)},{len(steps)},{n})".encode()]
    lines += [f'({p},"{label}",{q})'.encode() for p, label, q in steps]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw((st.sampled_from(BAD_LINES) | st.text(max_size=12)).map(str.encode)
                          | st.binary(max_size=12)))
    names = draw(st.one_of(
        st.none(),
        st.lists(st.text(max_size=3), min_size=n, max_size=n).map(
            lambda ns: json.dumps({str(i): name for i, name in enumerate(ns)})),
        json_values.map(json.dumps),
        st.text(max_size=10)))
    tokens = st.one_of(state.map(str), st.integers(-1, MAX_STATES + 1).map(str),
                       st.text(max_size=3))
    formula = draw(st.one_of(
        hmlu.map(lambda f: format_formula(f, silent_label=tau)),
        st.text(alphabet="TF~()&|<> abtau", max_size=24)))
    return tau, b"\n".join(lines) + b"\n", names, draw(tokens), draw(tokens), formula


@settings(max_examples=100, deadline=None)
@given(cli_inputs())
@example(("tau", f'des (0,1,2)\n({LONG},"a",0)\n'.encode(), None, "0", "1", "T"))
@example(("tau", f'des (0,1,{LONG})\n(0,"a",0)\n'.encode(), None, "0", "1", "T"))
def test_cli_exits_with_a_code_on_any_input(inputs):
    tau, aut, names, p, q, formula = inputs
    with tempfile.TemporaryDirectory() as tmp:
        aut_path = Path(tmp) / "m.aut"
        aut_path.write_bytes(aut)
        lts = ["--tau-label", tau]
        if names is not None:
            names_path = Path(tmp) / "m.json"
            names_path.write_text(names)
            lts += ["--names", str(names_path)]
        commands = [
            ["parse", str(aut_path), *lts],
            ["check", "--lts", str(aut_path), *lts, "--kind", "branching", p, q],
            ["check", "--lts", str(aut_path), *lts, "--kind", "dbranching",
             "--nonreflexive", p, q],
            ["mc", "--lts", str(aut_path), *lts, "--state", p, "--formula", formula],
            ["distinguish", "--lts", str(aut_path), *lts, "--simplify", p, q],
        ]
        for argv in commands:
            assert main(argv) in (0, 2, 3), argv
