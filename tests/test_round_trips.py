"""Both text grammars round-trip: an LTS through its ``.aut`` rendering,
and a formula, HMLU or P, through its text, under either silent token."""

import pytest
from hypothesis import given, settings, strategies as st

from bbapart.cli import EXIT_USAGE, main
from bbapart.logic import (
    PBOT,
    PTOP,
    TOP,
    And,
    Diamond,
    Neg,
    PAnd,
    PDiamond,
    POr,
    format_formula,
    format_pformula,
    p_embed,
    parse_formula,
)
from bbapart.lts import TAU, ActionLabel, Lts, parse_aut, render_aut

from test_cli_fuzz import hmlu
from test_distinguish import pformulas

SILENT_TOKENS = ("tau", "i")

# Valid action names: no whitespace and no quote, but commas, parentheses,
# control characters and the other silent token are allowed.
names = (st.sampled_from(["a", "i", "tau", "a,1", "(0", "x)", "é", "\x00"])
         | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"')
                   .filter(lambda c: not c.isspace()), min_size=1, max_size=4))


def labels(silent: str):
    """The silent label, or a visible one not named like ``silent``."""
    return st.just(TAU) | names.filter(lambda name: name != silent).map(ActionLabel)


@st.composite
def ltss_with_token(draw):
    """A silent token and an LTS of at most five states whose visible
    labels all differ from it (``render_aut`` refuses the others), with
    any initial state."""
    silent = draw(st.sampled_from(SILENT_TOKENS))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    steps = draw(st.frozensets(st.tuples(state, labels(silent), state), max_size=12))
    return silent, Lts(n, steps, draw(state))


@settings(max_examples=200, deadline=None)
@given(ltss_with_token())
def test_aut_round_trip(case):
    silent, l = case
    again = parse_aut(render_aut(l, silent), silent)
    assert again == l


@pytest.mark.parametrize("silent", SILENT_TOKENS)
def test_a_visible_label_named_like_the_silent_token_is_refused(silent):
    l = Lts(2, frozenset({(0, TAU, 1), (1, ActionLabel(silent), 0)}), 0)
    with pytest.raises(ValueError, match="named like the silent action"):
        render_aut(l, silent)


def test_random_writes_no_action_named_like_the_silent_token(capsys, tmp_path):
    # Nine actions: the ninth is named j, since the names skip i.
    argv = ["random", "--states", "2", "--actions", "9", "--vdensity", "9",
            "--tdensity", "0", "--seed", "1", "--tau-label"]
    out = tmp_path / "r.aut"
    for silent in SILENT_TOKENS:
        assert main(argv + [silent]) == 0
        text, err = capsys.readouterr()
        assert err == ""
        assert main(argv + [silent, "-o", str(out)]) == 0
        assert out.read_text() == text
        l = parse_aut(text, "i")
        assert TAU not in l.actions and ActionLabel("i") not in l.actions
        assert len(l.visible_actions) == 9


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SILENT_TOKENS), hmlu)
def test_formula_round_trip(silent, f):
    assert parse_formula(format_formula(f, silent), silent) is f


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SILENT_TOKENS), pformulas(3))
def test_pformula_round_trip_through_its_embedding(silent, g):
    assert parse_formula(format_pformula(g, silent), silent) is p_embed(g)


def hmlu_over(label):
    """HMLU formulas whose diamonds draw their labels from ``label``."""
    return st.recursive(st.just(TOP), lambda sub: (
        sub.map(Neg) | st.builds(And, sub, sub) | st.builds(Diamond, sub, label, sub)),
        max_leaves=6)


def pformulas_over(label):
    """P-formulas whose diamonds draw their labels from ``label``."""
    def extend(sub):
        two = st.lists(sub, max_size=2).map(tuple)
        return (st.builds(PAnd, sub, sub) | st.builds(POr, sub, sub)
                | st.builds(PDiamond, sub, label, two, two))
    return st.recursive(st.sampled_from([PTOP, PBOT]), extend, max_leaves=6)


@st.composite
def over_aut_labels(draw, formulas):
    """A silent token, and a formula of ``formulas`` whose visible labels
    are any ``.aut`` labels not named like that token."""
    silent = draw(st.sampled_from(SILENT_TOKENS))
    return silent, draw(formulas(labels(silent)))


@settings(max_examples=200, deadline=None)
@given(over_aut_labels(hmlu_over))
def test_formula_round_trip_over_aut_labels(case):
    silent, f = case
    assert parse_formula(format_formula(f, silent), silent) is f


@settings(max_examples=200, deadline=None)
@given(over_aut_labels(pformulas_over))
def test_pformula_round_trip_over_aut_labels(case):
    silent, g = case
    assert parse_formula(format_pformula(g, silent), silent) is p_embed(g)


def test_only_labels_that_are_not_identifiers_are_quoted():
    f = Diamond(TOP, ActionLabel("send(1)"), Diamond(TOP, ActionLabel("b'1"), TOP))
    assert format_formula(f) == '<"send(1)"> <b\'1> T'
    assert parse_formula('<"b\'1"> T') is Diamond(TOP, ActionLabel("b'1"), TOP)
    assert parse_formula('<"tau"> T', "tau") is Diamond(TOP, TAU, TOP)
