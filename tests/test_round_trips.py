"""Both text grammars round-trip: an LTS through its ``.aut`` rendering,
and a formula, HMLU or P, through its text, under either silent token."""

import pytest
from hypothesis import given, settings, strategies as st

from bbapart.cli import EXIT_USAGE, main
from bbapart.logic import format_formula, format_pformula, p_embed, parse_formula
from bbapart.lts import TAU, ActionLabel, Lts, parse_aut, render_aut

from test_cli_fuzz import hmlu
from test_distinguish import pformulas

SILENT_TOKENS = ("tau", "i")

# Valid action names: no whitespace and no quote, but commas, parentheses,
# control characters and the other silent token are allowed.
names = (st.sampled_from(["a", "i", "tau", "a,1", "(0", "x)", "é", "\x00"])
         | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"')
                   .filter(lambda c: not c.isspace()), min_size=1, max_size=4))


@st.composite
def ltss_with_token(draw):
    """A silent token and an LTS of at most five states whose visible
    labels all differ from it (``render_aut`` refuses the others), with
    any initial state."""
    silent = draw(st.sampled_from(SILENT_TOKENS))
    labels = st.just(TAU) | names.filter(lambda name: name != silent).map(ActionLabel)
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    steps = draw(st.frozensets(st.tuples(state, labels, state), max_size=12))
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
    # The ninth action is named i.
    argv = ["random", "--states", "2", "--actions", "9", "--vdensity", "9",
            "--tdensity", "0", "--tau-label", "i", "--seed", "1"]
    out = tmp_path / "r.aut"
    for extra in ([], ["-o", str(out)]):
        assert main(argv + extra) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: visible action 'i' is named like the silent action\n")
    assert not out.exists()
    assert main(argv[:-4] + argv[-2:]) == 0  # the same LTS, silent token tau


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SILENT_TOKENS), hmlu)
def test_formula_round_trip(silent, f):
    assert parse_formula(format_formula(f, silent), silent) is f


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SILENT_TOKENS), pformulas(3))
def test_pformula_round_trip_through_its_embedding(silent, g):
    assert parse_formula(format_pformula(g, silent), silent) is p_embed(g)
