"""The enumeration suites work once per distinct satisfaction mask or
diamond class, and the P-evaluator evaluates the enumeration in one walk;
each must still report, per formula and in enumeration order, the records
of its one-pass-per-formula reference (``tests/conftest.py``), and the
checker must still be asked for every enumerated embedding."""

import pytest
from hypothesis import given, settings, strategies as st

from bbapart import validate
from bbapart.logic import PDiamond, PTOP, SatEvaluator
from bbapart.lts import TAU, ActionLabel, Lts

from conftest import (
    good_formula_violations_by_formula,
    p_embed_agreement_violations_by_formula,
    simpler_diamond_violations_by_formula,
    tau_transfer_violations_by_formula,
)
from test_suites import _failures, _flip_mask, _instance

A, B = ActionLabel("a"), ActionLabel("b")
LABELS = (TAU, A, B, ActionLabel("c"))


@st.composite
def small_ltss(draw):
    """Steps over 1-5 states, with one to three visible actions."""
    n = draw(st.integers(1, 5))
    labels = LABELS[:1 + draw(st.integers(1, 3))]
    state = st.integers(0, n - 1)
    return n, frozenset(draw(st.lists(st.tuples(state, st.sampled_from(labels), state),
                                      max_size=3 * n)))


def _both(l: Lts) -> dict:
    """Per suite, its records and its reference's."""
    return {
        "tau-transfer": (validate.tau_transfer_violations(l),
                         tau_transfer_violations_by_formula(l)),
        "simpler-diamond": (validate.simpler_diamond_violations(l),
                            simpler_diamond_violations_by_formula(l)),
        "p-embed-agreement": (validate.p_embed_agreement_violations(l),
                              p_embed_agreement_violations_by_formula(l)),
        "good-formula-soundness": (validate.good_formula_violations(l),
                                   good_formula_violations_by_formula(l)),
    }


@settings(max_examples=150, deadline=None)
@given(small_ltss(), st.integers(0, 2**16), st.integers(0, 4))
def test_the_per_class_suites_report_as_the_per_formula_ones(steps, pick, state):
    n, transitions = steps
    for name, (records, expected) in _both(Lts(n, transitions)).items():
        assert records == expected, name
    # Again on a fresh LTS, with one formula's checker mask wrong at one
    # state: every suite reads the same wrong mask.
    l = Lts(n, transitions)
    formulas = validate._enumeration(l.visible_actions, validate.ENUM_DEPTH)
    g, _ = formulas[pick % len(formulas)]
    with pytest.MonkeyPatch.context() as mp:
        _flip_mask(mp, g, state % n)
        both = _both(l)
    for name, (records, expected) in both.items():
        assert records == expected, name
    assert {"formula": repr(g), "p": state % n} in both["p-embed-agreement"][0]


def test_the_p_evaluator_catches_a_fault_in_one_formula_of_a_class(monkeypatch):
    # <tau> (<b> T & ~<a> T) and <tau> ~<a> T have equal left and right
    # masks on this LTS, so one diamond step serves both; a wrong answer
    # for the first is reported for it alone, as at one fold per formula.
    a, b = PDiamond(PTOP, A), PDiamond(PTOP, B)
    g, mate = PDiamond(PTOP, TAU, (b,), (a,)), PDiamond(PTOP, TAU, (), (a,))
    p_sat = validate._p_sat

    def corrupted(l, formulas):
        masks = p_sat(l, formulas)
        return [m ^ 1 << 3 if f is g else m for f, m in zip(formulas, masks)]
    monkeypatch.setattr(validate, "_p_sat", corrupted)
    l = _instance()
    sats = dict(l.memo(validate._enum_context)[2])
    assert sats[b] & ~sats[a] == sats[PTOP] & ~sats[a]
    assert _failures(l) == {"p-embed-agreement": {
        "formula": repr(g), "p": 3, "violationCount": 1}}


def test_the_checker_is_asked_once_per_enumerated_embedding(monkeypatch):
    asked, mask = [], SatEvaluator.mask

    def counted(self, f):
        asked.append(f)
        return mask(self, f)
    monkeypatch.setattr(SatEvaluator, "mask", counted)
    for l in (_instance(), Lts(3, frozenset({(0, A, 1), (1, TAU, 2), (2, B, 0)}))):
        asked.clear()
        l.memo(validate._enum_context)
        embeddings = [f for _, f in validate._enumeration(l.visible_actions,
                                                          validate.ENUM_DEPTH)]
        assert asked == embeddings and len(set(map(id, asked))) == len(asked)
