"""Mutation tests of the validation suites: each corrupts one input of
``cross_validate`` (one enumerated formula's satisfaction mask, one pair
of a relation, or one synthesised formula) and pins the first
counterexample record and the violation count of every suite that must
catch it, so a rewrite of a suite keeps what it reports."""

import pytest

from bbapart import apartness as ap
from bbapart import validate
from bbapart.generate import campaign_instances, random_lts
from bbapart.logic import PDiamond, PTOP, SatEvaluator, p_embed
from bbapart.lts import TAU, ActionLabel

A, B = ActionLabel("a"), ActionLabel("b")


def _instance():
    """A 5-state campaign LTS (seed 1000013) with 17 directed branching
    apart pairs, rebuilt per call so that no memo carries a corruption."""
    g = next(g for g in campaign_instances(56, 1) if g.seed == 1000013)
    l = random_lts(g)
    assert l.n_states == 5
    return l


def _failures(l) -> dict:
    return {e["name"]: e["counterexample"]
            for e in validate.cross_validate(l).entries if e["status"] != "pass"}


def _record(g, **fields) -> dict:
    return {"formula": repr(g), **fields}


def _flip_mask(monkeypatch, g, state: int):
    """Make the shared evaluator answer a top-level query for the
    embedding of ``g`` with ``state``'s bit flipped; subformulas evaluated
    inside the evaluator keep their true masks."""
    target, mask = p_embed(g), SatEvaluator.mask

    def corrupted(self, f):
        m = mask(self, f)
        return m ^ 1 << state if f is target else m
    monkeypatch.setattr(SatEvaluator, "mask", corrupted)


def _edit_rows(engine, edit):
    """``engine`` with ``edit`` applied to the rows of its relation, which
    keeps its round stamps."""
    def corrupted(l):
        rel = engine(l)
        rows = list(rel.rows)
        edit(rows)
        return ap.DirectedPairRelation(rel.n_states, tuple(rows), rel.cells)
    return corrupted


def _edit_directed_branching(monkeypatch, edit):
    monkeypatch.setattr(ap, "directed_branching_apartness",
                        _edit_rows(ap.directed_branching_apartness, edit))


def test_an_uncorrupted_instance_passes():
    assert _failures(_instance()) == {}


def test_a_wrong_mask_fails_every_enumeration_suite(monkeypatch):
    g = PDiamond(PTOP, TAU, (), (PDiamond(PTOP, B),))
    _flip_mask(monkeypatch, g, 3)
    assert _failures(_instance()) == {
        "tau-transfer": _record(g, p=1, pPrime=3, violationCount=1),
        "simpler-diamond": _record(g, p=3, simpler=False, violationCount=1),
        "p-embed-agreement": _record(g, p=3, violationCount=1),
        "good-formula-soundness": _record(g, p=3, q=1, violationCount=1),
        "logical-characterization": {
            "p": 3, "q": 1, "issue": "non-inclusion without apartness",
            "violationCount": 1},
    }


def test_tau_transfer_reports_steps_in_state_order(monkeypatch):
    # Two silent steps, 3 -> 2 and 4 -> 2, enter the corrupted set; the
    # first record is the smaller source, whatever the order of the
    # transition set.
    g = next(g for g in campaign_instances(120, 1) if g.seed == 1000104)
    f = PDiamond(PTOP, A)
    _flip_mask(monkeypatch, f, 2)
    failures = _failures(random_lts(g))
    assert failures["tau-transfer"] == _record(f, p=3, pPrime=2, violationCount=2)


@pytest.mark.parametrize("state, simpler", [(2, False), (1, True)])
def test_a_wrong_mask_on_a_nested_diamond(monkeypatch, state, simpler):
    g = PDiamond(PDiamond(PTOP, A), TAU, (PDiamond(PTOP, B),),
                 (PDiamond(PTOP, A),))
    _flip_mask(monkeypatch, g, state)
    failures = _failures(_instance())
    assert failures["simpler-diamond"] == _record(
        g, p=state, simpler=simpler, violationCount=1)
    assert failures["p-embed-agreement"] == _record(
        g, p=state, violationCount=1)
    if state == 2:
        assert failures == {
            "simpler-diamond": failures["simpler-diamond"],
            "p-embed-agreement": failures["p-embed-agreement"],
            "good-formula-soundness": _record(g, p=2, q=4, violationCount=1),
            "logical-characterization": {
                "p": 2, "q": 4, "issue": "non-inclusion without apartness",
                "violationCount": 4},
        }


def test_a_wrong_mask_makes_a_bisimilar_pair_separable(monkeypatch):
    g = PDiamond(PDiamond(PTOP, B), A, (PDiamond(PTOP, A),))
    _flip_mask(monkeypatch, g, 4)
    failures = _failures(_instance())
    assert failures["good-formula-soundness"] == _record(
        g, p=4, q=2, violationCount=1)
    assert failures["logical-characterization"] == {
        "p": 2, "q": 4, "issue": "separable but not branching apart",
        "violationCount": 4}


@pytest.mark.parametrize("pair, first, count", [
    ((0, 1), PDiamond(PTOP, TAU, (), (PDiamond(PTOP, B),)), 12),
    ((1, 0), PDiamond(PTOP, TAU, (), (PDiamond(PTOP, A),)), 46),
])
def test_a_relation_missing_one_pair(monkeypatch, pair, first, count):
    p, q = pair

    def drop(rows):
        rows[p] &= ~(1 << q)
    _edit_directed_branching(monkeypatch, drop)
    failures = _failures(_instance())
    assert failures["nonreflexive-engine-agreement"] == {
        "p": p, "q": q, "inClosureEngine": False, "violationCount": 1}
    assert failures["good-formula-soundness"] == _record(
        first, p=p, q=q, violationCount=count)
    assert failures["logical-characterization"] == {
        "p": p, "q": q, "issue": "non-inclusion without apartness",
        "violationCount": 1}
    assert "synthesis-soundness" not in failures


def test_a_relation_with_an_underived_pair(monkeypatch):
    def add(rows):
        rows[3] |= 1 << 1
    _edit_directed_branching(monkeypatch, add)
    failures = _failures(_instance())
    assert failures["synthesis-soundness"] == {
        "p": 3, "q": 1, "violationCount": 1, "error": (
            "InternalInvariantError('no witness step re-derives pair "
            "(3, 1) at round 0')")}
    assert failures["logical-characterization"] == {
        "p": 3, "q": 1, "issue": "synthesis fails inclusion witness",
        "violationCount": 1}
    assert failures["nonreflexive-engine-agreement"] == {
        "p": 3, "q": 1, "inClosureEngine": True, "violationCount": 1}


def test_a_wrong_synthesised_formula(monkeypatch):
    synthesise = validate.formula_from_derivation

    def corrupted(l, d, *args, **kwargs):
        f = synthesise(l, d, *args, **kwargs)
        return PDiamond(PTOP, TAU) if (d.left, d.right) == (0, 1) else f
    monkeypatch.setattr(validate, "formula_from_derivation", corrupted)
    assert _failures(_instance()) == {
        "synthesis-soundness": {
            "p": 0, "q": 1, "violationCount": 1,
            "formula": "Diamond(left=Top(), label=ActionLabel(name=None), "
                       "right=Top())"},
        "logical-characterization": {
            "p": 0, "q": 1, "issue": "synthesis fails inclusion witness",
            "violationCount": 1},
    }


@pytest.mark.parametrize("kind, property_name, in_closure, count", [
    ("dbranching", "symmetric-closure-branching", True, 2),
    ("branching", "symmetric-closure-branching", False, 1),
    ("strong", "symmetric-closure-strong", True, 1),
])
def test_a_wrong_relation_fails_its_symmetric_closure(
        monkeypatch, kind, property_name, in_closure, count):
    def toggle(rows):
        rows[2] ^= 1 << 4
    engines = validate._APART_ENGINES
    monkeypatch.setitem(engines, kind, _edit_rows(engines[kind], toggle))
    failures = _failures(_instance())
    assert failures[property_name] == {
        "branching": kind != "strong", "p": 2, "q": 4,
        "inClosure": in_closure, "violationCount": count}
    assert set(failures) == {property_name, f"duality-{kind}"}
