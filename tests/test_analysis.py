"""One analysis per LTS: the relations, the oracles, the shared evaluator
and validation's enumeration are computed on first use, kept with the
LTS, and shared by every caller."""

import gc
import weakref

import pytest

from bbapart import apartness as ap
from bbapart import logic, validate
from bbapart.distinguish import pformula_from_hmlu
from bbapart.generate import GenParams, campaign_instances, random_lts
from bbapart.lts import reflexive_closure


def count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cross_validate_enumerates_and_evaluates_once(monkeypatch):
    g = next(g for g in campaign_instances(56, 1) if g.n_states == 5)
    l = random_lts(g)
    enumerations = count_calls(monkeypatch, validate, "enumerate_pformulas")
    evaluators = count_calls(monkeypatch, logic.SatEvaluator, "__init__")
    assert validate.cross_validate(l).ok
    assert len(enumerations) == 1
    assert len(evaluators) == 1


def test_cross_validate_extracts_each_apart_pair_once(monkeypatch):
    # Synthesis soundness and the logical characterization read one
    # synthesised formula per directed-branching-apart pair.
    l = next(l for l in map(random_lts, campaign_instances(56, 1))
             if l.n_states == 5 and ap.directed_branching_apartness(l).holds)
    extractions = count_calls(monkeypatch, ap, "extract_derivation")
    assert validate.cross_validate(l).ok
    pairs = sorted(args[2:] for args in extractions)
    assert pairs == sorted(ap.directed_branching_apartness(l).holds)


@pytest.mark.parametrize("kind, nonreflexive",
                         [(kind, False) for kind in validate.KINDS]
                         + [("dbranching", True)])
def test_check_pair_saturates_once_per_relation(monkeypatch, kind, nonreflexive):
    l = random_lts(GenParams(n_states=8, seed=4))
    runs = count_calls(monkeypatch, ap, "_saturate")
    first = validate.check_pair(l, kind, 0, 1, nonreflexive)
    # A certificate of a four-rule verdict comes from the directed
    # branching relation: one more relation to compute.  The symmetric
    # branching verdict is read off that relation too.
    certified = "derivation" in first and nonreflexive
    assert len(runs) == 1 + certified
    assert validate.check_pair(l, kind, 0, 1, nonreflexive) == first
    assert len(runs) == 1 + certified


def test_cross_validate_reads_rows_not_the_pair_views():
    # Validation reads the kernel's row masks; the per-pair views are left
    # to tests and the tracer.
    l = next(l for l in map(random_lts, campaign_instances(56, 1))
             if l.n_states == 5 and ap.directed_branching_apartness(l).rows[0])
    assert validate.cross_validate(l).ok
    engines = [*validate._APART_ENGINES.values(),
               ap.directed_branching_apartness_nonreflexive]
    relations = [engine(l) for engine in engines]
    relations.append(ap.directed_branching_apartness_nonreflexive(
        reflexive_closure(l)))
    for rel in relations:
        assert "holds" not in vars(rel) and "rounds" not in vars(rel)


def _analyse(l):
    """Every query kind on ``l``, each kept with it on first use."""
    validate.cross_validate(l)
    for kind in validate.KINDS:
        validate.check_pair(l, kind, 0, 1)
    validate.check_pair(l, "dbranching", 0, 1, nonreflexive=True)
    p, q = min(ap.directed_branching_apartness(l).holds)
    formula = validate.distinguish_pair(l, p, q)["formula"]
    pformula_from_hmlu(l, logic.p_embed(formula), p, q)


def test_analyses_do_not_outlive_their_lts():
    # The memos live on the LTS or on objects it keeps, never in a module,
    # so an LTS and its reflexive closure are freed with their last user.
    l = random_lts(GenParams(n_states=5, seed=2))
    assert not l.has_reflexive_silent_steps
    _analyse(l)
    refs = weakref.ref(l), weakref.ref(reflexive_closure(l))
    del l
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
