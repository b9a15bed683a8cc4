"""One analysis per LTS: the relations, the oracles, the shared evaluator
and the satisfaction masks of validation's enumeration are computed on
first use, kept with the LTS, and shared by every caller.  The enumerated
formulas and their embeddings depend on the visible actions alone: they
are kept per alphabet, for the last few alphabets, and shared by every
LTS over one."""

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


@pytest.fixture
def cold_enumeration():
    """No alphabet's enumeration kept from an earlier test."""
    validate._enumeration.cache_clear()


def test_cross_validate_enumerates_and_evaluates_once(monkeypatch, cold_enumeration):
    small = [l for l in map(random_lts, campaign_instances(56, 1))
             if l.n_states <= validate.ENUM_STATE_LIMIT]
    first, second = [l for l in small if l.visible_actions == small[0].visible_actions][:2]
    third = next(l for l in small if l.visible_actions != first.visible_actions)
    enumerations = count_calls(monkeypatch, validate, "enumerate_pformulas")
    evaluators = count_calls(monkeypatch, logic.SatEvaluator, "__init__")
    assert validate.cross_validate(first).ok and validate.cross_validate(second).ok
    assert len(enumerations) == 1
    assert len(evaluators) == 2
    assert validate.cross_validate(third).ok
    assert len(enumerations) == 2
    assert len(evaluators) == 3


def _validated(g) -> tuple:
    """The report on a fresh LTS of ``g`` and, if it is small enough to
    enumerate, each enumerated formula with its satisfaction mask."""
    l = random_lts(g)
    report = validate.cross_validate(l).to_json()
    if l.n_states > validate.ENUM_STATE_LIMIT:
        return report, None
    return report, l.memo(validate._enum_context)[2]


def test_kept_enumerations_change_no_report(cold_enumeration):
    # Each LTS is validated with the cache that the stream before it left,
    # and again, as a fresh LTS, after the cache is emptied.
    bound = validate._enumeration.cache_info().maxsize
    five = list(campaign_instances(40, 3, max_states=validate.ENUM_STATE_LIMIT,
                                   visible_actions=5))
    assert len({random_lts(g).visible_actions for g in five}) > bound
    for stream in (list(campaign_instances(56, 1)), five):
        warm = [_validated(g) for g in stream]
        assert validate._enumeration.cache_info().currsize <= bound
        for g, expected in zip(stream, warm):
            validate._enumeration.cache_clear()
            assert _validated(g) == expected


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
