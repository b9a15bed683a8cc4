"""Acceptance gate: one test per criterion, exact values, no tolerances.

Criteria 2-5 and 7 quantify over a fixed corpus of the four fixtures plus
200 seeded random LTSs (2-8 states); the corpus and all eight relations
per LTS are computed once at module scope.
"""

import pytest

from bbapart import apartness as ap
from bbapart import bisim as bs
from bbapart.distinguish import pformula_from_hmlu, verify_distinguishes
from bbapart.generate import GenParams, campaign_instances, random_lts
from bbapart.logic import (
    PAnd,
    PDiamond,
    POr,
    PTOP,
    format_pformula,
    p_embed,
    parse_formula,
    satisfies,
)
from bbapart.lts import ActionLabel, TAU, reflexive_closure
from bbapart.validate import (
    KINDS,
    apartness_stuttering_violations,
    bisim_stuttering_violations,
    characterization_violations,
    distinguish_pair,
    duality_violations,
    good_formula_violations,
    nonreflexive_agreement_violations,
    reflexive_invariance_violations,
    simpler_diamond_violations,
    symmetric_closure_violations,
    synthesis_violations,
    tau_extension_violations,
    tau_transfer_violations,
)

from conftest import load_fixture, s

CORPUS_COUNT = 200
CORPUS_SEED = 11
ENUM_LIMIT = 5  # enumeration-backed checks run on instances this small

A, B, C, D, E = (ActionLabel(x) for x in "abcde")
DIA = lambda lab: PDiamond(PTOP, lab)  # noqa: E731


def _report(criterion: int, label: str):
    print(f"[criterion {criterion}] {label}: PASS")


@pytest.fixture(scope="module")
def corpus():
    items = [load_fixture(name) for name in ("fix1", "fixsr", "fixpq", "fixg2")]
    items += [random_lts(g) for g in campaign_instances(CORPUS_COUNT, CORPUS_SEED)]
    out = []
    for l in items:
        aparts = {
            "strong": ap.strong_apartness(l),
            "dstrong": ap.directed_strong_apartness(l),
            "branching": ap.branching_apartness(l),
            "dbranching": ap.directed_branching_apartness(l),
        }
        bisims = {kind: bs.bisimilarity(l, kind) for kind in KINDS}
        out.append((l, aparts, bisims))
    return out


def test_criterion_1_paper_example_regressions(fix1, fixsr, fixpq, fixg2):
    # fix1: strong kinds
    assert (s(fix1, "s"), s(fix1, "t")) in bs.strong_bisimilarity(fix1)
    assert (s(fix1, "q"), s(fix1, "p")) in ap.strong_apartness(fix1)
    ds = ap.directed_strong_apartness(fix1)
    assert (s(fix1, "q"), s(fix1, "p")) in ds
    assert (s(fix1, "p"), s(fix1, "q")) in ds

    # fixsr: apartness, exact synthesized formula, model checking
    assert (s(fixsr, "s"), s(fixsr, "r")) in ap.directed_branching_apartness(fixsr)
    res = distinguish_pair(fixsr, s(fixsr, "s"), s(fixsr, "r"))
    assert format_pformula(res["formula"]) == "((<d> T) <c> T)"
    closed = reflexive_closure(fixsr)
    phi = p_embed(res["formula"])
    assert satisfies(closed, s(fixsr, "s"), phi)
    assert not satisfies(closed, s(fixsr, "r"), phi)

    # fixpq: model checking of the two example formulas, exact conversions
    closed = reflexive_closure(fixpq)
    phi1 = parse_formula("<tau> (<c> T & ~<b> T)")
    phi2 = parse_formula("((<a> T | ~<b> T) <c> T)")
    for phi in (phi1, phi2):
        assert satisfies(closed, s(fixpq, "p1"), phi)
        assert satisfies(closed, s(fixpq, "p2"), phi)
        assert not satisfies(closed, s(fixpq, "q1"), phi)
    out1 = pformula_from_hmlu(fixpq, phi2, s(fixpq, "p1"), s(fixpq, "q1"))
    assert out1 == PDiamond(PAnd(DIA(A), DIA(B)), TAU,
                            (DIA(C),), (DIA(A), DIA(B)))
    out2 = pformula_from_hmlu(fixpq, phi2, s(fixpq, "p2"), s(fixpq, "q1"))
    assert out2 == POr(DIA(A), DIA(B))

    # fixg2: apartness and the exact distinguishing formula
    assert (s(fixg2, "q0"), s(fixg2, "p0")) in ap.directed_branching_apartness(fixg2)
    phi_g2 = PDiamond(PDiamond(PTOP, D, (DIA(E),)), D, (), (DIA(E),))
    assert distinguish_pair(fixg2, s(fixg2, "q0"), s(fixg2, "p0"))["formula"] == phi_g2
    check = verify_distinguishes(fixg2, p_embed(phi_g2),
                                 s(fixg2, "q0"), s(fixg2, "p0"))
    assert check.distinguishes and check.direction == "leftHolds"
    _report(1, "paper example regressions")


def test_criterion_2_duality(corpus):
    for l, aparts, bisims in corpus:
        for kind in KINDS:
            assert duality_violations(l, kind) == []
    _report(2, "apartness/bisimilarity duality on the corpus")


def test_criterion_3_symmetric_closures(corpus):
    for l, aparts, _ in corpus:
        assert symmetric_closure_violations(l, branching=True) == []
        assert symmetric_closure_violations(l, branching=False) == []
    _report(3, "symmetric-closure theorems on the corpus")


def test_criterion_4_closure_invariance_and_rule_systems(corpus):
    for l, aparts, _ in corpus:
        assert reflexive_invariance_violations(l) == []
        assert nonreflexive_agreement_violations(l) == []
    _report(4, "reflexive-closure invariance and four-rule agreement")


def test_criterion_5_tau_extension_and_stuttering(corpus):
    for l, aparts, bisims in corpus:
        assert tau_extension_violations(l) == []
        assert apartness_stuttering_violations(l) == []
        assert bisim_stuttering_violations(l) == []
    _report(5, "silent-step extension and stuttering lemmas")


def test_criterion_6_logic_properties(fix1, fixsr, fixpq, fixg2):
    for l in (fix1, fixsr, fixpq, fixg2):
        assert tau_transfer_violations(l) == []
        assert simpler_diamond_violations(l) == []
    _report(6, "transfer and simpler-diamond properties at depth 2")


def test_criterion_7_synthesis_soundness_and_polarity(corpus):
    for l, aparts, _ in corpus:
        assert synthesis_violations(l) == []
        if l.n_states <= ENUM_LIMIT:
            assert good_formula_violations(l) == []
    # The polarity claim also holds on every fixture alphabet.
    for name in ("fix1", "fixsr", "fixpq", "fixg2"):
        assert good_formula_violations(load_fixture(name)) == []
    _report(7, "synthesis soundness and good-formula polarity")


def test_criterion_8_logical_characterization():
    for i in range(30):
        g = GenParams(n_states=2 + i % 4, seed=900 + i)
        l = random_lts(g)
        assert characterization_violations(l) == [], g
    _report(8, "bounded logical characterization on small LTSs")
