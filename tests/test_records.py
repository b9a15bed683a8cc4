"""Value records: the hash-consed ones print as the dataclasses they
replaced did and refuse assignment, and only four classes of the package
are still dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bbapart
from bbapart.apartness import ChildStep, Derivation
from bbapart.bisim import BisimRelation
from bbapart.distinguish import VerifyResult
from bbapart.logic import (
    BOT,
    PBOT,
    PTOP,
    TOP,
    And,
    Diamond,
    DiamondWitness,
    Neg,
    PAnd,
    PDiamond,
    POr,
)
from bbapart.lts import TAU, ActionLabel

A = ActionLabel("a")
LEAF = Derivation(1, 2, (1, A, 3), ())

# One instance of each record class, with its repr as a dataclass, which
# `validate` counterexamples print.
RECORDS = [
    (A, "ActionLabel(name='a')"),
    (TAU, "ActionLabel(name=None)"),
    (TOP, "Top()"),
    (BOT, "Neg(child=Top())"),
    (And(TOP, BOT), "And(left=Top(), right=Neg(child=Top()))"),
    (Diamond(TOP, A, TOP),
     "Diamond(left=Top(), label=ActionLabel(name='a'), right=Top())"),
    (PTOP, "PTop()"),
    (PBOT, "PBot()"),
    (PAnd(PTOP, PBOT), "PAnd(left=PTop(), right=PBot())"),
    (POr(PBOT, PTOP), "POr(left=PBot(), right=PTop())"),
    (PDiamond(PTOP, TAU, (PDiamond(PTOP, A),), (PTOP,)),
     "PDiamond(left=PTop(), label=ActionLabel(name=None), pos=(PDiamond(left=PTop(), "
     "label=ActionLabel(name='a'), pos=(), neg=()),), neg=(PTop(),))"),
    (DiamondWitness((5, 6), 6, 8), "DiamondWitness(path=(5, 6), pre=6, post=8)"),
    (VerifyResult(True, "leftHolds"),
     "VerifyResult(distinguishes=True, direction='leftHolds')"),
    (ChildStep(2, 3, "left", LEAF),
     "ChildStep(q_prime=2, q_dprime=3, tag='left', sub=Derivation(left=1, right=2, "
     "witness=(1, ActionLabel(name='a'), 3), children=()))"),
    (Derivation(0, 2, (0, TAU, 1), (ChildStep(2, 3, "left", LEAF),)),
     "Derivation(left=0, right=2, witness=(0, ActionLabel(name=None), 1), "
     "children=(ChildStep(q_prime=2, q_dprime=3, tag='left', sub=Derivation(left=1, "
     "right=2, witness=(1, ActionLabel(name='a'), 3), children=())),))"),
    (BisimRelation(2, frozenset({(1, 0)})),
     "BisimRelation(n_states=2, holds=frozenset({(1, 0)}))"),
]


@pytest.mark.parametrize("record,text", RECORDS)
def test_records_print_as_dataclasses(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS])
def test_records_refuse_assignment(record):
    before = repr(record)
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_equal_records_are_one_object():
    assert VerifyResult(True, "leftHolds") is VerifyResult(True, "leftHolds")
    assert (Derivation(0, 2, (0, TAU, 1), (ChildStep(2, 3, "left", LEAF),))
            is Derivation(0, 2, (0, TAU, 1), (ChildStep(2, 3, "left", LEAF),)))
    assert BisimRelation(2, frozenset({(1, 0)})) == BisimRelation(2, frozenset([(1, 0)]))


def test_only_four_classes_are_dataclasses():
    # Every `dataclass` decoration made while the CLI is imported, recorded
    # by a wrapper installed before the package loads.
    code = """if True:
        import dataclasses, json
        seen, real = [], dataclasses.dataclass
        def spy(cls=None, /, **kwargs):
            def wrap(c):
                seen.append(c.__module__ + "." + c.__qualname__)
                return real(**kwargs)(c)
            return wrap if cls is None else wrap(cls)
        dataclasses.dataclass = spy
        import bbapart.cli
        print(json.dumps(sorted(n for n in seen if n.startswith("bbapart."))))
    """
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert json.loads(done.stdout) == [
        "bbapart.apartness.DirectedPairRelation", "bbapart.generate.GenParams",
        "bbapart.lts.Lts", "bbapart.validate.PropertyResult"]
