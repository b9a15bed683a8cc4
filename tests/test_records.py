"""Value records: they print as the dataclasses they replaced did and
refuse assignment; equal hash-consed records are one object, and equal
LTSs are two; and importing the CLI loads neither ``dataclasses`` nor
``inspect``."""

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
from bbapart.generate import GenParams
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
from bbapart.lts import TAU, ActionLabel, Lts, parse_aut, tau_closure

from conftest import DATA

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
    (GenParams(5, seed=1),
     "GenParams(n_states=5, visible_actions=2, visible_density=1.5, tau_density=0.7, seed=1)"),
    (Lts(2, frozenset({(0, A, 1)})),
     "Lts(n_states=2, transitions=frozenset({(0, ActionLabel(name='a'), 1)}), initial=0, "
     "names=None)"),
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
    assert GenParams(seed=3) is GenParams(8, 2, 1.5, 0.7, 3)


@pytest.mark.parametrize("kwargs,message", [
    ({"n_states": 0}, "n_states must be >= 1"),
    ({"visible_actions": -1}, "visible_actions must be >= 0"),
    ({"tau_density": float("nan")}, "densities must be finite and >= 0"),
    ({"visible_actions": 0}, "visible transitions need at least one action"),
])
def test_gen_params_rejects_bad_parameters(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GenParams(**kwargs)


def test_one_text_parsed_twice_gives_two_equal_ltss_with_their_own_memos():
    text = (DATA / "fixsr.aut").read_text()
    first, second = parse_aut(text), parse_aut(text)
    assert first == second and hash(first) == hash(second) and first is not second
    assert tau_closure(first) is tau_closure(first)
    assert tau_closure(first) is not tau_closure(second)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_argparse():
    code = """if True:
        import json, sys
        before = set(sys.modules)
        import bbapart.cli
        print(json.dumps(sorted(set(sys.modules) - before)))
    """
    src = str(Path(bbapart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    added = set(json.loads(done.stdout))
    assert "bbapart.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse"}
