"""The package's public names, its value classes, and what importing it loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import isofloer
from isofloer.catalog import CitedFact, IsoparametricFamily
from isofloer.criteria import CaseReport, JustificationStep
from isofloer.homology import BettiProfile
from isofloer.specseq import (
    ChainStep,
    ContradictionWitness,
    FeasibleWitness,
    FinalPageWitness,
    InfeasibleWitness,
    NarrownessVerdict,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    missing = [name for name in isofloer.__all__ if not hasattr(isofloer, name)]
    assert missing == []


STEP = ChainStep(1, 2, 1, 0, 5, 1, 2, 1)
BARRIER = InfeasibleWitness((0, 2), 7)
VERDICT = NarrownessVerdict(3, ContradictionWitness(3, 1, (STEP,)))
JUSTIFICATION = JustificationStep("narrowness-contradiction", "computed", "claim", "source",
                                  VERDICT)

# each value class with the keyword arguments of one instance, and one field
# with another value for it
RECORDS = [
    # open under a cap, so a copy that lost open_rest would lose its room of 4
    (BettiProfile, {"n": 4, "known": {0: 1}, "cap": 5, "open_rest": True}, "cap", 6),
    (IsoparametricFamily, {"g": 4, "m1": 1, "m2": 2}, "m2", 3),
    (CitedFact, {"statement": "a fact", "source": "a paper"}, "source", "another paper"),
    (JustificationStep, {"rule": "wide-criterion", "kind": "computed", "claim": "claim",
                         "source": None, "verdict": VERDICT}, "claim", "another claim"),
    (CaseReport, {"family": IsoparametricFamily(4, 1, 2), "status": "NonDisplaceable",
                  "justification": (JUSTIFICATION,), "volume_lower_bound": None},
     "status", "Unresolved"),
    (ChainStep, {"page": 1, "shift": 2, "left": 1, "left_hi": 0, "right": 5, "right_hi": 1,
                 "lower_before": 2, "lower_after": 1}, "lower_after", 0),
    (ContradictionWitness, {"slot": 3, "bound": 1, "chain": (STEP,)}, "bound", 2),
    (FinalPageWitness, {"slots": ((0, 1), (0, None))}, "slots", ((0, 1), (0, 2))),
    (FeasibleWitness, {"pairs": ((0, 1, 1),)}, "pairs", ((0, 1, 2),)),
    (InfeasibleWitness, {"barrier": (0, 2), "states_explored": 7}, "barrier", (0,)),
    (NarrownessVerdict, {"page": 3, "witness": BARRIER}, "page", 4),
]


@pytest.mark.parametrize("cls,kwargs,field,value", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_value_semantics(cls, kwargs, field, value):
    record, twin = cls(**kwargs), cls(*kwargs.values())
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != cls(**{**kwargs, field: value})
    # never equal to its fields as a tuple, nor to another class's record of
    # them, such as FeasibleWitness(pairs) against InfeasibleWitness(pairs)
    assert record != tuple(kwargs.values())
    for other, *_ in RECORDS:
        if other is not cls:
            try:
                stranger = other(*kwargs.values())
            except Exception:  # those arguments do not make that class's record
                continue
            assert record != stranger and stranger != record
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record
    assert repr(record).startswith(f"{cls.__name__}({next(iter(kwargs))}=")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # without site, nothing but the program loads modules
    script = ("import sys; before = set(sys.modules); import isofloer.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    loaded = set(proc.stdout.split())
    assert "isofloer.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "typing"} == set()
