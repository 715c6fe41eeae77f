"""The package's public names, its value classes, and what importing it loads."""

import contextlib
import copy
import inspect
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import isofloer
from isofloer import cli
from isofloer.catalog import CitedFact, IsoparametricFamily
from isofloer.criteria import CaseReport, JustificationStep
from isofloer.homology import BettiProfile, Record
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


def test_every_value_class_is_tested():
    classes, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            classes.add(cls)
            todo.append(cls)
    assert {cls for cls in classes if cls.__module__.startswith("isofloer.")} == {
        cls for cls, *_ in RECORDS}


DEFAULTS = {
    BettiProfile: {"cap": None, "open_rest": False},
    JustificationStep: {"source": None, "verdict": None},
    InfeasibleWitness: {"states_explored": 0},
}


@pytest.mark.parametrize("cls,kwargs,field,value", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_constructor_takes_the_fields_in_order(cls, kwargs, field, value):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(kwargs)
    assert {name: p.default for name, p in parameters.items()
            if p.default is not p.empty} == DEFAULTS.get(cls, {})
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    first, *rest = kwargs
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**{name: kwargs[name] for name in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**kwargs, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(kwargs[first], **kwargs)


def test_defaults_must_be_for_the_trailing_fields():
    with pytest.raises(TypeError, match="trailing fields"):
        type("Misordered", (Record,), {"__slots__": ("a", "b"), "_defaults": {"a": 0}})


def test_every_field_must_be_a_slot():
    # the compiled __init__ sets each field through its slot's descriptor
    with pytest.raises(TypeError, match="every field must be a slot"):
        type("Unslotted", (Record,), {"__slots__": ("a",), "_fields": ("a", "b")})
    with pytest.raises(TypeError, match="every field must be a slot"):
        type("Computed", (Record,), {"__slots__": ("a",), "_fields": ("a", "b"),
                                     "b": property(lambda self: 1)})


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # without site, nothing but the program loads modules
    script = ("import sys; before = set(sys.modules); import isofloer.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    loaded = set(proc.stdout.split())
    assert "isofloer.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "typing"} == set()


def test_each_witness_kind_joins_both_registries_when_its_module_loads():
    # matching adds its two kinds to WITNESS_TYPES, and check keys a reader and
    # a replay by every tag; without site, nothing but the program loads modules
    script = ("from isofloer import specseq; print(*sorted(specseq.WITNESS_TYPES)); "
              "from isofloer import matching; print(*sorted(specseq.WITNESS_TYPES)); "
              "from isofloer import check; print(*sorted(check.KINDS))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    propagator, every, read = proc.stdout.splitlines()
    assert propagator == "contradiction-chain final-page"
    assert every == read == "cancellation-pairs contradiction-chain final-page tutte-barrier"


# a classify process must not compile the other commands' handlers, the matcher,
# the verdict reader and replays, or the pool: it never runs them
LAZY_LOADS = """
import contextlib, io, sys
lazy = ("isofloer.commands", "isofloer.matching", "isofloer.check", "isofloer.pool")
import isofloer
print(",".join(name for name in lazy if name in sys.modules))
import isofloer.cli
print(",".join(name for name in lazy if name in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = isofloer.cli.main(sys.argv[1:])
print(code, ",".join(name for name in lazy if name in sys.modules))
"""

# a g = 4, (2, 2) table, fully known under its cap: the oracle finds it Infeasible
G4_22 = '{"n": 8, "known": [[0, 1], [2, 2], [4, 2], [6, 2], [8, 1]], "cap": 8}'


@pytest.mark.parametrize("command,loaded", [
    (["classify", "--g", "4", "--m1", "2", "--m2", "2", "--format", "json"], ""),
    (["narrow-check", "--profile", "{profile}", "--maslov", "4", "--oracle", "--format", "json"],
     "isofloer.commands,isofloer.matching"),
    (["replay", "{envelope}"], "isofloer.commands,isofloer.matching,isofloer.check"),
    (["classify-all", "--bound", "16", "--format", "json"], "isofloer.commands,isofloer.pool"),
    (["narrow-check", "--profile", "{profile}", "--maslov", "4", "--format", "json"],
     "isofloer.commands"),
    (["wide-check", "--profile", "{profile}", "--maslov", "4", "--format", "json"],
     "isofloer.commands"),
], ids=["classify", "narrow-check", "replay", "classify-all", "narrow-check-propagator",
        "wide-check"])
def test_the_matcher_and_the_pool_load_on_first_use(tmp_path, command, loaded):
    profile, envelope = tmp_path / "profile.json", tmp_path / "envelope.json"
    profile.write_text(G4_22, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["narrow-check", "--profile", str(profile), "--maslov", "4", "--oracle",
                         "--format", "json"]) == 0
    assert json.loads(out.getvalue())["oracle"]["kind"] == "Infeasible"
    envelope.write_text(out.getvalue(), encoding="utf-8")
    argv = [arg.format(profile=profile, envelope=envelope) for arg in command]
    # without site, nothing but the program loads modules
    proc = subprocess.run([sys.executable, "-S", "-c", LAZY_LOADS, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert proc.stdout.split("\n") == ["", "", f"0 {loaded}", ""]


# python -m runs cli.py as __main__, so an import of isofloer.cli by the code a
# command runs would compile and run cli.py a second time
@pytest.mark.parametrize("command", [
    ["classify", "--g", "4", "--m1", "2", "--m2", "2"],
    ["classify-all", "--bound", "4"],
    ["narrow-check", "--profile", "{profile}", "--maslov", "4", "--oracle"],
    ["wide-check", "--profile", "{profile}", "--maslov", "4"],
    ["replay", "{envelope}"],
    ["catalog", "--bound", "4", "--format", "json"],
], ids=lambda command: command[0])
def test_a_command_under_python_m_never_imports_isofloer_cli(tmp_path, command):
    imported = imported_under_python_m(tmp_path, command)
    assert "isofloer.specseq" in imported
    assert "isofloer.cli" not in imported


def imported_under_python_m(tmp_path, command: list[str]) -> list[str]:
    """The modules that ``python -X importtime -m isofloer.cli`` lists for ``command``,
    which prints to stdout, run on a G4_22 profile file or a stored envelope of it."""
    profile, envelope = tmp_path / "profile.json", tmp_path / "envelope.json"
    profile.write_text(G4_22, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["narrow-check", "--profile", str(profile), "--maslov", "4",
                         "--format", "json"]) == 0
    envelope.write_text(out.getvalue(), encoding="utf-8")
    argv = [arg.format(profile=profile, envelope=envelope) for arg in command]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "isofloer.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert proc.stdout
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


# a module loaded on first use is imported as an import statement imports it,
# so import-time profiling lists it with the rest
@pytest.mark.parametrize("command,lazy", [
    (["narrow-check", "--profile", "{profile}", "--maslov", "4", "--oracle"],
     ["isofloer.commands", "isofloer.matching"]),
    (["replay", "{envelope}"], ["isofloer.commands", "isofloer.matching", "isofloer.check"]),
], ids=["narrow-check-oracle", "replay"])
def test_importtime_lists_each_module_loaded_on_first_use(tmp_path, command, lazy):
    imported = imported_under_python_m(tmp_path, command)
    assert [name for name in lazy if name in imported] == lazy
