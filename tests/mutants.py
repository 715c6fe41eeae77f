"""Mutation checks kept in the tree: a table of mutants, and a runner.

Each row of ``MUTANTS`` is one mutant: a module of ``src/isofloer``, the exact
text it replaces, the text that replaces it, the tests expected to kill it,
and a time limit.  The runner copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory, applies one row there, and runs that row's tests
with ``pytest -x``.  Each row ends as

* ``killed``: a test failed, and the runner names it, or the tier-1 time
  bound of ``tests/conftest.py`` ended a test with a traceback;
* ``killed by the time limit``: the tests ran past the row's limit;
* ``survived``: every test passed;
* ``stale``: the old text does not occur exactly once in its module, so the
  row is restated or deleted, never skipped.

A row whose tests cannot run at all (a test id that is gone) is an error.
The runner exits 0 only when every row it ran was killed by a test.  Run it
from anywhere; it never changes the tree it reads::

    python tests/mutants.py                 # every row
    python tests/mutants.py lone-pool ...   # the rows named
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/isofloer
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, run in order with -x
    limit_s: float = 60.0


SPECSEQ = "tests/test_specseq.py"
SMALL_WORLD = "tests/test_small_world.py"

MUTANTS = [
    # the decider and its barrier check
    Mutant("page-turns-without-the-maslov-check", "matching.py",
           "    require_maslov(maslov)\n    return (profile.n + 1) // maslov",
           "    return (profile.n + 1) // maslov",
           (f"{SPECSEQ}::TestReplay::test_every_kind_refuses_a_maslov_number_below_3",)),
    Mutant("barrier-count-at-least", "matching.py",
           "    return odd > sum(dims[s] for s in removed)",
           "    return odd >= sum(dims[s] for s in removed)",
           (f"{SPECSEQ}::TestReplay::test_barrier_edits",)),
    Mutant("first-page-partners-only", "matching.py",
           "    shifts = range(maslov - 1, width, maslov)  # r * maslov - 1 for r = 1..nu",
           "    shifts = range(maslov - 1, maslov, maslov)",
           (f"{SMALL_WORLD}::test_decider_matches_brute_force_on_every_small_known_profile",)),
    Mutant("no-pool-parity", "matching.py",
           "    pool = max(0, pool - (pool + used) % 2)",
           "    pool = max(0, pool)",
           (f"{SMALL_WORLD}::test_decider_matches_brute_force_on_every_small_partial_profile",)),
    # an outer-outer edge taken as a tree edge: Edmonds' search loops, and the
    # tier-1 time bound of tests/conftest.py ends the test with a traceback
    Mutant("no-blossoms", "matching.py",
           "                if outer[w]:  # an odd cycle: contract it into a blossom",
           "                if outer[w] and False:",
           (f"{SMALL_WORLD}::test_decider_matches_brute_force_on_every_small_known_profile",),
           limit_s=120.0),
    Mutant("lone-pool", "matching.py",
           "            lone = len(group) == 1 and s not in partners[s]",
           "            lone = len(group) == 1",
           (f"{SMALL_WORLD}::test_no_barrier_passes_on_a_feasible_small_profile",)),
    # the replays and the verdict reader
    Mutant("pairs-without-r-at-least-one", "check.py",
           "last < (s, r) and r >= 1 and count >= 1",
           "last < (s, r) and count >= 1",
           (f"{SPECSEQ}::TestReplay::test_pair_off_the_graph_fails",)),
    Mutant("pairs-without-count-at-least-one", "check.py",
           "last < (s, r) and r >= 1 and count >= 1",
           "last < (s, r) and r >= 1",
           (f"{SPECSEQ}::TestReplay",)),
    Mutant("pairs-within-the-room-inclusive", "check.py",
           "room is None or all(count <= room",
           "room is None or all(count <= room + 1",
           (f"{SMALL_WORLD}::"
            "test_every_single_edit_of_a_true_pairing_replays_as_the_definition_says",)),
    Mutant("chain-bound-unchecked", "check.py",
           "    return 0 < witness.bound == lower and witness.chain == chain",
           "    return witness.chain == chain",
           (f"{SPECSEQ}::TestReplay",)),
    Mutant("headline-unchecked", "check.py",
           "        if headline != (verdict.slot, verdict.bound):",
           "        if False:",
           (f"{SPECSEQ}::TestVerdictJson::test_headline_must_match_witness",)),
]


class StaleRow(Exception):
    """A row's old text does not occur exactly once in its module."""


def apply(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the copy of the package under ``src``."""
    path = src / "isofloer" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise StaleRow(f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.module}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply one row to a temporary copy and run its tests: (killed by a test, outcome)."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        try:
            apply(mutant, copy / "src")
        except StaleRow as exc:
            return False, f"stale: {exc}"
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *mutant.tests]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=mutant.limit_s)
        except subprocess.TimeoutExpired:
            return False, f"killed by the time limit of {mutant.limit_s:g} s"
    if proc.returncode == 0:
        return False, "survived"
    failed = [line[len("FAILED "):] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return True, f"killed: {failed[0]}"
    if proc.returncode == 1 and "Timeout (" in proc.stderr:  # tests/conftest.py's bound
        return True, "killed: by the tier-1 time bound, with a traceback"
    return False, f"error: pytest exited {proc.returncode}: {proc.stdout[-300:]}"


def main(names: list[str]) -> int:
    rows = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in rows]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}", file=sys.stderr)
        return 2
    all_killed = True
    for name in names or rows:
        killed, outcome = run(rows[name])
        all_killed &= killed
        print(f"{name}: {outcome}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
