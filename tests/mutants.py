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
CLI = "tests/test_cli.py"
HOMOLOGY = "tests/test_homology.py"

MUTANTS = [
    # the decider and its barrier check
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
    Mutant("isolated-slot-counted-once", "matching.py",
           "            odd += dim if lone else sum(dims[u] for u in group) % 2",
           "            odd += 1 if lone else sum(dims[u] for u in group) % 2",
           (f"{SPECSEQ}::TestReplay::test_barrier_edits",)),
    Mutant("greedy-pass-only", "matching.py",
           "            inner = _grow(root, mate, slot_of, start, partners)",
           "            inner = []",
           (f"{CLI}::TestNarrowCheck::test_wide_open_capped_profile_takes_one_barrier",)),
    Mutant("blossom-relinks-one-side", "matching.py",
           "                    for x, child in ((v, w), (w, v)):  # relink both sides of the cycle",
           "                    for x, child in ((v, w),):",
           (f"{SMALL_WORLD}::test_decider_matches_brute_force_on_every_small_known_profile",)),
    Mutant("pairs-unsorted", "matching.py",
           "for (s, r), count in sorted(pairs.items())))",
           "for (s, r), count in pairs.items()))",
           (f"{SMALL_WORLD}::test_decider_matches_brute_force_on_every_small_known_profile",)),
    Mutant("barrier-count-ignored", "matching.py",
           "    return odd > sum(dims[s] for s in removed)",
           "    return odd > 0",
           (f"{SPECSEQ}::test_some_slot_barrier_exists_iff_brute_force_fails",)),
    Mutant("one-class-verb-for-none", "matching.py",
           'cancels" if count == 1 else',
           'cancels" if count == 0 else',
           (f"{CLI}::TestNarrowCheck::test_verbose_oracle_lists_the_cancellations",)),
    Mutant("no-completions-tried", "matching.py",
           "    completions_tried = 1",
           "    completions_tried = 0",
           ("tests/test_bench_hooks.py::test_infeasible_witness_carries_the_traced_counters",)),
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
           "    if headline != (verdict.slot, verdict.bound):",
           "    if False:",
           (f"{SPECSEQ}::TestVerdictJson::test_headline_must_match_witness",)),
    Mutant("upper-slot-not-counted", "check.py",
           "        paired[t] += count\n",
           "",
           (f"{SPECSEQ}::TestReplay::test_feasible_replays",)),
    Mutant("no-interval-check", "check.py",
           "    if hi is not None and hi < lo:",
           "    if False:",
           (f"{CLI}::test_failure_exit_code_and_error_line[slots-entry-empty]",)),
    Mutant("null-verdict-skipped", "commands.py",
           "for v in (verdict, oracle)[:1 + (oracle is not None)]]",
           "for v in (verdict, oracle) if v is not None]",
           (f"{CLI}::test_failure_exit_code_and_error_line[null-verdict]",)),
    Mutant("null-witness-type-read-as-missing", "check.py",
           '("type", ...)  # read first: it picks the other keys\n    if wtype is ...:',
           '("type")  # read first: it picks the other keys\n    if wtype is None:',
           (f"{CLI}::test_failure_exit_code_and_error_line[null-witness-type]",)),
    Mutant("pairs-not-ascending", "check.py",
           "last < (s, r) and r >= 1 and count >= 1",
           "r >= 1 and count >= 1",
           (f"{SPECSEQ}::TestReplay::test_pair_edits",)),
    Mutant("pairs-past-the-top-slot", "check.py",
           "count >= 1 and t <= profile.n)",
           "count >= 1)",
           (f"{SMALL_WORLD}::"
            "test_every_single_edit_of_a_true_pairing_replays_as_the_definition_says",)),
    Mutant("known-slots-not-counted", "check.py",
           "    return all(paired[s] == dim for s, dim in known.items()) and (",
           "    return (",
           (f"{SPECSEQ}::TestReplay::test_pair_edits",)),
    Mutant("pairs-over-the-cap", "check.py",
           "    if profile.cap is not None and sum(paired.values()) > profile.cap:",
           "    if False:",
           (f"{SPECSEQ}::TestReplay",)),
    # the propagator and nu
    Mutant("page-turns-without-the-maslov-check", "specseq.py",
           "    require_maslov(maslov)\n    return (n + 1) // maslov",
           "    return (n + 1) // maslov",
           (f"{SPECSEQ}::TestReplay::test_every_kind_refuses_a_maslov_number_below_3",)),
    Mutant("chain-reads-an-unbounded-neighbour-as-0", "specseq.py",
           "        if left_hi is None or right_hi is None:\n            return None\n",
           "        left_hi, right_hi = left_hi or 0, right_hi or 0\n",
           (f"{SPECSEQ}::TestReplay::test_chain_through_an_unbounded_neighbour_fails",)),
    Mutant("no-post-init-call", "homology.py",
           '        lines.append("    self.__post_init__()")',
           "        pass  # ",
           (f"{HOMOLOGY}::TestConstruction::test_support_degree_range_enforced",)),
    Mutant("reduce-over-slots", "homology.py",
           "tuple([getattr(self, name) for name in self._fields])",
           "tuple([getattr(self, name) for name in self.__slots__])",
           ("tests/test_package.py::test_value_semantics",)),
    Mutant("no-reduce", "homology.py",
           "    def __reduce__(self) -> tuple:",
           "    def _reduce(self) -> tuple:",
           ("tests/test_package.py::test_value_semantics",)),
    Mutant("equal-across-record-classes", "homology.py",
           "        if type(other) is not type(self):",
           "        if not isinstance(other, Record):",
           ("tests/test_package.py::test_value_semantics",)),
    # the worker pool
    Mutant("render-error-swallowed", "pool.py",
           "                yield values\n                raise\n",
           "                yield values\n",
           (f"{CLI}::test_a_worker_bug_keeps_its_traceback",)),
    Mutant("workers-not-reaped", "pool.py",
           "            os.waitpid(pid, 0)",
           "            pass",
           (f"{CLI}::test_an_early_stop_with_full_pipes_reaps_every_worker",)),
    # the catalog and the claim it writes
    Mutant("m1-for-every-multiplicity", "catalog.py",
           "(family.m2 if i % 2 else family.m1)",
           "family.m1",
           ("tests/test_catalog.py::TestCoveringTables",)),
    Mutant("g-th-partial-sum", "catalog.py",
           "    for i in range(family.g - 1):",
           "    for i in range(family.g):",
           ("tests/test_catalog.py::TestCoveringTables",)),
    Mutant("last-m1-dropped", "catalog.py",
           "        for m1 in range(1, bound // 2 + 1):",
           "        for m1 in range(1, bound // 2):",
           ("tests/test_catalog.py::TestEnumeration::test_every_valid_triple_once",)),
    Mutant("brief-gap-off-by-one", "criteria.py",
           "text += f\"{', 0' * (degree - start)}, {known[degree]}\"",
           "text += f\"{', 0' * (degree - start - 1)}, {known[degree]}\"",
           ("tests/test_properties.py::test_profile_brief_matches_the_dense_rendering",)),
    Mutant("propagator-skips-ties", "specseq.py",
           "        if lo < key[0]:  # below the best bound so far: it cannot win",
           "        if lo <= key[0]:",
           (f"{SPECSEQ}::test_propagator_matches_its_reference",)),
    # the profile, and the reader of every wire object's keys
    Mutant("negative-degrees-allowed", "homology.py",
           "            if not 0 <= degree <= self.n:",
           "            if not degree <= self.n:",
           (f"{HOMOLOGY}::TestConstruction::test_support_degree_range_enforced",)),
    Mutant("no-width-limit", "homology.py",
           "        if not 0 <= self.n <= MAX_TOP_DEGREE:",
           "        if not 0 <= self.n:",
           (f"{HOMOLOGY}::TestConstruction::test_top_degree_limit",)),
    Mutant("listed-zeros-kept-in-equality", "homology.py",
           "            items = [(degree, dim) for degree, dim in items if dim]",
           "            items = list(items)",
           (f"{HOMOLOGY}::TestConstruction::test_equality_ignores_how_degrees_are_listed",)),
    Mutant("known-degrees-unsorted", "homology.py",
           "if self.fully_known else sorted(self.known)",
           "if self.fully_known else list(self.known)",
           (f"{CLI}::TestGolden::test_profile_listing_order_leaves_the_bytes_alone",)),
    Mutant("unknown-profile-field-read", "homology.py",
           "        if key not in names:",
           "        if key not in names and what != 'profile':",
           (f"{HOMOLOGY}::TestJson::test_rejects_an_unknown_field_by_name",)),
    Mutant("every-key-through-the-object-reader", "homology.py",
           "        if key not in names:",
           "        if False:",
           (f"{CLI}::TestReplay::test_stale_envelope_keys_are_refused",)),
    Mutant("missing-keys-read-as-null", "homology.py",
           "        if key not in value:",
           "        if False:",
           (f"{CLI}::test_failure_exit_code_and_error_line[missing-verdict-key]",)),
    # the process's output pipe
    Mutant("no-explicit-flush", "cli.py",
           "        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit",
           "        pass",
           (f"{CLI}::test_closed_output_pipe_exits_1_quietly",)),
    Mutant("no-broken-pipe-handler", "cli.py",
           "    except BrokenPipeError:  # the reader left;",
           "    except ZeroDivisionError:  # the reader left;",
           (f"{CLI}::test_closed_output_pipe_exits_1_quietly",)),
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
