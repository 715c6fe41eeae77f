#!/usr/bin/env python3
"""Benchmark of the isofloer CLI on three workloads.

Run from anywhere; paths resolve against the repository this file sits in:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one child process at a time):

* ``table``: repeated ``classify-all --bound 128 --format json`` processes.
* ``dense``: seeded fully known profiles; each is decided by
  ``narrow-check --oracle`` and its output replayed, in process through
  ``cli.main`` in a fresh child per batch.
* ``cli``: one ``classify`` process per seeded family, one after another.

With ``--trace 0`` the run reports the end-to-end metrics that
``BENCHMARK.json`` lists; with ``--trace 1`` it runs the workload once
untraced and once traced in process and reports the per-layer metrics.
Human-readable lines come first; the last line is one JSON object.  Every
output is checked, a failed check counts in ``failed``, and the exit code
is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI = [PY, "-m", "isofloer.cli"]
SETUP_REPEATS = 9
PROBE_REPEATS = 9
RUN_LIMIT_S = 170.0  # every run, children included, must end within 180 s
FLOOR_ARGV = [PY, "-c", "pass"]
FLOOR_NOMINAL_MS = 50.0
# A pure-Python loop in a fresh process: the reference of the seconds-long,
# compute-bound `table` processes, which the interpreter floor follows less well.
KERNEL_ARGV = [PY, "-c", "t = 0\nd = {}\nfor i in range(1500000):\n"
                         "    d[i & 1023] = t = (t * 31 + i) % 1000003\n"]
KERNEL_NOMINAL_MS = 500.0

# classify-all --format json output at the seed commit; byte-identical by contract
TABLE_EXPECT = {
    16: {
        "sha256": "bb9aa9b110298734a118608e096849aa8d14063c8e6ac1ec0de09be1ef59f7a0",
        "bytes": 159171,
        "counts": {"Wide": 75, "NonDisplaceable": 50, "Unresolved": 17},
    },
    128: {
        "sha256": "7f80479791cdcb93df0caf581fb5f8b1a24907316479fb2427b834d769ff33c7",
        "bytes": 11979262,
        "counts": {"Wide": 4163, "NonDisplaceable": 3970, "Unresolved": 129},
    },
}


@dataclass(frozen=True)
class Size:
    bound: int  # classify-all bound of `table`
    batch: int  # profiles per `dense` child, written just before it starts
    families: int  # distinct families of `cli`, drawn from enumerate_families(16)


FULL = Size(bound=128, batch=200, families=100)

# Layer metric -> end-to-end metric it should move -> workload where it moves,
# and the workloads where it should stay flat (about 0 there).
PREDICTIONS = {
    "catalog.munzner_betti_N.calls": ("ops_per_s, peak_rss_mb", "table", "dense, cli"),
    "catalog.munzner_betti_N.s": ("ops_per_s, peak_rss_mb", "table", "dense, cli"),
    "catalog.tables_per_family": ("ops_per_s, peak_rss_mb", "table", "dense, cli"),
    "catalog.enumerate_families.s": ("ops_per_s", "table", "dense"),
    "homology.slots_built": ("ops_per_s, peak_rss_mb", "table", "cli"),
    "specseq.propagate_narrow.calls": ("ops_per_s", "table", "dense (small share)"),
    "specseq.propagate_narrow.s": ("ops_per_s", "table", "dense (small share)"),
    "specseq.propagate_narrow.slot_pages": ("ops_per_s", "table", "dense (small share)"),
    "specseq.oracle_narrow_feasible.calls": ("latency_p50_ms, latency_p90_ms", "dense", "table, cli"),
    "specseq.oracle_narrow_feasible.s": ("latency_p50_ms, latency_p90_ms", "dense", "table, cli"),
    "specseq.oracle.states_explored": ("latency_p50_ms, latency_p90_ms", "dense", "table, cli"),
    "specseq.oracle.completions_tried": ("latency_p50_ms, latency_p90_ms", "dense", "table, cli"),
    "specseq.replay_witness.calls": ("replay_p50_ms, replay_p90_ms", "dense", "table"),
    "specseq.replay_witness.s": ("replay_p50_ms, replay_p90_ms", "dense", "table"),
    "specseq.verdict_to_json.s": ("latency_*, replay_*", "dense", "cli"),
    "specseq.verdict_from_json.s": ("latency_*, replay_*", "dense", "cli"),
    "homology.profile_from_json.s": ("latency_*, replay_*", "dense", "cli"),
    "criteria.classify.calls": ("ops_per_s", "table", "dense"),
    "criteria.classify.self_s": ("ops_per_s", "table", "dense"),
    "criteria.report_to_json.s": ("ops_per_s, peak_rss_mb", "table", "dense"),
    "cli.json_bytes_out": ("ops_per_s, peak_rss_mb", "table", "dense"),
    "cli.main.self_s": ("ops_per_s, latency_*", "table, dense", "none"),
    "cli.import_ms": ("latency_p50_ms, latency_p90_ms", "cli", "table (about 3 %)"),
    "cli.interp_floor_ms": ("latency_p50_ms, latency_p90_ms (no PR can move it)", "cli", "table"),
}


class SetupError(RuntimeError):
    """The program cannot be run here; no result is printed."""


@dataclass(frozen=True)
class Reference:
    """A process that no change to ``src/`` can move, timed to scale a run."""

    label: str
    argv: list
    nominal_ms: float


FLOOR = Reference("`python3 -c pass`", FLOOR_ARGV, FLOOR_NOMINAL_MS)
KERNEL = Reference("pure-Python loop process", KERNEL_ARGV, KERNEL_NOMINAL_MS)


@dataclass
class Metric:
    value: float
    unit: str | None
    note: object = None
    scale: str | None = None  # "time" or "rate": normalised to the reference


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    reference: Reference = FLOOR
    ref_ms: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def check(self, problem: str | None, weight: int = 1) -> None:
        self.attempted += weight
        if problem is not None:
            self.failed += weight
            print(f"check failed: {problem}", file=sys.stderr)

    def add(self, name: str, value: float, unit: str | None, note=None, scale=None) -> None:
        self.metrics[name] = Metric(value, unit, note, scale)

    def normalise(self) -> None:
        """Scale times to a machine where the reference takes its nominal time.

        The reference is timed between the operations of the same run, so a
        machine that runs slower or faster for a while moves both alike.
        """
        if not self.ref_ms:
            return
        ref, nominal = statistics.median(self.ref_ms), self.reference.nominal_ms
        factor = nominal / ref
        for metric in self.metrics.values():
            if metric.scale is not None:
                raw = metric.value
                metric.value = raw * factor if metric.scale == "time" else raw / factor
                metric.note = f"raw {raw:.6g}; {metric.note}"
        self.lines.append(
            f"reference: {self.reference.label} median {ref:.2f} ms over {len(self.ref_ms)} "
            f"samples; times scaled by {factor:.4f} to a {nominal:g} ms reference")


# --- child processes -----------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    out: bytes
    err: str


def spawn(argv: list[str], deadline: float) -> Child:
    """Run ``argv`` to exit; its own peak RSS comes from ``os.wait4``.

    The child is killed at ``deadline`` (a ``perf_counter`` value).
    """
    WORK.mkdir(exist_ok=True)
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out,
                 err_path.read_text(encoding="utf-8", errors="replace"))


def last_json(child: Child) -> dict | None:
    lines = child.out.decode(errors="replace").strip().splitlines()
    if child.code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def worker(mode: str, spec: dict, deadline: float) -> tuple[Child, dict | None]:
    spec_path = WORK / f"{mode}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = spawn([PY, str(BENCH_DIR / "worker.py"), mode, str(spec_path)], deadline)
    if child.code != 0:
        print(f"worker {mode} exit {child.code}: {child.err.strip()}", file=sys.stderr)
    return child, last_json(child)


def timed_setup(setup, deadline: float) -> tuple[float, float, object]:
    """Run ``setup`` several times, each between two interpreter floors.

    Each set-up is divided by the mean of the floors timed just before and
    just after it, so drift of the machine between runs cancels.  Returns
    the median of those ratios scaled to a FLOOR_NOMINAL_MS floor, the raw
    median in seconds, and the last result.
    """
    times, ratios = [], []
    before = spawn(FLOOR_ARGV, deadline).wall_s
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = setup()
        elapsed = time.perf_counter() - start
        after = spawn(FLOOR_ARGV, deadline).wall_s
        times.append(elapsed)
        ratios.append(2 * elapsed / (before + after))
        before = after
    return statistics.median(ratios) * FLOOR_NOMINAL_MS / 1e3, statistics.median(times), result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(outcome: Outcome, prefix: str, samples: list[float], what: str) -> None:
    note = f"n={len(samples)} {what}"
    outcome.add(f"{prefix}_p50_ms", percentile(samples, 50), "ms", note, "time")
    outcome.add(f"{prefix}_p90_ms", percentile(samples, 90), "ms", note, "time")


def sample_reference(outcome: Outcome, deadline: float, count: int) -> None:
    for _ in range(count):
        child = spawn(outcome.reference.argv, deadline)
        if child.code != 0:
            raise SetupError(f"{outcome.reference.label} exit {child.code}")
        outcome.ref_ms.append(child.wall_s * 1e3)


def measure(outcome: Outcome, seconds: float, deadline: float, refs: int, step) -> None:
    """Call ``step(stop)`` until ``seconds`` have passed, at least once.

    After each call the run's reference is timed ``refs`` times, so it
    covers the same stretch of time as the operations.
    """
    stop = time.perf_counter() + seconds
    while True:
        step(stop)
        sample_reference(outcome, deadline, refs)
        if time.perf_counter() >= stop:
            return


# --- checks --------------------------------------------------------------------


def table_problem(expect: dict, code: int, data: bytes | None = None, facts: dict | None = None):
    """Status counts and a digest of the JSON bytes, against the seed commit."""
    if code != 0:
        return f"classify-all exit {code}"
    if facts is None:
        try:
            counts = Counter(r["status"] for r in json.loads(data))
        except (ValueError, TypeError, KeyError) as exc:
            return f"classify-all output is not a list of reports: {exc!r}"
        facts = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "counts": counts}
    if dict(facts["counts"]) != expect["counts"]:
        return f"status counts {dict(facts['counts'])} != {expect['counts']}"
    if facts["sha256"] != expect["sha256"] or facts["bytes"] != expect["bytes"]:
        return f"classify-all JSON differs from the seed output ({facts['bytes']} bytes)"
    return None


# --- workloads -----------------------------------------------------------------


def table_argv(bound: int) -> list[str]:
    return ["classify-all", "--bound", str(bound), "--format", "json"]


def table_setup(size: Size, deadline: float) -> None:
    child = spawn(CLI + table_argv(16), deadline)
    if child.code != 0:
        raise SetupError(f"warm-up classify-all exit {child.code}: {child.err.strip()}")


def table(size: Size, seconds: float, deadline: float, outcome: Outcome) -> None:
    expect = TABLE_EXPECT[size.bound]
    walls, rss = [], []

    def step(stop):
        child = spawn(CLI + table_argv(size.bound), deadline)
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        outcome.check(table_problem(expect, child.code, child.out))

    outcome.reference = KERNEL
    sample_reference(outcome, deadline, 1)
    measure(outcome, seconds, deadline, 1, step)
    families = sum(expect["counts"].values()) * len(walls)
    outcome.add("ops_per_s", families / sum(walls), "1/s",
                f"families classified, {len(walls)} processes", "rate")
    latency_metrics(outcome, "latency", [w * 1e3 for w in walls], "classify-all processes")
    outcome.add("peak_rss_mb", statistics.median(rss), "MB", "median over processes")


def write_batch(size: Size, seed: int, index: int) -> list[list]:
    """Write batch ``index`` of the seeded profiles over the previous batch.

    Profiles are fully known: n in 9..12, dims in 0..2, Maslov number N in
    3..6, and nu = floor((n+1)/N) from the CLI default.  The program only
    ever sees the files and argv.
    """
    rng = random.Random(f"dense:{seed}:{index}")
    folder = WORK / "dense"
    folder.mkdir(parents=True, exist_ok=True)
    batch = []
    for i in range(size.batch):
        n, maslov = rng.randint(9, 12), rng.randint(3, 6)
        known = [[s, rng.randint(0, 2)] for s in range(n + 1)]
        path = folder / f"p{i:03d}.json"
        path.write_text(json.dumps({"n": n, "known": known, "cap": None}), encoding="utf-8")
        batch.append([str(path), maslov])
    return batch


def dense_setup(size: Size, seed: int, deadline: float) -> list[list]:
    batch = write_batch(size, seed, 0)
    child, _ = worker("dense", {"profiles": [], "witness": "", "stop_after_s": 0}, deadline)
    if child.code != 0:
        raise SetupError("dense worker does not start")
    return batch


def dense(size: Size, seed: int, seconds: float, deadline: float, outcome: Outcome) -> None:
    witness = str(WORK / "dense" / "witness.json")
    decide, replay, rss, kinds = [], [], [], Counter()

    def step(stop):
        batch = write_batch(size, seed, len(rss))
        spec = {"profiles": batch, "witness": witness, "floor_argv": FLOOR_ARGV,
                "floor_every_s": 0.5, "stop_after_s": max(0.0, stop - time.perf_counter())}
        child, result = worker("dense", spec, deadline)
        rss.append(child.rss_mb)
        if result is None:
            outcome.check(f"dense worker exit {child.code}", weight=len(batch))
            return
        outcome.ref_ms.extend(result["floor_ms"])
        decide.extend(result["decide_ms"])
        replay.extend(result["replay_ms"])
        kinds.update(result["kinds"])
        problems = result["problems"]
        for problem in problems + [None] * (len(result["decide_ms"]) - len(problems)):
            outcome.check(problem)

    measure(outcome, seconds, deadline, 0, step)
    if not decide:
        raise SetupError("dense run decided no profile")
    busy_s = (sum(decide) + sum(replay)) / 1e3
    outcome.add("ops_per_s", len(decide) / busy_s, "1/s",
                f"profiles decided and replayed, oracle verdicts {dict(kinds)}", "rate")
    latency_metrics(outcome, "latency", decide, "narrow-check --oracle calls")
    latency_metrics(outcome, "replay", replay, "replay calls")
    outcome.add("peak_rss_mb", statistics.median(rss), "MB",
                f"median over {len(rss)} batch children")


def classify_argv(family) -> list[str]:
    return ["classify", "--g", str(family.g), "--m1", str(family.m1), "--m2", str(family.m2),
            "--format", "json"]


def cli_setup(size: Size, seed: int, deadline: float) -> list[tuple[list[str], str]]:
    """Draw families by seed; the expected status is an in-process classify."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from isofloer.catalog import enumerate_families
    from isofloer.criteria import classify

    families = random.Random(seed).sample(enumerate_families(16), size.families)
    calls = [(classify_argv(f), classify(f).status) for f in families]
    child = spawn(CLI + calls[0][0], deadline)
    if child.code != 0:
        raise SetupError(f"warm-up classify failed: {child.err.strip()}")
    return calls


def cli_problem(child: Child, expected: str) -> str | None:
    if child.code != 0:
        return f"classify exit {child.code}: {child.err.strip()}"
    try:
        status = json.loads(child.out)["status"]
    except (ValueError, TypeError, KeyError) as exc:
        return f"classify output has no status: {exc!r}"
    if status != expected:
        return f"classify status {status!r} != in-process {expected!r}"
    return None


def cli(size: Size, seconds: float, deadline: float, outcome: Outcome, calls: list) -> None:
    walls, rss = [], []

    def step(stop):
        argv, expected = calls[len(walls) % len(calls)]
        child = spawn(CLI + argv, deadline)
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        outcome.check(cli_problem(child, expected))

    measure(outcome, seconds, deadline, 1, step)
    outcome.add("ops_per_s", len(walls) / sum(walls), "1/s", "classify processes", "rate")
    latency_metrics(outcome, "latency", [w * 1e3 for w in walls],
                    "classify processes, spawn to exit")
    outcome.add("peak_rss_mb", statistics.median(rss), "MB", "median over processes")


# --- traced run ----------------------------------------------------------------


def probe_ms(argv: list[str], deadline: float, inner: bool = False) -> float:
    """Median over fresh processes of spawn-to-exit, or of the time it prints."""
    values = []
    for _ in range(PROBE_REPEATS):
        child = spawn(argv, deadline)
        if child.code != 0:
            raise SetupError(f"probe {argv[1:]} failed: {child.err.strip()}")
        values.append(float(child.out) * 1e3 if inner else child.wall_s * 1e3)
    return statistics.median(values)


def trace_problems(size: Size, spec: dict, facts: dict) -> list[str | None]:
    """One entry per checked operation of a traced pass: None or the problem."""
    if spec["workload"] == "table":
        if "sha256" not in facts:
            return [f"classify-all exit {facts['code']}: {facts['error']}"]
        return [table_problem(TABLE_EXPECT[size.bound], facts["code"], facts=facts)]
    if spec["workload"] == "dense":
        return facts["problems"] + [None] * (len(spec["profiles"]) - len(facts["problems"]))
    return [None if got == want else f"classify status {got!r} != in-process {want!r}"
            for got, want in zip(facts["statuses"], spec["expected"])]


def traced(size: Size, spec: dict, deadline: float, outcome: Outcome) -> None:
    spec = dict(spec, spans=str(WORK / f"spans-{spec['workload']}.jsonl"))
    child, result = worker("trace", spec, deadline)
    if result is None:
        raise SetupError(f"traced worker failed: {child.err.strip()}")
    for facts in result["facts"]:
        for problem in trace_problems(size, spec, facts):
            outcome.check(problem)
    layers = result["metrics"]
    layers["cli.interp_floor_ms"] = probe_ms(FLOOR_ARGV, deadline)
    layers["cli.import_ms"] = probe_ms(
        [PY, "-c", "import time; t = time.perf_counter(); import isofloer.cli; "
                   "print(time.perf_counter() - t)"], deadline, inner=True)
    layers["cli.process_ms"] = probe_ms(CLI + ["classify", "--g", "4", "--m1", "2", "--m2", "2",
                                               "--format", "json"], deadline)
    layers["trace.ops_per_s"] = result["ops"] / result["traced_s"]
    layers["trace.untraced_ops_per_s"] = result["ops"] / result["untraced_s"]
    layers["trace.overhead_ratio"] = result["traced_s"] / result["untraced_s"]
    for name, value in layers.items():
        outcome.add(name, value, None, PREDICTIONS.get(name))
    where_time_goes(spec["workload"], result, layers, outcome)


def where_time_goes(workload: str, result: dict, layers: dict, outcome: Outcome) -> None:
    wall = layers["trace.wall_s"]
    out = outcome.lines
    out.append(f"one traced pass {wall:.3f} s; tracing overhead "
               f"x{layers['trace.overhead_ratio']:.3f} (untraced {result['untraced_s']:.3f} s)")
    for layer in ("cli", "criteria", "catalog", "specseq", "homology"):
        self_s = layers[f"layer.{layer}.self_s"]
        out.append(f"  self {layer:<9} {self_s:9.4f} s  {100 * self_s / wall:5.1f} %")
    out.append(f"  accounted by span self times: {100 * layers['trace.accounted_share']:.1f} %")
    if workload == "cli":
        floor, imp = layers["cli.interp_floor_ms"], layers["cli.import_ms"]
        main_ms = 1e3 * result["untraced_s"] / result["ops"]
        out.append(
            f"one classify process {layers['cli.process_ms']:.1f} ms: interpreter {floor:.1f} ms"
            f" + import {imp:.1f} ms + cli.main {main_ms:.2f} ms untraced = "
            f"{100 * (floor + imp + main_ms) / layers['cli.process_ms']:.1f} % accounted")


# --- entry point ---------------------------------------------------------------

WORKLOADS = ("table", "dense", "cli")


def declared(section: str) -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config[section]}


def run(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """One run; prints human-readable lines and returns the result object."""
    if not (SRC / "isofloer" / "cli.py").is_file():
        raise SetupError(f"no isofloer sources under {SRC}")
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    outcome = Outcome()
    if workload == "table":
        setup_s, setup_raw, _ = timed_setup(lambda: table_setup(size, deadline), deadline)
        spec = {"workload": "table", "argv": table_argv(size.bound)}
        if not trace:
            table(size, seconds, deadline, outcome)
    elif workload == "dense":
        setup_s, setup_raw, batch = timed_setup(lambda: dense_setup(size, seed, deadline), deadline)
        spec = {"workload": "dense", "profiles": batch,
                "witness": str(WORK / "dense" / "witness.json")}
        if not trace:
            dense(size, seed, seconds, deadline, outcome)
    else:
        setup_s, setup_raw, calls = timed_setup(lambda: cli_setup(size, seed, deadline), deadline)
        spec = {"workload": "cli", "argvs": [argv for argv, _ in calls],
                "expected": [status for _, status in calls]}
        if not trace:
            cli(size, seconds, deadline, outcome, calls)
    outcome.add("setup_s", setup_s, "s", f"raw {setup_raw:.6g}; median of {SETUP_REPEATS} "
                f"set-ups, each scaled by the floors around it")
    if trace:
        traced(size, spec, deadline, outcome)
    outcome.add("fail_ratio", outcome.failed / max(1, outcome.attempted), "ratio",
                f"{outcome.failed} of {outcome.attempted} checks failed")
    outcome.normalise()

    wanted = declared("per_layer" if trace else "end_to_end")
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for name, metric in outcome.metrics.items():
        note = metric.note
        if isinstance(note, tuple):
            note = f"moves {note[0]} on {note[1]}; flat on {note[2]}"
        unit = metric.unit or wanted.get(name, "")
        print(f"  {name:<40} {metric.value:>14.6g} {unit:<6} {note or ''}")
    for line in outcome.lines:
        print(line)
    metrics = {}
    for name, unit in wanted.items():
        if name not in outcome.metrics:
            raise SetupError(f"metric {name} was not measured on {workload}")
        metric = outcome.metrics[name]
        if metric.unit not in (None, unit):
            raise SetupError(f"metric {name} measured in {metric.unit}, declared {unit}")
        metrics[name] = {"value": metric.value, "unit": unit}
    return {"correct": outcome.failed == 0, "attempted": max(1, outcome.attempted),
            "failed": outcome.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
