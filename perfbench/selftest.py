#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at bound 16, with 5 dense profiles
and 3 cli invocations.  It checks that each run emits exactly the metrics
BENCHMARK.json declares, with their units, that the text output names every
end-to-end metric that applies, and that the output checks catch wrong
results.  Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = run.Size(bound=16, batch=5, families=3)
PRINTED = {
    "table": ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s", "fail_ratio"),
    "dense": ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "replay_p50_ms", "replay_p90_ms",
              "peak_rss_mb", "setup_s", "fail_ratio"),
    "cli": ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s", "fail_ratio"),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def quiet_run(workload: str, trace: bool) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run.run(workload, seed=1, seconds=0.5, trace=trace, size=TINY)
    return result, out.getvalue() + err.getvalue()


def check_declarations() -> None:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in config["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    per_layer = run.declared("per_layer")
    for name in run.PREDICTIONS:
        expect(name in per_layer, f"predicted layer metric {name} is not declared")


def check_runs() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace {int(trace)}"
            result, text = quiet_run(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: checks failed on correct code:\n{text}")
            wanted = run.declared("per_layer" if trace else "end_to_end")
            expect(list(result["metrics"]) == list(wanted), f"{label}: metric names differ")
            for name, metric in result["metrics"].items():
                expect(metric["unit"] == wanted[name], f"{label}: {name} unit {metric['unit']}")
                expect(isinstance(metric["value"], (int, float)), f"{label}: {name} not a number")
            names = PRINTED[workload] if not trace else tuple(wanted) + ("fail_ratio",)
            for name in names:
                expect(f"  {name} " in text, f"{label}: {name} not printed")
            if not trace:
                for name in ("latency_p50_ms", "peak_rss_mb", "setup_s"):
                    expect(result["metrics"][name]["value"] > 0, f"{label}: {name} is 0")
            print(f"ok  {label}")


def check_checks() -> None:
    # a classify-all output that differs from the recorded one is a failure
    saved = run.TABLE_EXPECT[TINY.bound]
    run.TABLE_EXPECT[TINY.bound] = dict(saved, sha256="0" * 64)
    try:
        result, _ = quiet_run("table", trace=False)
    finally:
        run.TABLE_EXPECT[TINY.bound] = saved
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a wrong table digest was not counted as failed")

    child = run.Child(0, 0.1, 20.0, json.dumps({"status": "Wide"}).encode(), "")
    expect(run.cli_problem(child, "Wide") is None, "a matching classify status was refused")
    expect(run.cli_problem(child, "Unresolved") is not None, "a wrong classify status passed")

    sys.path.insert(0, str(run.SRC))
    import worker

    class Fake:
        """Answers narrow-check with an unsound pair and replay with a mismatch."""

        def __init__(self, verdict: str, oracle: str, replayed: bool) -> None:
            self.answers = iter([
                (0, json.dumps({"verdict": {"kind": verdict}, "oracle": {"kind": oracle}})),
                (0, json.dumps({"replayed": replayed, "verdicts": 2})),
            ])

        def call(self, argv):
            return next(self.answers)

    witness = str(run.WORK / "selftest-witness.json")
    run.WORK.mkdir(exist_ok=True)
    *_, problem = worker.dense_profile(Fake("Contradiction", "Feasible", True), "p", 3, witness)
    expect(problem is not None, "a Contradiction/Feasible pair passed")
    *_, problem = worker.dense_profile(Fake("NoContradiction", "Infeasible", False), "p", 3, witness)
    expect(problem is not None, "a failed replay passed")
    *_, problem = worker.dense_profile(Fake("NoContradiction", "Feasible", True), "p", 3, witness)
    expect(problem is None, "a sound, replayed profile was refused")
    print("ok  checks catch wrong outputs")


def main() -> int:
    check_declarations()
    check_runs()
    check_checks()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
