"""Child process of the benchmark: runs isofloer in process through ``cli.main``.

    python3 worker.py dense SPEC   decide and replay a batch of profile files
    python3 worker.py trace SPEC   one untraced and one traced pass of a workload

SPEC is a JSON file written by ``run.py``.  The worker expects the package on
``PYTHONPATH`` and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from time import perf_counter

from isofloer import catalog, cli, criteria, homology, specseq

from tracer import Tracer


class Runner:
    """Calls ``cli.main`` with stdout and stderr captured."""

    def __init__(self, main=cli.main) -> None:
        self.main = main
        self.bytes_out = 0

    def call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed run
            return -1, f"{type(exc).__name__}: {exc}"
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        return code, text if code == 0 else err.getvalue()


def dense_profile(runner: Runner, path: str, maslov: int, witness: str):
    """Decide one profile with the oracle, then replay the stored output.

    Returns (decide_ms, replay_ms, oracle kind, problem or None).  A problem
    is a nonzero exit, a missing oracle verdict, a propagator Contradiction
    paired with an oracle Feasible (unsound), or a replay that fails.
    """
    start = perf_counter()
    code, out = runner.call(
        ["narrow-check", "--profile", path, "--maslov", str(maslov), "--oracle", "--format", "json"]
    )
    decide_ms = (perf_counter() - start) * 1e3
    if code != 0:
        return decide_ms, 0.0, None, f"narrow-check exit {code}: {out.strip()}"
    try:
        envelope = json.loads(out)
        verdict, kind = envelope["verdict"]["kind"], envelope["oracle"]["kind"]
    except (ValueError, TypeError, KeyError) as exc:
        return decide_ms, 0.0, None, f"narrow-check output lacks a verdict or oracle: {exc!r}"
    with open(witness, "w", encoding="utf-8") as handle:
        handle.write(out)
    start = perf_counter()
    code, out = runner.call(["replay", witness, "--format", "json"])
    replay_ms = (perf_counter() - start) * 1e3
    if verdict == specseq.CONTRADICTION and kind == specseq.FEASIBLE:
        return decide_ms, replay_ms, kind, "propagator Contradiction but oracle Feasible"
    if code != 0 or not _replayed(out):
        return decide_ms, replay_ms, kind, f"replay exit {code}: {out.strip()}"
    return decide_ms, replay_ms, kind, None


def _replayed(out: str) -> bool:
    try:
        return json.loads(out)["replayed"] is True
    except (ValueError, TypeError, KeyError):
        return False


def run_dense(runner: Runner, spec: dict, stop_after_s: float | None = None) -> dict:
    """Decide and replay each profile of ``spec``.

    With ``floor_every_s`` in the spec, the interpreter floor (``floor_argv``
    run to exit) is also timed that often between profiles, so the reference
    follows the same stretch of time as the calls.
    """
    decide, replay, problems, kinds, floor = [], [], [], Counter(), []
    start = next_floor = perf_counter()
    for path, maslov in spec["profiles"]:
        if stop_after_s is not None and decide and perf_counter() - start >= stop_after_s:
            break
        d_ms, r_ms, kind, problem = dense_profile(runner, path, maslov, spec["witness"])
        decide.append(d_ms)
        replay.append(r_ms)
        kinds[kind] += 1
        if problem is not None:
            problems.append(f"{path}: {problem}")
        if "floor_every_s" in spec and perf_counter() >= next_floor:
            begin = perf_counter()
            subprocess.run(spec["floor_argv"], check=True)
            floor.append((perf_counter() - begin) * 1e3)
            next_floor = perf_counter() + spec["floor_every_s"]
    return {"decide_ms": decide, "replay_ms": replay, "problems": problems, "kinds": kinds,
            "floor_ms": floor}


# --- traced passes ------------------------------------------------------------


def _slot_pages(counts, args, result):
    profile, nu = args[0], args[3]
    counts["specseq.propagate_narrow.slot_pages"] += (profile.n + 1) * nu


def _oracle_stats(counts, args, result):
    # only an Infeasible witness carries the search statistics
    if isinstance(result.witness, specseq.InfeasibleWitness):
        counts["specseq.oracle.states_explored"] += result.witness.states_explored
        counts["specseq.oracle.completions_tried"] += result.witness.completions_tried


def _slots_built(counts, args, result):
    counts["homology.slots_built"] += args[0].n + 1


def instrument(tracer: Tracer) -> None:
    """Wrap each public function at every module attribute a caller uses."""
    spans = [
        ((cli,), "classify", "criteria.classify", None),
        ((cli,), "report_to_json", "criteria.report_to_json", None),
        ((cli,), "enumerate_families", "catalog.enumerate_families", None),
        ((criteria, catalog), "munzner_betti_N", "catalog.munzner_betti_N", None),
        ((cli, criteria, specseq), "propagate_narrow", "specseq.propagate_narrow", _slot_pages),
        ((cli, specseq), "oracle_narrow_feasible", "specseq.oracle_narrow_feasible", _oracle_stats),
        ((cli,), "replay_witness", "specseq.replay_witness", None),
        ((cli, criteria), "verdict_to_json", "specseq.verdict_to_json", None),
        ((cli, criteria), "verdict_from_json", "specseq.verdict_from_json", None),
        ((cli, catalog), "profile_from_json", "homology.profile_from_json", None),
    ]
    for owners, attr, name, count in spans:
        for owner in owners:
            tag = (lambda args: args[0].g) if name == "criteria.classify" else None
            tracer.patch(owner, attr, name, count, tag)
    tracer.count_calls(homology.BettiProfile, "__post_init__", _slots_built)


LAYERS = ("homology", "catalog", "specseq", "criteria", "cli")


def layer_metrics(tracer: Tracer, wall_s: float, passes: int) -> dict:
    """Per-layer metrics for one pass of the workload (totals over ``passes``)."""
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0) / passes

    metrics = {}
    for name in (
        "catalog.munzner_betti_N",
        "specseq.propagate_narrow",
        "specseq.oracle_narrow_feasible",
        "specseq.replay_witness",
        "criteria.classify",
    ):
        metrics[f"{name}.calls"] = get(name, "calls")
    for name in (
        "catalog.munzner_betti_N",
        "catalog.enumerate_families",
        "homology.profile_from_json",
        "specseq.propagate_narrow",
        "specseq.oracle_narrow_feasible",
        "specseq.replay_witness",
        "specseq.verdict_to_json",
        "specseq.verdict_from_json",
        "criteria.report_to_json",
    ):
        metrics[f"{name}.s"] = get(name, "s")
    metrics["criteria.classify.self_s"] = get("criteria.classify", "self_s")
    metrics["cli.main.self_s"] = get("cli.main", "self_s")
    for key in (
        "homology.slots_built",
        "specseq.propagate_narrow.slot_pages",
        "specseq.oracle.states_explored",
        "specseq.oracle.completions_tried",
    ):
        metrics[key] = tracer.counts[key] / passes

    # tables built per classified g in {4, 6} family, from the span tree
    families = tables = 0
    for index, span in enumerate(tracer.spans):
        if span[0] == "criteria.classify" and span[5] in (4, 6):
            families += 1
        elif span[0] == "catalog.munzner_betti_N":
            owner = tracer.nearest(index, "criteria.classify")
            tables += owner >= 0 and tracer.spans[owner][5] in (4, 6)
    metrics["catalog.tables_per_family"] = tables / families if families else 0.0

    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in summary.items() if name.split(".")[0] == layer
        ) / passes
    accounted = sum(entry["self_s"] for entry in summary.values())
    metrics["trace.wall_s"] = wall_s / passes
    metrics["trace.accounted_share"] = accounted / wall_s
    return metrics


def work_table(runner: Runner, spec: dict):
    code, out = runner.call(spec["argv"])
    try:
        reports = json.loads(out) if code == 0 else None
        counts = Counter(report["status"] for report in reports)
    except (ValueError, TypeError, KeyError):
        return 0, {"code": code, "error": out[-500:]}
    data = out.encode()
    facts = {"code": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
             "counts": counts}
    return len(reports), facts


def work_dense(runner: Runner, spec: dict):
    result = run_dense(runner, spec)
    return len(result["decide_ms"]), {"problems": result["problems"]}


def work_cli(runner: Runner, spec: dict):
    statuses = []
    for argv in spec["argvs"]:
        code, out = runner.call(argv)
        try:
            statuses.append(json.loads(out)["status"] if code == 0 else f"exit {code}")
        except (ValueError, TypeError, KeyError) as exc:
            statuses.append(f"no status: {exc!r}")
    return len(statuses), {"statuses": statuses}


WORK = {"table": work_table, "dense": work_dense, "cli": work_cli}
PASSES = (False, True, False, True)  # traced or not, alternating to cancel order effects


def run_trace(spec: dict) -> dict:
    """Run the workload in the order ``PASSES``.

    Per-layer metrics average the traced passes; the overhead is the traced
    time over the untraced time of the same work.
    """
    work = WORK[spec["workload"]]
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)

    def traced_main(argv):
        tracer.op += 1
        return main(argv)

    untraced_s = traced_s = 0.0
    ops, facts, traced_runner = 0, [], Runner(traced_main)
    for traced in PASSES:
        if traced:
            instrument(tracer)
        start = perf_counter()
        try:
            done, pass_facts = work(traced_runner if traced else Runner(), spec)
        finally:
            elapsed = perf_counter() - start
            tracer.restore()
        facts.append(pass_facts)
        if traced:
            traced_s += elapsed
            ops += done
        else:
            untraced_s += elapsed
    tracer.dump(spec["spans"])
    passes = PASSES.count(True)
    metrics = layer_metrics(tracer, traced_s, passes)
    metrics["cli.json_bytes_out"] = traced_runner.bytes_out / passes
    return {"ops": ops / passes, "untraced_s": untraced_s / passes, "traced_s": traced_s / passes,
            "facts": facts, "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if mode == "dense":
        result = run_dense(Runner(), spec, spec["stop_after_s"])
    elif mode == "trace":
        result = run_trace(spec)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
