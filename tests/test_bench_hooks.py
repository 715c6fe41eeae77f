"""The benchmark's traced run patches module attributes by name.

``perfbench/worker.py`` wraps functions such as ``cli.propagate_narrow`` and
``criteria.verdict_from_json`` and reads ``specseq.InfeasibleWitness``.  When
one of those attributes is renamed or dropped, this test fails, so the break
shows in the test suite and not in a traced benchmark run.
"""

import pathlib
from collections import Counter

from isofloer import cli, criteria, specseq
from isofloer.catalog import munzner_betti_N, validate_family
from isofloer.homology import BettiProfile

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_finds_every_attribute_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    originals = (cli.propagate_narrow, criteria.verdict_from_json, specseq.propagate_narrow)
    recorder = tracer.Tracer()
    try:
        worker.instrument(recorder)
        assert cli.propagate_narrow is not originals[0]
    finally:
        recorder.restore()
    assert (cli.propagate_narrow, criteria.verdict_from_json, specseq.propagate_narrow) == originals
    assert isinstance(specseq.InfeasibleWitness, type)


def test_building_a_profile_feeds_the_slot_counter(monkeypatch):
    # the constructor reaches __post_init__ through the class, where the tracer wraps it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    recorder = tracer.Tracer()
    try:
        worker.instrument(recorder)
        BettiProfile(4, {0: 1, 4: 1})
    finally:
        recorder.restore()
    assert recorder.counts["homology.slots_built"] == 5
    BettiProfile(4, {0: 1, 4: 1})
    assert recorder.counts["homology.slots_built"] == 5


def test_infeasible_witness_carries_the_traced_counters(monkeypatch):
    # the traced dense run adds these two counters up for every Infeasible verdict
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    verdict = specseq.oracle_narrow_feasible(munzner_betti_N(validate_family(4, 2, 2)), 4)
    assert verdict.kind == specseq.INFEASIBLE
    counts = Counter()
    worker._oracle_stats(counts, (), verdict)
    assert counts["specseq.oracle.completions_tried"] == 1
    assert counts["specseq.oracle.states_explored"] >= 1


def test_the_tracer_times_the_oracle_and_replay(monkeypatch, tmp_path):
    # the matcher loads on first use, behind names that cli binds at import:
    # the spans of those names must still be recorded
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    profile, envelope = tmp_path / "profile.json", tmp_path / "envelope.json"
    profile.write_text('{"n": 8, "known": [[0, 1], [2, 2], [4, 2], [6, 2], [8, 1]], "cap": 8}',
                       encoding="utf-8")
    recorder, runner = tracer.Tracer(), worker.Runner()
    try:
        worker.instrument(recorder)
        code, out = runner.call(["narrow-check", "--profile", str(profile), "--maslov", "4",
                                 "--oracle", "--format", "json"])
        assert code == 0
        envelope.write_text(out, encoding="utf-8")
        assert runner.call(["replay", str(envelope), "--format", "json"])[0] == 0
    finally:
        recorder.restore()
    calls = Counter(span[0] for span in recorder.spans)
    assert calls["specseq.oracle_narrow_feasible"] == 1
    assert calls["specseq.replay_witness"] == 2  # the propagator's verdict and the oracle's
