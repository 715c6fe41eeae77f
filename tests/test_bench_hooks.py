"""The benchmark's traced run patches module attributes by name.

``perfbench/worker.py`` wraps functions such as ``cli.propagate_narrow`` and
``criteria.verdict_from_json`` and reads ``specseq.InfeasibleWitness``.  When
one of those attributes is renamed or dropped, this test fails, so the break
shows in the test suite and not in a traced benchmark run.
"""

import pathlib

from isofloer import cli, criteria, specseq

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
