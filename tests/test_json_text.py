"""Each record writes the text that ``json.dumps(indent=2)`` writes for its
reference dict (``tests/json_reference.py``), and ``profile_to_json``,
``report_to_json`` and ``verdict_to_json`` give that dict."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

import json_reference as reference
from isofloer import catalog, profile_to_json, report_to_json, verdict_to_json
from isofloer.catalog import (
    CitedFact,
    data_text,
    enumerate_families,
    munzner_betti_N,
    validate_family,
)
from isofloer.criteria import CaseReport, JustificationStep, classify
from isofloer.homology import make_partial_profile, make_profile
from isofloer.specseq import (
    CONTRADICTION,
    FEASIBLE,
    INFEASIBLE,
    NO_CONTRADICTION,
    oracle_narrow_feasible,
    propagate_narrow,
)


def assert_written(write, expected: dict) -> None:
    """``write(indent)`` at the top level and as an item of a top-level list."""
    assert write("\n") == json.dumps(expected, indent=2)
    assert "[\n  " + write("\n  ") + "\n]" == json.dumps([expected], indent=2)


def assert_text(record, expected: dict) -> None:
    """The record's text at the top level and as an item of a top-level list."""
    assert_written(record.json_text, expected)


def test_every_family_and_catalog_record_at_bound_64():
    records = {}
    for family in enumerate_families(64):
        assert_text(family, reference.family_to_json(family))
        expected = records[family.g, family.m1, family.m2] = reference.data_to_json(family)
        assert_written(lambda indent: data_text(family, indent), expected)
    # a null table, a partial one, and the g = 3 betti_L, all among them
    assert records[6, 1, 1]["betti_N"] is None
    assert records[6, 2, 2]["betti_N"]["known"] == [[0, 1], [3, 0], [6, 2], [9, 0], [12, 1]]
    assert [key for key, record in records.items() if record["betti_L"]] == [
        (3, 1, 1), (3, 2, 2), (3, 4, 4), (3, 8, 8)]


def test_every_cited_fact():
    facts = [value for value in vars(catalog).values() if isinstance(value, CitedFact)]
    assert len(facts) == 2
    facts.append(CitedFact('a "quoted"\né ☃ \U0001f600 statement\\', "\u2028 \x00 source"))
    for fact in facts:
        assert_text(fact, reference.cited_to_json(fact))


@st.composite
def profiles(draw):
    """Fully known, capped or uncapped, a listed dim often 0."""
    n = draw(st.integers(0, 12))
    known = draw(st.dictionaries(st.integers(0, n), st.integers(0, 3), max_size=n + 1))
    shape = draw(st.sampled_from(["full", "capped", "uncapped"]))
    if shape == "full":
        return make_profile(n, known.items())
    cap = sum(known.values()) + draw(st.integers(0, 4)) if shape == "capped" else None
    return make_partial_profile(n, known.items(), cap)


@settings(max_examples=200, deadline=None)
@given(profiles())
@example(make_profile(0, []))
@example(make_profile(4, [(0, 1), (2, 0), (4, 1)]))
@example(make_partial_profile(4, [(0, 1), (2, 0), (4, 1)], cap=3))
@example(make_partial_profile(4, [(0, 1), (2, 0), (4, 1)], cap=2))  # room 0: fully known
@example(make_partial_profile(4, [(0, 1), (2, 0), (4, 1)]))
def test_every_profile_shape(profile):
    expected = reference.profile_to_json(profile)
    assert_text(profile, expected)
    assert profile_to_json(profile) == expected


def test_every_report_at_bound_64():
    verdicts = 0
    for family in enumerate_families(64):
        report = classify(family)
        expected = reference.report_to_json(report)
        assert_text(report, expected)
        assert report_to_json(report) == expected
        for step in report.justification:
            assert_text(step, reference.step_to_json(step))
            if step.verdict is not None:
                verdicts += 1
                assert_text(step.verdict, reference.verdict_to_json(step.verdict))
    assert verdicts > 500


G4_12 = munzner_betti_N(validate_family(4, 1, 2))  # Maslov 3
G4_22 = munzner_betti_N(validate_family(4, 2, 2))  # Maslov 4
OPEN = make_partial_profile(6, [(0, 1), (3, 2), (6, 1)])  # uncapped


@pytest.mark.parametrize(
    "verdict,kind",
    [
        (propagate_narrow(G4_22, 4, 8, 2), CONTRADICTION),
        # nu = 0: a listed slot is its own bound, with no page to walk
        (propagate_narrow(make_profile(2, [(0, 1)]), 3, 2, 0), CONTRADICTION),
        (propagate_narrow(G4_12, 3, 6, 2), NO_CONTRADICTION),
        # the open slots have no upper bound: null
        (propagate_narrow(OPEN, 3, 6, 2), NO_CONTRADICTION),
        (oracle_narrow_feasible(G4_12, 3), FEASIBLE),
        # a class paired with the pool
        (oracle_narrow_feasible(OPEN, 3), FEASIBLE),
        (oracle_narrow_feasible(G4_22, 4), INFEASIBLE),
        # the empty barrier
        (oracle_narrow_feasible(make_partial_profile(4, [(0, 1), (3, 1)], cap=3), 3),
         INFEASIBLE),
        # the pool, slot 7, is the barrier
        (oracle_narrow_feasible(make_partial_profile(6, [(0, 3), (6, 1)], cap=6), 3),
         INFEASIBLE),
    ],
    ids=["chain", "empty-chain", "final-page", "open-final-page", "pairs", "pool-pairs",
         "barrier", "empty-barrier", "pool-barrier"],
)
def test_every_witness_kind(verdict, kind):
    assert verdict.kind == kind
    expected = reference.verdict_to_json(verdict)
    assert_text(verdict, expected)
    assert_text(verdict.witness, expected["witness"])
    assert verdict_to_json(verdict) == expected


def test_the_cases_above_hold_their_edge():
    assert propagate_narrow(make_profile(2, [(0, 1)]), 3, 2, 0).witness.chain == ()
    assert (0, None) in propagate_narrow(OPEN, 3, 6, 2).witness.slots
    assert oracle_narrow_feasible(
        make_partial_profile(4, [(0, 1), (3, 1)], cap=3), 3).witness.barrier == ()
    assert oracle_narrow_feasible(
        make_partial_profile(6, [(0, 3), (6, 1)], cap=6), 3).witness.barrier == (7,)


@pytest.mark.parametrize("volume", [float("nan"), float("inf"), -0.0, 5e-324, None])
def test_strings_and_floats_are_written_as_json_writes_them(volume):
    step = JustificationStep("rule", "cited", 'a "quoted"\né ☃ \U0001f600 claim\\', None)
    report = CaseReport(validate_family(4, 2, 2), "Wide", (step,), volume)
    assert_text(report, reference.report_to_json(report))
