"""Unit tests for the displaceability criteria and the classifier cascade."""

import json
import math
from fractions import Fraction

import pytest

from isofloer import criteria
from isofloer.catalog import (
    data_to_json,
    enumerate_families,
    gauss_image_betti_g3,
    munzner_betti_N,
    validate_family,
)
from isofloer.criteria import (
    NON_DISPLACEABLE,
    STATUSES,
    UNRESOLVED,
    WIDE,
    classify,
    report_to_json,
    volume_lower_bound,
    wide_check_biran_cornea,
)
from isofloer.homology import BettiProfile, ProfileError, make_profile
from isofloer.specseq import (
    CONTRADICTION,
    MaslovTooSmallError,
    NO_CONTRADICTION,
    replay_witness,
    verdict_from_json,
)


class TestWideCheck:
    def test_g3_even_m_spheres_pass(self):
        for m in (2, 4, 8):
            family = validate_family(3, m, m)
            profile = gauss_image_betti_g3(family)
            assert wide_check_biran_cornea(profile, 2 * m)

    def test_g3_m1_fails(self):
        profile = gauss_image_betti_g3(validate_family(3, 1, 1))
        # degree 3 = n carries homology and is congruent to -1 mod 2
        assert not wide_check_biran_cornea(profile, 2)

    def test_g4_table_fails(self):
        profile = munzner_betti_N(validate_family(4, 1, 2))
        assert not wide_check_biran_cornea(profile, 3)

    def test_no_tested_degrees_means_wide(self):
        # maslov above n+1 leaves nothing to test
        profile = make_profile(2, [(0, 1), (1, 2), (2, 1)])
        assert wide_check_biran_cornea(profile, 5)

    def test_unknown_tested_degree_refused(self):
        profile = munzner_betti_N(validate_family(6, 2, 2))
        with pytest.raises(ProfileError):
            wide_check_biran_cornea(profile, 4)

    def test_maslov_threshold(self):
        profile = make_profile(2, [(0, 1)])
        with pytest.raises(MaslovTooSmallError):
            wide_check_biran_cornea(profile, 1)


def narrowness_verdict(g, m1, m2):
    return classify(validate_family(g, m1, m2)).justification[-1].verdict


class TestNarrownessCriterion:
    def test_g4_equal_multiplicities(self):
        v = narrowness_verdict(4, 2, 2)
        assert (v.kind, v.slot, v.bound) == (CONTRADICTION, 4, 2)

    def test_g6_m2(self):
        v = narrowness_verdict(6, 2, 2)
        assert (v.kind, v.slot, v.bound) == (CONTRADICTION, 6, 2)

    def test_g4_12_inconclusive(self):
        v = narrowness_verdict(4, 1, 2)
        assert v.kind == NO_CONTRADICTION


def test_classify_builds_one_table_per_family(monkeypatch):
    calls = []
    build = criteria.munzner_betti_N

    def counted(family):
        calls.append(family)
        return build(family)

    monkeypatch.setattr(criteria, "munzner_betti_N", counted)
    families = [f for f in enumerate_families(16) if f.g in (4, 6)]
    tabled = 0
    for f in families:
        calls.clear()
        report = classify(f)
        if report.justification[0].rule == "maslov-threshold":
            # no table is looked up below Maslov 3: (6, 1, 1) has none on record
            assert calls == [], f
        else:
            assert calls == [f], f
            tabled += 1
    assert tabled == len(families) - 2  # all but (4, 1, 1) and (6, 1, 1)


def half_sphere_volume_exact(n):
    """Rational-times-pi-power oracle via Vol(S^k) = 2*pi/(k-1) * Vol(S^(k-2))."""
    frac, power = Fraction(2), n % 2
    for k in range(2 + (n % 2), n + 1, 2):
        frac *= Fraction(2, k - 1)
        power += 1
    return frac / 2, power


class TestVolumeBound:
    def test_small_closed_forms(self):
        assert volume_lower_bound(1) == pytest.approx(math.pi, rel=1e-15)
        assert volume_lower_bound(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert volume_lower_bound(3) == pytest.approx(math.pi ** 2, rel=1e-15)
        assert volume_lower_bound(6) == pytest.approx(8 * math.pi ** 3 / 15, rel=1e-14)

    def test_matches_recurrence_oracle(self):
        for n in range(1, 31):
            frac, power = half_sphere_volume_exact(n)
            expected = float(frac) * math.pi ** power
            assert volume_lower_bound(n) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            volume_lower_bound(0)


def expected_unresolved(bound):
    out = {(3, 1, 1), (6, 1, 1)}
    out |= {(4, 1, k) for k in range(1, bound)}
    return out


class TestClassifier:
    def test_g1_g2_wide_by_citation(self):
        for g, m1, m2 in [(1, 1, 1), (1, 4, 4), (2, 1, 1), (2, 3, 5)]:
            report = classify(validate_family(g, m1, m2))
            assert report.status == WIDE
            assert report.justification[0].kind == "cited"
            assert report.volume_lower_bound is None

    def test_g3_even_m_wide_with_volume(self):
        for m in (2, 4, 8):
            family = validate_family(3, m, m)
            report = classify(family)
            assert report.status == WIDE
            assert report.justification[-1].rule == "wide-criterion"
            assert report.volume_lower_bound == pytest.approx(
                volume_lower_bound(family.n), rel=1e-15
            )

    def test_g3_m1_unresolved(self):
        report = classify(validate_family(3, 1, 1))
        assert report.status == UNRESOLVED
        assert report.justification[-1].rule == "wide-criterion"
        assert not report.intersects_real_form

    def test_g4_contradiction_cases(self):
        report = classify(validate_family(4, 2, 3))
        assert report.status == NON_DISPLACEABLE
        last = report.justification[-1]
        assert last.rule == "narrowness-contradiction"
        assert last.verdict is not None and last.verdict.kind == CONTRADICTION

    def test_g4_maslov_2_unresolved(self):
        report = classify(validate_family(4, 1, 1))
        assert report.status == UNRESOLVED
        assert report.justification[-1].rule == "maslov-threshold"

    def test_g6_m1_unresolved(self):
        report = classify(validate_family(6, 1, 1))
        assert report.status == UNRESOLVED
        assert report.justification[-1].rule == "maslov-threshold"

    def test_g6_m2_nondisplaceable(self):
        report = classify(validate_family(6, 2, 2))
        assert report.status == NON_DISPLACEABLE

    def test_real_form_flag_tracks_wide(self):
        for f in enumerate_families(10):
            report = classify(f)
            assert report.intersects_real_form == (report.status == WIDE)

    def test_cited_steps_match_the_catalog(self):
        # what the catalog cites for a family is what its report leans on
        for f in enumerate_families(16):
            cited = {fact["source"] for fact in data_to_json(f)["cited"]}
            used = {step.source for step in classify(f).justification if step.kind == "cited"}
            assert cited <= used, f
            if f.g <= 3:
                assert cited == used, f

    def test_volume_only_on_g3_wide(self):
        for f in enumerate_families(10):
            report = classify(f)
            if report.volume_lower_bound is not None:
                assert f.g == 3 and report.status == WIDE

    @pytest.mark.parametrize("bound", range(2, 9))
    def test_unresolved_set_is_exact(self, bound):
        got = {
            (f.g, f.m1, f.m2)
            for f in enumerate_families(bound)
            if classify(f).status == UNRESOLVED
        }
        assert got == expected_unresolved(bound)

    def test_every_family_lands_on_a_status(self):
        for f in enumerate_families(12):
            assert classify(f).status in STATUSES

    def test_nondisplaceable_witnesses_replay(self):
        for f in enumerate_families(8):
            report = classify(f)
            if report.status != NON_DISPLACEABLE:
                continue
            verdict = report.justification[-1].verdict
            table = munzner_betti_N(f)
            maslov = 2 * f.n // f.g
            nu = (f.n + 1) // maslov
            assert replay_witness(verdict, table, maslov, nu)


class TestReportJson:
    def test_reports_never_build_the_dense_dims(self, monkeypatch):
        # the claim and the verdict are written from the table's support
        families = [f for f in enumerate_families(64) if f.g == 4]
        expected = [report_to_json(classify(f)) for f in families]

        def refuse(profile):
            raise AssertionError("BettiProfile.dims was called")

        monkeypatch.setattr(BettiProfile, "dims", refuse)
        assert [report_to_json(classify(f)) for f in families] == expected

    @pytest.mark.parametrize(
        "g,m1,m2",
        [(1, 2, 2), (2, 1, 2), (3, 1, 1), (3, 2, 2), (4, 1, 1), (4, 1, 2), (4, 2, 2), (6, 1, 1), (6, 2, 2)],
    )
    def test_round_trip(self, g, m1, m2):
        # the embedded verdicts read back through the one verdict reader
        report = classify(validate_family(g, m1, m2))
        data = json.loads(json.dumps(report_to_json(report)))
        assert data == report_to_json(report)
        assert (data["status"], data["family"]["n"]) == (report.status, report.family.n)
        verdicts = [step["verdict"] for step in data["justification"]]
        assert [v and verdict_from_json(v) for v in verdicts] == [
            step.verdict for step in report.justification
        ]
