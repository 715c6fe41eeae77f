"""Acceptance gates for the full pipeline.

Nine criteria, one test each, run against the public APIs exactly as a
consumer would.  Each emits a single "acceptance k/9 ...: PASS|FAIL"
line (visible with -s, or in the failure report), and the -v listing
gives the same signal per test.
"""

import contextlib
import json
import math
import random
import time

import pytest

from isofloer import cli
from isofloer.catalog import (
    collapse_step,
    enumerate_families,
    gauss_image_betti_g3,
    minimal_maslov,
    munzner_betti_N,
    orientable,
    validate_family,
)
from isofloer.criteria import volume_lower_bound, wide_check_biran_cornea
from isofloer.homology import (
    BettiProfile,
    make_partial_profile,
    make_profile,
    profile_from_json,
    profile_to_json,
)
from isofloer.specseq import (
    CONTRADICTION,
    FEASIBLE,
    INFEASIBLE,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    verdict_from_json,
    verdict_to_json,
)

from page_model import RankVector, check_poincare, dims, step_page


@contextlib.contextmanager
def gate(label):
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


def test_a1_classification_table_matches_published_list(capsys):
    with gate("1/9 classification table up to bound 16"):
        start = time.perf_counter()
        code = cli.main(["classify-all", "--bound", "16", "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == len(enumerate_families(16))
        unresolved = {
            (r["family"]["g"], r["family"]["m1"], r["family"]["m2"])
            for r in reports
            if r["status"] == "Unresolved"
        }
        expected = {(3, 1, 1), (6, 1, 1)} | {(4, 1, k) for k in range(1, 16)}
        assert unresolved == expected
        for r in reports:
            assert r["status"] in ("Wide", "NonDisplaceable", "Unresolved")
        assert elapsed < 5.0, f"classify-all took {elapsed:.2f}s"


def test_a2_g4_grid_contradictions(capsys):
    with gate("2/9 g=4 contradictions at slot m1+m2 with bound 2"):
        start = time.perf_counter()
        for m1 in range(2, 9):
            for m2 in range(m1, 9):
                family = validate_family(4, m1, m2)
                v = propagate_narrow(
                    munzner_betti_N(family),
                    minimal_maslov(family),
                    family.n,
                    collapse_step(family),
                )
                assert v.kind == CONTRADICTION, (m1, m2)
                assert v.slot == m1 + m2, (m1, m2)
                assert v.bound == 2, (m1, m2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"g=4 grid took {elapsed:.2f}s"


def test_a3_g6_contradiction_from_partial_table(capsys):
    with gate("3/9 g=6 contradiction from five pinned degrees"):
        family = validate_family(6, 2, 2)
        table = munzner_betti_N(family)
        v = propagate_narrow(table, 4, 12, collapse_step(family))
        assert (v.kind, v.slot, v.bound, v.page) == (CONTRADICTION, 6, 2, 4)
        # the lower bound 2 survives onto pages 2, 3, and 4
        assert [c.lower_after for c in v.witness.chain] == [2, 2, 2]
        # and the derivation only ever consults the pinned degrees 3 and 9
        # (everything else it touches lies outside 0..12)
        for c in v.witness.chain:
            for side in (c.left, c.right):
                assert side in (3, 9) or not 0 <= side <= 12, c
        assert replay_witness(v, table, 4)


def test_a4_g3_wideness_split(capsys):
    with gate("4/9 g=3 wideness: even m passes, m=1 fails"):
        for m in (2, 4, 8):
            family = validate_family(3, m, m)
            profile = gauss_image_betti_g3(family)
            assert dims(profile)[0] == dims(profile)[family.n] == 1
            assert wide_check_biran_cornea(profile, minimal_maslov(family)), m
        family = validate_family(3, 1, 1)
        profile = gauss_image_betti_g3(family)
        assert not wide_check_biran_cornea(profile, minimal_maslov(family))


def test_a5_invariant_tables(capsys):
    with gate("5/9 Maslov, orientability, and collapse-step tables"):
        for f in enumerate_families(16):
            maslov = minimal_maslov(f)
            assert maslov * f.g == 2 * f.n, f
            assert orientable(f) == (maslov % 2 == 0), f
            if f.g < 3:
                continue
            nu = collapse_step(f)
            assert (nu == 1) == (f.g == 3 and f.m1 in (2, 4, 8)), f
            assert (nu == 2) == ((f.g == 3 and f.m1 == 1) or f.g == 4), f
            assert (nu == 3) == (f.g == 6), f


def test_a6_oracle_agrees_with_propagation(capsys):
    with gate("6/9 oracle soundness on all fully known small tables"):
        checked = 0
        for f in enumerate_families(16):
            if f.n > 16 or minimal_maslov(f) < 3:
                continue
            try:
                table = munzner_betti_N(f)
            except LookupError:
                continue
            if not table.fully_known:
                continue
            maslov, nu = minimal_maslov(f), collapse_step(f)
            p = propagate_narrow(table, maslov, f.n, nu)
            start = time.perf_counter()
            o = oracle_narrow_feasible(table, maslov)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, (f, elapsed)
            if p.kind == CONTRADICTION:
                assert o.kind == INFEASIBLE, f
            checked += 1
        assert checked >= 20

        family = validate_family(4, 1, 2)
        table = munzner_betti_N(family)
        v = oracle_narrow_feasible(table, 3)
        assert v.kind == FEASIBLE
        assert replay_witness(v, table, 3)


def test_a7_covering_table_sanity(capsys):
    with gate("7/9 covering homology: total 2g and Poincare symmetry"):
        for f in enumerate_families(16):
            if f.g == 6:
                continue
            table = munzner_betti_N(f)
            assert sum(dims(table)) == 2 * f.g, f
            assert check_poincare(table), f


def random_known_profile(rng, max_n=8, max_dim=4):
    n = rng.randint(0, max_n)
    return make_profile(n, [(s, rng.randint(0, max_dim)) for s in range(n + 1)])


def random_partial_profile(rng, max_n=8, max_dim=4):
    n = rng.randint(0, max_n)
    entries = [
        (s, rng.randint(0, max_dim)) for s in range(n + 1) if rng.random() < 0.6
    ]
    cap = None
    if rng.random() < 0.5:
        cap = sum(d for _, d in entries) + rng.randint(0, 5)
    return make_partial_profile(n, entries, cap)


def random_legal_ranks(rng, dims, shift):
    acc = []
    for s in range(len(dims)):
        cap = dims[s] - (acc[s - shift] if s - shift >= 0 else 0)
        cap = min(cap, dims[s + shift] if s + shift < len(dims) else 0)
        acc.append(rng.randint(0, max(cap, 0)))
    return RankVector(1, tuple(acc))


def test_a8_randomized_property_battery(capsys):
    with gate("8/9 randomized battery, 10^4 trials, zero violations"):
        rng = random.Random(20260819)
        trials = {
            "monotonicity": 0,
            "exactness": 0,
            "parity": 0,
            "padding": 0,
            "json": 0,
        }

        for _ in range(2500):
            page, maslov = dims(random_known_profile(rng)), rng.randint(3, 6)
            nxt = step_page(page, maslov, random_legal_ranks(rng, page, maslov - 1))
            assert all(b <= a for a, b in zip(page, nxt))
            trials["monotonicity"] += 1

        for _ in range(2500):
            page, maslov = dims(random_known_profile(rng)), rng.randint(3, 6)
            shift = maslov - 1
            nxt = step_page(page, maslov, random_legal_ranks(rng, page, shift))
            d = lambda s: page[s] if 0 <= s < len(page) else 0
            assert all(
                nxt[s] >= page[s] - d(s - shift) - d(s + shift)
                for s in range(len(page))
            )
            trials["exactness"] += 1

        for _ in range(2000):
            page, maslov = dims(random_known_profile(rng)), rng.choice((4, 6))
            alt = lambda page: sum(x if s % 2 == 0 else -x for s, x in enumerate(page))
            nxt = step_page(page, maslov, random_legal_ranks(rng, page, maslov - 1))
            assert alt(nxt) == alt(page)
            trials["parity"] += 1

        for _ in range(1500):
            profile = random_partial_profile(rng)
            maslov = rng.randint(3, 5)
            nu = (profile.n + 1) // maslov
            extra = rng.randint(1, 3)
            # the padded degrees are listed as exact zeros: unlisted ones would
            # be open in a partial profile
            zeros = dict.fromkeys(range(profile.n + 1, profile.n + extra + 1), 0)
            padded = BettiProfile(
                profile.n + extra, {**profile.known, **zeros}, profile.cap, profile.open_rest
            )
            a = propagate_narrow(profile, maslov, profile.n, nu)
            b = propagate_narrow(padded, maslov, profile.n, nu)
            assert (a.kind, a.slot, a.page, a.bound) == (b.kind, b.slot, b.page, b.bound)
            trials["padding"] += 1

        for _ in range(1500):
            profile = random_partial_profile(rng)
            assert profile_from_json(profile_to_json(profile)) == profile
            maslov = rng.randint(3, 5)
            v = propagate_narrow(profile, maslov, profile.n, (profile.n + 1) // maslov)
            assert verdict_from_json(verdict_to_json(v)) == v
            trials["json"] += 1

        assert sum(trials.values()) >= 10_000
        assert all(count > 0 for count in trials.values())


def test_a9_volume_bound_value_and_reporting(capsys):
    with gate("9/9 volume bound value and g=3 reporting"):
        exact = 8 * math.pi ** 3 / 15
        assert abs(volume_lower_bound(6) - exact) / exact < 1e-12

        code = cli.main(["classify-all", "--bound", "16", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        for r in json.loads(out):
            f = r["family"]
            if f["g"] == 3 and r["status"] == "Wide":
                assert r["volume_lower_bound"] == pytest.approx(
                    volume_lower_bound(f["n"]), rel=1e-15
                )
            else:
                assert r["volume_lower_bound"] is None
