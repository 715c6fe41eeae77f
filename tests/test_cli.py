"""CLI tests, run in-process through cli.main."""

import argparse
import contextlib
import copy
import ctypes
import errno
import gc
import hashlib
import io
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import json_reference
from isofloer import catalog, cli, pool
from isofloer.catalog import minimal_maslov, munzner_betti_N, validate_family
from isofloer.criteria import STATUSES
from isofloer.homology import MAX_TOP_DEGREE, profile_from_json, profile_to_json
from isofloer import specseq
from isofloer.specseq import (
    oracle_narrow_feasible,
    propagate_narrow,
    verdict_to_json,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wide_capped_recipe(extra: int, cap: int) -> dict:
    """n = 4096 with one class in slot 0, its partners 2, 5, ..., 4094 at Maslov 3
    pinned to 0, and ``extra`` classes of dim 1 in the first unlisted degrees."""
    known = [[0, 1]] + [[t, 0] for t in range(2, 4095, 3)]
    listed = {degree for degree, _ in known}
    known += [[d, 1] for d in range(4097) if d not in listed][:extra]
    return {"n": 4096, "known": known, "cap": cap}


def write_profile(tmp_path, name, family):
    path = tmp_path / name
    payload = profile_to_json(munzner_betti_N(family))
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestClassify:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["classify", "--g", "4", "--m1", "2", "--m2", "2"])
        assert code == 0
        assert "g=4 m1=2 m2=2 n=8: NonDisplaceable" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--g", "3", "--m1", "2", "--m2", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "Wide"
        assert report["family"] == {"g": 3, "m1": 2, "m2": 2, "n": 6}
        assert report["intersects_real_form"] is True
        assert report["volume_lower_bound"] == pytest.approx(16.536681, rel=1e-5)

    def test_verbose_prints_witness_chain(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--g", "4", "--m1", "2", "--m2", "2", "--verbose"]
        )
        assert code == 0
        assert out.splitlines() == [
            "g=4 m1=2 m2=2 n=8: NonDisplaceable",
            "  [cited] Z2 Betti numbers of the covering N^8: dims [1, 0, 2, 0, 2, 0, 2, 0, 1]  "
            "(Muenzner: Z2 homology of isoparametric hypersurfaces)",
            "  [computed] a vanishing lifted Floer homology would force dimension >= 2 in slot 4 "
            "of the final page; contradiction, so the lifted Floer homology is nonzero  "
            "(lifted Floer spectral sequence of the covering N -> L)",
            "      Contradiction at slot 4 (final page 3, forced lower bound 2)",
            "      page 1: slot bound 2 -> 2 (neighbours 1 hi=0, 7 hi=0)",
            "      page 2: slot bound 2 -> 2 (neighbours -3 hi=0, 11 hi=0)",
        ]

    def test_verbose_prints_the_final_page_kind(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--g", "4", "--m1", "1", "--m2", "2", "--verbose"]
        )
        assert code == 0
        assert out.splitlines() == [
            "g=4 m1=1 m2=2 n=6: Unresolved",
            "  [cited] Z2 Betti numbers of the covering N^6: dims [1, 1, 1, 2, 1, 1, 1]  "
            "(Muenzner: Z2 homology of isoparametric hypersurfaces)",
            "  [computed] interval propagation derives no contradiction from a vanishing "
            "lifted Floer homology  (lifted Floer spectral sequence of the covering N -> L)",
            "      NoContradiction",
        ]

    # the text of one family of each route, and the lines --verbose adds after it
    TEXT = {
        (1, 1, 1): ([
            "g=1 m1=1 m2=1 n=1: Wide",
            "  [cited] the Gauss image is a real form of the complex hyperquadric, and real "
            "forms are wide  (Oh: Floer cohomology of real forms in Hermitian symmetric spaces)",
            "  intersects the real form: yes",
        ], []),
        (3, 2, 2): ([
            "g=3 m1=2 m2=2 n=6: Wide",
            "  [computed] the Gauss image is a Z2-homology 6-sphere: the transfer of the "
            "degree-3 covering kills all degrees outside {0, m, 2m, 3m} and chi(L) = chi(N)/3 "
            "= 2 forces the middle slots to zero  (covering-space transfer and Euler "
            "characteristic)",
            "  [computed] no Z2 homology in degrees congruent to -1 mod 4, so the Floer "
            "homology is H(L; Z2) (x) Lambda  (Biran-Cornea wideness criterion)",
            "  intersects the real form: yes",
            "  sweep-volume lower bound: 16.536681",
        ], []),
        (4, 2, 3): ([
            "g=4 m1=2 m2=3 n=10: NonDisplaceable",
            "  [cited] Z2 Betti numbers of the covering N^10: dims [1, 0, 1, 1, 0, 2, 0, 1, 1, "
            "0, 1]  (Muenzner: Z2 homology of isoparametric hypersurfaces)",
            "  [computed] a vanishing lifted Floer homology would force dimension >= 2 in slot 5 "
            "of the final page; contradiction, so the lifted Floer homology is nonzero  "
            "(lifted Floer spectral sequence of the covering N -> L)",
        ], [
            "      Contradiction at slot 5 (final page 3, forced lower bound 2)",
            "      page 1: slot bound 2 -> 2 (neighbours 1 hi=0, 9 hi=0)",
            "      page 2: slot bound 2 -> 2 (neighbours -4 hi=0, 14 hi=0)",
        ]),
        (4, 1, 2): ([
            "g=4 m1=1 m2=2 n=6: Unresolved",
            "  [cited] Z2 Betti numbers of the covering N^6: dims [1, 1, 1, 2, 1, 1, 1]  "
            "(Muenzner: Z2 homology of isoparametric hypersurfaces)",
            "  [computed] interval propagation derives no contradiction from a vanishing "
            "lifted Floer homology  (lifted Floer spectral sequence of the covering N -> L)",
        ], ["      NoContradiction"]),
        (6, 1, 1): ([
            "g=6 m1=1 m2=1 n=6: Unresolved",
            "  [computed] minimal Maslov number 2 is below the threshold 3 of the lifted theory "
            "and no wideness route applies  (minimal Maslov number 2n/g of the Gauss image)",
        ], []),
    }

    @pytest.mark.parametrize("verbose", [False, True], ids=["plain", "verbose"])
    @pytest.mark.parametrize("family", list(TEXT), ids=lambda f: "g{}-{}-{}".format(*f))
    def test_text_is_pinned(self, capsys, family, verbose):
        # the real-form and sweep-volume lines print only for a Wide report
        argv = ["classify", *(f"--{k}={v}" for k, v in zip(("g", "m1", "m2"), family))]
        code, out, err = run(capsys, argv + ["--verbose"] * verbose)
        lines, witness = self.TEXT[family]
        assert (code, err) == (0, "")
        assert out == "\n".join(lines + witness * verbose) + "\n"

    def test_family_wider_than_the_profile_limit_exits_1(self, capsys):
        # g = 4 tables list every degree up to n = 2(m1 + m2)
        start = time.perf_counter()
        code, out, err = run(capsys, ["classify", "--g", "4", "--m1", "1", "--m2", "1000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: top degree must be in [0, {MAX_TOP_DEGREE}], got 2000002\n"
        code, out, _ = run(capsys, ["classify", "--g", "4", "--m1", "1", "--m2", "2047"])
        assert code == 0
        assert out.startswith(f"g=4 m1=1 m2=2047 n={MAX_TOP_DEGREE}: ")


class TestClassifyAll:
    def test_bound_2_table(self, capsys):
        code, out, _ = run(capsys, ["classify-all", "--bound", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split() for line in lines[1:-1]]
        assert [(r[0], r[2], r[3], r[4]) for r in rows] == [
            ("1", "1", "1", "Wide"),
            ("2", "1", "1", "Wide"),
            ("3", "1", "1", "Unresolved"),
            ("4", "1", "1", "Unresolved"),
            ("6", "1", "1", "Unresolved"),
        ]
        assert [" ".join(r[5:]) for r in rows] == [
            "real-form",
            "real-form",
            "gauss-image-homology -> wide-criterion",
            "maslov-threshold",
            "maslov-threshold",
        ]
        assert lines[-1] == "unresolved: (3,1,1), (4,1,1), (6,1,1)"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["classify-all", "--bound", "4", "--format", "json"])
        assert code == 0
        reports = json.loads(out)
        assert len(reports) > 0
        for report in reports:
            assert set(report) == {
                "family", "status", "justification", "intersects_real_form", "volume_lower_bound",
            }
            assert report["status"] in STATUSES
            assert len(report["justification"]) >= 1

    def test_bound_below_2_exits_1(self, capsys):
        code, _, err = run(capsys, ["classify-all", "--bound", "1"])
        assert code == 1
        assert "bound" in err

    def test_catalog_bound_below_2_exits_1(self, capsys):
        code, out, err = run(capsys, ["catalog", "--bound", "1"])
        assert (code, out) == (1, "")  # refused before the header
        assert "bound" in err

    @pytest.mark.parametrize("command", ["classify-all", "catalog"])
    def test_huge_bound_exits_1_before_building_families(self, capsys, command):
        # without the limit both commands build ~2*10^8 families before
        # printing, and under a memory limit end in a MemoryError traceback
        code, out, err = run(capsys, [command, "--bound", "20000"])
        assert (code, out) == (1, "")
        assert err.startswith("error: bound must be <= 2048") and err.count("\n") == 1

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["classify-all", "--bound", "10", "--format", "json"])
        _, second, _ = run(capsys, ["classify-all", "--bound", "10", "--format", "json"])
        assert first == second


class TestNarrowCheck:
    def test_contradiction_text(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_22.json", validate_family(4, 2, 2))
        code, out, _ = run(capsys, ["narrow-check", "--profile", path, "--maslov", "4"])
        assert code == 0
        assert out == "propagation: Contradiction at slot 4 (final page 3, forced lower bound 2)\n"
        code, verbose, _ = run(
            capsys, ["narrow-check", "--profile", path, "--maslov", "4", "--verbose"]
        )
        assert code == 0
        assert verbose.splitlines() == [
            out.rstrip("\n"),
            "  page 1: slot bound 2 -> 2 (neighbours 1 hi=0, 7 hi=0)",
            "  page 2: slot bound 2 -> 2 (neighbours -3 hi=0, 11 hi=0)",
        ]

    def test_wide_contradiction_text_is_the_headline(self, capsys, tmp_path):
        # the chain has one step per page, 1365 of them; text prints it only
        # under --verbose, JSON always carries it
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(wide_capped_recipe(0, 3)), encoding="utf-8")
        argv = ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle"]
        assert run(capsys, argv) == (0, (
            "propagation: Contradiction at slot 0 (final page 1366, forced lower bound 1)\n"
            "oracle: Infeasible\n"
        ), "")
        code, out, _ = run(capsys, argv + ["--verbose"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 1365 + 2

    def test_json_envelope(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_22.json", validate_family(4, 2, 2))
        code, out, _ = run(
            capsys, ["narrow-check", "--profile", path, "--maslov", "4", "--format", "json"]
        )
        assert code == 0
        envelope = json.loads(out)
        # replay derives n and nu = floor((8+1)/4) from the profile and Maslov number
        assert set(envelope) == {"profile", "maslov", "verdict", "oracle"}
        assert envelope["verdict"]["kind"] == "Contradiction"
        assert envelope["verdict"]["slot"] == 4
        assert envelope["oracle"] is None

    def test_oracle_flag(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_12.json", validate_family(4, 1, 2))
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", path, "--maslov", "3", "--oracle", "--format", "json"],
        )
        assert code == 0
        envelope = json.loads(out)
        assert envelope["verdict"]["kind"] == "NoContradiction"
        assert envelope["oracle"]["kind"] == "Feasible"

    def test_oracle_refusal_still_exits_0(self, capsys, tmp_path):
        # one class past the limit, and 600 classes whose open partner slot 2
        # would need a pool of 600
        path = tmp_path / "big.json"
        for known, reason in [([[0, 501], [2, 500]], "1001 exact classes,"),
                              ([[0, 600]], "600 exact classes and a pool of 600,")]:
            path.write_text(json.dumps({"n": 2, "known": known, "cap": None}), encoding="utf-8")
            code, out, _ = run(
                capsys, ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle"]
            )
            assert code == 0
            assert out.splitlines()[-1] == (
                f"oracle skipped: {reason} above the matching's limit of 1000")

    def test_uncapped_catalog_table_is_decided(self, capsys, tmp_path):
        # the (6, 2, 2) table lists degrees 0, 3, 6, 9, 12 and leaves the rest
        # open with no cap; slot 6's two classes have no partner
        path = write_profile(tmp_path, "g6.json", validate_family(6, 2, 2))
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", path, "--maslov", "4", "--oracle", "--format", "json"],
        )
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert (oracle["kind"], oracle["witness"]["barrier"]) == ("Infeasible", [])
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    @pytest.mark.parametrize(
        "profile,maslov",
        [
            ({"n": 4, "known": [[0, 1], [3, 1]], "cap": 3}, 3),
            ({"n": 12, "known": [[0, 1], [3, 0], [6, 2], [9, 0], [12, 1]], "cap": 8}, 4),
        ],
    )
    def test_oracle_stays_within_the_cap(self, capsys, tmp_path, profile, maslov):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", str(path), "--maslov", str(maslov), "--oracle",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Infeasible"
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)])[0] == 0

    def test_wide_open_capped_profile_takes_one_barrier(self, capsys, tmp_path):
        # 3^16 tuples in the product of the slot ranges, 153 of them within the
        # cap, and one matching: slot 8's 3 classes need 3 open ones, the pool
        # (slot 17) holds the 2 that the cap leaves
        path = tmp_path / "wide_open.json"
        path.write_text(json.dumps({"n": 16, "known": [[8, 3]], "cap": 5}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle",
             "--format", "json"],
        )
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["kind"] == "Infeasible"
        assert oracle["witness"] == {"type": "tutte-barrier", "barrier": [17]}
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    @pytest.mark.parametrize("extra,cap", [(0, 3), (900, 904), (0, None), (0, 10**9)],
                             ids=["one-class", "900-more-classes", "one-class-uncapped",
                                  "one-class-huge-cap"])
    def test_oracle_time_is_bounded_on_a_wide_capped_profile(self, capsys, tmp_path, extra,
                                                               cap):
        # slot 0's one class has no exact partner and no open one, so no
        # completion pairs off, whatever the cap; enumerating the completions
        # within the cap took half a minute on the first profile, hours on
        # the second
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(wide_capped_recipe(extra, cap)), encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Infeasible"
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n", [511, 512, 1500, MAX_TOP_DEGREE])
    def test_wide_zero_cap_profile_is_decided(self, capsys, tmp_path, n):
        # the decider has no limit on the number of slots, and its witness
        # lists no pairs
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": n, "known": [], "cap": 0}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle",
             "--format", "json"],
        )
        assert code == 0
        assert len(out) < 1_000_000
        oracle = json.loads(out)["oracle"]
        assert (oracle["kind"], oracle["witness"]["pairs"]) == ("Feasible", [])
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    def test_verbose_oracle_lists_the_cancellations(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"n": 5, "known": [[0, 2], [2, 2], [3, 1], [5, 1]],
                                    "cap": 6}), encoding="utf-8")
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3",
                                    "--oracle", "--verbose"])
        assert code == 0
        assert out.splitlines() == [
            "propagation: NoContradiction",
            "oracle: Feasible: a legal rank assignment reaches the zero page",
            "  page 1: 2 classes of slot 0 cancel slot 2",
            "  page 1: 1 class of slot 3 cancels slot 5",
        ]

    @pytest.mark.parametrize("profile,barrier", [
        ({"n": 4, "known": [[0, 1], [3, 1]], "cap": 3},
         "empty (with no slot removed, a class is left unpaired)"),
        ({"n": 16, "known": [[8, 3]], "cap": 5}, "pool"),
        ({"n": 4, "known": [[0, 1], [1, 0], [2, 1], [3, 0], [4, 1]], "cap": None}, "slot 2"),
    ], ids=["empty", "pool", "slot"])
    def test_verbose_oracle_names_the_barrier(self, capsys, tmp_path, profile, barrier):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        argv = ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle"]
        code, out, _ = run(capsys, argv + ["--verbose"])
        assert code == 0
        tail = "" if barrier.startswith("empty") else (
            " (more parts are odd without the barrier than it holds classes)")
        assert out.splitlines() == ["propagation: NoContradiction", "oracle: Infeasible",
                                    f"  barrier: {barrier}{tail}"]
        assert run(capsys, argv)[1].splitlines() == ["propagation: NoContradiction",
                                                     "oracle: Infeasible"]

    def test_feasible_pool_envelope_round_trip(self, capsys, tmp_path):
        # slot 0's one class is matched into the pool: the pair (0, 1, 1) with
        # its first open partner, slot 2
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({"n": 4, "known": [[0, 1]], "cap": 5}), encoding="utf-8")
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3",
                                    "--oracle", "--format", "json"])
        assert code == 0
        envelope = json.loads(out)
        assert "n" not in envelope and "nu" not in envelope
        assert envelope["oracle"]["kind"] == "Feasible"
        assert envelope["oracle"]["witness"] == {"type": "cancellation-pairs", "pairs": [[0, 1, 1]]}
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    def test_wide_oversized_profile_is_skipped_at_once(self, capsys, tmp_path):
        # 4097 classes, one per slot: refused on its total before any graph is built
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"n": 4096, "known": [[s, 1] for s in range(4097)],
                                    "cap": None}), encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3",
                                    "--oracle"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[-1] == (
            "oracle skipped: 4097 exact classes, above the matching's limit of 1000")

    def test_oracle_limits_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"n": 2, "known": [[0, 1_000_000], [1, 0], [2, 1_000_000]], "cap": None}),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle"]
        )
        assert code == 0
        assert "oracle skipped: 2000000 exact classes," in out

    @pytest.mark.parametrize("command", ["narrow-check", "wide-check"])
    def test_top_degree_above_the_limit_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "too_wide.json"
        path.write_text(
            json.dumps({"n": MAX_TOP_DEGREE + 1, "known": [[0, 1]], "cap": None}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, [command, "--profile", str(path), "--maslov", "3"])
        assert code == 2
        assert out == ""
        assert "top degree" in err

    def test_top_degree_at_the_limit_is_read(self, capsys, tmp_path):
        path = tmp_path / "widest.json"
        path.write_text(
            json.dumps({"n": MAX_TOP_DEGREE, "known": [[0, 1]], "cap": None}), encoding="utf-8"
        )
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3"])
        assert code == 0
        assert out.startswith("propagation: ")

    def test_low_maslov_exits_1(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_22.json", validate_family(4, 2, 2))
        code, _, err = run(capsys, ["narrow-check", "--profile", path, "--maslov", "2"])
        assert code == 1
        assert "Maslov" in err

    def test_wrong_schema_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"degrees": [1, 2]}), encoding="utf-8")
        code, _, err = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "4"])
        assert code == 2

    def test_non_integer_entries_exit_2(self, capsys, tmp_path):
        # int() coercion would read this as [[1, 2], [2, 1]] and exit 0
        path = tmp_path / "coerced.json"
        path.write_text(
            json.dumps({"n": 3, "known": [[1.7, 2], ["2", True]], "cap": None}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "4"])
        assert code == 2
        assert out == ""
        assert "integer" in err


class TestWideCheck:
    def test_sphere_profile_is_wide(self, capsys, tmp_path):
        path = tmp_path / "sphere.json"
        path.write_text(
            json.dumps({"n": 6, "known": [[0, 1], [6, 1]], "cap": 2}), encoding="utf-8"
        )
        code, out, _ = run(
            capsys, ["wide-check", "--profile", str(path), "--maslov", "4", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"wide": True, "maslov": 4, "tested_degrees": [3]}

    def test_obstructed_profile_is_not_wide(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_12.json", validate_family(4, 1, 2))
        code, out, _ = run(capsys, ["wide-check", "--profile", path, "--maslov", "3"])
        assert code == 0
        assert "wide: no" in out

    def test_unknown_tested_degree_exits_1(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g6.json", validate_family(6, 2, 2))
        code, _, err = run(capsys, ["wide-check", "--profile", path, "--maslov", "4"])
        assert code == 1
        assert "unknown" in err


class TestReplay:
    def make_witness(self, capsys, tmp_path, family, maslov, extra=()):
        path = write_profile(tmp_path, "profile.json", family)
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", path, "--maslov", str(maslov), "--format", "json",
             *extra],
        )
        assert code == 0
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        return witness

    def test_stored_contradiction_replays(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        code, out, _ = run(capsys, ["replay", str(witness)])
        assert code == 0
        assert "ok" in out

    def test_stored_oracle_witness_replays(self, capsys, tmp_path):
        witness = self.make_witness(
            capsys, tmp_path, validate_family(4, 1, 2), 3, extra=["--oracle"]
        )
        code, out, _ = run(capsys, ["replay", str(witness), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"replayed": True, "verdicts": 2}

    @pytest.mark.parametrize("barrier", [[], [0, 2]], ids=["slot-dropped", "slot-added"])
    def test_edited_barrier_exits_1(self, capsys, tmp_path, barrier):
        profile = {"n": 2, "known": [[0, 3], [1, 0], [2, 1]], "cap": None}
        payload = envelope(profile, 3, oracle_json(profile, 3))
        assert payload["oracle"]["witness"] == {"type": "tutte-barrier", "barrier": [2]}
        payload["oracle"]["witness"]["barrier"] = barrier
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (1, "witness replay: MISMATCH\n", "")

    def test_forged_unbounded_infeasible_exits_1(self, capsys, tmp_path):
        # a true Infeasible verdict for the capped profile, replayed with the cap
        # dropped: the uncapped pool serves slots 0 and 3, so the barrier fails
        payload = envelope(CAPPED | {"cap": None}, 3, oracle_json(CAPPED, 3))
        assert payload["oracle"]["witness"]["barrier"] == []
        assert oracle_json(CAPPED | {"cap": None}, 3)["kind"] == "Feasible"
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (1, "witness replay: MISMATCH\n", "")

    def test_forged_barriers_fail_at_the_first(self, capsys, tmp_path):
        # an Infeasible witness holds one barrier, a list of slots; a list of
        # 10,000 barriers is refused at its first entry
        profile = {"n": 4096, "known": [], "cap": 1000}
        payload = envelope(profile, 3)
        assert payload["verdict"]["kind"] == "NoContradiction"
        payload["oracle"] = {
            "kind": "Infeasible", "slot": None, "page": 4097 // 3 + 1, "bound": None,
            "witness": {"type": "tutte-barrier", "barrier": [[]] * 10_000},
        }
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, ["replay", str(witness)])
        assert (code, out) == (2, "")
        assert "must be an integer" in err
        assert time.perf_counter() - start < 1.0

    def test_stale_envelope_keys_are_ignored(self, capsys, tmp_path):
        # the fields that older files carried and replay derives: n, nu and a
        # Feasible witness's completion, here all wrong
        profile = {"n": 5, "known": [[0, 2], [2, 2], [3, 1], [5, 1]], "cap": 6}
        payload = envelope(profile, 3, oracle_json(profile, 3))
        assert set(payload["oracle"]["witness"]) == {"type", "pairs"}
        payload.update(n=999, nu="3")
        payload["oracle"]["witness"]["completion"] = [9] * 6
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    @pytest.mark.parametrize(
        "pairs",
        [
            [[0, 1, 3], [3, 1, 1]],
            [[0, 1, 1], [3, 1, 1]],
            [[0, 0, 2], [3, 1, 1]],
            [[0, 1, 2], [3, 3, 1]],
            [[0, 1, 2], [4, 1, 1]],
            [[0, 1, 1], [0, 1, 1], [3, 1, 1]],
            [[3, 1, 1], [0, 1, 2]],
            [[0, 1, 2]],
        ],
        ids=["count-plus-1", "count-minus-1", "page-0", "page-nu-plus-1", "partner-past-n",
             "duplicated", "unsorted", "pair-dropped"],
    )
    def test_edited_pairs_exit_1(self, capsys, tmp_path, pairs):
        profile = {"n": 5, "known": [[0, 2], [2, 2], [3, 1], [5, 1]], "cap": 6}
        payload = envelope(profile, 3, oracle_json(profile, 3))
        assert payload["oracle"]["witness"]["pairs"] == [[0, 1, 2], [3, 1, 1]]
        payload["oracle"]["witness"]["pairs"] = pairs
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (1, "witness replay: MISMATCH\n", "")

    def test_fifteen_slot_infeasible_replays_without_the_decider(self, capsys, tmp_path,
                                                                 monkeypatch):
        dims = (1, 2, 2, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 2, 1)  # odd total
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"n": 14, "known": list(enumerate(dims)), "cap": None}),
                        encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3",
                                    "--oracle", "--format", "json"])
        decided_s = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Infeasible"
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")

        def refuse(*args):
            raise AssertionError("replay ran the decider")

        monkeypatch.setattr(specseq, "oracle_narrow_feasible", refuse)
        monkeypatch.setattr(cli, "oracle_narrow_feasible", refuse)
        start = time.perf_counter()
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")
        assert decided_s < 1.0 and time.perf_counter() - start < 1.0

    def test_tampered_witness_exits_1(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload["verdict"]["witness"]["bound"] = 7
        payload["verdict"]["bound"] = 7
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, ["replay", str(witness)])
        assert code == 1
        assert "MISMATCH" in out

    def test_forged_headline_exits_2(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload["verdict"].update(slot=0, bound=99, page=42)
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["replay", str(witness)])
        assert code == 2
        assert out == ""
        assert "headline" in err

    @pytest.mark.parametrize("key", ["verdict", "oracle"])
    def test_null_final_page_is_malformed(self, capsys, tmp_path, key):
        # every verdict names its final page, so null is a malformed file, not a mismatch
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4,
                                    extra=["--oracle"])
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload[key]["page"] = None
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["replay", str(witness)])
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed witness file: ") and err.count("\n") == 1

    def test_wrong_final_page_exits_1(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload["verdict"]["page"] = 42
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, ["replay", str(witness)])
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize(
        "field,value,exit_code,message",
        [
            ("maslov", 2, 1, "Maslov"),
            ("maslov", 4.0, 2, "maslov"),
        ],
    )
    def test_envelope_fields_are_checked(self, capsys, tmp_path, field, value, exit_code,
                                         message):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 1, 2), 3)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload[field] = value
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["replay", str(witness)])
        assert code == exit_code
        assert out == ""
        assert message in err

    def test_top_degree_above_the_limit_exits_2(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        payload["profile"]["n"] = MAX_TOP_DEGREE + 1
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, ["replay", str(witness)])
        assert code == 2
        assert "top degree" in err

    def test_structurally_broken_witness_exits_2(self, capsys, tmp_path):
        witness = self.make_witness(capsys, tmp_path, validate_family(4, 2, 2), 4)
        payload = json.loads(witness.read_text(encoding="utf-8"))
        del payload["verdict"]["witness"]["chain"]
        witness.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, ["replay", str(witness)])
        assert code == 2
        assert "malformed" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["replay", "/no/such/witness.json"])
        assert code == 2


class TestCatalog:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--bound", "2"])
        assert code == 0
        assert len(out.strip().splitlines()) == 6  # header + 5 families

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--bound", "2", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        by_family = {tuple(r["family"][k] for k in ("g", "m1", "m2")): r for r in records}
        assert by_family[(6, 1, 1)]["betti_N"] is None
        assert by_family[(4, 1, 1)]["betti_N"]["known"] == [[0, 1], [1, 2], [2, 2], [3, 2], [4, 1]]
        assert by_family[(3, 1, 1)]["betti_L"]["known"] == [[0, 1], [1, 0], [2, 0], [3, 1]]

    def test_json_builds_one_table_per_family(self, capsys, monkeypatch):
        # the g = 3 records read chi(N) off Muenzner's degrees, not a second table
        calls = []
        build = catalog.munzner_betti_N
        monkeypatch.setattr(catalog, "munzner_betti_N", lambda f: calls.append(f) or build(f))
        code, out, _ = run(capsys, ["catalog", "--bound", "16", "--format", "json"])
        assert code == 0
        assert len(calls) == len(json.loads(out)) == 142


class TestDispatch:
    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "classify-all" in out

    def test_no_arguments_exits_1(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert run(capsys, ["classify", "--g", "4", "--m1", "1", "--m2", "1", "--frob"])[0] == 1

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        sequence = [
            ["classify", "--g", "4", "--m1", "2", "--m2", "2", "--verbose"],
            ["classify", "--g", "4", "--m1", "2", "--m2", "2"],
            ["classify-all", "--bound", "6", "--format", "json"],
            ["classify-all", "--bound", "6"],
            ["classify", "--g", "4", "--m1", "2"],
            ["classify", "--help"],
            ["frobnicate"],
        ]

        def with_a_fresh_parser(argv):
            cli.build_parser.cache_clear()
            return run(capsys, argv)

        expected = [with_a_fresh_parser(argv) for argv in sequence]
        assert [code for code, _, _ in expected] == [0, 0, 0, 0, 1, 0, 1]
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.__wrapped__()
        one_build = len(built)
        built.clear()
        cli.build_parser.cache_clear()
        try:
            assert [run(capsys, argv) for argv in sequence] == expected
        finally:
            cli.build_parser.cache_clear()
        assert len(built) == one_build > 0

    def test_a_command_argv_makes_one_argparse_pass(self, capsys, tmp_path, monkeypatch):
        profile = write_profile(tmp_path, "g4.json", validate_family(4, 2, 2))
        narrow = ["narrow-check", "--profile", profile, "--maslov", "4", "--oracle"]
        code, witness, _ = run(capsys, [*narrow, "--format", "json"])
        assert code == 0
        (tmp_path / "witness.json").write_text(witness, encoding="utf-8")
        passes, parse = [], argparse.ArgumentParser.parse_known_args

        def counting_parse(self, *args, **kwargs):
            passes.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
        classify = ["classify", "--g", "4", "--m1", "2", "--m2", "2"]
        # on Python 3.11 argparse refuses "--" as a command name, at the top level
        for argv, exit_code, prog in [
            (classify, 0, "isofloer classify"),
            (narrow, 0, "isofloer narrow-check"),
            (["replay", str(tmp_path / "witness.json")], 0, "isofloer replay"),
            ([], 1, "isofloer"),
            (["--help"], 0, "isofloer"),
            (["frobnicate"], 1, "isofloer"),
            (["--", *classify], 1, "isofloer"),
        ]:
            passes.clear()
            assert run(capsys, argv)[0] == exit_code, argv
            assert passes == [prog], argv

    @pytest.mark.parametrize("argv", [
        ["classify", "--g", "4", "--m1", "2", "--m2", "2", "--format", "json", "--verbose"],
        ["classify", "--g", "4", "--m1", "2", "--m2", "2"],
        ["classify", "--g=4", "--m1=2", "--m2=2", "--format=json"],
        ["classify", "--g", "-4", "--m1", "-2", "--m2", "-1"],
        ["classify-all", "--bound", "8", "--format", "json"],
        ["classify-all"],
        ["classify-all", "--bound=8", "--format=text"],
        ["classify-all", "--bound", "-8"],
        ["narrow-check", "--profile", "p.json", "--maslov", "4", "--oracle", "--format", "json",
         "--verbose"],
        ["narrow-check", "--profile", "p.json", "--maslov", "4"],
        ["narrow-check", "--profile=p.json", "--maslov=4", "--format=json"],
        ["narrow-check", "--profile", "p.json", "--maslov", "-3"],
        ["wide-check", "--profile", "p.json", "--maslov", "4", "--format", "json"],
        ["wide-check", "--profile", "p.json", "--maslov", "4"],
        ["wide-check", "--profile=p.json", "--maslov=4", "--format=json"],
        ["wide-check", "--profile", "p.json", "--maslov", "-3"],
        ["replay", "w.json", "--format", "json"],
        ["replay", "w.json"],
        ["replay", "w.json", "--format=json"],
        ["catalog", "--bound", "8", "--format", "json"],
        ["catalog"],
        ["catalog", "--bound=8", "--format=text"],
        ["catalog", "--bound", "-8"],
    ])
    def test_each_command_parses_the_same_namespace(self, argv):
        parser = cli.build_parser()
        full = vars(parser.parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(parser.commands[argv[0]].parse_args(argv[1:])) == full

    @pytest.mark.parametrize("argv, extra", [
        (["classify", "--g", "4", "--m1", "1", "--m2", "1", "extra"], "extra"),
        (["classify-all", "--bound", "4", "--verbose"], "--verbose"),
    ])
    def test_an_unrecognized_argument_is_worded_by_its_command(self, capsys, argv, extra):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: isofloer {argv[0]} ")
        assert lines[-1] == f"isofloer {argv[0]}: error: unrecognized arguments: {extra}"


# --- the failure policy -------------------------------------------------------

G4_22_PROFILE = profile_to_json(munzner_betti_N(validate_family(4, 2, 2)))  # Maslov 4
G6_PROFILE = profile_to_json(munzner_betti_N(validate_family(6, 2, 2)))  # unknown degrees
CAPPED = {"n": 4, "known": [[0, 1], [3, 1]], "cap": 3}


def envelope(profile: dict, maslov: int, oracle: dict | None = None) -> dict:
    """A ``narrow-check --format json`` envelope with a true propagator verdict."""
    parsed = profile_from_json(profile)
    nu = (parsed.n + 1) // maslov
    return {
        "profile": profile, "maslov": maslov,
        "verdict": verdict_to_json(propagate_narrow(parsed, maslov, parsed.n, nu)),
        "oracle": oracle,
    }


def oracle_json(profile: dict, maslov: int) -> dict:
    parsed = profile_from_json(profile)
    return verdict_to_json(oracle_narrow_feasible(parsed, maslov))


def edited(payload, path: tuple, value):
    """A deep copy of ``payload`` with ``value`` at the key path ``path``."""
    payload = copy.deepcopy(payload)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def forged_headline() -> dict:
    payload = envelope(G4_22_PROFILE, 4)
    payload["verdict"].update(slot=0, bound=99)
    return payload


# a counts-only `exhausted-search` witness, which is not a form replay reads
FORGED_WIDE_INFEASIBLE = {
    "kind": "Infeasible", "slot": None, "page": 1501 // 3 + 1, "bound": None,
    "witness": {"type": "exhausted-search", "completions_tried": 1, "states_explored": 1},
}

# the g = 4, (1, 2) matching in the retired one-rank-vector-per-page form
G4_12_PROFILE = profile_to_json(munzner_betti_N(validate_family(4, 1, 2)))  # Maslov 3
RANK_ASSIGNMENT = {
    "kind": "Feasible", "slot": None, "page": 3, "bound": None,
    "witness": {"type": "rank-assignment", "completion": [1, 1, 1, 2, 1, 1, 1],
                "ranks": [{"page": 1, "ranks": [1, 1, 0, 1, 1, 0, 0]},
                          {"page": 2, "ranks": [0, 0, 0, 0, 0, 0, 0]}]},
}

# 4097 classes, one per slot, and an empty barrier: the decider refuses this
# profile, and so does replay
ONES = {"n": 4096, "known": [[s, 1] for s in range(4097)], "cap": None}
FORGED_ONES_INFEASIBLE = {
    "kind": "Infeasible", "slot": None, "page": 4097 // 3 + 1, "bound": None,
    "witness": {"type": "tutte-barrier", "barrier": []},
}

# the g = 4, (2, 2) barrier in the retired list-of-barriers form
TUTTE_BARRIERS = {
    "kind": "Infeasible", "slot": None, "page": 3, "bound": None,
    "witness": {"type": "tutte-barriers", "barriers": [[]]},
}

NARROW = ["narrow-check", "--profile", "input.json", "--maslov"]
REPLAY = ["replay", "input.json"]


def padded(payload: dict, size: int) -> bytes:
    """``payload`` as JSON, padded with spaces to ``size`` bytes."""
    return json.dumps(payload).encode().ljust(size)


OVER_THE_LIMIT = f"larger than the input limit of {cli.MAX_INPUT_BYTES} bytes"
OVERSIZED_PROFILE = padded(G4_22_PROFILE, cli.MAX_INPUT_BYTES + 1)

# one row per failure source: argv, the content of input.json (None: no file,
# bytes: the raw file, else a JSON payload), exit code, a piece of the error line
FAILURES = [
    pytest.param(["classify", "--g", "5", "--m1", "1", "--m2", "1"], None, 1,
                 "principal curvatures", id="bad-family"),
    pytest.param(["classify-all", "--bound", "1"], None, 1, "bound must be >= 2", id="bound-1"),
    pytest.param(["classify-all", "--bound", "4", "--verbose"], None, 1,
                 "unrecognized arguments: --verbose", id="verbose-on-classify-all"),
    pytest.param(NARROW + ["4"], None, 2, "cannot read", id="unreadable-file"),
    pytest.param(NARROW + ["4"], b"{not json", 2, "not valid JSON", id="not-json"),
    pytest.param(NARROW + ["4"], b"\xff\xfe{", 2, "not valid JSON", id="not-utf-8"),
    pytest.param(NARROW + ["4"], b"\xef\xbb\xbf" + json.dumps(G4_22_PROFILE).encode(), 2,
                 "Unexpected UTF-8 BOM", id="utf-8-bom"),
    # the offset counts a CRLF line end as one character, as a text-mode read does
    pytest.param(NARROW + ["4"], b'{"n": 3,\r\n "cap": nul}', 2, "line 2 column 9 (char 17)",
                 id="crlf-json-error"),
    pytest.param(NARROW + ["4"], b"[" * 100_000 + b"]" * 100_000, 2, "not valid JSON",
                 id="nested-too-deep"),
    pytest.param(NARROW + ["4"], {"n": 3, "known": [[1.7, 2], ["2", True]], "cap": None}, 2,
                 "must be an integer", id="strict-int-profile"),
    pytest.param(NARROW + ["2"], G4_22_PROFILE, 1, "Maslov number >= 3",
                 id="maslov-2-narrow-check"),
    pytest.param(REPLAY, envelope(G4_22_PROFILE, 4) | {"maslov": 2}, 1, "Maslov number >= 3",
                 id="maslov-2-replay"),
    pytest.param(["wide-check", "--profile", "input.json", "--maslov", "4"], G6_PROFILE, 1,
                 "unknown", id="unknown-degree-wide-check"),
    pytest.param(REPLAY, forged_headline(), 2, "headline", id="headline-mismatch"),
    # a top level that is not an object is refused as a profile file's is, not by a TypeError
    pytest.param(REPLAY, [], 2, "malformed witness file: witness file must be a JSON object",
                 id="replay-top-level-list"),
    pytest.param(REPLAY, 1, 2, "malformed witness file: witness file must be a JSON object",
                 id="replay-top-level-number"),
    pytest.param(REPLAY, envelope(ONES, 3, FORGED_ONES_INFEASIBLE), 1,
                 "4097 exact classes, above the matching's limit of 1000",
                 id="replay-over-the-limit"),
    pytest.param(NARROW + ["4"], OVERSIZED_PROFILE, 2, OVER_THE_LIMIT,
                 id="narrow-check-over-the-size-limit"),
    pytest.param(["wide-check", "--profile", "input.json", "--maslov", "4"], OVERSIZED_PROFILE, 2,
                 OVER_THE_LIMIT, id="wide-check-over-the-size-limit"),
    pytest.param(REPLAY, padded(envelope(G4_22_PROFILE, 4), cli.MAX_INPUT_BYTES + 1), 2,
                 OVER_THE_LIMIT, id="replay-over-the-size-limit"),
    pytest.param(NARROW + ["3"], CAPPED | {"known": {}}, 2, "'known' must be a list, got dict",
                 id="known-object"),
    pytest.param(NARROW + ["3"], CAPPED | {"known": ""}, 2, "'known' must be a list, got str",
                 id="known-string"),
    pytest.param(NARROW + ["3"], CAPPED | {"known": [{"0": 1}]}, 2,
                 "'known' entry must be a list, got dict", id="known-entry-object"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3, oracle_json(G4_12_PROFILE, 3)),
                                ("oracle", "witness", "pairs"), {}), 2,
                 "'pairs' must be a list, got dict", id="pairs-object"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3, oracle_json(G4_12_PROFILE, 3)),
                                ("oracle", "witness", "pairs", 0), "012"), 2,
                 "entry must be a list, got str", id="pairs-entry-string"),
    pytest.param(REPLAY, edited(envelope(G4_22_PROFILE, 4, oracle_json(G4_22_PROFILE, 4)),
                                ("oracle", "witness", "barrier"), {}), 2,
                 "'barrier' must be a list, got dict", id="barrier-object"),
    pytest.param(REPLAY, edited(envelope(G4_22_PROFILE, 4), ("verdict", "witness", "chain"), {}),
                 2, "'chain' must be a list, got dict", id="chain-object"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3), ("verdict", "witness", "slots"), ""),
                 2, "'slots' must be a list, got str", id="slots-string"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3), ("verdict", "witness", "slots", 0),
                                {}), 2, "entry must be a list, got dict", id="slots-entry-object"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3), ("verdict", "witness", "slots", 0),
                                [-1, 2]), 2, "dimension lower bound must be >= 0, got -1",
                 id="slots-entry-negative-lower-end"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3), ("verdict", "witness", "slots", 0),
                                [3, 2]), 2, "empty dimension interval [3, 2]",
                 id="slots-entry-empty"),
    pytest.param(REPLAY, edited(envelope(G4_12_PROFILE, 3), ("verdict", "witness", "slots", 0),
                                [0, -1]), 2, "empty dimension interval [0, -1]",
                 id="slots-entry-negative-upper-end"),
    pytest.param(REPLAY, envelope({"n": 1500, "known": [], "cap": 0}, 3, FORGED_WIDE_INFEASIBLE),
                 2, "does not match witness type 'exhausted-search'", id="wide-oracle"),
    pytest.param(REPLAY, envelope(G4_12_PROFILE, 3, RANK_ASSIGNMENT), 2,
                 "does not match witness type 'rank-assignment'", id="rank-assignment"),
    pytest.param(REPLAY, envelope(G4_22_PROFILE, 4, TUTTE_BARRIERS), 2,
                 "does not match witness type 'tutte-barriers'", id="tutte-barriers"),
    # json would keep the last of a repeated key; the reader refuses it at any depth
    pytest.param(NARROW + ["3"], b'{"n": 4, "known": [[0, 1], [3, 1]], "cap": 3, "cap": null}',
                 2, "key 'cap' repeated in one object", id="repeated-profile-key"),
    pytest.param(REPLAY, json.dumps(envelope(G4_22_PROFILE, 4)).replace(
        '"lower_after"', '"lower_after": 0, "lower_after"', 1).encode(), 2,
                 "key 'lower_after' repeated in one object", id="repeated-chain-step-key"),
]


@pytest.mark.parametrize("argv,content", [
    (NARROW + ["4"], G4_22_PROFILE),
    (["wide-check", "--profile", "input.json", "--maslov", "4"], G4_22_PROFILE),
    (REPLAY, envelope(G4_22_PROFILE, 4)),
], ids=["narrow-check", "wide-check", "replay"])
def test_input_at_the_size_limit_is_read(capsys, tmp_path, monkeypatch, argv, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_bytes(padded(content, cli.MAX_INPUT_BYTES))
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,content,code,message", FAILURES)
def test_failure_exit_code_and_error_line(capsys, tmp_path, monkeypatch, argv, content, code,
                                          message):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        raw = content if isinstance(content, bytes) else json.dumps(content).encode()
        (tmp_path / "input.json").write_bytes(raw)
    got, out, err = run(capsys, argv)
    assert (got, out) == (code, "")
    assert err.count("error: ") == 1
    assert message in err


# --- repeated keys -------------------------------------------------------------

# a capped profile at Maslov 4 whose oracle verdict is Feasible: slots 0-3
# cancel on page 1, and 1-8 and 2-9 on page 2
SIX_SLOTS = {"n": 9, "known": [[0, 1], [1, 1], [2, 1], [3, 1], [8, 1], [9, 1]], "cap": 6}


def test_a_forged_first_verdict_exits_2(capsys, tmp_path):
    (tmp_path / "profile.json").write_text(json.dumps(SIX_SLOTS), encoding="utf-8")
    code, out, _ = run(capsys, ["narrow-check", "--profile", str(tmp_path / "profile.json"),
                                "--maslov", "4", "--oracle", "--format", "json"])
    assert code == 0 and json.loads(out)["oracle"]["kind"] == "Feasible"
    witness = tmp_path / "witness.json"
    witness.write_text(out, encoding="utf-8")
    assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")
    # a first "verdict" that claims Infeasible; json.loads keeps the second, true one
    forged = ('{\n  "verdict": {"kind": "Infeasible", "slot": null, "page": 3, "bound": null, '
              '"witness": {"type": "tutte-barrier", "barrier": []}},' + out[1:])
    assert json.loads(forged) == json.loads(out)
    witness.write_text(forged, encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(witness)])
    assert (code, out) == (2, "")
    assert err == f"error: {witness} is not valid JSON: key 'verdict' repeated in one object\n"


@st.composite
def written_profiles(draw):
    """A profile as the CLI writes it: fully known, capped or uncapped."""
    n = draw(st.integers(0, 10))
    known = draw(st.dictionaries(st.integers(0, n), st.integers(0, 3), max_size=n + 1))
    cap = draw(st.one_of(st.none(), st.integers(0, 4).map(lambda k: sum(known.values()) + k)))
    return {"n": n, "known": [[s, known[s]] for s in sorted(known)], "cap": cap}


@settings(max_examples=60, deadline=None)
@given(written_profiles(), st.integers(3, 5), st.booleans())
def test_every_envelope_the_cli_writes_reads_back(tmp_path_factory, profile, maslov, oracle):
    folder = tmp_path_factory.getbasetemp()
    path, witness = folder / "written_profile.json", folder / "written_witness.json"
    path.write_text(json.dumps(profile), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["narrow-check", "--profile", str(path), "--maslov", str(maslov),
                         "--format", "json"] + ["--oracle"] * oracle)
    assert code == 0
    witness.write_text(out.getvalue(), encoding="utf-8")
    # the profile the envelope holds is itself a file the readers take
    path.write_text(json.dumps(json.loads(out.getvalue())["profile"]), encoding="utf-8")
    # wide-check exits 1 when a degree it tests is unknown
    for argv, codes in ((["replay", str(witness)], (0,)),
                        (["narrow-check", "--profile", str(path), "--maslov", str(maslov)], (0,)),
                        (["wide-check", "--profile", str(path), "--maslov", str(maslov)], (0, 1))):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv) in codes, err.getvalue()
        assert "not valid JSON" not in err.getvalue()


# Each pinned multi-family output by its argv: its size in bytes and its
# SHA-256.  Every test that checks one of these outputs reads it here.
GOLDEN = {
    ("classify-all", "--bound", "16", "--format", "json"):
        (159_171, "bb9aa9b110298734a118608e096849aa8d14063c8e6ac1ec0de09be1ef59f7a0"),
    ("classify-all", "--bound", "64", "--format", "json"):
        (2_722_353, "809d3c9964010c93cee1f3ad51aacaa9199d62f3a0354821ae135dba5821ea0b"),
    ("classify-all", "--bound", "64", "--format", "text"):
        (135_241, "bb73afe973a81b941d826a409f4b233c96fc0cb9c1acea711cbe7fbe613796f7"),
    # recorded after the g = 3 records with even m stopped citing H_1(L; Z) = Z/3
    ("catalog", "--bound", "16", "--format", "json"):
        (169_532, "db632e3ec0f2ae3d81af0e26425f3357faf019e8ae6e49f5627517b4b737ff04"),
    # every Muenzner table, written through BettiProfile.json_text in the workers
    ("catalog", "--bound", "64", "--format", "json"):
        (7_182_734, "143cf0fea2067f820da22a5bd9ea875394d427f5a4086d545975336e7ec65a1e"),
    ("catalog", "--bound", "64", "--format", "text"):
        (81_393, "b0a434ce9dc9cb09b90eb7b67beb27f9f577d63022f6333e528b742ce36ab1de"),
}


def assert_golden(argv, out) -> None:
    """``out``, as str or bytes, is the pinned output of ``argv``."""
    data = out.encode() if isinstance(out, str) else out
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[tuple(argv)]


class TestGolden:
    """Output pinned by size and SHA-256, recorded before the code that prints it changed."""

    @pytest.mark.parametrize(
        "bound,size,digest",
        [(bound, *GOLDEN["classify-all", "--bound", str(bound), "--format", "json"])
         for bound in (16, 64)],
    )
    def test_classify_all_json_bytes(self, capsys, bound, size, digest):
        code, out, _ = run(capsys, ["classify-all", "--bound", str(bound), "--format", "json"])
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_catalog_json_bytes(self, capsys):
        argv = ["catalog", "--bound", "16", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert_golden(argv, out)

    @pytest.mark.parametrize(
        "command,size,digest",
        [(command, *GOLDEN[command, "--bound", "64", "--format", "text"])
         for command in ("classify-all", "catalog")],
    )
    def test_text_table_bytes(self, capsys, command, size, digest):
        # the text tables stream row by row; these are the bytes they printed
        # buffered, here with the default format
        code, out, _ = run(capsys, [command, "--bound", "64"])
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_feasible_oracle_json_bytes(self, capsys, tmp_path):
        # nested lists: the profile entries, the final-page slots, the pairs
        path = write_profile(tmp_path, "g4_12.json", validate_family(4, 1, 2))
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", path, "--maslov", "3", "--oracle", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Feasible"
        data = out.encode()
        # recorded after the envelope dropped n and nu and the witness its completion
        assert len(data) == 1_267
        assert hashlib.sha256(data).hexdigest() == (
            "ae261f76ee7e68c466d47d056a634be332d96388683ca522e75e45d22b1fef4b"
        )

    @pytest.mark.parametrize(
        "family,size,digest",
        [
            # a contradiction chain at the top-level indent
            ((4, 2, 2), 1_532, "e0b4834f3e26cd84283d17ec7ab1b4a7cf28e93fd92bfd83d57d42129d3058c4"),
            # a float volume_lower_bound
            ((3, 2, 2), 813, "0165e768cf6b6fa266f9fc1c66d04487dcda37c44177baa16f0e5ed39c7771e2"),
        ],
    )
    def test_classify_json_bytes(self, capsys, family, size, digest):
        g, m1, m2 = map(str, family)
        code, out, _ = run(capsys, ["classify", "--g", g, "--m1", m1, "--m2", m2,
                                    "--format", "json"])
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "profile,maslov,kinds,size,digest",
        [
            (G4_22_PROFILE, 4, ("Contradiction", "Infeasible"), 1_240,
             "fc940f4c9dbf83259eba9be0d38dde304d69e9546f8ce4a6ad35ed467e371f9d"),
            # uncapped and open: the final page has null upper bounds
            ({"n": 6, "known": [[0, 1], [3, 2], [6, 1]]}, 3, ("NoContradiction", "Feasible"),
             1_068, "61dcf42d267e0e6db6c18cbf4758ef96bff4a602c1d8230dfb5ce351f95d867e"),
        ],
        ids=["contradiction-infeasible", "open-final-page"],
    )
    def test_oracle_json_bytes(self, capsys, tmp_path, profile, maslov, kinds, size, digest):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov",
                                    str(maslov), "--oracle", "--format", "json"])
        assert code == 0
        envelope = json.loads(out)
        assert (envelope["verdict"]["kind"], envelope["oracle"]["kind"]) == kinds
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_profile_listing_order_leaves_the_bytes_alone(self, capsys, tmp_path):
        # the envelope lists the known degrees in ascending order, whatever the file's order
        outs = []
        for name, known in (("descending", [[6, 1], [0, 1]]), ("ascending", [[0, 1], [6, 1]])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"n": 6, "known": known, "cap": 4}), encoding="utf-8")
            code, out, _ = run(capsys, ["narrow-check", "--profile", str(path), "--maslov", "3",
                                        "--oracle", "--format", "json"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["profile"]["known"] == [[0, 1], [6, 1]]
        assert hashlib.sha256(outs[0].encode()).hexdigest() == (
            "0e1847746e6deda208b63d77b16f236b5d7e33217c6c16bbd0f9b144a9bbc324"
        )

    @pytest.mark.parametrize(
        "profile,maslov,expected",
        [
            (G4_12_PROFILE, 3, '{\n  "wide": false,\n  "maslov": 3,\n  "tested_degrees": [\n'
                               '    2,\n    5\n  ]\n}\n'),
            # Maslov 8 above n + 1 = 7 leaves no degree to test
            ({"n": 6, "known": [[0, 1], [6, 1]], "cap": 2}, 8,
             '{\n  "wide": true,\n  "maslov": 8,\n  "tested_degrees": []\n}\n'),
        ],
        ids=["tested-degrees", "no-tested-degrees"],
    )
    def test_wide_check_json_bytes(self, capsys, tmp_path, profile, maslov, expected):
        # recorded before the envelope was written by hand
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        assert run(capsys, ["wide-check", "--profile", str(path), "--maslov", str(maslov),
                            "--format", "json"]) == (0, expected, "")

    @pytest.mark.parametrize(
        "barrier,code,expected",
        [
            (None, 0, '{\n  "replayed": true,\n  "verdicts": 2\n}\n'),
            ([], 1, '{\n  "replayed": false,\n  "verdicts": 2\n}\n'),
        ],
        ids=["replayed", "mismatch"],
    )
    def test_replay_json_bytes(self, capsys, tmp_path, barrier, code, expected):
        # recorded before the envelope was written by hand; the edited barrier
        # drops the one slot of the Infeasible witness
        profile = {"n": 2, "known": [[0, 3], [1, 0], [2, 1]], "cap": None}
        payload = envelope(profile, 3, oracle_json(profile, 3))
        if barrier is not None:
            payload["oracle"]["witness"]["barrier"] = barrier
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["replay", str(witness), "--format", "json"]) == (code, expected, "")

    def test_classify_all_json_through_a_pipe(self):
        # the JSON is streamed to the real stdout, not a capture buffer
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = ["classify-all", "--bound", "16", "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "isofloer.cli", *argv],
                              capture_output=True, env=env, check=False)
        assert proc.returncode == 0
        assert_golden(argv, proc.stdout)


@pytest.mark.parametrize(
    "argv,read",
    [
        # larger than a pipe's buffer, so a write meets the closed end
        (["classify-all", "--bound", "64", "--format", "json"], 16),
        (["classify-all", "--bound", "64"], 16),
        # small enough to sit in the stdout buffer until the final flush
        (["classify", "--g", "4", "--m1", "2", "--m2", "2"], 0),
    ],
    ids=["json", "text", "buffered"],
)
def test_closed_output_pipe_exits_1_quietly(argv, read):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)  # and stdout to a pipe is block-buffered
    proc = subprocess.Popen([sys.executable, "-m", "isofloer.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    # the json and text rows forked workers, which the CLI reaps before it exits
    assert_group_gone(proc.pid, timeout=0)


# --- the worker processes of classify-all and catalog ---------------------------

CLASSIFY_ALL_64 = ["classify-all", "--bound", "64", "--format", "json"]


def run_on_cpus(capsys, monkeypatch, cpus, argv):
    """``run`` with ``cpus`` CPUs available; also returns how many workers it forked."""
    forks, fork = [], os.fork
    monkeypatch.setattr(pool, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return run(capsys, argv), len(forks)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["classify-all", "catalog"])
def test_workers_print_the_bytes_of_one_process(capsys, monkeypatch, command, fmt):
    # with 4 CPUs the parent and 3 workers share the 261 chunks unevenly, and
    # outnumber two cores; the catalog text table is three small calls per
    # family and never forks
    argv = [command, "--bound", "64", "--format", fmt]
    (serial, forks_1), (forked, forks_2), (more, forks_4) = (
        run_on_cpus(capsys, monkeypatch, cpus, argv) for cpus in (1, 2, 4))
    forking = (command, fmt) != ("catalog", "text")
    assert (forks_1, forks_2, forks_4) == ((0, 1, 3) if forking else (0, 0, 0))
    assert serial == forked == more
    code, out, err = forked
    assert (code, err) == (0, "")
    assert_golden(argv, out)
    if (command, fmt) == ("catalog", "json"):
        records = [json_reference.data_to_json(f) for f in catalog.enumerate_families(64)]
        assert out == json.dumps(records, indent=2) + "\n"


# on 2 CPUs the parent renders the even chunks and its one worker the odd ones
WORKER_OWNED = 3 * pool.CHUNK + 7
PARENT_OWNED = 2 * pool.CHUNK + 7


def assert_stops_as_one_process(capsys, monkeypatch, fmt, index):
    """The family at ``index`` raises: on 1 and on 2 CPUs the families before it
    are printed, then the error line, as by one process."""
    bad = catalog.enumerate_families(64)[index]
    classify = cli.classify

    def classify_or_raise(family):
        if family == bad:
            raise catalog.FamilyError(f"no verdict for {family}")
        return classify(family)

    monkeypatch.setattr(cli, "classify", classify_or_raise)
    argv = ["classify-all", "--bound", "64", "--format", fmt]
    (serial, forks_1), (forked, forks_2) = (run_on_cpus(capsys, monkeypatch, cpus, argv)
                                            for cpus in (1, 2))
    assert (forks_1, forks_2) == (0, 1)
    assert serial == forked
    code, out, err = forked
    assert (code, err) == (1, f"error: no verdict for {bad}\n")
    if fmt == "json":
        assert out.count("\n  {") == index  # one per record, each at indent 2
    else:
        assert out.count("\n") == 1 + index  # the header, then one row per family


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_workers_stop_where_one_process_stops(capsys, monkeypatch, fmt):
    assert_stops_as_one_process(capsys, monkeypatch, fmt, WORKER_OWNED)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_parent_stops_where_one_process_stops(capsys, monkeypatch, fmt):
    assert_stops_as_one_process(capsys, monkeypatch, fmt, PARENT_OWNED)


def test_a_worker_that_dies_leaves_its_chunks_to_the_parent(capsys, monkeypatch):
    # a worker that exits without its chunk, as one killed from outside would;
    # the parent renders that family too, and must not exit with it
    bad, parent = catalog.enumerate_families(64)[WORKER_OWNED], os.getpid()
    classify = cli.classify

    def classify_or_die(family):
        if family == bad and os.getpid() != parent:
            os._exit(3)
        return classify(family)

    monkeypatch.setattr(cli, "classify", classify_or_die)
    (code, out, err), forks = run_on_cpus(capsys, monkeypatch, 2, CLASSIFY_ALL_64)
    assert (code, err, forks) == (0, "", 1)
    assert_golden(CLASSIFY_ALL_64, out)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_each_renderer_does_its_share(capsys, monkeypatch, cpus):
    # a worker that never sent a chunk would leave the bytes right and show
    # only as time; here the parent must have rendered chunks 0, k, 2k, ... alone
    families, rendered, classify = catalog.enumerate_families(64), [], cli.classify
    monkeypatch.setattr(cli, "classify", lambda f: rendered.append(f) or classify(f))
    (code, out, _), _ = run_on_cpus(capsys, monkeypatch, cpus, CLASSIFY_ALL_64)
    assert code == 0
    assert_golden(CLASSIFY_ALL_64, out)
    k = min(cpus, math.ceil(len(families) / pool.CHUNK))
    assert rendered == [f for i, f in enumerate(families) if i // pool.CHUNK % k == 0]


class CountingStdout(io.StringIO):
    """A stdout that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_classify_all_writes_once_per_chunk(monkeypatch, fmt, cpus):
    # the header and the closing line, and one write per chunk between them
    monkeypatch.setattr(pool, "_cpus", lambda: cpus)
    argv, out = ["classify-all", "--bound", "64", "--format", fmt], CountingStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    chunks = math.ceil(len(catalog.enumerate_families(64)) / pool.CHUNK)
    assert out.writes <= chunks + 2
    assert_golden(argv, out.getvalue())


@pytest.mark.parametrize("failing", ["fork", "pipe"])
def test_no_process_to_be_had_leaves_its_chunks_to_the_parent(capsys, monkeypatch, failing):
    # on 3 CPUs the second pipe or fork fails, as under a pids, memory or
    # open-file limit: the first worker keeps its chunks, and the parent
    # renders its own and those of the worker that was not started
    calls, pids = [], []
    real = {"fork": os.fork, "pipe": os.pipe}[failing]

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, f"no {failing} to be had")
        result = real()
        if failing == "fork":
            pids.append(result)
        return result

    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(pool, "_cpus", lambda: 3)
    monkeypatch.setattr(os, failing, second_fails)
    code, out, err = run(capsys, CLASSIFY_ALL_64)
    assert (code, err, len(calls)) == (0, "", 2)
    assert_golden(CLASSIFY_ALL_64, out)
    for pid in pids:  # the worker that did start was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    if fds is not None:  # and no pipe end was left open
        assert set(os.listdir("/proc/self/fd")) == fds


# LocalError is bound to no module name, so no other process could look it up
@pytest.mark.parametrize("error", [KeyError, type("LocalError", (Exception,), {})])
def test_a_worker_bug_keeps_its_traceback(monkeypatch, error):
    # an exception that main does not turn into an exit code escapes it with
    # its own type and message, raised by the parent's own call at the family
    # that raised in the worker, after the records before that family
    bad = catalog.enumerate_families(64)[WORKER_OWNED]
    classify = cli.classify

    def classify_with_a_bug(family):
        if family == bad:
            raise error("a bug in a worker")
        return classify(family)

    monkeypatch.setattr(pool, "_cpus", lambda: 2)
    monkeypatch.setattr(cli, "classify", classify_with_a_bug)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(error) as caught:
        cli.main(CLASSIFY_ALL_64)
    assert (type(caught.value), caught.value.args) == (error, ("a bug in a worker",))
    assert caught.traceback[-1].name == "classify_with_a_bug"
    assert out.getvalue().count("\n  {") == WORKER_OWNED


def assert_group_gone(pgid: int, timeout: float = 5.0) -> None:
    """Wait until process group ``pgid`` has no member, reaping any member that
    was re-parented to this process."""
    deadline = time.monotonic() + timeout
    while True:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(-pgid, os.WNOHANG)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, f"process group {pgid} outlived its leader"
        time.sleep(0.01)


@contextlib.contextmanager
def reaping_orphans():
    """Make this process the reaper of its orphaned descendants in the block.

    A worker whose parent was killed is re-parented to the nearest reaper;
    until that reaper waits for it, it stays a zombie and a member of its
    process group.  An init process that never waits would leave it there.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        pytest.skip("no prctl")
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    set_child_subreaper = 36  # PR_SET_CHILD_SUBREAPER in <linux/prctl.h>
    if prctl(set_child_subreaper, 1, 0, 0, 0) != 0:
        pytest.skip("PR_SET_CHILD_SUBREAPER refused")
    try:
        yield
    finally:
        prctl(set_child_subreaper, 0, 0, 0, 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl and /proc children")
def test_no_worker_outlives_a_killed_parent():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with reaping_orphans():
        proc = subprocess.Popen(
            [sys.executable, "-m", "isofloer.cli", "classify-all", "--bound", "64",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, start_new_session=True)
        try:
            # the workers are forked before the first byte is printed
            assert len(proc.stdout.read(1 << 16)) == 1 << 16
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            processes = min(pool._cpus(), 261)  # 2086 families, 261 chunks
            if children.exists():  # the parent is one of them
                assert len(children.read_text().split()) == processes - 1
        finally:
            os.kill(proc.pid, signal.SIGKILL)
        fd, deadline = proc.stdout.fileno(), time.monotonic() + 5
        while select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            if not os.read(fd, 1 << 16):
                break
        else:
            pytest.fail("stdout stayed open 5 s after the CLI was killed")
        proc.stdout.close()
        assert proc.wait(timeout=5) == -signal.SIGKILL
        assert_group_gone(proc.pid)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc children")
def test_a_killed_worker_leaves_the_bytes_of_one_process():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-m", "isofloer.cli", *CLASSIFY_ALL_64],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          start_new_session=True) as proc:
        # the workers are forked before the first byte is printed
        head = proc.stdout.read(1 << 16)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        if not children.exists():
            pytest.skip("no /proc children list")
        workers = [int(pid) for pid in children.read_text().split()]
        assert len(workers) == min(pool._cpus(), 261) - 1  # 2086 families, 261 chunks
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        # read(), not communicate(): the buffered reader may already hold bytes
        out, err = head + proc.stdout.read(), proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")
    assert_golden(CLASSIFY_ALL_64, out)


# catalog JSON on 3 CPUs: the parent's first family raises once its two
# workers' frames have filled their pipes, that is once the bytes each pipe
# holds stop growing, so each worker is blocked in a write when the parent
# closes the read ends
FULL_PIPES = """
import fcntl, os, struct, termios, time
from isofloer import catalog, cli, pool

reads, pipe = [], os.pipe

def recording_pipe():
    read, write = pipe()
    reads.append(read)
    return read, write

def held():
    return [struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, bytes(4)))[0] for fd in reads]

first, data_text = catalog.enumerate_families(64)[0], cli.data_text

def raise_once_the_pipes_are_full(family, indent):
    if family == first:  # in chunk 0, which the parent renders
        last, now = None, held()
        while now != last or 0 in now:
            time.sleep(0.05)
            last, now = now, held()
        raise catalog.FamilyError("stopped with full pipes")
    return data_text(family, indent=indent)

os.pipe, pool._cpus, cli.data_text = recording_pipe, lambda: 3, raise_once_the_pipes_are_full
fds = os.listdir("/proc/self/fd")
code = cli.main(["catalog", "--bound", "64", "--format", "json"])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child left"
except ChildProcessError:
    left = "no child left"
print(code, len(reads), left, sorted(os.listdir("/proc/self/fd")) == sorted(fds))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/fd and FIONREAD")
def test_an_early_stop_with_full_pipes_reaps_every_worker():
    # a worker blocked on a full pipe must meet the closed read end and exit,
    # or the parent waits for it for ever: so the run has a timeout
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-c", FULL_PIPES], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:  # a hang fails this test instead of blocking the suite
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, err) == (0, "error: stopped with full pipes\n")
    assert out == "1 2 no child left True\n"


# after a warm call, which builds the parser, a run with workers and a run in
# one process import nothing
POOLED_IMPORTS = """
import contextlib, io, sys
from isofloer import cli, pool

pool._cpus = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", "--g", "4", "--m1", "2", "--m2", "2"]) == 0
    before = set(sys.modules)
    for argv in (["classify-all", "--bound", "64", "--format", "json"],
                 ["classify-all", "--bound", "64", "--format", "text"],
                 ["catalog", "--bound", "64", "--format", "json"],
                 ["classify-all", "--bound", "16"]):
        assert cli.main(argv) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_pooled_run_imports_nothing():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", POOLED_IMPORTS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.split() == []


# --- the process entry ----------------------------------------------------------

def run_python(args: list[str], script: str) -> subprocess.CompletedProcess:
    """``python *args -c script`` with this checkout's ``src`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, *args, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=False, timeout=60)


FROZEN_AT_MAIN = """
import gc
from isofloer import cli

def main():
    print(gc.get_freeze_count() > 0)
    return 2

cli.main = main
cli.main_entry()
"""


def test_the_entry_freezes_the_heap_before_main():
    proc = run_python([], FROZEN_AT_MAIN)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "True\n", "")


def test_main_never_freezes(capsys, tmp_path, monkeypatch):
    # tests and the benchmark call main many times in one process, where a
    # freeze would keep every cycle they drop
    profile = write_profile(tmp_path, "g4_12.json", validate_family(4, 1, 2))
    narrow = ["narrow-check", "--profile", profile, "--maslov", "3", "--oracle", "--format", "json"]
    frozen = gc.get_freeze_count()
    assert run(capsys, ["classify", "--g", "4", "--m1", "2", "--m2", "2"])[0] == 0
    assert gc.get_freeze_count() == frozen
    code, out, _ = run(capsys, narrow)
    assert code == 0
    assert gc.get_freeze_count() == frozen
    (tmp_path / "witness.json").write_text(out, encoding="utf-8")
    assert run(capsys, ["replay", str(tmp_path / "witness.json")])[0] == 0
    assert gc.get_freeze_count() == frozen
    (code, _, _), forks = run_on_cpus(capsys, monkeypatch, 2, CLASSIFY_ALL_64)
    assert (code, forks) == (0, 1)
    assert gc.get_freeze_count() == frozen


# main, as the entry calls it, leaves an open file in a reference cycle: only a
# collection after main can find it, and the file's finalizer then warns
LEAKY_MAIN = """
import sys
from isofloer import cli

def main(argv=None):
    code = command(argv)
    cycle = [open(sys.executable, "rb")]
    cycle.append(cycle)
    return code

command, cli.main = cli.main, main
sys.argv = ["isofloer", "classify", "--g", "4", "--m1", "2", "--m2", "2"]
cli.main_entry()
"""


def test_a_command_leak_still_warns_in_development_mode():
    proc = run_python(["-X", "dev"], LEAKY_MAIN)
    assert proc.returncode == 0
    assert proc.stdout.startswith("g=4 m1=2 m2=2")
    assert "ResourceWarning: unclosed file" in proc.stderr


# a child forked from this test process would count the test process's pages
# as its own, so a small launcher forks it and reports its peak RSS
MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS of one CLI process run to exit, read with ``os.wait4``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", MEASURE, sys.executable, "-m", "isofloer.cli",
                           *argv], capture_output=True, env=env, check=True, text=True)
    code, kilobytes = map(int, proc.stdout.split())
    assert code == 0
    return kilobytes / 1024  # ru_maxrss is in kilobytes on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kilobytes")
@pytest.mark.parametrize("command", ["catalog", "classify-all"])
def test_text_table_streams_in_constant_memory(command):
    # holding every row of the bound-256 table costs 40 to 50 MB above one classify
    reference = peak_rss_mb(["classify", "--g", "1", "--m1", "1", "--m2", "1"])
    assert peak_rss_mb([command, "--bound", "256"]) - reference < 15


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kilobytes")
def test_catalog_text_holds_one_family_at_a_time():
    # the list of all 131,000 families of bound 512 costs about 11 MB above one classify
    reference = peak_rss_mb(["classify", "--g", "1", "--m1", "1", "--m2", "1"])
    assert peak_rss_mb(["catalog", "--bound", "512"]) - reference < 3


# --- the JSON list writer -----------------------------------------------------

json_strings = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "é", "\u2028", "\ud800", "😀"]),
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    json_strings,
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=24,
)


def emitted(items, size: int = 2) -> str:
    """The items of a list or iterable written one by one at the list-item
    indent, as ``_ordered_map`` renders them, and printed by ``_emit_json_list``
    from a generator of chunks of ``size`` texts."""
    texts = [json.dumps(item, indent=2).replace("\n", "\n  ") for item in items]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        pool._emit_json_list(texts[i:i + size] for i in range(0, len(texts), size))
    return out.getvalue()


class TestJsonWriter:
    """The list writer prints the bytes of json.dumps(items, indent=2) from the
    items' texts, however they come in chunks."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(json_trees, max_size=4))
    def test_emit_streams_the_same_bytes(self, items):
        expected = json.dumps(items, indent=2) + "\n"
        assert emitted(items) == expected
        assert emitted(iter(items)) == expected
        assert emitted(items, size=1) == emitted(items, size=3) == expected

    def test_empty_generator_is_an_empty_list(self):
        assert emitted(x for x in ()) == "[]\n"

    def test_empty_chunks_print_nothing(self):
        # the values before a family that raises may be an empty chunk
        for chunks in ([[]], [[], ["1"], []], [["1"], []]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                pool._emit_json_list(iter(chunks))
            assert out.getvalue() == ("[]\n" if chunks == [[]] else "[\n  1\n]\n")

    @settings(max_examples=50, deadline=None)
    @given(json_trees)
    def test_one_element_generator(self, value):
        assert emitted(x for x in [value]) == json.dumps([value], indent=2) + "\n"


# --- replay fuzzing -----------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=4))
# no JSON array: a reader that iterated these would take {} or "" for an empty list
non_lists = st.one_of(json_scalars, st.dictionaries(st.text(max_size=3), json_scalars,
                                                    max_size=3))

# every witness kind: the profile, its Maslov number, the verdict kinds and
# the paths of the fields the fuzz may overwrite
WITNESS_FILES = {
    "g4-22": (G4_22_PROFILE, 4, ("Contradiction", "Infeasible"), [
        ("maslov",),
        ("verdict", "page"), ("verdict", "slot"), ("verdict", "bound"),
        ("verdict", "witness", "slot"), ("verdict", "witness", "bound"),
        ("verdict", "witness", "chain", 0), ("verdict", "witness", "chain", 1),
        ("verdict", "witness", "chain", 1, "lower_after"),
        ("oracle", "page"), ("oracle", "slot"),
        ("oracle", "witness", "barrier"),
    ]),
    "g4-12": (G4_12_PROFILE, 3, ("NoContradiction", "Feasible"), [
        ("maslov",),
        ("verdict", "page"), ("verdict", "slot"), ("verdict", "bound"),
        ("verdict", "witness", "slots", 3),
        ("oracle", "page"), ("oracle", "slot"), ("oracle", "bound"),
        ("oracle", "witness", "pairs"), ("oracle", "witness", "pairs", 0),
        ("oracle", "witness", "pairs", 1, 0), ("oracle", "witness", "pairs", 2, 1),
        ("oracle", "witness", "pairs", 3, 2),
    ]),
    # 21 completions within the cap and one barrier, the pool slot 7
    "barrier": ({"n": 6, "known": [[0, 3], [6, 1]], "cap": 6}, 3,
                ("NoContradiction", "Infeasible"), [
        ("profile", "cap"), ("profile", "known", 1, 1), ("oracle", "page"),
        ("oracle", "witness", "type"), ("oracle", "witness", "barrier"),
        ("oracle", "witness", "barrier", 0),
    ]),
}


@pytest.fixture(scope="module")
def stored_witnesses(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    stored = {}
    for name, (profile, maslov, kinds, _) in WITNESS_FILES.items():
        path = folder / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["narrow-check", "--profile", str(path), "--maslov", str(maslov),
                             "--oracle", "--format", "json"])
        assert code == 0
        envelope = json.loads(out.getvalue())
        assert (envelope["verdict"]["kind"], envelope["oracle"]["kind"]) == kinds
        stored[name] = envelope
    assert stored["barrier"]["oracle"]["witness"] == {"type": "tutte-barrier", "barrier": [7]}
    assert all("n" not in envelope and "nu" not in envelope for envelope in stored.values())
    return folder, stored


FUZZ_FIELDS = [(name, path) for name, (*_, paths) in WITNESS_FILES.items() for path in paths]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FUZZ_FIELDS), json_values)
def test_replay_exits_cleanly_on_any_field_value(stored_witnesses, field, value):
    folder, stored = stored_witnesses
    name, path = field
    witness = folder / "witness.json"
    witness.write_text(json.dumps(edited(stored[name], path, value)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["replay", str(witness)])
    assert code in (0, 1, 2)


# the witness fields that hold a list, or a list per entry
LIST_FIELDS = [
    ("g4-22", ("verdict", "witness", "chain")), ("g4-22", ("oracle", "witness", "barrier")),
    ("g4-12", ("verdict", "witness", "slots")), ("g4-12", ("verdict", "witness", "slots", 3)),
    ("g4-12", ("oracle", "witness", "pairs")), ("g4-12", ("oracle", "witness", "pairs", 0)),
    ("g4-12", ("profile", "known")), ("g4-12", ("profile", "known", 0)),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LIST_FIELDS), non_lists)
def test_replay_refuses_a_non_list_where_a_list_belongs(stored_witnesses, field, value):
    folder, stored = stored_witnesses
    name, path = field
    witness = folder / "witness.json"
    witness.write_text(json.dumps(edited(stored[name], path, value)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["replay", str(witness)])
    assert code == 2, err.getvalue()


# --- profile fuzzing ----------------------------------------------------------

# valid profiles, with the paths of the fields the fuzz may overwrite
PROFILE_FILES = [
    ({"n": 8, "known": [[0, 1], [3, 1], [4, 2], [5, 1], [8, 1]], "cap": None}, 4),
    ({"n": 6, "known": [[0, 1], [3, 2], [6, 1]], "cap": 7}, 3),
]
PROFILE_FIELDS = [("n",), ("cap",), ("known",), ("known", 0), ("known", 1, 0), ("known", 2, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(range(len(PROFILE_FILES))),
    st.sampled_from(PROFILE_FIELDS),
    st.one_of(json_values, non_lists),
    st.sampled_from(["narrow-check", "wide-check"]),
)
def test_profile_readers_exit_cleanly_on_any_field_value(tmp_path_factory, index, path, value,
                                                         command):
    profile, maslov = PROFILE_FILES[index]
    file = tmp_path_factory.getbasetemp() / "fuzzed_profile.json"
    file.write_text(json.dumps(edited(profile, path, value)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--profile", str(file), "--maslov", str(maslov),
                         "--format", "json"])
    if path in (("known",), ("known", 0)) and not isinstance(value, list):
        assert code == 2  # a non-list where a list belongs is a malformed file
    else:
        assert code in (0, 1, 2)
