"""CLI tests, run in-process through cli.main."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isofloer import cli
from isofloer.catalog import minimal_maslov, munzner_betti_N, validate_family
from isofloer.criteria import STATUSES
from isofloer.homology import MAX_TOP_DEGREE, profile_from_json, profile_to_json
from isofloer.specseq import (
    ORACLE_MAX_SLOTS,
    oracle_narrow_feasible,
    propagate_narrow,
    verdict_to_json,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "Contradiction at slot 4" in out
        assert "page 1:" in out


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
        code, _, err = run(capsys, ["catalog", "--bound", "1"])
        assert code == 1
        assert "bound" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["classify-all", "--bound", "10", "--format", "json"])
        _, second, _ = run(capsys, ["classify-all", "--bound", "10", "--format", "json"])
        assert first == second


class TestNarrowCheck:
    def test_contradiction_text(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_22.json", validate_family(4, 2, 2))
        code, out, _ = run(capsys, ["narrow-check", "--profile", path, "--maslov", "4"])
        assert code == 0
        assert "Contradiction at slot 4" in out

    def test_json_envelope(self, capsys, tmp_path):
        path = write_profile(tmp_path, "g4_22.json", validate_family(4, 2, 2))
        code, out, _ = run(
            capsys, ["narrow-check", "--profile", path, "--maslov", "4", "--format", "json"]
        )
        assert code == 0
        envelope = json.loads(out)
        assert set(envelope) == {"profile", "maslov", "n", "nu", "verdict", "oracle"}
        assert envelope["nu"] == 2            # default floor((8+1)/4)
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
        path = write_profile(tmp_path, "g6.json", validate_family(6, 2, 2))
        code, out, _ = run(
            capsys, ["narrow-check", "--profile", path, "--maslov", "4", "--oracle"]
        )
        assert code == 0
        assert "oracle skipped" in out

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

    def test_oracle_cost_follows_the_completions_within_the_cap(self, capsys, tmp_path):
        # 3^16 tuples in the product of the slot ranges, 153 of them within the cap
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
        assert oracle["witness"] == {
            "type": "exhausted-search", "completions_tried": 153, "states_explored": 837,
        }
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    def test_oracle_at_the_slot_limit(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"n": ORACLE_MAX_SLOTS - 1, "known": [], "cap": 0}), encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Feasible"
        witness = tmp_path / "witness.json"
        witness.write_text(out, encoding="utf-8")
        assert run(capsys, ["replay", str(witness)]) == (0, "witness replay: ok\n", "")

    @pytest.mark.parametrize("n", [ORACLE_MAX_SLOTS, 1500])
    def test_oracle_above_the_slot_limit_is_skipped(self, capsys, tmp_path, n):
        # without the limit, 1501 slots exhaust Python's recursion limit
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": n, "known": [], "cap": 0}), encoding="utf-8")
        code, out, _ = run(
            capsys, ["narrow-check", "--profile", str(path), "--maslov", "3", "--oracle"]
        )
        assert code == 0
        assert f"oracle skipped: profile has {n + 1} slots" in out

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
            ("nu", -1, 2, "nu"),
            ("nu", 100000, 2, "nu"),
            ("maslov", 2, 1, "Maslov"),
            ("maslov", 4.0, 2, "maslov"),
            ("nu", "3", 2, "nu"),
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


# --- the failure policy -------------------------------------------------------

G4_22_PROFILE = profile_to_json(munzner_betti_N(validate_family(4, 2, 2)))  # Maslov 4
G6_PROFILE = profile_to_json(munzner_betti_N(validate_family(6, 2, 2)))  # unknown degrees
CAPPED = {"n": 4, "known": [[0, 1], [3, 1]], "cap": 3}


def envelope(profile: dict, maslov: int, oracle: dict | None = None) -> dict:
    """A ``narrow-check --format json`` envelope with a true propagator verdict."""
    parsed = profile_from_json(profile)
    nu = (parsed.n + 1) // maslov
    return {
        "profile": profile, "maslov": maslov, "n": parsed.n, "nu": nu,
        "verdict": verdict_to_json(propagate_narrow(parsed, maslov, parsed.n, nu)),
        "oracle": oracle,
    }


def oracle_json(profile: dict, maslov: int) -> dict:
    parsed = profile_from_json(profile)
    return verdict_to_json(oracle_narrow_feasible(parsed, maslov, (parsed.n + 1) // maslov))


def forged_headline() -> dict:
    payload = envelope(G4_22_PROFILE, 4)
    payload["verdict"].update(slot=0, bound=99)
    return payload


FORGED_WIDE_INFEASIBLE = {
    "kind": "Infeasible", "slot": None, "page": 1501 // 3 + 1, "bound": None,
    "witness": {"type": "exhausted-search", "completions_tried": 1, "states_explored": 1},
}

NARROW = ["narrow-check", "--profile", "input.json", "--maslov"]
REPLAY = ["replay", "input.json"]

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
    pytest.param(REPLAY, envelope(G4_22_PROFILE, 4) | {"nu": 3}, 2, "nu is 3", id="nu-mismatch"),
    pytest.param(REPLAY, forged_headline(), 2, "headline", id="headline-mismatch"),
    # a true Infeasible verdict for the capped profile, replayed with the cap dropped:
    # replay reruns the oracle, which refuses the unbounded profile
    pytest.param(REPLAY, envelope(CAPPED | {"cap": None}, 3, oracle_json(CAPPED, 3)), 1,
                 "no finite upper bound", id="forged-unbounded-infeasible"),
    pytest.param(REPLAY, envelope({"n": 1500, "known": [], "cap": 0}, 3, FORGED_WIDE_INFEASIBLE),
                 1, "above the oracle's limit", id="wide-oracle"),
]


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


class TestGolden:
    """classify-all JSON is byte-identical to the output recorded at the seed."""

    @pytest.mark.parametrize(
        "bound,size,digest",
        [
            (16, 159_171, "bb9aa9b110298734a118608e096849aa8d14063c8e6ac1ec0de09be1ef59f7a0"),
            (64, 2_722_353, "809d3c9964010c93cee1f3ad51aacaa9199d62f3a0354821ae135dba5821ea0b"),
        ],
    )
    def test_classify_all_json_bytes(self, capsys, bound, size, digest):
        code, out, _ = run(capsys, ["classify-all", "--bound", str(bound), "--format", "json"])
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_catalog_json_bytes(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--bound", "16", "--format", "json"])
        assert code == 0
        data = out.encode()
        assert len(data) == 170_219
        assert hashlib.sha256(data).hexdigest() == (
            "60377f9b5a89934a3256c7720aae654b30b76d204870fd4eb1e7574d6f5e08ac"
        )

    def test_feasible_oracle_json_bytes(self, capsys, tmp_path):
        # nested rank lists: the profile entries, the final-page slots, the ranks
        path = write_profile(tmp_path, "g4_12.json", validate_family(4, 1, 2))
        code, out, _ = run(
            capsys,
            ["narrow-check", "--profile", path, "--maslov", "3", "--oracle", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["kind"] == "Feasible"
        data = out.encode()
        assert len(data) == 1_514
        assert hashlib.sha256(data).hexdigest() == (
            "5d8ee7f091dca052b17a88331e308328b1ab509148d9c45ff742a3599751f6fe"
        )

    def test_classify_all_json_through_a_pipe(self):
        # the JSON is streamed to the real stdout, not a capture buffer
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "isofloer.cli", "classify-all", "--bound", "16",
             "--format", "json"],
            capture_output=True, env=env, check=False,
        )
        assert proc.returncode == 0
        assert len(proc.stdout) == 159_171
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "bb9aa9b110298734a118608e096849aa8d14063c8e6ac1ec0de09be1ef59f7a0"
        )


# --- the JSON writer ----------------------------------------------------------

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


def emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(payload)
    return out.getvalue()


class TestJsonWriter:
    """The writer makes the bytes of json.dumps(indent=2)."""

    @settings(max_examples=200, deadline=None)
    @given(json_trees)
    def test_matches_json_dumps(self, value):
        assert cli.json_text(value) + "\n" == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(json_trees, max_size=4), st.dictionaries(json_strings, json_trees, max_size=4))
    def test_emit_streams_the_same_bytes(self, items, record):
        expected = json.dumps(items, indent=2) + "\n"
        assert emitted(items) == expected
        assert emitted(iter(items)) == expected
        assert emitted(record) == json.dumps(record, indent=2) + "\n"

    def test_empty_generator_is_an_empty_list(self):
        assert emitted(x for x in ()) == "[]\n"

    @settings(max_examples=50, deadline=None)
    @given(json_trees)
    def test_one_element_generator(self, value):
        assert emitted(x for x in [value]) == json.dumps([value], indent=2) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, object(), {1: "int key"}, [b"bytes"]])
    def test_non_json_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli.json_text(value)


# --- replay fuzzing -----------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=4))

# every witness kind, with the paths of the fields the fuzz may overwrite
WITNESS_KINDS = {
    (4, 2, 2): ("Contradiction", "Infeasible"),
    (4, 1, 2): ("NoContradiction", "Feasible"),
}
WITNESS_FILES = {
    (4, 2, 2): [
        ("maslov",), ("nu",),
        ("verdict", "page"), ("verdict", "slot"), ("verdict", "bound"),
        ("verdict", "witness", "slot"), ("verdict", "witness", "bound"),
        ("verdict", "witness", "chain", 0), ("verdict", "witness", "chain", 1),
        ("verdict", "witness", "chain", 1, "lower_after"),
        ("oracle", "page"), ("oracle", "slot"),
        ("oracle", "witness", "completions_tried"), ("oracle", "witness", "states_explored"),
    ],
    (4, 1, 2): [
        ("maslov",), ("nu",),
        ("verdict", "page"), ("verdict", "slot"), ("verdict", "bound"),
        ("verdict", "witness", "slots", 3),
        ("oracle", "page"), ("oracle", "slot"), ("oracle", "bound"),
        ("oracle", "witness", "completion"), ("oracle", "witness", "completion", 3),
        ("oracle", "witness", "ranks", 0), ("oracle", "witness", "ranks", 1, "page"),
        ("oracle", "witness", "ranks", 0, "ranks"), ("oracle", "witness", "ranks", 0, "ranks", 1),
    ],
}


@pytest.fixture(scope="module")
def stored_witnesses(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    stored = {}
    for g, m1, m2 in WITNESS_FILES:
        family = validate_family(g, m1, m2)
        profile = folder / "profile.json"
        profile.write_text(json.dumps(profile_to_json(munzner_betti_N(family))), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["narrow-check", "--profile", str(profile), "--maslov",
                             str(minimal_maslov(family)), "--oracle", "--format", "json"])
        assert code == 0
        envelope = json.loads(out.getvalue())
        assert (envelope["verdict"]["kind"], envelope["oracle"]["kind"]) == WITNESS_KINDS[g, m1, m2]
        stored[(g, m1, m2)] = envelope
    return folder, stored


FUZZ_FIELDS = [(family, path) for family, paths in WITNESS_FILES.items() for path in paths]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FUZZ_FIELDS), json_values)
def test_replay_exits_cleanly_on_any_field_value(stored_witnesses, field, value):
    folder, stored = stored_witnesses
    family, path = field
    payload = copy.deepcopy(stored[family])
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    witness = folder / "witness.json"
    witness.write_text(json.dumps(payload), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["replay", str(witness)])
    assert code in (0, 1, 2)


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
    json_values,
    st.sampled_from(["narrow-check", "wide-check"]),
)
def test_profile_readers_exit_cleanly_on_any_field_value(tmp_path_factory, index, path, value,
                                                         command):
    profile, maslov = PROFILE_FILES[index]
    payload = copy.deepcopy(profile)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "fuzzed_profile.json"
    file.write_text(json.dumps(payload), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--profile", str(file), "--maslov", str(maslov),
                         "--format", "json"])
    assert code in (0, 1, 2)
