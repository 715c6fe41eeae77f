"""Command-line interface: classification, raw-profile checks, witness replay.

Exit codes: 0 when a verdict was produced (Unresolved and NoContradiction
are verdicts), 1 on domain or usage errors, 2 on malformed input files.
``main`` is the one place that turns an exception into an exit code; every
failure prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .catalog import (
    FamilyError,
    data_to_json,
    enumerate_families,
    gauss_image_data,
    validate_family,
)
from .criteria import (
    CaseReport,
    UNRESOLVED,
    WIDE,
    classify,
    report_to_json,
    wide_check_biran_cornea,
)
from .homology import ProfileError, as_int, profile_from_json, profile_to_json
from .specseq import (
    CONTRADICTION,
    FEASIBLE,
    EngineError,
    SearchCapError,
    UnknownSlotsError,
    WitnessError,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    require_maslov,
    verdict_from_json,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_FORMAT = 2


class InputError(Exception):
    """An input file that cannot be read, is not JSON, or does not parse."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isofloer",
        description="Displaceability obstructions for Gauss images of isoparametric hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, verbose=False):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
        if verbose:
            p.add_argument("--verbose", action="store_true",
                           help="print witness chains in text output")

    p = sub.add_parser("classify", help="classify one family (g, m1, m2)")
    p.add_argument("--g", type=int, required=True, help="number of distinct principal curvatures")
    p.add_argument("--m1", type=int, required=True, help="first multiplicity")
    p.add_argument("--m2", type=int, required=True, help="second multiplicity")
    add_format(p, verbose=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("classify-all", help="classify every family with m1+m2 <= bound")
    p.add_argument("--bound", type=int, default=16, help="multiplicity-sum bound (default 16)")
    add_format(p)
    p.set_defaults(handler=_cmd_classify_all)

    p = sub.add_parser("narrow-check", help="run the narrowness deciders on a raw profile")
    p.add_argument("--profile", required=True, help="path to a profile JSON file")
    p.add_argument("--maslov", type=int, required=True, help="minimal Maslov number of the model")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive rank-assignment oracle")
    p.add_argument("--cap", type=int, default=None, help="oracle search cap on the total dimension")
    add_format(p, verbose=True)
    p.set_defaults(handler=_cmd_narrow_check)

    p = sub.add_parser("wide-check", help="run the wideness criterion on a raw profile")
    p.add_argument("--profile", required=True, help="path to a profile JSON file")
    p.add_argument("--maslov", type=int, required=True, help="minimal Maslov number of the model")
    add_format(p)
    p.set_defaults(handler=_cmd_wide_check)

    p = sub.add_parser("replay", help="re-derive a stored narrowness verdict")
    p.add_argument("witness_file", help="path to a narrow-check JSON output file")
    add_format(p)
    p.set_defaults(handler=_cmd_replay)

    p = sub.add_parser("catalog", help="dump Gauss-image data for every family up to a bound")
    p.add_argument("--bound", type=int, default=16, help="multiplicity-sum bound (default 16)")
    add_format(p)
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _read(path: str, parse, what: str):
    """``parse`` the JSON file at ``path``; every way that fails is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ProfileError, WitnessError) as exc:
        raise InputError(f"malformed {what} file: {exc}") from exc


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for JSON-shaped values, written directly.

    With ``indent`` set, ``json.dumps`` runs the stdlib's pure-Python encoder;
    this writer makes the same bytes in about half the time.  ``indent`` is
    the newline plus the indentation of the line ``value`` starts on.
    Scalars must be exactly str, int, float, bool or None, containers dicts
    with str keys, lists or tuples; anything else raises TypeError.
    """
    chunks: list[str] = []
    _write(value, indent, chunks)
    return "".join(chunks)


_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write(value, indent: str, chunks: list[str]) -> None:
    # JSON strings hold no raw newline, so an element nested one level
    # deeper starts on ``indent`` plus two spaces
    append, scalar_text = chunks.append, _SCALAR_TEXT.get
    scalar = scalar_text(type(value))
    if scalar is not None:
        append(scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = indent + "  "
        opener, comma = "[" + inner, "," + inner
        for item in value:
            scalar = scalar_text(type(item))
            if scalar is not None:
                append(opener + scalar(item))
            else:
                append(opener)
                _write(item, inner, chunks)
            opener = comma
        append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = indent + "  "
        opener, comma = "{" + inner, "," + inner
        for key, item in value.items():
            head = opener + encode_basestring_ascii(key) + ": "
            scalar = scalar_text(type(item))
            if scalar is not None:
                append(head + scalar(item))
            else:
                append(head)
                _write(item, inner, chunks)
            opener = comma
        append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload) -> None:
    """Print ``payload`` as ``json.dumps(payload, indent=2)`` would, plus a newline.

    A dict is written whole; a list or any other iterable is written one
    element at a time, so a generator of records is never held in memory.
    """
    out = sys.stdout  # looked up per call: redirect_stdout and capsys swap it
    if isinstance(payload, dict):
        out.write(json_text(payload) + "\n")
        return
    opener = "[\n  "
    for item in payload:
        out.write(opener + json_text(item, "\n  "))
        opener = ",\n  "
    out.write("[]\n" if opener == "[\n  " else "\n]\n")


def _print_report_text(report: CaseReport, verbose: bool) -> None:
    f = report.family
    print(f"g={f.g} m1={f.m1} m2={f.m2} n={f.n}: {report.status}")
    for step in report.justification:
        print(f"  [{step.kind}] {step.claim}" + (f"  ({step.source})" if step.source else ""))
        if verbose and step.verdict is not None:
            for line in _verdict_text_lines(step.verdict):
                print(f"      {line}")
    if report.status == WIDE:
        print(f"  intersects the real form: {'yes' if report.intersects_real_form else 'no'}")
    if report.volume_lower_bound is not None:
        print(f"  sweep-volume lower bound: {report.volume_lower_bound:.6f}")


def _verdict_text_lines(verdict) -> list[str]:
    lines = [_verdict_summary(verdict)]
    payload = verdict_to_json(verdict)["witness"]
    if payload["type"] == "contradiction-chain":
        for c in payload["chain"]:
            lines.append(
                f"page {c['page']}: slot bound {c['lower_before']} -> {c['lower_after']} "
                f"(neighbours {c['left']} hi={c['left_hi']}, {c['right']} hi={c['right_hi']})"
            )
    elif payload["type"] == "rank-assignment":
        for rv in payload["ranks"]:
            lines.append(f"page {rv['page']}: ranks {rv['ranks']}")
    return lines


def _verdict_summary(verdict) -> str:
    if verdict.kind == CONTRADICTION:
        return (
            f"Contradiction at slot {verdict.slot} "
            f"(final page {verdict.page}, forced lower bound {verdict.bound})"
        )
    if verdict.kind == FEASIBLE:
        return "Feasible: a legal rank assignment reaches the zero page"
    return verdict.kind


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(validate_family(args.g, args.m1, args.m2))
    if args.format == "json":
        _emit_json(report_to_json(report))
    else:
        _print_report_text(report, args.verbose)
    return EXIT_OK


def _cmd_classify_all(args: argparse.Namespace) -> int:
    families = enumerate_families(args.bound)
    if args.format == "json":
        _emit_json(report_to_json(classify(f)) for f in families)
        return EXIT_OK
    reports = [classify(f) for f in families]
    print(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4}  {'status':<16} justification")
    for report in reports:
        f = report.family
        trail = " -> ".join(step.rule for step in report.justification)
        print(f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4}  {report.status:<16} {trail}")
    unresolved = [r.family for r in reports if r.status == UNRESOLVED]
    if unresolved:
        listed = ", ".join(f"({f.g},{f.m1},{f.m2})" for f in unresolved)
        print(f"unresolved: {listed}")
    else:
        print("unresolved: none")
    return EXIT_OK


def _cmd_narrow_check(args: argparse.Namespace) -> int:
    profile = _read(args.profile, profile_from_json, "profile")
    require_maslov(args.maslov)
    nu = (profile.n + 1) // args.maslov
    verdict = propagate_narrow(profile, args.maslov, profile.n, nu)
    oracle_verdict = None
    oracle_note = None
    if args.oracle:
        try:
            oracle_verdict = oracle_narrow_feasible(profile, args.maslov, nu, args.cap)
        except (UnknownSlotsError, SearchCapError) as exc:
            oracle_note = str(exc)
    envelope = {
        "profile": profile_to_json(profile),
        "maslov": args.maslov,
        "n": profile.n,
        "nu": nu,
        "verdict": verdict_to_json(verdict),
        "oracle": verdict_to_json(oracle_verdict) if oracle_verdict is not None else None,
    }
    if args.format == "json":
        _emit_json(envelope)
    else:
        print(f"propagation: {_verdict_summary(verdict)}")
        if args.verbose or verdict.kind == CONTRADICTION:
            for line in _verdict_text_lines(verdict)[1:]:
                print(f"  {line}")
        if oracle_verdict is not None:
            print(f"oracle: {_verdict_summary(oracle_verdict)}")
            if args.verbose:
                for line in _verdict_text_lines(oracle_verdict)[1:]:
                    print(f"  {line}")
        elif oracle_note is not None:
            print(f"oracle skipped: {oracle_note}")
    return EXIT_OK


def _cmd_wide_check(args: argparse.Namespace) -> int:
    profile = _read(args.profile, profile_from_json, "profile")
    wide = wide_check_biran_cornea(profile, args.maslov)
    tested = list(range(args.maslov - 1, profile.n + 1, args.maslov))
    if args.format == "json":
        _emit_json({"wide": wide, "maslov": args.maslov, "tested_degrees": tested})
    else:
        print(f"wide: {'yes' if wide else 'no'} (degrees tested: {tested})")
    return EXIT_OK


def _witness_from_json(data: dict):
    """The fields of a ``narrow-check --format json`` envelope that replay reads."""
    profile = profile_from_json(data["profile"])
    maslov = as_int(data["maslov"], what="witness field 'maslov'")
    nu = as_int(data["nu"], what="witness field 'nu'")
    verdicts = [verdict_from_json(data["verdict"])]
    if data.get("oracle") is not None:
        verdicts.append(verdict_from_json(data["oracle"]))
    return profile, maslov, nu, verdicts


def _cmd_replay(args: argparse.Namespace) -> int:
    profile, maslov, nu, verdicts = _read(args.witness_file, _witness_from_json, "witness")
    require_maslov(maslov)
    turns = (profile.n + 1) // maslov
    if nu != turns:
        raise InputError(
            f"malformed witness file: nu is {nu}, but a profile of top degree "
            f"{profile.n} at Maslov number {maslov} turns {turns} pages"
        )
    ok = all(replay_witness(v, profile, maslov, nu) for v in verdicts)
    if args.format == "json":
        _emit_json({"replayed": ok, "verdicts": len(verdicts)})
    else:
        print("witness replay: " + ("ok" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_catalog(args: argparse.Namespace) -> int:
    families = enumerate_families(args.bound)
    if args.format == "json":
        _emit_json(data_to_json(gauss_image_data(f)) for f in families)
        return EXIT_OK
    records = [gauss_image_data(f) for f in families]
    print(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4} {'maslov':>7} {'nu':>3} {'orient':>7}")
    for rec in records:
        f = rec.family
        print(
            f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4} {rec.maslov:>7} {rec.nu:>3} "
            f"{'yes' if rec.orientable else 'no':>7}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # the parser lives until main returns: freed before the handler runs, it
    # leaves heap holes that raised the dense benchmark's peak RSS by 0.7 MB
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is a domain error, not a format error
        return EXIT_DOMAIN if exc.code else EXIT_OK
    # WitnessError subclasses EngineError, so its clause comes first
    try:
        return args.handler(args)
    except (InputError, WitnessError) as exc:
        error, code = exc, EXIT_FORMAT
    except (FamilyError, EngineError, ProfileError) as exc:
        error, code = exc, EXIT_DOMAIN
    print(f"error: {error}", file=sys.stderr)
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
