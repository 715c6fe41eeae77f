"""Command-line interface: classification, raw-profile checks, witness replay.

Exit codes: 0 when a verdict was produced (Unresolved and NoContradiction
are verdicts), 1 on domain or usage errors, 2 on malformed input files.
``main`` is the one place that turns an exception into an exit code.  A
usage error prints argparse's usage line and ``isofloer <command>: error:
...`` on stderr and exits 1; every other failure prints one ``error:`` line,
except an output pipe closed by its reader, which exits 1 silently.

``--format json`` prints the text of each record's own ``json_text``;
the envelopes of ``narrow-check``, ``wide-check`` and ``replay`` are written
here.  ``classify-all`` and ``catalog --format json`` render their families
through the worker pool, ``pool._ordered_map``, which spreads them over the
process and forked workers and gives the results in order: the bytes are
those of one process.  Those two commands import ``pool`` on first use, as
``specseq`` imports the exact decider's matcher: a ``classify`` process runs
neither, and a process with no bytecode cache compiles every module it
imports.  Compiling the two takes about 2 ms, and a cold ``import isofloer.cli``
fell from about 20.6 to 17.3 ms (CPython 3.11, x86_64).  The engine names that
a command calls (``oracle_narrow_feasible``, ``replay_witness``,
``verdict_from_json`` among them) are still bound here at import.

``main_entry``, the entry point of ``python -m isofloer.cli`` and of the
``isofloer`` script, freezes the heap it starts with (``gc.freeze``) before it
calls ``main``, so the process's exit frees the loaded modules without the
collector walking them.  ``main`` itself never freezes: a process may call it
many times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import sys

from .catalog import (
    FamilyError,
    collapse_step,
    data_text,
    enumerate_families,
    iter_families,
    minimal_maslov,
    orientable,
    validate_family,
)
from .criteria import (
    CaseReport,
    UNRESOLVED,
    classify,
    report_to_json,  # unused here, as is verdict_to_json; perfbench/worker.py patches them
    wide_check_biran_cornea,
)
from .homology import ProfileError, as_int, json_list, profile_from_json
from .specseq import (
    EngineError,
    SearchCapError,
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
    """An input file that cannot be read, is too large, is not JSON, or does not parse."""


# Largest input file read, in bytes.  The widest envelope the CLI writes,
# narrow-check --oracle at n = 4096 with every dim 10^9, is 429,364 bytes, so
# 4 MiB leaves about a tenfold margin, and a larger file is refused before json
# builds it in memory.  Reading whole classify-all reports (ROADMAP item 6)
# will need this limit looked at again.
MAX_INPUT_BYTES = 4 * 1024 * 1024
# read(n) allocates n bytes before it reads, so _read reads the first
# FIRST_READ bytes, which hold most inputs, and reads on only if they fill it
FIRST_READ = 64 * 1024


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged, and each subcommand's handler reads the
    engine functions from this module's globals when it runs.  Its
    ``commands`` attribute maps each command name to that command's parser.
    """
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
                           help="print each witness in text output")

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
                   help="also run the exact matching decider")
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

    parser.commands = sub.choices
    return parser


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json keeps the last of a repeated key, this refuses it."""
    data = dict(pairs)
    if len(data) < len(pairs):  # the first key to pop a second time is repeated
        key = next(key for key, _ in pairs if data.pop(key, pairs) is pairs)
        raise ValueError(f"key {key!r} repeated in one object")
    return data


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads builds one per call


def _read(path: str, parse, what: str):
    """``parse`` the JSON file at ``path``, at most ``MAX_INPUT_BYTES`` long;
    every way that fails is an InputError."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read(FIRST_READ)
            if len(raw) == FIRST_READ:
                raw += handle.read(MAX_INPUT_BYTES + 1 - FIRST_READ)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(raw) > MAX_INPUT_BYTES:
        raise InputError(f"{path} is larger than the input limit of {MAX_INPUT_BYTES} bytes")
    try:  # decoded as a text-mode read decodes it, with universal newlines
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a repeated key, or too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ProfileError, WitnessError) as exc:
        raise InputError(f"malformed {what} file: {exc}") from exc


def _print_report_text(report: CaseReport, verbose: bool) -> None:
    f = report.family
    print(f"g={f.g} m1={f.m1} m2={f.m2} n={f.n}: {report.status}")
    for step in report.justification:
        print(f"  [{step.kind}] {step.claim}" + (f"  ({step.source})" if step.source else ""))
        if verbose and step.verdict is not None:
            witness = step.verdict.witness
            for line in [witness.summary(step.verdict.page), *witness.details(None, None)]:
                print(f"      {line}")
    if report.intersects_real_form:
        print("  intersects the real form: yes")
    if report.volume_lower_bound is not None:
        print(f"  sweep-volume lower bound: {report.volume_lower_bound:.6f}")


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(validate_family(args.g, args.m1, args.m2))
    if args.format == "json":
        sys.stdout.write(report.json_text() + "\n")
    else:
        _print_report_text(report, args.verbose)
    return EXIT_OK


def _cmd_classify_all(args: argparse.Namespace) -> int:
    from .pool import _emit_json_list, _ordered_map  # loaded on first use: classify never runs it

    families = enumerate_families(args.bound)
    if args.format == "json":
        with contextlib.closing(_ordered_map(_report_json, families)) as chunks:
            _emit_json_list(chunks)
        return EXIT_OK
    sys.stdout.write(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4}  {'status':<16} justification\n")
    unresolved = []
    with contextlib.closing(_ordered_map(_report_row, families)) as chunks:
        for rows in chunks:  # one write per chunk
            sys.stdout.write("".join(row for row, _ in rows))
            unresolved += [name for _, name in rows if name is not None]
    sys.stdout.write(f"unresolved: {', '.join(unresolved) or 'none'}\n")
    return EXIT_OK


def _report_json(family) -> str:
    return classify(family).json_text("\n  ")


def _report_row(family) -> tuple[str, str | None]:
    """A ``classify-all`` text row with its newline, and the family's name if it is Unresolved."""
    f, report = family, classify(family)
    trail = " -> ".join(step.rule for step in report.justification)
    row = f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4}  {report.status:<16} {trail}\n"
    return row, f"({f.g},{f.m1},{f.m2})" if report.status == UNRESOLVED else None


def _cmd_narrow_check(args: argparse.Namespace) -> int:
    profile = _read(args.profile, profile_from_json, "profile")
    require_maslov(args.maslov)
    nu = (profile.n + 1) // args.maslov
    verdict = propagate_narrow(profile, args.maslov, profile.n, nu)
    oracle_verdict = oracle_note = None
    if args.oracle:
        try:
            oracle_verdict = oracle_narrow_feasible(profile, args.maslov)
        except SearchCapError as exc:
            oracle_note = str(exc)
    if args.format == "json":  # the envelope {"profile", "maslov", "verdict", "oracle"}
        inner = "\n  "
        oracle = "null" if oracle_verdict is None else oracle_verdict.json_text(inner)
        sys.stdout.write(f'{{{inner}"profile": {profile.json_text(inner)},'
                         f'{inner}"maslov": {args.maslov},{inner}"verdict": '
                         f'{verdict.json_text(inner)},{inner}"oracle": {oracle}\n}}\n')
        return EXIT_OK
    for label, shown in (("propagation", verdict), ("oracle", oracle_verdict)):
        if shown is not None:
            print(f"{label}: {shown.witness.summary(shown.page)}")
            # a cancellation needs the Maslov number, a barrier n: slot n + 1 is the pool
            for line in shown.witness.details(args.maslov, profile.n) if args.verbose else ():
                print(f"  {line}")
    if oracle_note is not None:
        print(f"oracle skipped: {oracle_note}")
    return EXIT_OK


def _cmd_wide_check(args: argparse.Namespace) -> int:
    profile = _read(args.profile, profile_from_json, "profile")
    wide = wide_check_biran_cornea(profile, args.maslov)
    tested = list(range(args.maslov - 1, profile.n + 1, args.maslov))
    if args.format == "json":
        inner = "\n  "
        degrees = json_list([str(degree) for degree in tested], inner)
        sys.stdout.write(f'{{{inner}"wide": {"true" if wide else "false"},{inner}"maslov": '
                         f'{args.maslov},{inner}"tested_degrees": {degrees}\n}}\n')
    else:
        print(f"wide: {'yes' if wide else 'no'} (degrees tested: {tested})")
    return EXIT_OK


def _witness_from_json(data: dict):
    """The fields of a ``narrow-check --format json`` envelope that replay reads;
    it ignores every other key."""
    if not isinstance(data, dict):
        raise WitnessError("witness file must be a JSON object")
    profile = profile_from_json(data["profile"])
    maslov = as_int(data["maslov"], what="witness field 'maslov'")
    verdicts = [verdict_from_json(data["verdict"])]
    if data.get("oracle") is not None:
        verdicts.append(verdict_from_json(data["oracle"]))
    return profile, maslov, verdicts


def _cmd_replay(args: argparse.Namespace) -> int:
    profile, maslov, verdicts = _read(args.witness_file, _witness_from_json, "witness")
    ok = all(replay_witness(v, profile, maslov) for v in verdicts)
    if args.format == "json":
        sys.stdout.write(f'{{\n  "replayed": {"true" if ok else "false"},'
                         f'\n  "verdicts": {len(verdicts)}\n}}\n')
    else:
        print("witness replay: " + ("ok" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.format == "json":
        from .pool import _emit_json_list, _ordered_map  # loaded on first use, as in classify-all

        families = enumerate_families(args.bound)
        records = functools.partial(data_text, indent="\n  ")
        with contextlib.closing(_ordered_map(records, families)) as chunks:
            _emit_json_list(chunks)
        return EXIT_OK
    families = iter_families(args.bound)  # refuses a bad bound before the header
    print(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4} {'maslov':>7} {'nu':>3} {'orient':>7}")
    # three small calls per family: forked workers gain nothing here, and
    # one family at a time keeps the table in constant memory
    for f in families:
        print(
            f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4} {minimal_maslov(f):>7} {collapse_step(f):>3} "
            f"{'yes' if orientable(f) else 'no':>7}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # one parser serves every call in the process (a warm build takes 0.65 ms),
    # and a command's own parser reads the rest of its argv in one pass: 16.7 us
    # for narrow-check on Python 3.11, where top level then command took 34.4 us
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is a domain error, not a format error
        return EXIT_DOMAIN if exc.code else EXIT_OK
    # WitnessError subclasses EngineError, so its clause comes first
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left; devnull quiets the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    except (InputError, WitnessError) as exc:
        error, code = exc, EXIT_FORMAT
    except (FamilyError, EngineError, ProfileError) as exc:
        error, code = exc, EXIT_DOMAIN
    print(f"error: {error}", file=sys.stderr)
    return code


def main_entry() -> None:
    # Everything alive now (the interpreter's start-up objects and the imported
    # modules, classes and functions) moves to the collector's permanent
    # generation: no collection scans it, and finalization does not collect it,
    # which cost a classify process 7-8 ms at exit; the OS frees it instead.
    # What the command creates is collected as before, so its own leaks still
    # warn under -X dev, which a freeze after main would hide.  main never
    # freezes: tests and benchmarks call it thousands of times in one process.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
