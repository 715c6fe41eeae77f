"""Command-line interface: classification, raw-profile checks, witness replay.

Exit codes: 0 when a verdict was produced (Unresolved and NoContradiction
are verdicts), 1 on domain or usage errors, 2 on malformed input files.
``main`` is the one place that turns an exception into an exit code.  A
usage error prints argparse's usage line and ``isofloer <command>: error:
...`` on stderr and exits 1; every other failure prints one ``error:`` line,
except an output pipe closed by its reader, which exits 1 silently.

``--format json`` prints the text of each record's own ``json_text``.
This module runs ``classify`` and holds one one-line entry for each other
command; the handlers behind those entries, with the envelopes of
``narrow-check``, ``wide-check`` and ``replay`` and the strict reader of input
files, are in ``commands``, which the first entry called imports.
``classify-all`` and ``catalog --format json`` there import ``pool`` in turn,
as ``specseq`` loads the exact decider and the verdict reader and replays: a
``classify`` process runs none of them, and a process with no bytecode cache
compiles every module it imports.  The engine names every command calls are
imported below, some of them ``specseq``'s forwarders to those modules; a
handler in ``commands`` reads each through this module when it runs, so a
patch of one of them here reaches it.

``main_entry``, the entry point of ``python -m isofloer.cli`` and of the
``isofloer`` script, freezes the heap it starts with (``gc.freeze``) before it
calls ``main``, so the process's exit frees the loaded modules without the
collector walking them.  ``main`` itself never freezes: a process may call it
many times.
"""

from __future__ import annotations

import argparse
import functools
import gc
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
    report_to_json,  # no command calls it, nor verdict_to_json; perfbench/worker.py patches both
    wide_check_biran_cornea,
)
from .homology import ProfileError, as_int, as_object, json_list, profile_from_json
from .specseq import (
    EngineError,
    SearchCapError,
    WitnessError,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    verdict_from_json,
    verdict_to_json,
    _lazy,
    _page_turns,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_FORMAT = 2


class InputError(Exception):
    """An input file that cannot be read, is too large, is not JSON, or does not parse."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged, and each subcommand's handler reads the
    engine functions from this module when it runs.  Its
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


# The other commands' handlers live in isofloer.commands, which loads at the
# first call of one of them.  Each is passed this module, under python -m its
# __main__, and reads from it every name it calls, at call time.
def _cmd_classify_all(args: argparse.Namespace) -> int:
    return _lazy.commands.classify_all(sys.modules[__name__], args)


def _cmd_narrow_check(args: argparse.Namespace) -> int:
    return _lazy.commands.narrow_check(sys.modules[__name__], args)


def _cmd_wide_check(args: argparse.Namespace) -> int:
    return _lazy.commands.wide_check(sys.modules[__name__], args)


def _cmd_replay(args: argparse.Namespace) -> int:
    return _lazy.commands.replay(sys.modules[__name__], args)


def _cmd_catalog(args: argparse.Namespace) -> int:
    return _lazy.commands.catalog(sys.modules[__name__], args)


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
