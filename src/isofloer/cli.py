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
through ``_ordered_map``, which spreads them over the process and forked
workers, one process per CPU it may run on, and prints the results in
order, one write per chunk: the bytes are those of one process.  A worker
sends its chunks as ``marshal`` frames on its own pipe and stops when that
pipe is closed.  The parent renders every chunk that no worker sent, so a
worker that cannot be started, raises, dies or is killed costs time, not bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import marshal
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
from .homology import ProfileError, as_int, json_list, profile_from_json, scalar_text
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
        data = _DECODER.decode(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a repeated key, or too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ProfileError, WitnessError) as exc:
        raise InputError(f"malformed {what} file: {exc}") from exc


def _emit_json_list(chunks) -> None:
    """Print the items of ``chunks``, lists of JSON texts written at the indent
    ``"\\n  "``, as ``json.dumps(items, indent=2)`` prints their list, plus a
    newline; each chunk is written with one ``write`` as it comes."""
    out, opener = sys.stdout, "[\n  "  # looked up per call: capsys swaps it
    for texts in chunks:
        if texts:
            out.write(opener + ",\n  ".join(texts))
            opener = ",\n  "
    out.write("[]\n" if opener == "[\n  " else "\n]\n")


# families per chunk: a worker's marshal frame, on average 12 KB of classify-all or
# 52 KB of catalog json, mostly fits a 64 KiB pipe, so a worker seldom waits
CHUNK = 8
SERIAL = 256  # at most this many families are rendered in one process


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _ordered_map(fn, items: list):
    """Give ``[fn(item) for item in chunk]`` for the chunks of ``CHUNK`` items, in order.

    k processes, one per CPU, render the chunks: the parent, renderer 0,
    forks k - 1 workers, and renderer w takes chunks w, w + k, w + 2k, ...
    A worker sends each chunk's list as one ``marshal`` frame on its own pipe,
    so ``fn`` returns what ``marshal`` writes: here ``str`` or ``(str, str | None)``.
    k is 1 with one CPU, no ``os.fork`` or at most ``SERIAL`` items.

    One rule covers every failure: the parent renders, in order, every chunk
    that no worker sent, its own and those of a worker that could not be
    started (no pipe or process to be had), raised, died or was killed.  So
    when ``fn`` raises, the parent raises it from its own call, after giving
    the results before that item, as ``map`` would.

    One rule stops the workers: once the generator ends or is closed
    (``contextlib.closing``), it closes its read ends and reaps them.  A
    worker meets the closed pipe on its next write and exits, as it does when
    its parent dies, so the wait lasts at most one chunk's render.
    """
    chunks = [items[i:i + CHUNK] for i in range(0, len(items), CHUNK)]
    k = min(_cpus(), len(chunks)) if hasattr(os, "fork") and len(items) > SERIAL else 1
    sources, pids = {}, []
    try:
        with contextlib.suppress(OSError):  # EAGAIN, ENOMEM, EMFILE, ...: fewer workers
            for w in range(1, k):
                read, write = os.pipe()
                sources[w] = open(read, "rb")
                try:
                    pid = os.fork()
                    if pid == 0:  # the worker never returns from _work
                        _work(fn, chunks[w::k], write, [s.fileno() for s in sources.values()])
                    pids.append(pid)
                finally:
                    os.close(write)
        for i, chunk in enumerate(chunks):
            source = sources.get(i % k)
            if source is not None:
                with contextlib.suppress(EOFError):  # the frame is missing or cut short
                    yield marshal.load(source)
                    continue
            values = []  # the parent's own chunk, or one that no worker sent
            try:
                for item in chunk:
                    values.append(fn(item))
            except Exception:
                yield values
                raise
            yield values
    finally:
        for source in sources.values():
            source.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work(fn, chunks: list, write: int, others: list[int]):
    """A worker, right after ``fork``: send each chunk's list of results, then exit.

    It keeps no pipe end but ``write`` (a read end it kept would hide the
    parent's close), prints nothing to the parent's stdout, and leaves through
    ``os._exit``: no exit handler or test teardown runs in it.  When ``fn``
    raises, it leaves at once, and the parent renders that chunk and the rest
    of its share; a write to a closed pipe (``BrokenPipeError``) ends it so."""
    try:
        for fd in others:
            os.close(fd)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        with open(write, "wb") as out:
            for chunk in chunks:
                marshal.dump([fn(item) for item in chunk], out)
                out.flush()
    finally:
        os._exit(0)


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
            oracle_verdict = oracle_narrow_feasible(profile, args.maslov, nu)
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
        sys.stdout.write(f'{{{inner}"wide": {scalar_text(wide)},{inner}"maslov": '
                         f'{args.maslov},{inner}"tested_degrees": {degrees}\n}}\n')
    else:
        print(f"wide: {'yes' if wide else 'no'} (degrees tested: {tested})")
    return EXIT_OK


def _witness_from_json(data: dict):
    """The fields of a ``narrow-check --format json`` envelope that replay reads;
    it ignores every other key."""
    profile = profile_from_json(data["profile"])
    maslov = as_int(data["maslov"], what="witness field 'maslov'")
    verdicts = [verdict_from_json(data["verdict"])]
    if data.get("oracle") is not None:
        verdicts.append(verdict_from_json(data["oracle"]))
    return profile, maslov, verdicts


def _cmd_replay(args: argparse.Namespace) -> int:
    profile, maslov, verdicts = _read(args.witness_file, _witness_from_json, "witness")
    require_maslov(maslov)
    nu = (profile.n + 1) // maslov
    ok = all(replay_witness(v, profile, maslov, nu) for v in verdicts)
    if args.format == "json":
        sys.stdout.write(f'{{\n  "replayed": {scalar_text(ok)},'
                         f'\n  "verdicts": {len(verdicts)}\n}}\n')
    else:
        print("witness replay: " + ("ok" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.format == "json":
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
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
