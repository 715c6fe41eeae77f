"""Command-line interface: classification, raw-profile checks, witness replay.

Exit codes: 0 when a verdict was produced (Unresolved and NoContradiction
are verdicts), 1 on domain or usage errors, 2 on malformed input files.
``main`` is the one place that turns an exception into an exit code; every
failure prints one ``error:`` line on stderr, except an output pipe closed
by its reader, which exits 1 silently.

``classify-all`` and ``catalog --format json`` render their families
through ``_ordered_map``, which spreads them over forked worker processes,
one per CPU the process may run on, and prints the results in order: the
bytes are those of one process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .catalog import (
    FamilyError,
    collapse_step,
    data_to_json,
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
    report_to_json,
    wide_check_biran_cornea,
)
from .homology import ProfileError, as_int, profile_from_json, profile_to_json
from .specseq import (
    CONTRADICTION,
    FEASIBLE,
    INFEASIBLE,
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
    """An input file that cannot be read, is not JSON, or does not parse."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged, and each subcommand's handler reads the
    engine functions from this module's globals when it runs.
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


def _emit_json(payload: dict) -> None:
    """Print ``payload`` as ``json.dumps(payload, indent=2)`` would, plus a newline."""
    sys.stdout.write(json_text(payload) + "\n")  # looked up per call: capsys swaps it


def _emit_json_list(texts) -> None:
    """Print the list of the items that ``texts`` render as ``json.dumps(items,
    indent=2)`` would, plus a newline.

    Each text is ``json_text`` of one item, indented as a list element.  The
    texts are written as they come, so they are never held together.
    """
    out = sys.stdout
    opener = "[\n  "
    for text in texts:
        out.write(opener + text)
        opener = ",\n  "
    out.write("[]\n" if opener == "[\n  " else "\n]\n")


# families per unit of work of a worker process; at most this many are
# rendered in process
CHUNK = 256


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def _ordered_map(fn, items: list):
    """Give an iterator of ``fn(item)`` for every item, in order.

    With one CPU, no ``os.fork`` or at most ``CHUNK`` items this is ``map``.
    Otherwise the items are cut into chunks of ``CHUNK``, and k forked
    workers, one per CPU but no more than chunks, share them: worker w
    takes chunks w, w + k, w + 2k, ...  It sends each chunk's results as
    one length-prefixed pickle on its own pipe, and the iterator reads the
    chunks back in order.  Where a pipe or a process cannot be had, the
    workers already started are stopped and this is ``map`` again.

    When ``fn`` raises, the iterator gives the results before that item and
    then raises the same exception, as ``map`` would; a worker's exception
    has the worker's traceback as its cause.  On leaving the block, however
    it is left, the workers are killed and reaped.  A worker whose parent
    died meets a closed pipe on its next write and exits.
    """
    chunks = [items[i:i + CHUNK] for i in range(0, len(items), CHUNK)]
    workers = min(_cpus(), len(chunks)) if hasattr(os, "fork") else 1
    if workers < 2:
        yield map(fn, items)
        return
    sources, pids = [], []
    try:
        try:
            for w in range(workers):
                read, write = os.pipe()
                sources.append(open(read, "rb"))
                try:
                    pid = os.fork()
                except OSError:
                    os.close(write)
                    raise
                if pid == 0:
                    _work(fn, chunks[w::workers], write, [s.fileno() for s in sources])
                os.close(write)
                pids.append(pid)
        except OSError:  # EAGAIN, ENOMEM, EMFILE, ...: one process does the work
            _stop(sources, pids)
        yield _read_chunks(sources, len(chunks)) if pids else map(fn, items)
    finally:
        _stop(sources, pids)


def _stop(sources: list, pids: list[int]) -> None:
    """Close the read ends, then kill and reap the workers; empties both lists."""
    # imported here, as _work and _read_chunks import pickle: about 3 ms that
    # a command which never forks, such as a single classify, does not pay
    import signal

    for source in sources:
        source.close()
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    sources.clear()
    pids.clear()


def _work(fn, chunks: list, write: int, others: list[int]):
    """A worker, right after ``fork``: send each chunk's results, then exit.

    It keeps no pipe end but ``write``, prints nothing to the parent's
    stdout, and leaves through ``os._exit``, so no exit handler or test
    teardown of the parent runs in it.
    """
    try:
        import pickle

        for fd in others:
            os.close(fd)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        with open(write, "wb") as out:
            for chunk in chunks:
                values, error, trace = [], None, None
                try:
                    for item in chunk:
                        values.append(fn(item))
                except Exception as exc:  # the parent raises it after the values
                    import traceback

                    error, trace = exc, traceback.format_exc()
                    try:
                        pickle.loads(pickle.dumps(error))
                    except Exception:  # it does not cross a pipe: its type and message do
                        error = RuntimeError(f"{type(exc).__name__}: {exc}")
                frame = pickle.dumps((values, error, trace), pickle.HIGHEST_PROTOCOL)
                out.write(len(frame).to_bytes(8, "little") + frame)
                out.flush()
                if error is not None:
                    break
    finally:
        os._exit(0)


def _read_chunks(sources: list, count: int):
    """The results of chunks 0..count-1; chunk i comes from ``sources[i % len(sources)]``."""
    import pickle

    for i in range(count):
        source = sources[i % len(sources)]
        size = int.from_bytes(source.read(8), "little")
        frame = source.read(size)
        if not frame or len(frame) < size:
            raise EngineError(f"a worker process ended before it sent chunk {i}")
        values, error, trace = pickle.loads(frame)
        yield from values
        if error is not None:
            raise error from RuntimeError(f"in a worker process:\n{trace}")


def _print_report_text(report: CaseReport, verbose: bool) -> None:
    f = report.family
    print(f"g={f.g} m1={f.m1} m2={f.m2} n={f.n}: {report.status}")
    for step in report.justification:
        print(f"  [{step.kind}] {step.claim}" + (f"  ({step.source})" if step.source else ""))
        if verbose and step.verdict is not None:
            for line in _verdict_text_lines(step.verdict):
                print(f"      {line}")
    if report.intersects_real_form:
        print("  intersects the real form: yes")
    if report.volume_lower_bound is not None:
        print(f"  sweep-volume lower bound: {report.volume_lower_bound:.6f}")


def _verdict_text_lines(verdict, maslov: int | None = None, n: int | None = None) -> list[str]:
    """The summary, then the chain, each cancellation (which needs ``maslov``)
    or the barrier (which needs ``n``: slot n + 1 is the pool)."""
    lines = [_verdict_summary(verdict)]
    if verdict.kind == CONTRADICTION:
        for c in verdict.witness.chain:
            lines.append(
                f"page {c.page}: slot bound {c.lower_before} -> {c.lower_after} "
                f"(neighbours {c.left} hi={c.left_hi}, {c.right} hi={c.right_hi})"
            )
    elif verdict.kind == FEASIBLE:
        for s, r, count in verdict.witness.pairs:
            classes = "1 class of slot" if count == 1 else f"{count} classes of slot"
            verb = "cancels" if count == 1 else "cancel"
            lines.append(f"page {r}: {classes} {s} {verb} slot {s + r * maslov - 1}")
    elif verdict.kind == INFEASIBLE:
        barrier = verdict.witness.barrier
        if not barrier:
            lines.append("barrier: empty (with no slot removed, a class is left unpaired)")
        else:
            slots = ", ".join("pool" if s == n + 1 else f"slot {s}" for s in barrier)
            lines.append(f"barrier: {slots} (more parts are odd without the barrier "
                         "than it holds classes)")
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
        with _ordered_map(_report_json, families) as texts:
            _emit_json_list(texts)
        return EXIT_OK
    print(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4}  {'status':<16} justification")
    unresolved = []
    with _ordered_map(_report_row, families) as rows:
        for row, name in rows:
            print(row)
            if name is not None:
                unresolved.append(name)
    print(f"unresolved: {', '.join(unresolved) or 'none'}")
    return EXIT_OK


def _report_json(family) -> str:
    return json_text(report_to_json(classify(family)), "\n  ")


def _report_row(family) -> tuple[str, str | None]:
    """A ``classify-all`` text row, and the family's name if it is Unresolved."""
    f, report = family, classify(family)
    trail = " -> ".join(step.rule for step in report.justification)
    row = f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4}  {report.status:<16} {trail}"
    return row, f"({f.g},{f.m1},{f.m2})" if report.status == UNRESOLVED else None


def _cmd_narrow_check(args: argparse.Namespace) -> int:
    profile = _read(args.profile, profile_from_json, "profile")
    require_maslov(args.maslov)
    nu = (profile.n + 1) // args.maslov
    verdict = propagate_narrow(profile, args.maslov, profile.n, nu)
    oracle_verdict = None
    oracle_note = None
    if args.oracle:
        try:
            oracle_verdict = oracle_narrow_feasible(profile, args.maslov, nu)
        except SearchCapError as exc:
            oracle_note = str(exc)
    if args.format == "json":
        _emit_json({
            "profile": profile_to_json(profile),
            "maslov": args.maslov,
            "verdict": verdict_to_json(verdict),
            "oracle": verdict_to_json(oracle_verdict) if oracle_verdict is not None else None,
        })
        return EXIT_OK
    print(f"propagation: {_verdict_summary(verdict)}")
    if args.verbose:
        for line in _verdict_text_lines(verdict)[1:]:
            print(f"  {line}")
    if oracle_verdict is not None:
        print(f"oracle: {_verdict_summary(oracle_verdict)}")
        if args.verbose:
            for line in _verdict_text_lines(oracle_verdict, args.maslov, profile.n)[1:]:
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
        _emit_json({"replayed": ok, "verdicts": len(verdicts)})
    else:
        print("witness replay: " + ("ok" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.format == "json":
        with _ordered_map(_data_json, enumerate_families(args.bound)) as texts:
            _emit_json_list(texts)
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


def _data_json(family) -> str:
    return json_text(data_to_json(family), "\n  ")


def main(argv: list[str] | None = None) -> int:
    # building the parser costs about 15x parsing with it, so one parser
    # serves every call in the process and is never freed between them
    try:
        args = build_parser().parse_args(argv)
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
