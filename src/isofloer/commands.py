"""The handlers of every command but ``classify``, which ``cli`` loads on first use.

``classify-all``, ``narrow-check``, ``wide-check``, ``replay`` and ``catalog``
run here, with the strict reader of input files, ``_read``.  A ``classify``
process runs none of it, and a process with no bytecode cache compiles every
module it imports, so ``cli`` keeps one one-line entry per command and
imports this module at its first call.

Each handler takes the ``cli`` module that dispatched it and reads from it,
at call time, every name it uses of the engine and of ``cli``: a patch of
``cli.<name>`` reaches the handler as it did when the handlers lived in
``cli``.  This module never imports ``isofloer.cli``: under ``python -m
isofloer.cli`` the running module is ``__main__``, and that import would
compile ``cli.py`` a second time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys

# Largest input file read, in bytes.  The widest envelope the CLI writes,
# narrow-check --oracle at n = 4096 with every dim 10^9, is 429,364 bytes, so
# 4 MiB leaves about a tenfold margin, and a larger file is refused before json
# builds it in memory.  Reading whole classify-all reports (ROADMAP item 6)
# will need this limit looked at again.
MAX_INPUT_BYTES = 4 * 1024 * 1024
# read(n) allocates n bytes before it reads, so _read reads the first
# FIRST_READ bytes, which hold most inputs, and reads on only if they fill it
FIRST_READ = 64 * 1024


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json keeps the last of a repeated key, this refuses it."""
    data = dict(pairs)
    if len(data) < len(pairs):  # the first key to pop a second time is repeated
        key = next(key for key, _ in pairs if data.pop(key, pairs) is pairs)
        raise ValueError(f"key {key!r} repeated in one object")
    return data


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads builds one per call


def _read(cli, path: str, parse, what: str):
    """``parse`` the JSON file at ``path``, at most ``MAX_INPUT_BYTES`` long;
    every way that fails is a ``cli.InputError``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read(FIRST_READ)
            if len(raw) == FIRST_READ:
                raw += handle.read(MAX_INPUT_BYTES + 1 - FIRST_READ)
    except OSError as exc:
        raise cli.InputError(f"cannot read {path}: {exc}") from exc
    if len(raw) > MAX_INPUT_BYTES:
        raise cli.InputError(f"{path} is larger than the input limit of {MAX_INPUT_BYTES} bytes")
    try:  # decoded as a text-mode read decodes it, with universal newlines
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a repeated key, or too deep
        raise cli.InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (cli.ProfileError, cli.WitnessError) as exc:
        raise cli.InputError(f"malformed {what} file: {exc}") from exc


def classify_all(cli, args) -> int:
    from .pool import _emit_json_list, _ordered_map  # loaded on first use: classify never runs it

    families = cli.enumerate_families(args.bound)
    if args.format == "json":
        with contextlib.closing(_ordered_map(functools.partial(_report_json, cli),
                                             families)) as chunks:
            _emit_json_list(chunks)
        return cli.EXIT_OK
    sys.stdout.write(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4}  {'status':<16} justification\n")
    unresolved = []
    with contextlib.closing(_ordered_map(functools.partial(_report_row, cli), families)) as chunks:
        for rows in chunks:  # one write per chunk
            sys.stdout.write("".join(row for row, _ in rows))
            unresolved += [name for _, name in rows if name is not None]
    sys.stdout.write(f"unresolved: {', '.join(unresolved) or 'none'}\n")
    return cli.EXIT_OK


def _report_json(cli, family) -> str:
    return cli.classify(family).json_text("\n  ")


def _report_row(cli, family) -> tuple[str, str | None]:
    """A ``classify-all`` text row with its newline, and the family's name if it is Unresolved."""
    f, report = family, cli.classify(family)
    trail = " -> ".join(step.rule for step in report.justification)
    row = f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4}  {report.status:<16} {trail}\n"
    return row, f"({f.g},{f.m1},{f.m2})" if report.status == cli.UNRESOLVED else None


def narrow_check(cli, args) -> int:
    profile = _read(cli, args.profile, cli.profile_from_json, "profile")
    nu = cli._page_turns(profile.n, args.maslov)
    verdict = cli.propagate_narrow(profile, args.maslov, profile.n, nu)
    oracle_verdict = oracle_note = None
    if args.oracle:
        try:
            oracle_verdict = cli.oracle_narrow_feasible(profile, args.maslov)
        except cli.SearchCapError as exc:
            oracle_note = str(exc)
    if args.format == "json":  # the envelope {"profile", "maslov", "verdict", "oracle"}
        inner = "\n  "
        oracle = "null" if oracle_verdict is None else oracle_verdict.json_text(inner)
        sys.stdout.write(f'{{{inner}"profile": {profile.json_text(inner)},'
                         f'{inner}"maslov": {args.maslov},{inner}"verdict": '
                         f'{verdict.json_text(inner)},{inner}"oracle": {oracle}\n}}\n')
        return cli.EXIT_OK
    for label, shown in (("propagation", verdict), ("oracle", oracle_verdict)):
        if shown is not None:
            print(f"{label}: {shown.witness.summary(shown.page)}")
            # a cancellation needs the Maslov number, a barrier n: slot n + 1 is the pool
            for line in shown.witness.details(args.maslov, profile.n) if args.verbose else ():
                print(f"  {line}")
    if oracle_note is not None:
        print(f"oracle skipped: {oracle_note}")
    return cli.EXIT_OK


def wide_check(cli, args) -> int:
    profile = _read(cli, args.profile, cli.profile_from_json, "profile")
    wide = cli.wide_check_biran_cornea(profile, args.maslov)
    tested = list(range(args.maslov - 1, profile.n + 1, args.maslov))
    if args.format == "json":
        inner = "\n  "
        degrees = cli.json_list([str(degree) for degree in tested], inner)
        sys.stdout.write(f'{{{inner}"wide": {"true" if wide else "false"},{inner}"maslov": '
                         f'{args.maslov},{inner}"tested_degrees": {degrees}\n}}\n')
    else:
        print(f"wide: {'yes' if wide else 'no'} (degrees tested: {tested})")
    return cli.EXIT_OK


def _witness_from_json(cli, data: dict):
    """A ``narrow-check`` envelope's profile, Maslov number, verdict and non-null oracle verdict."""
    profile, maslov, verdict, oracle = cli.as_object(
        data, ("profile", "maslov", "verdict"), ("oracle",), cli.WitnessError, "witness file")
    profile = cli.profile_from_json(profile)
    maslov = cli.as_int(maslov, what="witness field 'maslov'")
    verdicts = [cli.verdict_from_json(v) for v in (verdict, oracle)[:1 + (oracle is not None)]]
    return profile, maslov, verdicts


def replay(cli, args) -> int:
    profile, maslov, verdicts = _read(cli, args.witness_file,
                                      functools.partial(_witness_from_json, cli), "witness")
    ok = all(cli.replay_witness(v, profile, maslov) for v in verdicts)
    if args.format == "json":
        sys.stdout.write(f'{{\n  "replayed": {"true" if ok else "false"},'
                         f'\n  "verdicts": {len(verdicts)}\n}}\n')
    else:
        print("witness replay: " + ("ok" if ok else "MISMATCH"))
    return cli.EXIT_OK if ok else cli.EXIT_DOMAIN


def catalog(cli, args) -> int:
    if args.format == "json":
        from .pool import _emit_json_list, _ordered_map  # loaded on first use, as in classify-all

        families = cli.enumerate_families(args.bound)
        records = functools.partial(cli.data_text, indent="\n  ")
        with contextlib.closing(_ordered_map(records, families)) as chunks:
            _emit_json_list(chunks)
        return cli.EXIT_OK
    families = cli.iter_families(args.bound)  # refuses a bad bound before the header
    print(f"{'g':>3} {'n':>4} {'m1':>4} {'m2':>4} {'maslov':>7} {'nu':>3} {'orient':>7}")
    # three small calls per family: forked workers gain nothing here, and
    # one family at a time keeps the table in constant memory
    for f in families:
        print(
            f"{f.g:>3} {f.n:>4} {f.m1:>4} {f.m2:>4} {cli.minimal_maslov(f):>7} "
            f"{cli.collapse_step(f):>3} {'yes' if cli.orientable(f) else 'no':>7}"
        )
    return cli.EXIT_OK
