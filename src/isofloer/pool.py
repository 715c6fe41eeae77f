"""The worker pool of ``classify-all`` and ``catalog --format json``.

``_ordered_map`` spreads the families over the process and forked workers,
one process per CPU it may run on (``_cpus``), in chunks of ``CHUNK``, and
gives the results in order; ``_emit_json_list`` prints them one write per
chunk, so the bytes are those of one process.  A worker sends its chunks as
``marshal`` frames on its own pipe and stops when that pipe is closed.  The
parent renders every chunk that no worker sent, so a worker that cannot be
started, raises, dies or is killed costs time, not bytes.

``cli`` imports this module in the two commands that use it, so a process
that runs neither, such as one ``classify``, never compiles it.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys


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
