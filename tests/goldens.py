"""The pinned outputs of ``tests/goldens.json``, read by tier-1 and by CI.

``goldens.json`` maps a command line (its argv joined by spaces) to the byte
count and SHA-256 of its stdout.  Tier-1 checks the rows it runs in process
through ``load``; CI pipes the bound-128 outputs into this script::

    python -m isofloer.cli ARGV... | python tests/goldens.py ARGV...

which exits 0 when stdin is the output pinned for ARGV, and 1, naming what
differs, when it is not.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "goldens.json"


def load() -> dict[tuple[str, ...], tuple[int, str]]:
    """Every pinned output: argv as a tuple → (byte count, SHA-256 hex digest)."""
    rows = json.loads(PATH.read_text(encoding="utf-8"))
    return {tuple(argv.split(" ")): (row["bytes"], row["sha256"]) for argv, row in rows.items()}


def main(argv: list[str]) -> int:
    expected = load()[tuple(argv)]
    data = sys.stdin.buffer.read()
    got = (len(data), hashlib.sha256(data).hexdigest())
    if got != expected:
        print(f"{' '.join(argv)}: {got[0]} bytes, sha256 {got[1]}; pinned: {expected[0]} bytes, "
              f"sha256 {expected[1]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
