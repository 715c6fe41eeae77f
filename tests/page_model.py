"""The tests' reference model of the spectral sequence, page by page.

The tests own this model; the package never calls it.  ``step_page`` turns
a page of known slot dimensions with one rank vector and checks every
linear-algebra constraint of that turn.  ``brute_feasible`` walks every
legal rank vector on every page and is the exact decider's reference.
``euler_char`` and ``check_poincare`` are sanity checks of a table, and
``dims`` and ``slot_bounds`` write a profile's first page out degree by
degree, ``dims`` only for a fully known one.  None of them shares
decision logic with ``isofloer.specseq``; ``step_page`` takes only its
Maslov precondition from there.
"""

import itertools
from dataclasses import dataclass

from isofloer.homology import BettiProfile, ProfileError
from isofloer.specseq import EngineError, require_maslov


class RankViolationError(EngineError):
    """A rank vector breaks a linear-algebra constraint of its page."""


@dataclass(frozen=True)
class RankVector:
    """Chosen ranks of the page-r differential out of each slot."""

    r: int
    ranks: tuple[int, ...]


def step_page(dims: tuple[int, ...], maslov: int, ranks: RankVector) -> tuple[int, ...]:
    """Turn page ``ranks.r``: dim'[s] = dim[s] - a[s] - a[s - shift], shift = r*N - 1.

    A page is its tuple of slot dimensions.  Legality, for every slot s
    (with dims and ranks zero out of range): a[s] <= dim[s] and
    a[s] <= dim[s + shift] (a rank is bounded by domain and codomain), and
    a[s] + a[s - shift] <= dim[s] (the incoming image must fit inside the
    outgoing kernel, i.e. d o d = 0).  Any rank choice passing these is
    realizable by honest Z2-linear maps.
    """
    require_maslov(maslov)
    if ranks.r < 1:
        raise RankViolationError(f"rank vector for page {ranks.r}; pages start at 1")
    width = len(dims)
    if len(ranks.ranks) != width:
        raise RankViolationError(
            f"rank vector has {len(ranks.ranks)} slots, page has {width}"
        )
    shift = ranks.r * maslov - 1
    a = ranks.ranks

    def a_at(s: int) -> int:
        return a[s] if 0 <= s < width else 0

    def d_at(s: int) -> int:
        return dims[s] if 0 <= s < width else 0

    for s in range(width):
        if a[s] < 0:
            raise RankViolationError(f"slot {s}: negative rank {a[s]}")
        if a[s] > dims[s]:
            raise RankViolationError(
                f"slot {s}: rank {a[s]} exceeds the domain dimension {dims[s]}"
            )
        if a[s] > d_at(s + shift):
            raise RankViolationError(
                f"slot {s}: rank {a[s]} exceeds the codomain dimension "
                f"{d_at(s + shift)} at slot {s + shift}"
            )
        if a[s] + a_at(s - shift) > dims[s]:
            raise RankViolationError(
                f"slot {s}: incoming rank {a_at(s - shift)} plus outgoing rank {a[s]} "
                f"exceeds the dimension {dims[s]} (d o d = 0 fails)"
            )
    return tuple(dims[s] - a[s] - a_at(s - shift) for s in range(width))


def brute_feasible(dims, maslov, nu):
    """Independent exhaustive check, no sharing with the engine.

    Enumerates full rank vectors per page by brute product, filtering on
    the three legality constraints, and asks whether any path of page
    turns ends at the zero page.
    """
    width = len(dims)

    def frontier(d, shift):
        caps = []
        for s in range(width):
            cod = d[s + shift] if s + shift < width else 0
            caps.append(min(d[s], cod))
        for a in itertools.product(*(range(c + 1) for c in caps)):
            ok = True
            for s in range(width):
                inc = a[s - shift] if s - shift >= 0 else 0
                if a[s] + inc > d[s]:
                    ok = False
                    break
            if ok:
                yield a

    def walk(d, r):
        if r > nu:
            return not any(d)
        shift = r * maslov - 1
        for a in frontier(d, shift):
            nxt = tuple(
                d[s] - a[s] - (a[s - shift] if s - shift >= 0 else 0)
                for s in range(width)
            )
            if walk(nxt, r + 1):
                return True
        return False

    return walk(tuple(dims), 1)


def dims(profile: BettiProfile) -> tuple[int, ...]:
    """The dimension at every degree 0..n of a fully known profile."""
    if not profile.fully_known:
        raise ProfileError("profile has unknown slots")
    return tuple(profile.known.get(s, 0) for s in range(profile.n + 1))


def euler_char(profile: BettiProfile) -> int:
    """Alternating sum of the dimensions; every slot must be known."""
    return sum(dim if s % 2 == 0 else -dim for s, dim in enumerate(dims(profile)))


def check_poincare(profile: BettiProfile) -> bool:
    """Z2 Poincare symmetry dim[s] == dim[n-s], a closed-manifold sanity check."""
    page = dims(profile)
    return all(page[s] == page[profile.n - s] for s in range(profile.n + 1))


def slot_bounds(profile: BettiProfile) -> list[tuple[int, int | None]]:
    """``(lo, hi)`` at every degree 0..n: a listed dim is exact and every other
    degree ranges over [0, room], ``hi`` None when it is unbounded."""
    return [(profile.known[s], profile.known[s]) if s in profile.known else (0, profile.room)
            for s in range(profile.n + 1)]
