"""Graded Z2 Betti profiles with interval-valued entries.

A profile stores dim H_s(X; Z2) for s = 0..n.  Slots may be only
partially known: each one is a closed integer interval, with an open
upper end standing for "nothing known beyond nonnegativity".  Degrees
outside [0, n] always query as exactly zero; the bound computations
downstream lean on that vanishing constantly, so it is part of the
query contract rather than an error.

Profiles are sparse: a support maps listed degrees to their bounds and one
default bound covers the other degrees in [0, n].  A Muenzner table lists
at most 2g degrees, so it costs O(support), not O(n), to build and query.

Everything here is pure, and a profile's support is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class ProfileError(ValueError):
    """Bad profile construction, or an exact query against unknown slots."""


def as_int(value, error: type[ValueError] = ProfileError, what: str = "value") -> int:
    """Return ``value`` if it is a plain int, else raise ``error``.

    The JSON readers use this instead of ``int()``, which would quietly read
    1.7 as 1, "2" as 2 and true as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def as_list(value, error: type[ValueError] = ProfileError, what: str = "value") -> list:
    """Return ``value`` if it is a JSON array, else raise ``error``.

    Iterating a JSON object or string where an array belongs would read its
    keys or characters, so ``{}`` and ``""`` would pass as empty lists.
    """
    if not isinstance(value, list):
        raise error(f"{what} must be a list, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class DimBound:
    """Closed interval [lo, hi] of possible Z2 dimensions.

    ``hi is None`` means unbounded above and compares greater than every
    integer.  A bound is *known* when it pins a single value.
    """

    lo: int
    hi: int | None

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ProfileError(f"dimension lower bound must be >= 0, got {self.lo}")
        if self.hi is not None and self.hi < self.lo:
            raise ProfileError(f"empty dimension interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, dim: int) -> "DimBound":
        """``[dim, dim]``; the small dims of a Muenzner table share one instance each."""
        if type(dim) is int and 0 <= dim < len(_SMALL_EXACT):
            return _SMALL_EXACT[dim]
        return cls(dim, dim)

    @property
    def known(self) -> bool:
        return self.hi == self.lo


# A fixed handful, so no input can grow it; every other dim builds afresh.
_SMALL_EXACT = tuple(DimBound(dim, dim) for dim in range(4))
ZERO = DimBound.exact(0)

# Widest profile, from a file or a family's table: 8x the widest family at
# classify-all --bound 256.  Verdict witnesses and the JSON form list every
# degree, so a few bytes of input could otherwise ask for gigabytes of output.
MAX_TOP_DEGREE = 4096


@dataclass(frozen=True, eq=False)
class BettiProfile:
    """Z2 Betti numbers over degrees 0..n, possibly partially known.

    ``support`` maps listed degrees to their bounds; every unlisted degree
    in [0, n] has the bound ``default``.  Equality compares the dense
    views, so one profile written with two different supports is one
    value.  ``cap``, when present, bounds the *total* Betti number; it is
    what the unknown slots' upper ends were derived from, and the unknown
    slots share it.  A cap below the slots' lower ends total leaves no
    completion and is refused.
    """

    n: int
    support: Mapping[int, DimBound]
    default: DimBound = ZERO
    cap: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_TOP_DEGREE:
            raise ProfileError(f"top degree must be in [0, {MAX_TOP_DEGREE}], got {self.n}")
        for degree in self.support:
            if not 0 <= degree <= self.n:
                raise ProfileError(f"degree {degree} outside [0, {self.n}]")
        if self.cap is not None:
            unlisted = self.n + 1 - len(self.support)
            used = sum(slot.lo for slot in self.support.values()) + unlisted * self.default.lo
            if used > self.cap:
                raise ProfileError(f"known dimensions total {used}, exceeding cap {self.cap}")

    def bound(self, degree: int) -> DimBound:
        """Bound at any integer degree; exactly zero outside [0, n]."""
        if 0 <= degree <= self.n:
            return self.support.get(degree, self.default)
        return ZERO

    @property
    def slots(self) -> tuple[DimBound, ...]:
        """Dense view: the bound at every degree 0..n."""
        get, default = self.support.get, self.default
        return tuple(get(s, default) for s in range(self.n + 1))

    @property
    def fully_known(self) -> bool:
        covered = len(self.support) == self.n + 1
        return (covered or self.default.known) and all(
            slot.known for slot in self.support.values()
        )

    def dims(self) -> tuple[int, ...]:
        if not self.fully_known:
            raise ProfileError("profile has unknown slots")
        dims = [self.default.lo] * (self.n + 1)
        for degree, slot in self.support.items():
            dims[degree] = slot.lo
        return tuple(dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiProfile):
            return NotImplemented
        return (self.n, self.cap, self.slots) == (other.n, other.cap, other.slots)

    def __hash__(self) -> int:
        return hash((self.n, self.cap, self.slots))


def _exact_entries(entries: Iterable[Sequence[int]]) -> dict[int, DimBound]:
    # DimBound refuses negative dims and BettiProfile degrees outside [0, n]
    seen: dict[int, DimBound] = {}
    for degree, dim in entries:
        if degree in seen:
            raise ProfileError(f"duplicate degree {degree}")
        seen[degree] = DimBound.exact(dim)
    return seen


def make_profile(n: int, entries: Iterable[Sequence[int]]) -> BettiProfile:
    """Fully known profile: listed degrees get their dims, the rest are 0."""
    return BettiProfile(n, _exact_entries(entries))


def make_partial_profile(
    n: int, known: Iterable[Sequence[int]], cap: int | None = None
) -> BettiProfile:
    """Profile with listed degrees exactly known and the rest interval-bounded.

    Unlisted slots get [0, cap - sum of known dims] when a cap on the total
    Betti number is supplied, and [0, unbounded) otherwise.  A cap equal to
    the known sum therefore forces every unlisted slot to exactly zero.
    """
    entries = _exact_entries(known)
    used = sum(slot.lo for slot in entries.values())
    room = None if cap is None else max(cap - used, 0)  # BettiProfile refuses used > cap
    return BettiProfile(n, entries, DimBound(0, room), cap)


def euler_char(profile: BettiProfile) -> int:
    """Alternating sum of the dimensions; every slot must be known."""
    dims = profile.dims()
    return sum(dim if s % 2 == 0 else -dim for s, dim in enumerate(dims))


def check_poincare(profile: BettiProfile) -> bool:
    """Z2 Poincare symmetry dim[s] == dim[n-s], a closed-manifold sanity check."""
    dims = profile.dims()
    return all(dims[s] == dims[profile.n - s] for s in range(profile.n + 1))


def profile_to_json(profile: BettiProfile) -> dict:
    """Render as {"n": int, "known": [[degree, dim], ...], "cap": int|null}.

    Only exactly-known slots are listed; parsing reconstructs the unknown
    ones from the cap, so constructor-built profiles round-trip exactly.
    """
    known = [[s, slot.lo] for s, slot in enumerate(profile.slots) if slot.known]
    return {"n": profile.n, "known": known, "cap": profile.cap}


def profile_from_json(data: dict) -> BettiProfile:
    """Parse strictly: every integer field must be a JSON integer, not a bool."""
    if not isinstance(data, dict):
        raise ProfileError("profile object must be a JSON object")
    try:
        n = data["n"]
        raw = data["known"]
        cap = data.get("cap")
    except (KeyError, TypeError) as exc:
        raise ProfileError(f"malformed profile object: missing {exc}") from exc
    as_int(n, what="profile field 'n'")
    if cap is not None:
        as_int(cap, what="profile field 'cap'")
    try:
        known = [(as_int(d, what="degree"), as_int(v, what="dimension"))
                 for d, v in (as_list(entry, what="a 'known' entry")
                              for entry in as_list(raw, what="profile field 'known'"))]
    except (TypeError, ValueError) as exc:
        raise ProfileError(f"malformed 'known' entries: {exc}") from exc
    return make_partial_profile(n, known, cap)
