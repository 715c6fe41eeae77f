"""Graded Z2 Betti profiles: exact dims at listed degrees, one rule for the rest.

A profile stores dim H_s(X; Z2) for s = 0..n.  The listed degrees are
known exactly.  The other degrees in [0, n] are either all 0 or all open,
each ranging over [0, room] under a cap on the total Betti number, or
unbounded above when there is no cap.  Degrees outside [0, n] always read
as exactly zero; the bound computations downstream lean on that vanishing
constantly, so it is part of the contract rather than an error.

Profiles are sparse: a Muenzner table lists at most 2g degrees, so it costs
O(support), not O(n), to build, compare and query.

Everything here is pure, and a profile's support is never mutated.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter


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


class Record:
    """A read-only value, the base of the package's value classes.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``; any later assignment or
    deletion raises AttributeError.  Two records are equal when they are of
    the same class and their ``_key()`` is equal, every field unless the
    class says otherwise, and they hash alike then.  ``__reduce__`` gives the
    constructor and its arguments, the fields in order, which is how pickle
    and copy rebuild a record and what ``repr`` names.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)  # reads every field in one call

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def _key(self):
        return self._values(self)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = zip(self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in args)})"


# Widest profile, from a file or a family's table: 8x the widest family at
# classify-all --bound 256.  Verdict witnesses and the JSON form list every
# degree, so a few bytes of input could otherwise ask for gigabytes of output.
MAX_TOP_DEGREE = 4096


class BettiProfile(Record):
    """Z2 Betti numbers over degrees 0..n, listed ones exact.

    ``known`` maps listed degrees to their exact dims.  Every unlisted degree
    in [0, n] is 0, unless ``open_rest`` is set: then each one ranges over
    [0, room], where ``room`` is ``cap`` minus the known total, or unbounded
    with no cap.  ``room``, computed once here, is the one rule for an
    unlisted degree: 0 when the profile is closed, lists every degree or
    spends its whole cap on the known dims.  ``cap``, when present, bounds
    the *total* Betti number; a cap below the known total leaves no
    completion and is refused.  Equality compares the degree-by-degree
    bounds, in O(support): a listed 0 is an unlisted degree exactly when
    ``room`` is 0.
    """

    __slots__ = ("n", "known", "cap", "open_rest", "room")

    def __init__(self, n: int, known: Mapping[int, int], cap: int | None = None,
                 open_rest: bool = False) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "open_rest", open_rest)
        self.__post_init__()  # looked up on the class, where a tracer may wrap it

    def __post_init__(self) -> None:
        for dim in self.known.values():
            if dim < 0:
                raise ProfileError(f"dimension lower bound must be >= 0, got {dim}")
        if not 0 <= self.n <= MAX_TOP_DEGREE:
            raise ProfileError(f"top degree must be in [0, {MAX_TOP_DEGREE}], got {self.n}")
        for degree in self.known:
            if not 0 <= degree <= self.n:
                raise ProfileError(f"degree {degree} outside [0, {self.n}]")
        used = sum(self.known.values())
        if self.cap is not None and used > self.cap:
            raise ProfileError(f"known dimensions total {used}, exceeding cap {self.cap}")
        room = 0
        if self.open_rest and len(self.known) <= self.n:
            room = None if self.cap is None else self.cap - used
        object.__setattr__(self, "room", room)

    @property
    def fully_known(self) -> bool:
        return self.room == 0

    def dims(self) -> tuple[int, ...]:
        if not self.fully_known:
            raise ProfileError("profile has unknown slots")
        return tuple(self.known.get(s, 0) for s in range(self.n + 1))

    def __reduce__(self) -> tuple:
        return BettiProfile, (self.n, self.known, self.cap, self.open_rest)

    def _key(self) -> tuple:
        items = self.known.items()
        if self.room == 0:
            items = [(degree, dim) for degree, dim in items if dim]
        return self.n, self.cap, self.room, frozenset(items)


def _exact_entries(entries: Iterable[Sequence[int]]) -> dict[int, int]:
    # BettiProfile refuses negative dims and degrees outside [0, n]
    seen: dict[int, int] = {}
    for degree, dim in entries:
        if degree in seen:
            raise ProfileError(f"duplicate degree {degree}")
        seen[degree] = dim
    return seen


def make_profile(n: int, entries: Iterable[Sequence[int]]) -> BettiProfile:
    """Fully known profile: listed degrees get their dims, the rest are 0."""
    return BettiProfile(n, _exact_entries(entries))


def make_partial_profile(
    n: int, known: Iterable[Sequence[int]], cap: int | None = None
) -> BettiProfile:
    """Profile with listed degrees exactly known and the rest open.

    Unlisted slots range over [0, cap - sum of known dims] when a cap on the
    total Betti number is supplied, and [0, unbounded) otherwise.  A cap
    equal to the known sum therefore forces every unlisted slot to zero.
    """
    return BettiProfile(n, _exact_entries(known), cap, True)


def profile_to_json(profile: BettiProfile) -> dict:
    """Render as {"n": int, "known": [[degree, dim], ...], "cap": int|null}.

    A fully known profile lists every degree; any other lists its known
    degrees in ascending order, and parsing reopens the rest under the cap,
    so constructor-built profiles round-trip exactly.
    """
    get = profile.known.get
    degrees = range(profile.n + 1) if profile.fully_known else sorted(profile.known)
    return {"n": profile.n, "known": [[s, get(s, 0)] for s in degrees], "cap": profile.cap}


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
