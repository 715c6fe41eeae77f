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

Each JSON shape the package prints has one writer, its record's
``json_text(indent)``, which writes its lists with ``json_list``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from json import loads
from operator import attrgetter
from types import MemberDescriptorType


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


def as_list(value, error: type[ValueError] = ProfileError, what: str = "value",
            size: int | None = None) -> list:
    """Return ``value`` if it is a JSON array, of ``size`` items if given, else raise ``error``.

    Iterating a JSON object or string where an array belongs would read its
    keys or characters, so ``{}`` and ``""`` would pass as empty lists.
    """
    if not isinstance(value, list):
        raise error(f"{what} must be a list, got {type(value).__name__}")
    if size is not None and len(value) != size:
        raise error(f"{what} must hold {size} items, got {len(value)}")
    return value


def as_object(value, required: tuple[str, ...], optional: tuple[str, ...] = (),
              error: type[ValueError] = ProfileError, what: str = "value") -> list:
    """The values of the keys ``required`` then ``optional`` (None if absent) of ``value``,
    a JSON object with every required key and no other, else ``error`` naming the first
    missing key, else the first unknown one in file order: every JSON reader's key check."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise error(f"missing {what} field {key!r}")
    names = required + optional
    for key in value:
        if key not in names:
            raise error(f"unknown {what} field {key!r}")
    return [value.get(key) for key in names]


def json_list(texts: list[str], indent: str) -> str:
    """A JSON list at ``indent`` whose items, written at ``indent + "  "``, are ``texts``."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return f"[{inner}{(',' + inner).join(texts)}{indent}]"


class Record:
    """A read-only value, the base of the package's value classes.

    A subclass names its fields in ``__slots__``, or in ``_fields`` when a slot
    is derived, and the defaults of its trailing fields in ``_defaults``.
    Unless it writes its own, the subclass gets an ``__init__`` compiled once,
    when the class is created, from those names: it takes the fields in order,
    positionally or by keyword, sets each with its slot's descriptor, a third
    cheaper than ``object.__setattr__``, which looks the slot up first, then
    calls ``self.__post_init__()`` if the class has one.  Any later assignment
    or deletion raises AttributeError.  Two records are equal when they are of
    the same class and their ``_key()`` is equal, every field unless the class
    says otherwise, and they hash alike then.  ``__reduce__`` gives the class
    and the fields in order, which is how pickle and copy rebuild a record and
    what ``repr`` names.  A record the CLI prints has ``json_text(indent)``,
    the one writer of its wire form: the text ``json.dumps(indent=2)`` writes
    for that form on a line indented ``indent`` (a newline and spaces).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*fields)  # reads every field in one call
        if "__init__" not in cls.__dict__:
            cls.__init__ = _compile_init(cls, fields, cls.__dict__.get("_defaults", {}))

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])

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
        args = zip(self._fields, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in args)})"


def _compile_init(cls: type, fields: tuple[str, ...], defaults: dict):
    """``def __init__(self, <fields>)`` for ``cls``, the bytecode of a hand-written one.

    The names come from the class body, never from input.
    """
    if tuple(defaults) != fields[len(fields) - len(defaults):]:
        raise TypeError(f"{cls.__name__}: defaults must be for the trailing fields, in order")
    if not all(isinstance(getattr(cls, field, None), MemberDescriptorType) for field in fields):
        raise TypeError(f"{cls.__name__}: every field must be a slot of the class")
    name = f"{cls.__qualname__}.__init__"
    lines = [f"def __init__(self, {', '.join(fields)}):"]
    lines += [f"    _set_{field}(self, {field})" for field in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")  # through the instance, where a tracer may wrap it
    namespace = {f"_set_{field}": getattr(cls, field).__set__ for field in fields}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values())
    init.__qualname__, init.__module__ = name, cls.__module__
    return init


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
    _fields = ("n", "known", "cap", "open_rest")  # room is derived
    _defaults = {"cap": None, "open_rest": False}

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
        _set_room(self, room)

    @property
    def fully_known(self) -> bool:
        return self.room == 0

    def json_text(self, indent: str = "\n") -> str:
        """The wire form {"n", "known": [[degree, dim], ...], "cap"}: every degree of a
        fully known profile, else its known degrees in ascending order, which parsing
        reopens under the cap, so constructor-built profiles round-trip exactly."""
        inner, entry = indent + "  ", indent + "    "
        opener, comma, closer = "[" + entry + "  ", "," + entry + "  ", entry + "]"
        get = self.known.get
        degrees = range(self.n + 1) if self.fully_known else sorted(self.known)
        known = json_list([f"{opener}{s}{comma}{get(s, 0)}{closer}" for s in degrees], inner)
        return (f'{{{inner}"n": {self.n},{inner}"known": {known},'
                f'{inner}"cap": {"null" if self.cap is None else self.cap}{indent}}}')

    def _key(self) -> tuple:
        items = self.known.items()
        if self.room == 0:
            items = [(degree, dim) for degree, dim in items if dim]
        return self.n, self.cap, self.room, frozenset(items)


_set_room = BettiProfile.room.__set__  # the derived slot's descriptor, as Record's __init__ uses


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
    """The profile's wire form as a dict: the parse of ``profile.json_text()``."""
    return loads(profile.json_text())


def profile_from_json(data: dict) -> BettiProfile:
    """Parse strictly: an object of ``n``, ``known`` and ``cap``, which may be
    absent, whose integer fields are JSON integers, not bools."""
    n, raw, cap = as_object(data, ("n", "known"), ("cap",), what="profile")
    as_int(n, what="profile field 'n'")
    if cap is not None:
        as_int(cap, what="profile field 'cap'")
    known = [(as_int(d, what="degree"), as_int(v, what="dimension"))
             for d, v in (as_list(entry, what="a 'known' entry", size=2)
                          for entry in as_list(raw, what="profile field 'known'"))]
    return make_partial_profile(n, known, cap)
