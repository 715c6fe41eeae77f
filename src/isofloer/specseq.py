"""Algebraic model of the lifted Floer spectral sequence, in reduced form.

For a closed monotone Lagrangian L with minimal Maslov number N >= 3 and
a finite covering Lbar -> L, the lifted Floer homology of Damian's
construction carries a spectral sequence whose first page is

    E_1^{p,q} = H_{p+q-pN}(Lbar; Z2) (x) A^{pN},

with A the Z2 Laurent coefficient algebra.  Every page keeps the product
shape E_r^{p,q} = V_r^{p,q} (x) A^{pN}, and V_1^{p,q} depends on (p, q)
only through the single index

    s = p + q - p*N.

The recursion V_{r+1} = ker(delta_r) / im(delta_r) preserves that
dependence, because delta_r maps (p, q) to (p-r, q+r-1) and hence sends
s to s + (r*N - 1).  The Laurent factor carries no rank information over
Z2, so the whole bigraded page collapses to a single array of slots
indexed by s, with the page-r differential shifting slots by r*N - 1.
The sequence freezes after nu = floor((dim L + 1)/N) page turns, and the
final page vanishes in total exactly when the lifted Floer homology
does.  Since lifted Floer homology is a Hamiltonian isotopy invariant
that vanishes for displaceable Lagrangians, a certified nonzero slot on
the final page is a non-displaceability proof.

A page with known dimensions is just its tuple of slot dimensions.  The
first page is a ``BettiProfile``: exact dims at its listed degrees, and
the rest 0 or open under its room.  The page-by-page model that turns a
page with one rank vector belongs to the tests (``tests/page_model.py``),
as a reference.

Two deciders answer "can the final page vanish":

* ``propagate_narrow`` pushes a lower bound per slot page by page, against
  the profile's upper bounds.  Sound on partially known profiles, not
  complete.
* ``oracle_narrow_feasible`` is exact, and polynomial in the number of
  exact classes.  The final page vanishes exactly when the first page's
  classes pair off along the cancellation graph (a class in slot s with
  one in slot s + rN - 1, 1 <= r <= nu), which ``matching`` decides.

That decider, with its two witness kinds, lives in ``matching``, and the
verdict reader and every replay in ``check``.  This module forwards
``oracle_narrow_feasible``, ``verdict_from_json`` and ``replay_witness`` to
them and loads each on first use: a ``classify`` process runs neither, and a
process with no bytecode cache compiles every module it imports.

They share no decision logic, which is the point: the oracle is the
ground truth the propagator is tested against, and ``brute_feasible`` in
the tests' page model, a walk over every rank vector, is the oracle's
reference.  Each verdict is its final page and a witness, whose class holds
the kind, the wire tag, the JSON text writer ``json_text``, and the text, a
``summary`` line and the ``details`` that ``--verbose`` prints; ``check``
keys each kind's strict reader and replay by its tag.  ``WITNESS_TYPES`` maps
each tag to its class, and the verdict's ``json_text`` looks it up there.
"""

from __future__ import annotations

from json import loads
from json.encoder import encode_basestring_ascii as quote
from operator import attrgetter

from .homology import BettiProfile, Record, json_list


class EngineError(ValueError):
    """Anything the spectral-sequence layer refuses to do."""


class MaslovTooSmallError(EngineError):
    """Minimal Maslov number below the threshold of the requested theory."""


class SearchCapError(EngineError):
    """A profile beyond the exact decider's limits."""


class WitnessError(EngineError):
    """A witness is structurally malformed (as opposed to merely wrong)."""


CONTRADICTION = "Contradiction"
NO_CONTRADICTION = "NoContradiction"
FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"


LIFTED_MIN_MASLOV = 3

# Limit of the exact decider on exact classes plus pool classes: on a 2-core
# machine the slowest matching found on MAX_CLASSES classes took about a second.
MAX_CLASSES = 1000


def require_maslov(maslov: int) -> None:
    """Refuse a minimal Maslov number below the lifted theory's threshold."""
    if maslov < LIFTED_MIN_MASLOV:
        raise MaslovTooSmallError(
            f"lifted Floer theory needs minimal Maslov number >= {LIFTED_MIN_MASLOV}, got {maslov}"
        )


def _page_turns(n: int, maslov: int) -> int:
    """nu = floor((n + 1)/N), the page turns after which the sequence freezes,
    for a Maslov number that the lifted theory admits: the one home of nu."""
    require_maslov(maslov)
    return (n + 1) // maslov


# --- verdicts and witnesses -------------------------------------------------


class ChainStep(Record):
    """One page of the exact-sequence bound at a fixed slot.

    Exactness of V[left] -> V[s] -> V[right] under a vanishing final page
    gives lower_after = max(0, lower_before - left_hi - right_hi).
    """

    __slots__ = ("page", "shift", "left", "left_hi", "right", "right_hi",
                 "lower_before", "lower_after")


class _Witness:
    """What the witness kinds share: no headline slot or bound, a summary that
    is the kind, and no ``--verbose`` lines, unless the kind says otherwise."""

    __slots__ = ()
    slot = bound = None

    def summary(self, page: int) -> str:
        return self.kind

    def details(self, maslov: int | None, n: int | None) -> list[str]:
        return []

    def json_text(self, indent: str) -> str:
        """The payload: {"type": tag} and the fields of the kind."""
        inner = indent + "  "
        return f'{{{inner}"type": {quote(self.tag)},{inner}{self._fields_text(inner)}{indent}}}'


class ContradictionWitness(_Witness, Record):
    """A vanishing final page would force ``bound`` > 0 classes into ``slot``:
    ``chain`` is that bound page by page.  Replay re-walks the chain against
    the profile, without the propagator."""

    kind, tag = CONTRADICTION, "contradiction-chain"
    __slots__ = ("slot", "bound", "chain")

    # a chain step, its fields ints, on a line indented "\n"
    _step = "{" + ",".join(f'\n  "{name}": %d' for name in ChainStep.__slots__) + "\n}"

    def _fields_text(self, inner: str) -> str:
        step = self._step.replace("\n", inner + "  ")
        chain = json_list([step % ChainStep._values(c) for c in self.chain], inner)
        return f'"slot": {self.slot},{inner}"bound": {self.bound},{inner}"chain": {chain}'

    def summary(self, page: int) -> str:
        return (f"Contradiction at slot {self.slot} "
                f"(final page {page}, forced lower bound {self.bound})")

    def details(self, maslov: int | None, n: int | None) -> list[str]:
        return [f"page {c.page}: slot bound {c.lower_before} -> {c.lower_after} "
                f"(neighbours {c.left} hi={c.left_hi}, {c.right} hi={c.right_hi})"
                for c in self.chain]


class FinalPageWitness(_Witness, Record):
    """``(lo, hi)`` per slot 0..n of the final page; ``hi`` None is unbounded.
    Replay recomputes it with ``propagate_narrow``."""

    kind, tag = NO_CONTRADICTION, "final-page"
    __slots__ = ("slots",)

    def _fields_text(self, inner: str) -> str:
        row, cell = inner + "  ", inner + "    "
        # a page holds few distinct slots, mostly (0, 0): each is written once
        text = {(lo, hi): f"[{cell}{lo},{cell}{'null' if hi is None else hi}{row}]"
                for lo, hi in set(self.slots)}
        return '"slots": ' + json_list([text[slot] for slot in self.slots], inner)

# complete once ``matching`` has loaded and added the two kinds whose classes it defines
WITNESS_TYPES = {cls.tag: cls for cls in (ContradictionWitness, FinalPageWitness)}


class NarrownessVerdict(Record):
    """A final page and the witness that carries the rest.

    ``kind``, ``slot`` and ``bound`` are read off the witness (slot and bound
    are None but for a Contradiction), so a headline cannot disagree with
    its witness.
    """

    __slots__ = ("page", "witness")
    kind = property(attrgetter("witness.kind"))
    slot = property(attrgetter("witness.slot"))
    bound = property(attrgetter("witness.bound"))

    def json_text(self, indent: str = "\n") -> str:
        """{"kind", "slot", "page", "bound", "witness"}; the witness writes itself."""
        witness, inner = _witness(self, "unserializable witness type "), indent + "  "
        slot = "null" if witness.slot is None else witness.slot
        bound = "null" if witness.bound is None else witness.bound
        return (f'{{{inner}"kind": {quote(witness.kind)},{inner}"slot": {slot},'
                f'{inner}"page": {self.page},{inner}"bound": {bound},'
                f'{inner}"witness": {witness.json_text(inner)}{indent}}}')


def propagate_narrow(
    profile: BettiProfile, maslov: int, n: int, nu: int
) -> NarrownessVerdict:
    """Decide whether a vanishing final page contradicts the profile.

    Interval bounds are pushed from page 1 to page nu+1.  Upper bounds
    never grow (each page is a subquotient of the previous one); lower
    bounds obey the exactness of V[s-shift] -> V[s] -> V[s+shift], so

        lo'[s] >= max(0, lo[s] - hi[s - shift] - hi[s + shift]),

    with unbounded neighbours collapsing the estimate to 0.  A positive
    lower bound on any final-page slot certifies that the lifted Floer
    homology cannot vanish: Contradiction.  Otherwise NoContradiction,
    which is *not* a feasibility proof.

    ``n`` is the dimension of the Lagrangian; it seeds the witness-slot
    tie-break (strongest forced bound, nearest the middle degree n/2,
    then lowest slot) and keeps verdicts invariant under padding the
    profile with zero slots above its top degree.

    A slot's bound starts at its first-page dim and only falls, so a slot
    whose dim is strictly below the best bound found so far cannot win and
    is not walked; one whose dim equals it may still win the tie-break.
    """
    require_maslov(maslov)
    if nu < 0:
        raise EngineError(f"number of page turns must be >= 0, got {nu}")
    # Only a listed slot starts above 0, and a slot at 0 stays there, so only those are
    # walked to their final-page bound lo (0 once <= 0); best has the largest tie-break key.
    shifts = range(maslov - 1, nu * maslov, maslov)  # r * maslov - 1 for r = 1..nu
    known, room, top = profile.known, profile.room, profile.n
    best, key = None, (0,)
    for s, lo in known.items():
        if lo < key[0]:  # below the best bound so far: it cannot win
            continue
        for shift in shifts:
            if lo <= 0:
                break
            # the first-page bounds at s -/+ shift, 0 outside [0, n], for s in [0, n] and shift > 0
            left_hi = known.get(s - shift, room) if s >= shift else 0
            right_hi = known.get(s + shift, room) if s + shift <= top else 0
            lo = 0 if left_hi is None or right_hi is None else lo - left_hi - right_hi
        if lo > 0 and (lo, -abs(2 * s - n), -s) > key:
            best, key = s, (lo, -abs(2 * s - n), -s)

    if best is None:  # every final-page slot may be 0, below its first-page bound
        page = [(0, room)] * (top + 1)
        for s, dim in known.items():
            page[s] = (0, dim)
        witness = FinalPageWitness(tuple(page))
    else:
        witness = ContradictionWitness(best, key[0], _chain(profile, best, maslov, nu))
    return NarrownessVerdict(nu + 1, witness)


def _chain(profile: BettiProfile, slot: int, maslov: int,
           nu: int) -> tuple[ChainStep, ...] | None:
    """The exact-sequence bound at ``slot`` page by page, read off the profile's
    page-invariant upper bounds, 0 outside [0, n]; None once a neighbour is unbounded."""
    known, room, top = profile.known, profile.room, profile.n
    lower, chain = known.get(slot, 0), []
    for r in range(1, nu + 1):
        shift = r * maslov - 1
        left, right = slot - shift, slot + shift
        left_hi = known.get(left, room) if 0 <= left <= top else 0
        right_hi = known.get(right, room) if 0 <= right <= top else 0
        if left_hi is None or right_hi is None:
            return None
        after = max(0, lower - left_hi - right_hi)
        chain.append(ChainStep(r, shift, left, left_hi, right, right_hi, lower, after))
        lower = after
    return tuple(chain)


# --- loaded on first use -------------------------------------------------------


class _OnFirstUse:
    """This package's modules as attributes, such as ``matching`` and ``check``
    here and ``commands`` in ``cli``, each imported at its first lookup and then
    kept, so a later call runs no import statement."""

    def __getattr__(self, name: str):
        # "from . import name", through __import__, which -X importtime logs
        return vars(self).setdefault(name, getattr(__import__(__package__, fromlist=[name]), name))


_lazy = _OnFirstUse()


# forwarders, which cli, criteria and the package bind at import
def oracle_narrow_feasible(profile: BettiProfile, maslov: int) -> NarrownessVerdict:
    return _lazy.matching.oracle_narrow_feasible(profile, maslov)


def replay_witness(verdict: NarrownessVerdict, profile: BettiProfile, maslov: int) -> bool:
    return _lazy.check.replay_witness(verdict, profile, maslov)


def verdict_from_json(data: dict) -> NarrownessVerdict:
    return _lazy.check.verdict_from_json(data)


def __getattr__(name: str):  # PEP 562: the exact decider's witness classes
    if name in ("FeasibleWitness", "InfeasibleWitness"):
        return getattr(_lazy.matching, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- serialization -----------------------------------------------------------


def _witness(verdict: NarrownessVerdict, refusal: str):
    """The verdict's witness, if ``WITNESS_TYPES`` holds its class under its
    tag; otherwise WitnessError, ``refusal`` and the type's name."""
    witness = verdict.witness
    if WITNESS_TYPES.get(getattr(witness, "tag", None)) is not type(witness):
        raise WitnessError(refusal + type(witness).__name__)
    return witness


def verdict_to_json(verdict: NarrownessVerdict) -> dict:
    """The wire form as a dict: the parse of ``verdict.json_text()``."""
    return loads(verdict.json_text())
