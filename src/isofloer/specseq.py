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
  one in slot s + rN - 1, 1 <= r <= nu).  A maximum matching decides that
  (Edmonds 1965), or yields a Tutte barrier (Tutte 1952).  A partial
  profile, capped or not, adds one pool slot for its open classes, so one
  matching decides it too.  The decider and the barrier check refuse the
  same profiles: those beyond ``MAX_CLASSES`` exact and pool classes.

The matcher (the cancellation graph, Edmonds' search and the barrier check
``is_tutte_barrier``) lives in ``matching``.  ``oracle_narrow_feasible`` and
``InfeasibleWitness.replay`` import it on first use: a ``classify`` process
never runs it, and a process with no bytecode cache compiles every module it
imports.  Compiling the matcher takes about 1.5 ms (CPython 3.11, x86_64).

A Feasible witness is that matching, counted by slot and page.  If each
class has one partner, the ranks a_r[s] = count(s, r) are legal on every
page and end on the zero page: on page r slot s still holds every class
paired on page r or later, at least a_r[s] + a_r[s - shift].  So replay
only adds up each slot's counts, and that completion must lie within the
profile.

They share no decision logic, which is the point: the oracle is the
ground truth the propagator is tested against, and ``brute_feasible`` in
the tests' page model, a walk over every rank vector, is the oracle's
reference.  Each verdict is its final page and a witness, whose class holds
all that is particular to its kind: the kind, the wire tag, the JSON text
writer ``json_text`` and strict reader ``from_json``, the ``replay``, and the
text, a ``summary`` line and the ``details`` that ``--verbose`` prints.
``WITNESS_TYPES`` maps each tag to its class; the verdict's ``json_text``,
``verdict_from_json`` and ``replay_witness``, which re-derives a witness
without trusting the run that produced it, look the class up there.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from json import loads
from json.encoder import encode_basestring_ascii as quote
from operator import attrgetter

from .homology import BettiProfile, Record, as_int, as_list, json_list


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


# --- verdicts and witnesses -------------------------------------------------


class ChainStep(Record):
    """One page of the exact-sequence bound at a fixed slot.

    Exactness of V[left] -> V[s] -> V[right] under a vanishing final page
    gives lower_after = max(0, lower_before - left_hi - right_hi).
    """

    __slots__ = ("page", "shift", "left", "left_hi", "right", "right_hi",
                 "lower_before", "lower_after")


_as_int = partial(as_int, error=WitnessError, what="witness field")
_as_list = partial(as_list, error=WitnessError, what="witness entry")


def _rows(payload: dict, key: str, entry=_as_list) -> list:
    """The list under ``key``, with ``entry`` applied to each of its entries."""
    return [entry(row) for row in _as_list(payload[key], what=f"witness field {key!r}")]


def _as_opt_int(value) -> int | None:
    return None if value is None else _as_int(value)


def _slot_bound(lo, hi) -> tuple[int, int | None]:
    """A final-page slot: a nonempty interval of dims, ``hi`` None for unbounded."""
    lo, hi = _as_int(lo), _as_opt_int(hi)
    if lo < 0:
        raise WitnessError(f"dimension lower bound must be >= 0, got {lo}")
    if hi is not None and hi < lo:
        raise WitnessError(f"empty dimension interval [{lo}, {hi}]")
    return lo, hi


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

    @classmethod
    def from_json(cls, payload: dict) -> ContradictionWitness:
        chain = tuple(ChainStep(*(_as_int(c[name]) for name in ChainStep.__slots__))
                      for c in _as_list(payload["chain"], what="witness field 'chain'"))
        return cls(_as_int(payload["slot"]), _as_int(payload["bound"]), chain)

    def replay(self, profile: BettiProfile, maslov: int) -> bool:
        chain = _chain(profile, self.slot, maslov, _page_turns(profile, maslov))
        if chain is None:
            return False
        lower = chain[-1].lower_after if chain else profile.known.get(self.slot, 0)
        return 0 < self.bound == lower and self.chain == chain

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

    @classmethod
    def from_json(cls, payload: dict) -> FinalPageWitness:
        return cls(tuple(_slot_bound(lo, hi) for lo, hi in _rows(payload, "slots")))

    def replay(self, profile: BettiProfile, maslov: int) -> bool:
        return propagate_narrow(profile, maslov, profile.n,
                                _page_turns(profile, maslov)).witness == self


class FeasibleWitness(_Witness, Record):
    """``(s, r, count)`` pairs, strictly ascending: ``count`` classes of slot s
    cancel as many of slot s + rN - 1 on page r.  Each slot's counts add up
    to its value in the completion they pair off.  Valid iff r >= 1, both
    slots exist, which bounds r by nu, and that completion lies within the
    profile's bounds and cap."""

    kind, tag = FEASIBLE, "cancellation-pairs"
    __slots__ = ("pairs",)

    def _fields_text(self, inner: str) -> str:
        row, cell = inner + "  ", inner + "    "
        return '"pairs": ' + json_list([f"[{cell}{s},{cell}{r},{cell}{count}{row}]"
                                         for s, r, count in self.pairs], inner)

    @classmethod
    def from_json(cls, payload: dict) -> FeasibleWitness:
        return cls(tuple((_as_int(s), _as_int(r), _as_int(c))
                         for s, r, c in _rows(payload, "pairs")))

    def replay(self, profile: BettiProfile, maslov: int) -> bool:
        # each slot's counts add up to its value in the completion that the
        # pairs pair off; pairs must ascend strictly in (s, r), and above
        # (0, 0) rules out s < 0, so t <= n bounds r by nu
        paired, last = Counter(), (0, 0)
        for s, r, count in self.pairs:
            t = s + r * maslov - 1
            if not (last < (s, r) and r >= 1 and count >= 1 and t <= profile.n):
                return False
            paired[s] += count
            paired[t] += count
            last = (s, r)
        if profile.cap is not None and sum(paired.values()) > profile.cap:
            return False
        known, room = profile.known, profile.room
        return all(paired[s] == dim for s, dim in known.items()) and (
            room is None or all(count <= room for s, count in paired.items() if s not in known))

    def summary(self, page: int) -> str:
        return "Feasible: a legal rank assignment reaches the zero page"

    def details(self, maslov: int | None, n: int | None) -> list[str]:
        return [f"page {r}: " + (f"1 class of slot {s} cancels" if count == 1 else
                                 f"{count} classes of slot {s} cancel")
                + f" slot {s + r * maslov - 1}" for s, r, count in self.pairs]


class InfeasibleWitness(_Witness, Record):
    """One Tutte barrier, a tuple of slots of ``_graph`` (slot n + 1 is the
    pool), checked by ``is_tutte_barrier`` without the decider; the trees
    grown, ``states_explored``, stay off the wire and out of equality, and one
    matching decides a profile, so ``completions_tried`` is 1."""

    kind, tag = INFEASIBLE, "tutte-barrier"
    completions_tried = 1
    __slots__ = ("barrier", "states_explored")
    _defaults = {"states_explored": 0}

    def _key(self) -> tuple:
        return (self.barrier,)

    def _fields_text(self, inner: str) -> str:
        return '"barrier": ' + json_list([f"{s}" for s in self.barrier], inner)

    @classmethod
    def from_json(cls, payload: dict) -> InfeasibleWitness:
        return cls(tuple(_rows(payload, "barrier", _as_int)))

    def replay(self, profile: BettiProfile, maslov: int) -> bool:
        from .matching import is_tutte_barrier  # loaded on first use, as in the decider

        return is_tutte_barrier(profile, maslov, self.barrier)

    def details(self, maslov: int | None, n: int | None) -> list[str]:
        if not self.barrier:
            return ["barrier: empty (with no slot removed, a class is left unpaired)"]
        slots = ", ".join("pool" if s == n + 1 else f"slot {s}" for s in self.barrier)
        return [f"barrier: {slots} (more parts are odd without the barrier than it holds "
                "classes)"]


WITNESS_TYPES = {cls.tag: cls for cls in (ContradictionWitness, FinalPageWitness,
                                          FeasibleWitness, InfeasibleWitness)}


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


def oracle_narrow_feasible(profile: BettiProfile, maslov: int) -> NarrownessVerdict:
    """Decide exactly whether some legal rank choice kills the final page.

    One maximum matching on ``_graph`` decides it, whether the profile is
    fully known, capped or uncapped: a perfect matching is the Feasible
    witness, a stuck alternating tree the Infeasible one, a single Tutte
    barrier.  ``_graph`` refuses what it cannot decide.
    """
    from .matching import _graph, _match  # loaded on first use: classify never runs it

    page = _page_turns(profile, maslov) + 1
    return NarrownessVerdict(page, _match(*_graph(profile, maslov), maslov))


def _page_turns(profile: BettiProfile, maslov: int) -> int:
    """nu = floor((n + 1)/N), the page turns after which the sequence freezes,
    for a Maslov number that the lifted theory admits."""
    require_maslov(maslov)
    return (profile.n + 1) // maslov


# --- replay and serialization ----------------------------------------------


def _witness(verdict: NarrownessVerdict, refusal: str):
    """The verdict's witness, if ``WITNESS_TYPES`` holds its class under its
    tag; otherwise WitnessError, ``refusal`` and the type's name."""
    witness = verdict.witness
    if WITNESS_TYPES.get(getattr(witness, "tag", None)) is not type(witness):
        raise WitnessError(refusal + type(witness).__name__)
    return witness


def replay_witness(verdict: NarrownessVerdict, profile: BettiProfile, maslov: int) -> bool:
    """Re-derive a verdict's witness from scratch with its class's ``replay``;
    True iff it checks out and the verdict names the final page nu + 1.

    Malformed structure raises; wrong values return False; a Maslov number
    below the lifted theory's threshold raises MaslovTooSmallError, and a
    profile beyond the oracle's limits SearchCapError for a barrier.
    """
    witness = _witness(verdict, "not a witness: ")
    try:
        page = _page_turns(profile, maslov) + 1
        return verdict.page == page and witness.replay(profile, maslov)
    except (TypeError, AttributeError) as exc:
        raise WitnessError(f"malformed witness: {exc}") from exc


def verdict_to_json(verdict: NarrownessVerdict) -> dict:
    """The wire form as a dict: the parse of ``verdict.json_text()``."""
    return loads(verdict.json_text())


def verdict_from_json(data: dict) -> NarrownessVerdict:
    if not isinstance(data, dict):
        raise WitnessError("verdict must be a JSON object")
    try:
        kind = data["kind"]
        payload = data["witness"]
        wtype = payload["type"]
        cls = WITNESS_TYPES.get(wtype if isinstance(wtype, str) else None)
        witness = None if cls is None else cls.from_json(payload)
        if witness is None or kind != witness.kind:
            raise WitnessError(f"verdict kind {kind!r} does not match witness type {wtype!r}")
        verdict = NarrownessVerdict(_as_int(data["page"]), witness)
        headline = (_as_opt_int(data["slot"]), _as_opt_int(data["bound"]))
        if headline != (verdict.slot, verdict.bound):
            raise WitnessError(
                f"headline slot and bound {headline} differ from the witness's "
                f"{(verdict.slot, verdict.bound)}"
            )
        return verdict
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessError(f"malformed verdict object: {exc}") from exc
