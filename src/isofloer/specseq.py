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
all that is particular to its kind: the kind, the wire tag, the payload
writer ``to_json`` and strict reader ``from_json``, the ``replay``, and the
text, a ``summary`` line and the ``details`` that ``--verbose`` prints.
``WITNESS_TYPES`` maps each tag to its class, and ``verdict_to_json``,
``verdict_from_json`` and ``replay_witness``, which re-derives a witness
without trusting the run that produced it, look the class up there.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import accumulate
from operator import attrgetter

from .homology import BettiProfile, Record, as_int, as_list


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


class ContradictionWitness(_Witness, Record):
    """A vanishing final page would force ``bound`` > 0 classes into ``slot``:
    ``chain`` is that bound page by page.  Replay re-walks the chain against
    the profile, without the propagator."""

    kind, tag = CONTRADICTION, "contradiction-chain"
    __slots__ = ("slot", "bound", "chain")

    def to_json(self) -> dict:
        return {"type": self.tag, "slot": self.slot, "bound": self.bound,
                "chain": [dict(zip(ChainStep.__slots__, ChainStep._values(c))) for c in self.chain]}

    @classmethod
    def from_json(cls, payload: dict) -> ContradictionWitness:
        chain = tuple(ChainStep(*(_as_int(c[name]) for name in ChainStep.__slots__))
                      for c in _as_list(payload["chain"], what="witness field 'chain'"))
        return cls(_as_int(payload["slot"]), _as_int(payload["bound"]), chain)

    def replay(self, profile: BettiProfile, maslov: int, nu: int) -> bool:
        chain = _chain(profile, self.slot, maslov, nu)
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

    def to_json(self) -> dict:
        return {"type": self.tag, "slots": [list(slot) for slot in self.slots]}

    @classmethod
    def from_json(cls, payload: dict) -> FinalPageWitness:
        return cls(tuple(_slot_bound(lo, hi) for lo, hi in _rows(payload, "slots")))

    def replay(self, profile: BettiProfile, maslov: int, nu: int) -> bool:
        return propagate_narrow(profile, maslov, profile.n, nu).witness == self


class FeasibleWitness(_Witness, Record):
    """``(s, r, count)`` pairs, strictly ascending: ``count`` classes of slot s
    cancel as many of slot s + rN - 1 on page r.  Each slot's counts add up
    to its value in the completion they pair off.  Valid iff 1 <= r <= nu,
    both slots exist, and that completion lies within the profile's bounds
    and cap."""

    kind, tag = FEASIBLE, "cancellation-pairs"
    __slots__ = ("pairs",)

    def to_json(self) -> dict:
        return {"type": self.tag, "pairs": [list(pair) for pair in self.pairs]}

    @classmethod
    def from_json(cls, payload: dict) -> FeasibleWitness:
        return cls(tuple((_as_int(s), _as_int(r), _as_int(c))
                         for s, r, c in _rows(payload, "pairs")))

    def replay(self, profile: BettiProfile, maslov: int, nu: int) -> bool:
        # each slot's counts add up to its value in the completion that the
        # pairs pair off; pairs must ascend strictly in (s, r), and above
        # (0, 0) rules out s < 0
        paired, last = Counter(), (0, 0)
        for s, r, count in self.pairs:
            t = s + r * maslov - 1
            if not (last < (s, r) and 1 <= r <= nu and count >= 1 and t <= profile.n):
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

    def to_json(self) -> dict:
        return {"type": self.tag, "barrier": list(self.barrier)}

    @classmethod
    def from_json(cls, payload: dict) -> InfeasibleWitness:
        return cls(tuple(_rows(payload, "barrier", _as_int)))

    def replay(self, profile: BettiProfile, maslov: int, nu: int) -> bool:
        return is_tutte_barrier(profile, maslov, nu, self.barrier)

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
    """
    require_maslov(maslov)
    if nu < 0:
        raise EngineError(f"number of page turns must be >= 0, got {nu}")
    # Only a listed slot starts above 0, and a slot at 0 stays there, so only
    # the positive ones are walked; lows[s] is slot s's lower bound on the
    # final page, kept when positive.
    shifts = [r * maslov - 1 for r in range(1, nu + 1)]
    lows: dict[int, int] = {}
    for s, lo in profile.known.items():
        for shift in shifts:
            if not lo:
                break
            left_hi, right_hi = _upper(profile, s - shift), _upper(profile, s + shift)
            lo = 0 if left_hi is None or right_hi is None else max(0, lo - left_hi - right_hi)
        if lo:
            lows[s] = lo

    if not lows:  # every final-page slot may be 0, below its first-page bound
        witness = FinalPageWitness(tuple((0, _upper(profile, s)) for s in range(profile.n + 1)))
        return NarrownessVerdict(nu + 1, witness)

    best = max(lows, key=lambda s: (lows[s], -abs(2 * s - n), -s))
    witness = ContradictionWitness(best, lows[best], _chain(profile, best, maslov, nu))
    return NarrownessVerdict(nu + 1, witness)


def _upper(profile: BettiProfile, degree: int) -> int | None:
    """The first page's upper bound at any integer degree: 0 outside [0, n]."""
    return profile.known.get(degree, profile.room) if 0 <= degree <= profile.n else 0


def _chain(profile: BettiProfile, slot: int, maslov: int,
           nu: int) -> tuple[ChainStep, ...] | None:
    """The exact-sequence bound at ``slot`` page by page, read off the profile's
    page-invariant upper bounds; None once a neighbour is unbounded."""
    lower, chain = profile.known.get(slot, 0), []
    for r in range(1, nu + 1):
        shift = r * maslov - 1
        left, right = _upper(profile, slot - shift), _upper(profile, slot + shift)
        if left is None or right is None:
            return None
        after = max(0, lower - left - right)
        chain.append(ChainStep(r, shift, slot - shift, left, slot + shift, right, lower, after))
        lower = after
    return tuple(chain)


def oracle_narrow_feasible(profile: BettiProfile, maslov: int, nu: int) -> NarrownessVerdict:
    """Decide exactly whether some legal rank choice kills the final page.

    One maximum matching on ``_graph`` decides it, whether the profile is
    fully known, capped or uncapped: a perfect matching is the Feasible
    witness, a stuck alternating tree the Infeasible one, a single Tutte
    barrier.  ``_graph`` refuses what it cannot decide.
    """
    require_maslov(maslov)
    if nu < 0:
        raise EngineError(f"number of page turns must be >= 0, got {nu}")
    return NarrownessVerdict(nu + 1, _match(*_graph(profile, maslov, nu), maslov))


def _graph(profile: BettiProfile, maslov: int, nu: int):
    """The cancellation graph of a profile, as ``(dims, partners, exits)``.

    Listed slots keep their dimension and open slots, the unlisted ones when
    the profile's room is not 0, get 0; nonzero slots s and s + rN - 1,
    1 <= r <= nu, are partners.  Two open classes that cancel each other can
    be dropped, so slot n + 1, the pool, stands for those paired with the E
    classes of the exact slots s with an open partner, the first of which is ``exits[s]``: min(room, E) classes,
    one fewer if that parity differs from used's, so that its leftover
    classes pair among themselves.  The pool is its own partner and, after
    the exact ones, a partner of every slot in ``exits``.  This is the
    oracle's one gate: beyond ``MAX_CLASSES`` exact classes, or exact and
    pool classes, SearchCapError, before any partner list is built.
    """
    known, room, width = profile.known, profile.room, profile.n + 1
    dims = [known.get(s, 0) for s in range(width)]
    used = sum(dims)
    if used > MAX_CLASSES:
        raise SearchCapError(f"{used} exact classes, above the matching's limit of {MAX_CLASSES}")
    shifts = [r * maslov - 1 for r in range(1, nu + 1)]
    exits = {}
    for s in sorted(s for s, dim in known.items() if dim) if room != 0 else ():
        t = next((t for k in shifts for t in (s - k, s + k)
                  if 0 <= t < width and t not in known), None)
        if t is not None:
            exits[s] = t
    pool = sum(dims[s] for s in exits)
    if room is not None:
        pool = min(pool, room)
    pool = max(0, pool - (pool + used) % 2)
    if used + pool > MAX_CLASSES:
        raise SearchCapError(f"{used} exact classes and a pool of {pool}, above the "
                             f"matching's limit of {MAX_CLASSES}")
    partners = [[t for k in shifts for t in (s - k, s + k) if 0 <= t < width and dims[t]]
                if dims[s] else [] for s in range(width)]
    if not pool:
        exits = {}
    for s in exits:
        partners[s].append(width)
    partners.append([width, *exits])
    return dims + [pool], partners, exits


def _match(dims: list[int], partners, exits: dict[int, int], maslov: int):
    """Pair off the classes of ``_graph``: one vertex per class, adjacent to the
    classes of the partner slots.  A greedy pass over slot pairs (slots, then
    pages, ascending) seeds the matching; Edmonds' search then grows one
    alternating tree per unmatched class (without a pool and for even N no
    blossom forms).  Returns the FeasibleWitness read off the matching, a
    class matched to the pool pairing with one class of its slot's exit, or
    an InfeasibleWitness: the slots of a stuck tree's inner vertices, which
    are whole slots as copies share partners.
    """
    start = list(accumulate(dims, initial=0))  # slot s holds classes start[s] .. start[s+1] - 1
    slot_of = [s for s, dim in enumerate(dims) for _ in range(dim)]
    mate = [-1] * start[-1]
    free = start[:-1]  # the greedy pass pairs each slot's classes in order
    for s, near in enumerate(partners):
        for t in near:
            while t > s and free[s] < start[s + 1] and free[t] < start[t + 1]:
                mate[free[s]], mate[free[t]] = free[t], free[s]
                free[s], free[t] = free[s] + 1, free[t] + 1
    while free[-1] + 1 < start[-1]:  # the pool, last, is its own partner
        mate[free[-1]], mate[free[-1] + 1] = free[-1] + 1, free[-1]
        free[-1] += 2
    trees = 0
    for root, partner in enumerate(mate):
        if partner == -1:
            trees += 1
            inner = _grow(root, mate, slot_of, start, partners)
            if inner is not None:
                return InfeasibleWitness(tuple(sorted({slot_of[u] for u in inner})), trees)
    pairs, pool = Counter(), len(dims) - 1
    # classes are numbered by slot, so u < v puts u in the lower slot, and
    # the pool's own pairs are dropped
    for u, v in enumerate(mate):
        if u < v and slot_of[u] != pool:
            s, t = slot_of[u], slot_of[v]
            if t == pool:
                t = exits[s]
            pairs[min(s, t), (abs(t - s) + 1) // maslov] += 1
    return FeasibleWitness(tuple((s, r, count) for (s, r), count in sorted(pairs.items())))


def _grow(root: int, mate: list[int], slot_of, start, partners) -> list[int] | None:
    """Edmonds' search from ``root``: augment ``mate`` and return None, or
    return the inner vertices of the tree that cannot grow."""
    size = len(mate)
    base = list(range(size))  # the base of the blossom holding each vertex
    members = [[u] for u in range(size)]  # the vertices of each base's blossom
    parent, outer, queue = [-1] * size, [False] * size, [root]
    outer[root] = True

    def common_base(a: int, b: int) -> int:
        seen = {base[a]}
        while mate[base[a]] != -1:
            a = parent[mate[base[a]]]
            seen.add(base[a])
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    for v in queue:  # the queue grows while it is walked
        for t in partners[slot_of[v]]:
            for w in range(start[t], start[t + 1]):
                if base[v] == base[w] or mate[v] == w:
                    continue
                if outer[w]:  # an odd cycle: contract it into a blossom
                    b, bases = common_base(v, w), set()
                    for x, child in ((v, w), (w, v)):  # relink both sides of the cycle
                        while base[x] != b:
                            bases.update((base[x], base[mate[x]]))
                            parent[x], child = child, mate[x]
                            x = parent[child]
                    for x in bases - {b}:
                        for u in members[x]:
                            base[u] = b
                            if not outer[u]:
                                outer[u] = True
                                queue.append(u)
                        members[b] += members[x]
                elif parent[w] == -1:
                    parent[w] = v
                    if mate[w] == -1:  # augment along the tree path back to the root
                        while w != -1:
                            p = parent[w]
                            mate[w], mate[p], w = p, w, mate[p]
                        return None
                    outer[mate[w]] = True
                    queue.append(mate[w])
    return [u for u in range(size) if parent[u] != -1 and not outer[u]]


def is_tutte_barrier(profile: BettiProfile, maslov: int, nu: int, barrier) -> bool:
    """True iff the slots ``barrier``, distinct and ascending, of ``_graph(profile, ...)``
    prove that no completion of the profile can pair off.

    Without the barrier, a slot with no partner left is ``dims[s]`` odd parts,
    or one when its total is odd if it is its own partner (the pool, a
    clique), and a larger connected group is one odd part when its total is
    odd; more odd parts than classes in the barrier leave a class unpaired
    (Tutte 1952).  A profile that ``_graph`` refuses raises, as the decider does.
    """
    dims, partners, _ = _graph(profile, maslov, nu)
    removed = set(barrier)
    if list(barrier) != sorted(removed) or any(not 0 <= s < len(dims) for s in removed):
        return False
    seen, odd = set(removed), 0
    for s, dim in enumerate(dims):
        if dim and s not in seen:
            seen.add(s)
            group, stack = [], [s]
            while stack:
                group.append(stack.pop())
                fresh = [t for t in partners[group[-1]] if t not in seen]
                seen.update(fresh)
                stack += fresh
            lone = len(group) == 1 and s not in partners[s]
            odd += dim if lone else sum(dims[u] for u in group) % 2
    return odd > sum(dims[s] for s in removed)


# --- replay and serialization ----------------------------------------------


def _witness(verdict: NarrownessVerdict, refusal: str):
    """The verdict's witness, if ``WITNESS_TYPES`` holds its class under its
    tag; otherwise WitnessError, ``refusal`` and the type's name."""
    witness = verdict.witness
    if WITNESS_TYPES.get(getattr(witness, "tag", None)) is not type(witness):
        raise WitnessError(refusal + type(witness).__name__)
    return witness


def replay_witness(
    verdict: NarrownessVerdict, profile: BettiProfile, maslov: int, nu: int
) -> bool:
    """Re-derive a verdict's witness from scratch with its class's ``replay``;
    True iff it checks out and the verdict names the final page nu + 1.

    Malformed structure raises; wrong values return False; a profile beyond
    the oracle's limits raises SearchCapError for a barrier.
    """
    witness = _witness(verdict, "not a witness: ")
    try:
        return verdict.page == nu + 1 and witness.replay(profile, maslov, nu)
    except (TypeError, AttributeError) as exc:
        raise WitnessError(f"malformed witness: {exc}") from exc


def verdict_to_json(verdict: NarrownessVerdict) -> dict:
    """Stable wire form: {"kind", "slot", "page", "bound", "witness"}, the
    witness written by its class, its tag under "type"."""
    witness = _witness(verdict, "unserializable witness type ")
    return {"kind": witness.kind, "slot": witness.slot, "page": verdict.page,
            "bound": witness.bound, "witness": witness.to_json()}


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
        verdict = NarrownessVerdict(_as_opt_int(data["page"]), witness)
        headline = (_as_opt_int(data["slot"]), _as_opt_int(data["bound"]))
        if headline != (verdict.slot, verdict.bound):
            raise WitnessError(
                f"headline slot and bound {headline} differ from the witness's "
                f"{(verdict.slot, verdict.bound)}"
            )
        return verdict
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessError(f"malformed verdict object: {exc}") from exc
