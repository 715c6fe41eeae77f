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

A page with known dimensions is just its tuple of slot dimensions, and
``step_page`` turns it with one rank vector.  Interval-valued slots live
only in ``BettiProfile``, which serves as the first page.

Two deciders answer "can the final page vanish":

* ``propagate_narrow`` pushes interval bounds page by page.  Sound on
  partially known profiles, not complete.
* ``oracle_narrow_feasible`` exhaustively searches differential rank
  assignments over the completions of the profile within its cap.
  Complete, but needs finite slot bounds.

They share no decision logic, which is the point: the oracle is the
ground truth the propagator is tested against.  Each verdict is its kind,
its final page and a witness; a Contradiction's slot and bound are read
off its witness, and ``replay_witness`` re-derives any witness without
trusting the run that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .homology import BettiProfile, DimBound, as_int, total_betti


class EngineError(ValueError):
    """Anything the spectral-sequence layer refuses to do."""


class MaslovTooSmallError(EngineError):
    """Minimal Maslov number below the threshold of the requested theory."""


class RankViolationError(EngineError):
    """A rank vector breaks a linear-algebra constraint of its page."""


class UnknownSlotsError(EngineError):
    """The oracle needs finite bounds on every slot."""


class SearchCapError(EngineError):
    """A profile too large for the exhaustive search."""


class WitnessError(EngineError):
    """A witness is structurally malformed (as opposed to merely wrong)."""


CONTRADICTION = "Contradiction"
NO_CONTRADICTION = "NoContradiction"
FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"


LIFTED_MIN_MASLOV = 3

# The oracle's search recurses once per slot (to build a rank vector) and
# once per page; a wider profile would run into Python's default limit of
# 1000 frames and end in a RecursionError.
ORACLE_MAX_SLOTS = 512


def require_maslov(maslov: int) -> None:
    """Refuse a minimal Maslov number below the lifted theory's threshold."""
    if maslov < LIFTED_MIN_MASLOV:
        raise MaslovTooSmallError(
            f"lifted Floer theory needs minimal Maslov number >= {LIFTED_MIN_MASLOV}, got {maslov}"
        )


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


# --- verdicts and witnesses -------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One page of the exact-sequence bound at a fixed slot.

    Exactness of V[left] -> V[s] -> V[right] under a vanishing final page
    gives lower_after = max(0, lower_before - left_hi - right_hi).
    """

    page: int
    shift: int
    left: int
    left_hi: int
    right: int
    right_hi: int
    lower_before: int
    lower_after: int


@dataclass(frozen=True)
class ContradictionWitness:
    slot: int
    bound: int
    chain: tuple[ChainStep, ...]


@dataclass(frozen=True)
class FinalPageWitness:
    slots: tuple[DimBound, ...]


@dataclass(frozen=True)
class FeasibleWitness:
    completion: tuple[int, ...]
    ranks: tuple[RankVector, ...]


@dataclass(frozen=True)
class InfeasibleWitness:
    completions_tried: int
    states_explored: int


@dataclass(frozen=True)
class NarrownessVerdict:
    """A verdict kind, its final page and the witness that carries the rest.

    ``slot`` and ``bound`` are read off a ``ContradictionWitness`` and are
    None for every other kind, so a headline cannot disagree with its witness.
    """

    kind: str
    page: int | None
    witness: object

    @property
    def slot(self) -> int | None:
        return self.witness.slot if isinstance(self.witness, ContradictionWitness) else None

    @property
    def bound(self) -> int | None:
        return self.witness.bound if isinstance(self.witness, ContradictionWitness) else None


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
    bound = profile.bound  # upper bounds are constant across pages

    # A slot starting at lower bound 0 stays at 0, so only the positive ones
    # are walked; lows[s] is slot s's lower bound on pages 1..nu+1.
    if profile.default.lo > 0:
        live = range(profile.n + 1)
    else:
        live = [s for s, slot in profile.support.items() if slot.lo > 0]
    shifts = [r * maslov - 1 for r in range(1, nu + 1)]
    lows: dict[int, list[int]] = {}
    for s in live:
        lo = bound(s).lo
        trail = [lo]
        for shift in shifts:
            if lo:
                left_hi, right_hi = bound(s - shift).hi, bound(s + shift).hi
                lo = 0 if left_hi is None or right_hi is None else max(0, lo - left_hi - right_hi)
            trail.append(lo)
        lows[s] = trail

    positive = [s for s, trail in lows.items() if trail[-1] > 0]
    if not positive:
        witness = FinalPageWitness(
            tuple(
                DimBound(lows[s][-1], slot.hi) if s in lows else slot
                for s, slot in enumerate(profile.slots)
            )
        )
        return NarrownessVerdict(NO_CONTRADICTION, nu + 1, witness)

    best = max(positive, key=lambda s: (lows[s][-1], -abs(2 * s - n), -s))
    trail = lows[best]
    chain = []
    for r in range(1, nu + 1):
        shift = r * maslov - 1
        left_hi, right_hi = bound(best - shift).hi, bound(best + shift).hi
        # a surviving positive bound never met an unbounded neighbour
        assert left_hi is not None and right_hi is not None
        chain.append(
            ChainStep(
                page=r,
                shift=shift,
                left=best - shift,
                left_hi=left_hi,
                right=best + shift,
                right_hi=right_hi,
                lower_before=trail[r - 1],
                lower_after=trail[r],
            )
        )
    witness = ContradictionWitness(best, trail[-1], tuple(chain))
    return NarrownessVerdict(CONTRADICTION, nu + 1, witness)


def _completions(slots: tuple[DimBound, ...], most: int):
    """Every choice of one value per slot with total at most ``most``.

    Lexicographic order, as ``itertools.product`` of the slot ranges would
    give them, but a slot is only raised while the slots after it, reset
    to their lower ends, keep the total within ``most``; so the cost follows
    the completions yielded, not the size of the product.
    """
    lo = [slot.lo for slot in slots]
    hi = [slot.hi for slot in slots]
    current, total = lo[:], sum(lo)
    if total > most:
        return
    while True:
        yield tuple(current)
        excess = 0  # how far the slots after i stand above their lower ends
        for i in range(len(current) - 1, -1, -1):
            if current[i] < hi[i] and total - excess < most:
                current[i] += 1
                current[i + 1:] = lo[i + 1:]
                total += 1 - excess
                break
            excess += current[i] - lo[i]
        else:
            return


def oracle_narrow_feasible(
    profile: BettiProfile, maslov: int, nu: int, search_cap: int | None = None
) -> NarrownessVerdict:
    """Exhaustively decide whether some legal rank choice kills the final page.

    Complete where the propagator is only sound.  Unknown slots are
    enumerated over their intervals when every upper end is finite
    (otherwise the search space is infinite and the call is refused),
    skipping completions whose total exceeds the profile's cap;
    ``search_cap`` refuses inputs whose total dimension may exceed it, and
    a profile of more than ``ORACLE_MAX_SLOTS`` slots is refused too.
    The search runs depth first, slots ascending, ranks descending from
    their caps, memoizing visited (page, dims) states, so a Feasible
    verdict always carries the lexicographically greediest witness.
    """
    require_maslov(maslov)
    if nu < 0:
        raise EngineError(f"number of page turns must be >= 0, got {nu}")
    width = profile.n + 1
    if width > ORACLE_MAX_SLOTS:
        raise SearchCapError(
            f"profile has {width} slots, above the oracle's limit of {ORACLE_MAX_SLOTS}"
        )
    total = total_betti(profile)
    if total.hi is None:
        raise UnknownSlotsError(
            "profile has slots with no finite upper bound; completions cannot be enumerated"
        )
    if search_cap is not None and total.hi > search_cap:
        raise SearchCapError(
            f"total dimension may reach {total.hi}, above the search cap {search_cap}"
        )
    states_explored = 0
    memo: dict[tuple[int, tuple[int, ...]], tuple[RankVector, ...] | None] = {}

    def legal_rank_vectors(dims: tuple[int, ...], shift: int):
        acc: list[int] = []

        def rec(s: int):
            if s == width:
                yield tuple(acc)
                return
            cap = dims[s] - (acc[s - shift] if s - shift >= 0 else 0)
            cap = min(cap, dims[s + shift] if s + shift < width else 0)
            for a in range(cap, -1, -1):
                acc.append(a)
                yield from rec(s + 1)
                acc.pop()

        yield from rec(0)

    def search(dims: tuple[int, ...], r: int) -> tuple[RankVector, ...] | None:
        nonlocal states_explored
        if r > nu:
            return () if not any(dims) else None
        key = (r, dims)
        if key in memo:
            return memo[key]
        states_explored += 1
        shift = r * maslov - 1
        found = None
        for a in legal_rank_vectors(dims, shift):
            nxt = tuple(
                dims[s] - a[s] - (a[s - shift] if s - shift >= 0 else 0)
                for s in range(width)
            )
            tail = search(nxt, r + 1)
            if tail is not None:
                found = (RankVector(r, a),) + tail
                break
        memo[key] = found
        return found

    completions_tried = 0
    for completion in _completions(profile.slots, total.hi):
        completions_tried += 1
        ranks = search(completion, 1)
        if ranks is not None:
            witness = FeasibleWitness(completion, ranks)
            return NarrownessVerdict(FEASIBLE, nu + 1, witness)
    witness = InfeasibleWitness(completions_tried, states_explored)
    return NarrownessVerdict(INFEASIBLE, nu + 1, witness)


# --- replay -----------------------------------------------------------------


def replay_witness(
    verdict: NarrownessVerdict, profile: BettiProfile, maslov: int, nu: int
) -> bool:
    """Re-derive a verdict's witness from scratch; True iff it checks out.

    Contradiction chains are re-walked arithmetically against the profile
    (no call into the propagator); Feasible witnesses are re-run through
    ``step_page`` down to the zero page; the other two kinds are checked
    by recomputation.  Every verdict names the final page nu + 1.
    Malformed structure raises; wrong values return False.
    """
    witness = verdict.witness
    final = verdict.page == nu + 1
    try:
        if verdict.kind == CONTRADICTION:
            if not isinstance(witness, ContradictionWitness):
                raise WitnessError("Contradiction verdict without a chain witness")
            return final and _replay_contradiction(witness, profile, maslov, nu)
        if verdict.kind == NO_CONTRADICTION:
            if not isinstance(witness, FinalPageWitness):
                raise WitnessError("NoContradiction verdict without a final-page witness")
            fresh = propagate_narrow(profile, maslov, profile.n, nu)
            return final and fresh.kind == NO_CONTRADICTION and fresh.witness == witness
        if verdict.kind == FEASIBLE:
            if not isinstance(witness, FeasibleWitness):
                raise WitnessError("Feasible verdict without a rank witness")
            return final and _replay_feasible(witness, profile, maslov, nu)
        if verdict.kind == INFEASIBLE:
            if not isinstance(witness, InfeasibleWitness):
                raise WitnessError("Infeasible verdict without search statistics")
            fresh = oracle_narrow_feasible(profile, maslov, nu)
            return final and fresh.kind == INFEASIBLE and fresh.witness == witness
    except (TypeError, AttributeError) as exc:
        raise WitnessError(f"malformed witness: {exc}") from exc
    raise WitnessError(f"unknown verdict kind {verdict.kind!r}")


def _replay_contradiction(
    witness: ContradictionWitness, profile: BettiProfile, maslov: int, nu: int
) -> bool:
    slot, bound = witness.slot, witness.bound
    if bound <= 0 or len(witness.chain) != nu:
        return False
    lower = profile.bound(slot).lo
    for r, step in enumerate(witness.chain, start=1):
        shift = r * maslov - 1
        if step.page != r or step.shift != shift:
            return False
        if step.left != slot - shift or step.right != slot + shift:
            return False
        left, right = profile.bound(step.left), profile.bound(step.right)
        # upper bounds are page-invariant, so the profile is the authority
        if left.hi is None or right.hi is None:
            return False
        if step.left_hi != left.hi or step.right_hi != right.hi:
            return False
        if step.lower_before != lower:
            return False
        lower = max(0, lower - left.hi - right.hi)
        if step.lower_after != lower:
            return False
    return lower == bound


def _replay_feasible(
    witness: FeasibleWitness, profile: BettiProfile, maslov: int, nu: int
) -> bool:
    dims = tuple(witness.completion)
    if len(dims) != profile.n + 1:
        return False
    if profile.cap is not None and sum(dims) > profile.cap:
        return False
    for value, slot in zip(dims, profile.slots):
        if value < slot.lo:
            return False
        if slot.hi is not None and value > slot.hi:
            return False
    # one rank vector per page turn, in page order
    if [ranks.r for ranks in witness.ranks] != list(range(1, nu + 1)):
        return False
    try:
        for ranks in witness.ranks:
            dims = step_page(dims, maslov, ranks)
    except EngineError:
        return False
    return not any(dims)


# --- serialization ----------------------------------------------------------


def verdict_to_json(verdict: NarrownessVerdict) -> dict:
    """Stable wire form: {"kind", "slot", "page", "bound", "witness"}."""
    witness = verdict.witness
    if isinstance(witness, ContradictionWitness):
        payload = {
            "type": "contradiction-chain",
            "slot": witness.slot,
            "bound": witness.bound,
            "chain": [
                {
                    "page": c.page,
                    "shift": c.shift,
                    "left": c.left,
                    "left_hi": c.left_hi,
                    "right": c.right,
                    "right_hi": c.right_hi,
                    "lower_before": c.lower_before,
                    "lower_after": c.lower_after,
                }
                for c in witness.chain
            ],
        }
    elif isinstance(witness, FinalPageWitness):
        payload = {
            "type": "final-page",
            "slots": [[slot.lo, slot.hi] for slot in witness.slots],
        }
    elif isinstance(witness, FeasibleWitness):
        payload = {
            "type": "rank-assignment",
            "completion": list(witness.completion),
            "ranks": [{"page": rv.r, "ranks": list(rv.ranks)} for rv in witness.ranks],
        }
    elif isinstance(witness, InfeasibleWitness):
        payload = {
            "type": "exhausted-search",
            "completions_tried": witness.completions_tried,
            "states_explored": witness.states_explored,
        }
    else:
        raise WitnessError(f"unserializable witnessType {type(witness).__name__}")
    return {
        "kind": verdict.kind,
        "slot": verdict.slot,
        "page": verdict.page,
        "bound": verdict.bound,
        "witness": payload,
    }


_as_int = partial(as_int, error=WitnessError, what="witness field")


def _as_opt_int(value) -> int | None:
    return None if value is None else _as_int(value)


def verdict_from_json(data: dict) -> NarrownessVerdict:
    if not isinstance(data, dict):
        raise WitnessError("verdict must be a JSON object")
    try:
        kind = data["kind"]
        payload = data["witness"]
        wtype = payload["type"]
        if kind == CONTRADICTION and wtype == "contradiction-chain":
            chain = tuple(
                ChainStep(
                    page=_as_int(c["page"]),
                    shift=_as_int(c["shift"]),
                    left=_as_int(c["left"]),
                    left_hi=_as_int(c["left_hi"]),
                    right=_as_int(c["right"]),
                    right_hi=_as_int(c["right_hi"]),
                    lower_before=_as_int(c["lower_before"]),
                    lower_after=_as_int(c["lower_after"]),
                )
                for c in payload["chain"]
            )
            witness: object = ContradictionWitness(
                _as_int(payload["slot"]), _as_int(payload["bound"]), chain
            )
        elif kind == NO_CONTRADICTION and wtype == "final-page":
            witness = FinalPageWitness(
                tuple(DimBound(_as_int(lo), _as_opt_int(hi)) for lo, hi in payload["slots"])
            )
        elif kind == FEASIBLE and wtype == "rank-assignment":
            witness = FeasibleWitness(
                tuple(_as_int(v) for v in payload["completion"]),
                tuple(
                    RankVector(_as_int(rv["page"]), tuple(_as_int(a) for a in rv["ranks"]))
                    for rv in payload["ranks"]
                ),
            )
        elif kind == INFEASIBLE and wtype == "exhausted-search":
            witness = InfeasibleWitness(
                _as_int(payload["completions_tried"]), _as_int(payload["states_explored"])
            )
        else:
            raise WitnessError(f"verdict kind {kind!r} does not match witness type {wtype!r}")
        verdict = NarrownessVerdict(kind, _as_opt_int(data["page"]), witness)
        headline = (_as_opt_int(data["slot"]), _as_opt_int(data["bound"]))
        if headline != (verdict.slot, verdict.bound):
            raise WitnessError(
                f"headline slot and bound {headline} differ from the witness's "
                f"{(verdict.slot, verdict.bound)}"
            )
        return verdict
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessError(f"malformed verdict object: {exc}") from exc
