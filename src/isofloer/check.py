"""The read-and-replay side of a narrowness verdict, which ``specseq`` loads on
first use: ``verdict_from_json`` reads a verdict's wire form strictly, and
``replay_witness`` re-derives its witness without trusting the run that
produced it, with the strict reader and the replay that ``KINDS`` keys by the
witness's tag."""

from __future__ import annotations

from collections import Counter
from functools import partial

from . import specseq
from .homology import BettiProfile, as_int, as_list, as_object
from .matching import FeasibleWitness, InfeasibleWitness, is_tutte_barrier
from .specseq import ChainStep, ContradictionWitness, FinalPageWitness, NarrownessVerdict
from .specseq import WitnessError, _chain, _page_turns, _witness

_as_int = partial(as_int, error=WitnessError, what="witness field")
_as_list = partial(as_list, error=WitnessError, what="witness entry")
_as_object = partial(as_object, error=WitnessError)


def _rows(value, key: str, size: int | None = None) -> list:
    """``value``, the list under ``key``: of ints, or of lists of ``size`` items."""
    entry = _as_int if size is None else partial(_as_list, size=size)
    return [entry(row) for row in _as_list(value, what=f"witness field {key!r}")]


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


def _read_chain(slot, bound, chain) -> ContradictionWitness:
    steps = tuple(ChainStep(*map(_as_int, _as_object(step, ChainStep.__slots__,
                                                      what="chain step")))
                  for step in _as_list(chain, what="witness field 'chain'"))
    return ContradictionWitness(_as_int(slot), _as_int(bound), steps)


def _replay_chain(witness: ContradictionWitness, profile: BettiProfile, maslov: int) -> bool:
    """Re-walk the chain against the profile, without the propagator."""
    chain = _chain(profile, witness.slot, maslov, _page_turns(profile.n, maslov))
    if chain is None:
        return False
    lower = chain[-1].lower_after if chain else profile.known.get(witness.slot, 0)
    return 0 < witness.bound == lower and witness.chain == chain


def _replay_final_page(witness: FinalPageWitness, profile: BettiProfile, maslov: int) -> bool:
    # looked up in specseq at each call, so a wrapper patched in there is the one run
    return specseq.propagate_narrow(profile, maslov, profile.n,
                                    _page_turns(profile.n, maslov)).witness == witness


def _replay_pairs(witness: FeasibleWitness, profile: BettiProfile, maslov: int) -> bool:
    # each slot's counts add up to its value in the completion that the
    # pairs pair off; pairs must ascend strictly in (s, r), and above
    # (0, 0) rules out s < 0, so t <= n bounds r by nu
    paired, last = Counter(), (0, 0)
    for s, r, count in witness.pairs:
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


# each witness tag: (its payload's keys, "type" first, the others' strict reader, its replay)
KINDS = {
    ContradictionWitness.tag: (("type", "slot", "bound", "chain"), _read_chain, _replay_chain),
    FinalPageWitness.tag: (
        ("type", "slots"), lambda slots: FinalPageWitness(
            tuple(_slot_bound(lo, hi) for lo, hi in _rows(slots, "slots", 2))),
        _replay_final_page),
    FeasibleWitness.tag: (
        ("type", "pairs"), lambda pairs: FeasibleWitness(
            tuple((_as_int(s), _as_int(r), _as_int(c)) for s, r, c in _rows(pairs, "pairs", 3))),
        _replay_pairs),
    InfeasibleWitness.tag: (
        ("type", "barrier"),
        lambda barrier: InfeasibleWitness(tuple(_rows(barrier, "barrier"))),
        lambda witness, profile, maslov: is_tutte_barrier(profile, maslov, witness.barrier)),
}


def replay_witness(verdict: NarrownessVerdict, profile: BettiProfile, maslov: int) -> bool:
    """Re-derive a verdict's witness from scratch with its kind's replay;
    True iff it checks out and the verdict names the final page nu + 1.

    Malformed structure raises; wrong values return False; a Maslov number
    below the lifted theory's threshold raises MaslovTooSmallError, and a
    profile beyond the oracle's limits SearchCapError for a barrier.
    """
    witness = _witness(verdict, "not a witness: ")
    try:
        page = _page_turns(profile.n, maslov) + 1
        return verdict.page == page and KINDS[witness.tag][2](witness, profile, maslov)
    except (TypeError, AttributeError) as exc:
        raise WitnessError(f"malformed witness: {exc}") from exc


def verdict_from_json(data: dict) -> NarrownessVerdict:
    kind, slot, page, bound, payload = _as_object(
        data, ("kind", "slot", "page", "bound", "witness"), what="verdict")
    wtype = getattr(payload, "get", {}.get)("type", ...)  # read first: it picks the other keys
    if wtype is ...:  # not an object (which has no get), or no type: refused here
        _as_object(payload, ("type",), what="witness")
    keys, read, _ = KINDS.get(wtype if isinstance(wtype, str) else None, (None,) * 3)
    witness = None if read is None else read(*_as_object(payload, keys, what="witness")[1:])
    if witness is None or kind != witness.kind:
        raise WitnessError(f"verdict kind {kind!r} does not match witness type {wtype!r}")
    verdict = NarrownessVerdict(_as_int(page), witness)
    headline = (_as_opt_int(slot), _as_opt_int(bound))
    if headline != (verdict.slot, verdict.bound):
        raise WitnessError(
            f"headline slot and bound {headline} differ from the witness's "
            f"{(verdict.slot, verdict.bound)}"
        )
    return verdict
