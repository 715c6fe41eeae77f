"""The tests' reference for ``specseq.propagate_narrow``: its earlier form.

``propagate_narrow`` now reads the two bounds next to a slot inline and keeps
its winning slot as it walks.  This is the form it had before: ``_upper`` per
neighbour, a dict of positive final-page bounds and ``max`` over it with the
tie-break key, with ``_upper`` and ``_chain`` as they were then.  The tests
require the two to give equal verdicts.  The package never calls it.
"""

from isofloer.homology import BettiProfile
from isofloer.specseq import (
    ChainStep,
    ContradictionWitness,
    EngineError,
    FinalPageWitness,
    NarrownessVerdict,
    require_maslov,
)


def propagate_narrow(
    profile: BettiProfile, maslov: int, n: int, nu: int
) -> NarrownessVerdict:
    require_maslov(maslov)
    if nu < 0:
        raise EngineError(f"number of page turns must be >= 0, got {nu}")
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

    if not lows:
        witness = FinalPageWitness(tuple((0, _upper(profile, s)) for s in range(profile.n + 1)))
        return NarrownessVerdict(nu + 1, witness)

    best = max(lows, key=lambda s: (lows[s], -abs(2 * s - n), -s))
    witness = ContradictionWitness(best, lows[best], _chain(profile, best, maslov, nu))
    return NarrownessVerdict(nu + 1, witness)


def _upper(profile: BettiProfile, degree: int) -> int | None:
    return profile.known.get(degree, profile.room) if 0 <= degree <= profile.n else 0


def _chain(profile: BettiProfile, slot: int, maslov: int,
           nu: int) -> tuple[ChainStep, ...] | None:
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
