"""An exhaustive small world: the exact decider and the barrier check on every
small profile, against brute force.

The world has two parts, each enumerated with ``itertools``:

* **Fully known profiles:** n = 0..6, every dim in 0..2, at N = 3, 4 and 5
  (9,837 profiles).  The decider's kind must be ``brute_feasible``'s, and its
  witness must replay.
* **Partial profiles:** n = 2..5, each slot unlisted or of dim 0..2, and a cap
  of none or the known total plus 0..3, at N = 3 and 4 (54,400 profiles).  A
  profile is Feasible when ``brute_feasible`` pairs off one of its
  ``completions_within_the_cap``.  The decider must agree, with a witness that
  replays.  On every Feasible profile, no set of its nonzero listed slots, with
  or without the pool slot n + 1, may pass as a Tutte barrier.

The references are ``tests/page_model.py`` alone, which takes nothing from
``isofloer.specseq`` but ``require_maslov``.
"""

import functools
import itertools

import pytest

from isofloer.homology import make_partial_profile, make_profile
from isofloer.matching import is_tutte_barrier
from isofloer.specseq import FEASIBLE, INFEASIBLE, oracle_narrow_feasible, replay_witness

from page_model import brute_feasible, completions_within_the_cap

DIMS = range(3)
KNOWN_WORLD = [(n, maslov) for n in range(7) for maslov in (3, 4, 5)]
PARTIAL_WORLD = [(n, maslov) for n in range(2, 6) for maslov in (3, 4)]
ROOMS = (None, 0, 1, 2, 3)  # the cap above the known total; None is no cap


@pytest.fixture(scope="module")
def pairs_off():
    """Whether some legal rank choice on every page ends on the zero page,
    cached for the module: the partial profiles share their completions."""

    @functools.cache
    def pairs_off(first_page: tuple, maslov: int) -> bool:
        return brute_feasible(first_page, maslov, len(first_page) // maslov)

    return pairs_off


@pytest.fixture(scope="module")
def partial_profiles(pairs_off) -> list:
    """Every partial profile of the world with its Maslov number and whether
    brute force finds a completion that pairs off."""
    world = []
    for n, maslov in PARTIAL_WORLD:
        for slots in itertools.product((None, *DIMS), repeat=n + 1):
            known = [(s, dim) for s, dim in enumerate(slots) if dim is not None]
            used = sum(dim for _, dim in known)
            for room in ROOMS:
                profile = make_partial_profile(n, known, None if room is None else used + room)
                feasible = any(pairs_off(first_page, maslov)
                               for first_page in completions_within_the_cap(profile))
                world.append((profile, maslov, feasible))
    return world


def test_decider_matches_brute_force_on_every_small_known_profile(pairs_off):
    wrong = []
    for n, maslov in KNOWN_WORLD:
        for first_page in itertools.product(DIMS, repeat=n + 1):
            profile = make_profile(n, enumerate(first_page))
            verdict = oracle_narrow_feasible(profile, maslov)
            expected = FEASIBLE if pairs_off(first_page, maslov) else INFEASIBLE
            if (verdict.kind, replay_witness(verdict, profile, maslov)) != (expected, True):
                wrong.append((first_page, maslov, verdict))
    assert wrong == []


def test_decider_matches_brute_force_on_every_small_partial_profile(partial_profiles):
    wrong = []
    for profile, maslov, feasible in partial_profiles:
        verdict = oracle_narrow_feasible(profile, maslov)
        expected = FEASIBLE if feasible else INFEASIBLE
        if (verdict.kind, replay_witness(verdict, profile, maslov)) != (expected, True):
            wrong.append((profile, maslov, verdict))
    assert wrong == []


def test_no_barrier_passes_on_a_feasible_small_profile(partial_profiles):
    # the pool, slot n + 1, holds no class when no listed slot has an open
    # partner; offered then, it removes nothing
    accepted, offered, feasible_profiles = [], 0, 0
    for profile, maslov, feasible in partial_profiles:
        if not feasible:
            continue
        feasible_profiles += 1
        slots = [s for s, dim in sorted(profile.known.items()) if dim] + [profile.n + 1]
        for size in range(len(slots) + 1):
            for barrier in itertools.combinations(slots, size):
                offered += 1
                if is_tutte_barrier(profile, maslov, barrier):
                    accepted.append((profile, maslov, barrier))
    assert feasible_profiles > 0 and offered > feasible_profiles
    assert accepted == []
