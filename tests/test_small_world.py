"""An exhaustive small world: the exact decider and the certificate replays on
every small profile, against brute force.

The world has two parts, each enumerated with ``itertools``:

* **Fully known profiles:** n = 0..6, every dim in 0..2, at N = 3, 4 and 5
  (9,837 first pages), each in two forms: every slot listed, and its nonzero
  slots only.  The decider's kind must be ``brute_feasible``'s, and its
  witness must replay.
* **Partial profiles:** n = 2..5, each slot unlisted or of dim 0..2, and a cap
  of none or the known total plus 0..3, at N = 3 and 4 (54,400 profiles).  A
  profile is Feasible when ``brute_feasible`` pairs off one of its
  ``completions_within_the_cap``.  The decider must agree, with a witness that
  replays.  On every Feasible profile, no set of its nonzero listed slots, with
  or without the pool slot n + 1, may pass as a Tutte barrier.

On that world, replay must judge every certificate one edit away from a true
one as the definitions do:

* a Feasible witness of either part, with one pair dropped, one one-class pair
  added (any slot 0..n, any page 1..nu + 1), one pair moved a page up or down,
  or one count changed by one, is true exactly when its pairs cancel classes
  of two slots of [0, n] on a page 1..nu, and the classes they pair off make
  a first page within the profile's bounds and cap;
* the barrier of an Infeasible fully known profile, with one slot of 0..n
  dropped or added, is true exactly when Tutte's count holds on the class
  graph (``tutte_count`` below).

And the decider must respect two metamorphic relations on both parts: the
mirror s -> n - s gives the same kind, and raising the cap (room 0 to 3, then
none) never turns Feasible into Infeasible.

The references are ``tests/page_model.py`` and the two definitions above,
which take nothing from ``isofloer.specseq`` but ``require_maslov``.
"""

import functools
import itertools
from collections import Counter

import pytest

from isofloer.homology import make_partial_profile, make_profile
from isofloer.matching import is_tutte_barrier
from isofloer.specseq import (
    FEASIBLE,
    INFEASIBLE,
    FeasibleWitness,
    InfeasibleWitness,
    NarrownessVerdict,
    oracle_narrow_feasible,
    replay_witness,
)

from page_model import brute_feasible, completions_within_the_cap, slot_bounds

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
def known_profiles() -> list:
    """Every fully known profile of the world as its first page, the profile, its
    Maslov number and the decider's verdict, in both of its forms: every slot
    listed, as ``profile_from_json`` reads what ``json_text`` writes, and its
    nonzero slots only, as a catalog table lists them, the others exactly 0."""
    world = []
    for n, maslov in KNOWN_WORLD:
        for first_page in itertools.product(DIMS, repeat=n + 1):
            for listed in (list(enumerate(first_page)),
                           [(s, dim) for s, dim in enumerate(first_page) if dim]):
                profile = make_profile(n, listed)
                world.append((first_page, profile, maslov,
                              oracle_narrow_feasible(profile, maslov)))
    return world


@pytest.fixture(scope="module")
def partial_profiles(pairs_off) -> list:
    """Every partial profile of the world with its Maslov number, whether brute
    force finds a completion that pairs off, and the decider's verdict."""
    world = []
    for n, maslov in PARTIAL_WORLD:
        for slots in itertools.product((None, *DIMS), repeat=n + 1):
            known = [(s, dim) for s, dim in enumerate(slots) if dim is not None]
            used = sum(dim for _, dim in known)
            for room in ROOMS:
                profile = make_partial_profile(n, known, None if room is None else used + room)
                feasible = any(pairs_off(first_page, maslov)
                               for first_page in completions_within_the_cap(profile))
                world.append((profile, maslov, feasible,
                              oracle_narrow_feasible(profile, maslov)))
    return world


def test_decider_matches_brute_force_on_every_small_known_profile(pairs_off, known_profiles):
    wrong = []
    for first_page, profile, maslov, verdict in known_profiles:
        expected = FEASIBLE if pairs_off(first_page, maslov) else INFEASIBLE
        if (verdict.kind, replay_witness(verdict, profile, maslov)) != (expected, True):
            wrong.append((first_page, maslov, verdict))
    assert len(known_profiles) == 2 * 9837 and wrong == []


def test_decider_matches_brute_force_on_every_small_partial_profile(partial_profiles):
    wrong = []
    for profile, maslov, feasible, verdict in partial_profiles:
        expected = FEASIBLE if feasible else INFEASIBLE
        if (verdict.kind, replay_witness(verdict, profile, maslov)) != (expected, True):
            wrong.append((profile, maslov, verdict))
    assert wrong == []


def test_no_barrier_passes_on_a_feasible_small_profile(partial_profiles):
    # the pool, slot n + 1, holds no class when no listed slot has an open
    # partner; offered then, it removes nothing
    accepted, offered, feasible_profiles = [], 0, 0
    for profile, maslov, feasible, _ in partial_profiles:
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


# --- single edits of true certificates ------------------------------------------


def pairs_are_true(pairs, profile, maslov: int) -> bool:
    """Whether ``pairs`` cancel classes of two slots of [0, n] on a page 1..nu,
    and the classes they pair off make a first page within the profile's
    bounds and cap."""
    nu, first_page = (profile.n + 1) // maslov, [0] * (profile.n + 1)
    for s, r, count in pairs:
        t = s + r * maslov - 1
        if not (1 <= r <= nu and count >= 1 and 0 <= s and t <= profile.n):
            return False
        first_page[s] += count
        first_page[t] += count
    within = all(lo <= dim and (hi is None or dim <= hi)
                 for dim, (lo, hi) in zip(first_page, slot_bounds(profile)))
    return within and (profile.cap is None or sum(first_page) <= profile.cap)


def pair_edits(pairs, n: int, maslov: int) -> set:
    """Every list of pairs one edit away from ``pairs``, merged and ascending:
    one pair dropped, moved a page up or down, or its count changed by one, or
    a one-class pair added at any slot 0..n and page 1..nu + 1."""
    base, edits = Counter({(s, r): count for s, r, count in pairs}), []
    for (s, r), count in base.items():
        edits.append(base - Counter({(s, r): count}))
        edits += [base - Counter({(s, r): count}) + Counter({(s, r + step): count})
                  for step in (-1, 1)]
        edits += [base + Counter({(s, r): 1}), base - Counter({(s, r): 1})]
    edits += [base + Counter({(s, r): 1})
              for s in range(n + 1) for r in range(1, (n + 1) // maslov + 2)]
    return {tuple((s, r, count) for (s, r), count in sorted(edit.items())) for edit in edits}


@functools.cache  # both forms of a known profile share their first page
def tutte_count(first_page: tuple, maslov: int, barrier: tuple) -> bool:
    """Whether removing the classes of the slots ``barrier`` from the class graph
    of a fully known first page leaves more odd components than it removes
    classes (Tutte 1952).  Classes of slots s and t are adjacent when
    |t - s| + 1 = rN, 1 <= r <= nu: every class of a slot meets every class
    of its partner slots, so a group of two or more slots joined by partners
    is one component, and a slot without one is ``dim`` components."""
    nu = len(first_page) // maslov
    left = {s for s, dim in enumerate(first_page) if dim and s not in barrier}
    odd = 0
    while left:
        group, stack = set(), [min(left)]
        while stack:
            s = stack.pop()
            group.add(s)
            stack += [t for r in range(1, nu + 1) for t in (s - r * maslov + 1, s + r * maslov - 1)
                      if t in left and t not in group]
        left -= group
        total = sum(first_page[s] for s in group)
        odd += total if len(group) == 1 else total % 2
    return odd > sum(first_page[s] for s in barrier)


def test_every_single_edit_of_a_true_pairing_replays_as_the_definition_says(
        known_profiles, partial_profiles):
    feasible = [(profile, maslov, verdict) for _, profile, maslov, verdict in known_profiles
                if verdict.kind == FEASIBLE]
    feasible += [(profile, maslov, verdict) for profile, maslov, is_feasible, verdict
                 in partial_profiles if is_feasible]
    wrong, refused = [], 0
    for profile, maslov, verdict in feasible:
        assert pairs_are_true(verdict.witness.pairs, profile, maslov)
        for pairs in pair_edits(verdict.witness.pairs, profile.n, maslov):
            true = pairs_are_true(pairs, profile, maslov)
            refused += not true
            edited = NarrownessVerdict(verdict.page, FeasibleWitness(pairs))
            if replay_witness(edited, profile, maslov) is not true:
                wrong.append((profile, maslov, pairs, true))
    assert refused > len(feasible) and wrong == []


def test_every_single_edit_of_a_true_barrier_replays_as_tutte_counts(known_profiles):
    wrong, refused, infeasible = [], 0, 0
    for first_page, profile, maslov, verdict in known_profiles:
        if verdict.kind != INFEASIBLE:
            continue
        infeasible += 1
        barrier = verdict.witness.barrier
        assert tutte_count(first_page, maslov, barrier)
        edits = [tuple(sorted({*barrier} ^ {s})) for s in range(profile.n + 1)]
        for edit in edits:
            true = tutte_count(first_page, maslov, edit)
            refused += not true
            edited = NarrownessVerdict(verdict.page, InfeasibleWitness(edit))
            if replay_witness(edited, profile, maslov) is not true:
                wrong.append((first_page, maslov, edit, true))
    assert refused > infeasible > 0 and wrong == []


# --- metamorphic relations --------------------------------------------------------


def test_the_mirror_gives_the_same_kind(known_profiles, partial_profiles):
    # keyed by the first page and whether every slot is listed: the mirror keeps both
    known = {(first_page, maslov, len(profile.known) > sum(map(bool, first_page))): verdict.kind
             for first_page, profile, maslov, verdict in known_profiles}
    broken = [(first_page, maslov) for (first_page, maslov, every), kind in known.items()
              if known[first_page[::-1], maslov, every] != kind]
    partial = {}
    for profile, maslov, _, verdict in partial_profiles:
        slots = tuple(profile.known.get(s) for s in range(profile.n + 1))
        partial[slots, profile.cap, maslov] = verdict.kind
    broken += [key for key, kind in partial.items()
               if partial[key[0][::-1], key[1], key[2]] != kind]
    assert len(partial) == len(partial_profiles) and broken == []


def test_raising_the_cap_keeps_feasible(partial_profiles):
    # the world lists each profile's rooms in the order ROOMS: none, then 0..3
    kinds = [verdict.kind for *_, verdict in partial_profiles]
    broken = []
    for start in range(0, len(kinds), len(ROOMS)):
        unbounded, *capped = kinds[start:start + len(ROOMS)]
        for room, (low, high) in enumerate(zip(capped, [*capped[1:], unbounded])):
            if low == FEASIBLE and high != FEASIBLE:
                broken.append((partial_profiles[start + 1 + room][:2], room))
    assert broken == []
