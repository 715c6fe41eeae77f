"""Unit tests for the reduced spectral-sequence engine.

The numeric fixtures are the two g=4 covering tables: (1,2) whose final
page can die, and (2,2) whose middle slots cannot.
"""

import itertools
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from isofloer import matching, specseq
from isofloer.catalog import (
    collapse_step,
    enumerate_families,
    minimal_maslov,
    munzner_betti_N,
    validate_family,
)
from isofloer.homology import (
    ProfileError,
    make_partial_profile,
    make_profile,
    profile_from_json,
)
from isofloer.specseq import (
    CONTRADICTION,
    ChainStep,
    ContradictionWitness,
    EngineError,
    FEASIBLE,
    FeasibleWitness,
    FinalPageWitness,
    INFEASIBLE,
    InfeasibleWitness,
    MAX_CLASSES,
    MaslovTooSmallError,
    NO_CONTRADICTION,
    NarrownessVerdict,
    SearchCapError,
    WitnessError,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    verdict_from_json,
    verdict_to_json,
)
from isofloer.matching import _graph, is_tutte_barrier

import propagator_reference
from page_model import (
    RankVector,
    RankViolationError,
    brute_feasible,
    completions_within_the_cap,
    dims,
    slot_bounds,
    step_page,
)

G4_12 = munzner_betti_N(validate_family(4, 1, 2))    # dims (1,1,1,2,1,1,1), maslov 3
G4_22 = munzner_betti_N(validate_family(4, 2, 2))    # dims (1,0,2,0,2,0,2,0,1), maslov 4
G6_PARTIAL = munzner_betti_N(validate_family(6, 2, 2))


G4_12_DIMS = (1, 1, 1, 2, 1, 1, 1)


def page_turns(profile, maslov):
    """nu = floor((n + 1)/N), the page count the engine derives: the brute-force
    reference is called with it."""
    return (profile.n + 1) // maslov


class TestPages:
    def test_first_page_is_profile_dims(self):
        assert dims(G4_12) == G4_12_DIMS

    def test_shift_grows_with_page(self):
        # page 1 shifts by 3*1 - 1 = 2, page 2 by 3*2 - 1 = 5
        ranks = (1, 0, 0, 0, 0, 0, 0)
        assert step_page(G4_12_DIMS, 3, RankVector(1, ranks)) == (0, 1, 0, 2, 1, 1, 1)
        assert step_page(G4_12_DIMS, 3, RankVector(2, ranks)) == (0, 1, 1, 2, 1, 0, 1)

    def test_maslov_threshold(self):
        with pytest.raises(MaslovTooSmallError):
            step_page(G4_12_DIMS, 2, RankVector(1, (0,) * 7))

    def test_out_of_range_slots_are_zero(self):
        # slot 5 would map to slot 7, past the top degree, so its codomain is 0
        with pytest.raises(RankViolationError) as err:
            step_page(G4_12_DIMS, 3, RankVector(1, (0, 0, 0, 0, 0, 1, 0)))
        assert "codomain dimension 0 at slot 7" in str(err.value)

    def test_unknown_slots_block_dims(self):
        # a partial profile has no first page of known dimensions
        with pytest.raises(ProfileError):
            dims(G6_PARTIAL)


class TestStepPage:
    def test_zero_ranks_keep_dims(self):
        assert step_page(G4_12_DIMS, 3, RankVector(1, (0,) * 7)) == G4_12_DIMS

    def test_full_cancellation(self):
        # the rank pattern that kills the whole (4,1,2) page in one turn
        nxt = step_page(G4_12_DIMS, 3, RankVector(1, (1, 1, 0, 1, 1, 0, 0)))
        assert nxt == (0,) * 7

    def test_rank_needs_matching_page(self):
        # a pair cancels on one page: moved to page 2, its partners lie 5 slots up
        v = oracle_narrow_feasible(G4_12, 3)
        moved = tuple((s, 2, count) for s, _, count in v.witness.pairs)
        relabelled = FeasibleWitness(moved)
        assert not replay_witness(NarrownessVerdict(3, relabelled), G4_12, 3)
        with pytest.raises(RankViolationError):
            step_page(G4_12_DIMS, 3, RankVector(0, (0,) * 7))

    def test_rank_needs_matching_width(self):
        with pytest.raises(RankViolationError):
            step_page(G4_12_DIMS, 3, RankVector(1, (0, 0)))

    def test_negative_rank_rejected(self):
        with pytest.raises(RankViolationError):
            step_page(G4_12_DIMS, 3, RankVector(1, (-1, 0, 0, 0, 0, 0, 0)))

    def test_rank_beyond_domain_rejected(self):
        with pytest.raises(RankViolationError):
            step_page(G4_12_DIMS, 3, RankVector(1, (2, 0, 0, 0, 0, 0, 0)))

    def test_rank_beyond_codomain_rejected(self):
        # (2,2) has zero slots two steps above every nonzero one
        with pytest.raises(RankViolationError):
            step_page(dims(G4_22), 4, RankVector(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)))

    def test_composition_constraint_rejected(self):
        with pytest.raises(RankViolationError) as err:
            step_page((1,) * 5, 3, RankVector(1, (1, 0, 1, 0, 0)))
        assert "d o d" in str(err.value)


class TestPropagate:
    def test_g4_22_contradiction(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        assert v.kind == CONTRADICTION
        assert v.slot == 4
        assert v.bound == 2
        assert v.page == 3

    def test_g4_22_chain(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        assert v.witness.chain == (
            ChainStep(page=1, shift=3, left=1, left_hi=0, right=7, right_hi=0,
                      lower_before=2, lower_after=2),
            ChainStep(page=2, shift=7, left=-3, left_hi=0, right=11, right_hi=0,
                      lower_before=2, lower_after=2),
        )

    def test_g6_partial_contradiction(self):
        v = propagate_narrow(G6_PARTIAL, 4, 12, 3)
        assert (v.kind, v.slot, v.bound, v.page) == (CONTRADICTION, 6, 2, 4)
        # the chain touches only the pinned degrees 3 and 9, then leaves range
        assert [(c.left, c.right) for c in v.witness.chain] == [(3, 9), (-1, 13), (-5, 17)]
        assert [c.lower_after for c in v.witness.chain] == [2, 2, 2]

    def test_g4_12_no_contradiction(self):
        v = propagate_narrow(G4_12, 3, 6, 2)
        assert v.kind == NO_CONTRADICTION
        assert v.slot is None and v.bound is None
        assert all(lo == 0 for lo, _ in v.witness.slots)

    def test_unbounded_neighbour_kills_the_bound(self):
        # lone known generator next to an open slot propagates nothing
        profile = make_partial_profile(4, [(0, 1)])
        v = propagate_narrow(profile, 3, 4, 1)
        assert v.kind == NO_CONTRADICTION

    def test_zero_turns_keep_initial_lows(self):
        v = propagate_narrow(G4_22, 4, 8, 0)
        assert v.kind == CONTRADICTION
        assert v.page == 1
        assert v.witness.chain == ()

    def test_witness_slot_prefers_middle_degree(self):
        # slots 2, 4, 6 all end at bound 2; the middle one is reported
        v = propagate_narrow(G4_22, 4, 8, 2)
        assert v.slot == 4

    def test_maslov_threshold(self):
        with pytest.raises(MaslovTooSmallError):
            propagate_narrow(G4_22, 2, 8, 2)

    def test_negative_turns_rejected(self):
        with pytest.raises(EngineError):
            propagate_narrow(G4_22, 4, 8, -1)


class TestOracle:
    def test_g4_12_feasible_with_expected_witness(self):
        v = oracle_narrow_feasible(G4_12, 3)
        assert v.kind == FEASIBLE
        assert v.witness.pairs == ((0, 1, 1), (1, 1, 1), (3, 1, 1), (4, 1, 1))

    def test_g4_22_infeasible(self):
        v = oracle_narrow_feasible(G4_22, 4)
        assert v.kind == INFEASIBLE
        # slot 0 has no partner at all, so the empty barrier leaves it unpaired
        assert v.witness.barrier == ()
        assert v.witness.completions_tried == 1
        assert v.witness.states_explored >= 1

    def test_hall_set_barrier(self):
        # two classes in slot 0 but one partner in slot 2
        v = oracle_narrow_feasible(make_profile(2, [(0, 2), (2, 1)]), 3)
        assert v.witness.barrier == (2,)
        assert is_tutte_barrier(make_profile(2, [(0, 2), (2, 1)]), 3, (2,))

    def test_fifteen_slot_parity_case(self):
        # an odd total, so some class is always left unpaired
        dims = (1, 2, 2, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 2, 1)
        profile = make_profile(14, list(enumerate(dims)))
        start = time.perf_counter()
        v = oracle_narrow_feasible(profile, 3)
        assert v.kind == INFEASIBLE
        assert replay_witness(v, profile, 3)
        assert time.perf_counter() - start < 1.0

    def test_zero_profile_is_trivially_feasible(self):
        v = oracle_narrow_feasible(make_profile(2, []), 3)
        assert v.kind == FEASIBLE
        assert v.witness.pairs == ()

    def test_unbounded_slots_are_decided(self):
        # the (6, 2, 2) table: slot 6's two classes have no partner, open or exact
        v = oracle_narrow_feasible(G6_PARTIAL, 4)
        assert v.witness == InfeasibleWitness(())
        assert replay_witness(v, G6_PARTIAL, 4)

    def test_search_cap_refusal(self):
        # two million exact classes, or 600 and as many in the pool: refused
        # before any matching is built
        start = time.perf_counter()
        with pytest.raises(SearchCapError, match="2000000 exact classes,"):
            oracle_narrow_feasible(make_profile(2, [(0, 1_000_000), (2, 1_000_000)]), 3)
        uncapped = make_partial_profile(2, [(0, 600)])
        with pytest.raises(SearchCapError, match="600 exact classes and a pool of 600"):
            oracle_narrow_feasible(uncapped, 3)
        with pytest.raises(SearchCapError, match="a pool of 600"):
            is_tutte_barrier(uncapped, 3, ())
        assert time.perf_counter() - start < 0.5
        # a cap past the limit is not a class: the pool holds only slot 0's partner
        profile = make_partial_profile(4, [(0, 1)], cap=MAX_CLASSES + 1)
        v = oracle_narrow_feasible(profile, 3)
        assert v.witness == FeasibleWitness(((0, 1, 1),))
        assert replay_witness(v, profile, 3)

    def test_size_refusal_comes_before_the_graph(self):
        # 4097 slots of one class each at Maslov 3: the graph's partner lists
        # would hold about 11 million entries
        profile = make_profile(4096, [(s, 1) for s in range(4097)])
        start = time.perf_counter()
        with pytest.raises(SearchCapError, match="4097"):
            oracle_narrow_feasible(profile, 3)
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            with pytest.raises(SearchCapError):
                oracle_narrow_feasible(profile, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wide_zero_cap_profile_is_decided(self):
        profile = make_partial_profile(1500, [], cap=0)
        v = oracle_narrow_feasible(profile, 3)
        assert v.kind == FEASIBLE
        assert replay_witness(v, profile, 3)

    def test_search_cap_admits_small_inputs(self):
        # exactly MAX_CLASSES classes, all in one pair of partner slots
        half = MAX_CLASSES // 2
        v = oracle_narrow_feasible(make_profile(2, [(0, half), (2, half)]), 3)
        assert v.kind == FEASIBLE
        assert v.witness.pairs == ((0, 1, half),)

    def test_millions_of_completions_take_one_matching(self):
        # slot 0 has one class and every partner slot of it is pinned to 0, so
        # each of the millions of completions within the cap is infeasible
        partners = [2, 5, 8, 11, 14, 17, 20]
        profile = make_partial_profile(20, [(0, 1)] + [(t, 0) for t in partners], cap=20)
        start = time.perf_counter()
        v = oracle_narrow_feasible(profile, 3)
        assert v.witness == InfeasibleWitness(())
        assert replay_witness(v, profile, 3)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize(
        "n,known,cap,maslov,tried",
        [
            # slots 1 and 2 could each be 1, but not both: total 4 > cap 3
            (4, [(0, 1), (3, 1)], 3, 3, 4),
            # eight open slots in [0, 4], of which only totals <= 4 are within the cap
            (12, [(0, 1), (3, 0), (6, 2), (9, 0), (12, 1)], 8, 4, 495),
        ],
    )
    def test_completions_stay_within_the_cap(self, n, known, cap, maslov, tried):
        profile = make_partial_profile(n, known, cap)
        nu = page_turns(profile, maslov)
        completions = completions_within_the_cap(profile)
        assert len(completions) == tried
        assert not any(brute_feasible(dims, maslov, nu) for dims in completions)
        v = oracle_narrow_feasible(profile, maslov)
        assert v.kind == INFEASIBLE
        assert v.witness.completions_tried == 1
        assert replay_witness(v, profile, maslov)

    def test_maslov_threshold(self):
        # the decider and the barrier check refuse what the lifted theory does
        with pytest.raises(MaslovTooSmallError):
            oracle_narrow_feasible(G4_22, 2)
        with pytest.raises(MaslovTooSmallError):
            is_tutte_barrier(G4_22, 2, ())

    def test_bounded_partial_profile_enumerates_completions(self):
        # one open slot of width 2; the pairs pair off the completion (1, 0, 1)
        profile = make_partial_profile(2, [(0, 1), (2, 1)], cap=3)
        v = oracle_narrow_feasible(profile, 3)
        assert v.kind == FEASIBLE
        assert v.witness.pairs == ((0, 1, 1),)


@st.composite
def small_pages(draw, max_n=6, max_dim=3):
    """Dims and a Maslov number small enough for brute force."""
    n = draw(st.integers(0, max_n))
    dims = tuple(draw(st.lists(st.integers(0, max_dim), min_size=n + 1, max_size=n + 1)))
    return dims, draw(st.integers(3, 6))


@settings(deadline=None, max_examples=300)
@given(small_pages())
@example(((0, 2, 1, 2, 2, 1, 2), 3))  # augmenting leaves slot 1's page-2 pair first
def test_decider_matches_brute_force(page):
    dims, maslov = page
    profile = make_profile(len(dims) - 1, list(enumerate(dims)))
    nu = page_turns(profile, maslov)
    v = oracle_narrow_feasible(profile, maslov)
    assert (v.kind == FEASIBLE) == brute_feasible(dims, maslov, nu)
    assert replay_witness(v, profile, maslov)
    if v.kind == INFEASIBLE:
        assert is_tutte_barrier(profile, maslov, v.witness.barrier)
    else:  # the page model is the reference the pairs are held to
        page = dims
        for ranks in rank_vectors(v.witness.pairs, len(dims), nu):
            page = step_page(page, maslov, ranks)
        assert not any(page)


def rank_vectors(pairs, width, nu):
    """The pairs summed by (slot, page): one rank vector per page turn."""
    ranks = [[0] * width for _ in range(nu)]
    for s, r, count in pairs:
        ranks[r - 1][s] += count
    return [RankVector(r, tuple(a)) for r, a in enumerate(ranks, start=1)]


@st.composite
def small_partial_profiles(draw, max_n=6, max_dim=3, rooms=st.integers(0, 4)):
    """A profile with open slots and a cap ``rooms`` above the known total (no
    cap if it draws None) and a Maslov number, both small enough for brute
    force."""
    n = draw(st.integers(0, max_n))
    dims = draw(st.lists(st.one_of(st.none(), st.integers(0, max_dim)),
                         min_size=n + 1, max_size=n + 1))
    known = [(s, dim) for s, dim in enumerate(dims) if dim is not None]
    room = draw(rooms)
    cap = None if room is None else sum(dim for _, dim in known) + room
    return make_partial_profile(n, known, cap), draw(st.integers(3, 6))


def exit_classes(profile, maslov):
    """E: the known classes in slots with an open partner on some page."""
    bounds, nu = slot_bounds(profile), page_turns(profile, maslov)

    def opened(t):
        return 0 <= t <= profile.n and bounds[t][0] != bounds[t][1]

    return sum(dim for s, dim in profile.known.items() if any(
        opened(s - r * maslov + 1) or opened(s + r * maslov - 1) for r in range(1, nu + 1)))


@settings(deadline=None, max_examples=200)
@given(small_partial_profiles())
@example((make_partial_profile(6, [(0, 3), (6, 1)], 6), 3))  # slot 0 needs 3 of the 2 open
@example((make_partial_profile(4, [(0, 1)], 5), 3))  # two of the 3 pool classes pair up
def test_capped_decider_matches_brute_force_over_the_completions(case):
    profile, maslov = case
    nu = page_turns(profile, maslov)
    v = oracle_narrow_feasible(profile, maslov)
    feasible = any(brute_feasible(dims, maslov, nu) for dims in completions_within_the_cap(profile))
    assert (v.kind == FEASIBLE) == feasible
    assert replay_witness(v, profile, maslov)


@settings(deadline=None, max_examples=200)
@given(small_partial_profiles(max_n=5, max_dim=2, rooms=st.none()))
@example((G6_PARTIAL, 4))
@example((make_partial_profile(4, [(0, 1), (3, 1)]), 3))  # the pool pairs with slots 0, 3
def test_uncapped_decider_matches_brute_force_over_the_completions(case):
    # completions_within_the_cap says why open values up to the known total suffice
    profile, maslov = case
    nu = page_turns(profile, maslov)
    v = oracle_narrow_feasible(profile, maslov)
    feasible = any(brute_feasible(dims, maslov, nu) for dims in completions_within_the_cap(profile))
    assert (v.kind == FEASIBLE) == feasible
    assert replay_witness(v, profile, maslov)


@settings(deadline=None, max_examples=200)
@given(small_partial_profiles(max_n=12, max_dim=3, rooms=st.none()), st.integers(0, 3))
def test_a_cap_past_the_exit_classes_decides_as_no_cap(case, extra):
    # room = cap - used >= E: the pool is E or E - 1 classes either way
    profile, maslov = case
    used = sum(profile.known.values())
    cap = used + exit_classes(profile, maslov) + extra
    capped = make_partial_profile(profile.n, profile.known.items(), cap)
    v = oracle_narrow_feasible(capped, maslov)
    assert v == oracle_narrow_feasible(profile, maslov)
    assert replay_witness(v, capped, maslov)


@settings(deadline=None, max_examples=150)
@given(st.one_of(small_pages().map(
    lambda page: (make_profile(len(page[0]) - 1, list(enumerate(page[0]))), page[1])),
    small_partial_profiles(max_n=5, max_dim=2, rooms=st.integers(0, 3)),
    small_partial_profiles(max_n=4, max_dim=2, rooms=st.none())))
def test_some_slot_barrier_exists_iff_brute_force_fails(case):
    # so the slot-level check loses nothing: it is exact on its own, the pool
    # slot n + 1 included
    profile, maslov = case
    nu, slots = page_turns(profile, maslov), range(profile.n + 2)
    certified = any(
        is_tutte_barrier(profile, maslov, subset)
        for size in range(profile.n + 3)
        for subset in itertools.combinations(slots, size)
    )
    feasible = any(brute_feasible(dims, maslov, nu) for dims in completions_within_the_cap(profile))
    assert certified != feasible


@st.composite
def paired_pages(draw, max_n=6, max_count=3):
    """A page as small as ``small_pages`` draws, whose classes pair off: drawn
    ``(s, r, count)`` pairs added up slot by slot, 1 <= r <= nu.  ``small_pages``
    seldom draws a page with a pair that pairs off, so this one is built from them."""
    maslov = draw(st.integers(3, 6))
    n = draw(st.integers(maslov - 1, max(maslov - 1, max_n)))
    nu = (n + 1) // maslov
    dims = [0] * (n + 1)
    for _ in range(draw(st.integers(1, 4))):
        shift = draw(st.integers(1, nu)) * maslov - 1
        s, count = draw(st.integers(0, n - shift)), draw(st.integers(1, max_count))
        dims[s] += count
        dims[s + shift] += count
    return tuple(dims), maslov


@settings(deadline=None, max_examples=200)
@given(paired_pages())
@example(((1, 1, 1, 2, 1, 1, 1), 3))
def test_feasible_replay_refuses_a_raised_count_or_a_dropped_pair(page):
    dims, maslov = page
    profile = make_profile(len(dims) - 1, list(enumerate(dims)))
    v = oracle_narrow_feasible(profile, maslov)
    assert v.kind == FEASIBLE and replay_witness(v, profile, maslov)
    pairs = v.witness.pairs
    for i, (s, r, count) in enumerate(pairs):
        for edited in (pairs[:i] + ((s, r, count + 1),) + pairs[i + 1:], pairs[:i] + pairs[i + 1:]):
            forged = NarrownessVerdict(v.page, FeasibleWitness(edited))
            assert not replay_witness(forged, profile, maslov)


@st.composite
def open_partner_profiles(draw):
    """A capped profile that pairs off, with two open partner slots s and
    s + rN - 1: the completion ``paired_pages`` draws, with a drawn set of its
    slots opened and the room the cap leaves them."""
    dims, maslov = draw(paired_pages())
    n = len(dims) - 1
    r = draw(st.integers(1, (n + 1) // maslov))
    s = draw(st.integers(0, n - (r * maslov - 1)))  # r * maslov - 1 <= n
    opened = {s, s + r * maslov - 1} | set(draw(st.lists(st.integers(0, n), max_size=n + 1)))
    known = [(u, dim) for u, dim in enumerate(dims) if u not in opened]
    room = sum(dims[u] for u in opened) + draw(st.integers(0, 3))
    return make_partial_profile(n, known, sum(dim for _, dim in known) + room), maslov, s, r


@settings(deadline=None, max_examples=200)
@given(open_partner_profiles())
@example((make_partial_profile(4, [(0, 1)], 5), 3, 1, 1))
def test_feasible_replay_refuses_an_open_pair_past_the_cap(case):
    profile, maslov, s, r = case
    v = oracle_narrow_feasible(profile, maslov)
    assert v.kind == FEASIBLE and replay_witness(v, profile, maslov)
    t, pairs = s + r * maslov - 1, {(a, b): c for a, b, c in v.witness.pairs}
    total = 2 * sum(pairs.values())
    used = sum(profile.known.values())
    paired = {u: sum(c for (a, b), c in pairs.items() if u in (a, a + b * maslov - 1))
              for u in (s, t)}
    # the fewest added classes that pass the cap, if both slots can take them
    k = (profile.cap - total) // 2 + 1
    assume(all(paired[u] + k <= profile.cap - used for u in (s, t)))
    for count, ok in ((k - 1, True), (k, False)):
        edited = dict(pairs)
        edited[s, r] = edited.get((s, r), 0) + count
        witness = FeasibleWitness(tuple((a, b, c) for (a, b), c in sorted(edited.items()) if c))
        assert replay_witness(NarrownessVerdict(v.page, witness), profile, maslov) is ok


class TestOracleCrossCheck:
    # dims, the Maslov number and nu = floor((n + 1)/N), the page count the engine derives
    SMALL_CASES = [
        ((1, 1, 1, 2, 1, 1, 1), 3, 2),
        ((1, 0, 2, 0, 2, 0, 2, 0, 1), 4, 2),
        ((1, 0, 1), 3, 1),
        ((1, 1, 1, 1), 3, 1),
        ((2, 1, 0, 1, 2), 3, 1),
        ((1, 2, 2, 1), 4, 1),
        ((0, 1, 1, 0, 1, 1), 3, 2),
        ((1, 0, 0, 0, 1), 5, 1),
        # the matching contracts a blossom on these two
        ((1, 2, 1, 2, 1, 2, 1), 3, 2),
        ((1, 3, 3, 3, 3, 1, 1), 3, 2),
    ]

    @pytest.mark.parametrize("dims,maslov,nu", SMALL_CASES)
    def test_oracle_matches_brute_force(self, dims, maslov, nu):
        profile = make_profile(len(dims) - 1, list(enumerate(dims)))
        v = oracle_narrow_feasible(profile, maslov)
        assert v.page == nu + 1
        assert (v.kind == FEASIBLE) == brute_feasible(dims, maslov, nu)

    @pytest.mark.parametrize("dims,maslov,nu", SMALL_CASES)
    def test_contradiction_implies_infeasible(self, dims, maslov, nu):
        profile = make_profile(len(dims) - 1, list(enumerate(dims)))
        p = propagate_narrow(profile, maslov, profile.n, nu)
        if p.kind == CONTRADICTION:
            assert oracle_narrow_feasible(profile, maslov).kind == INFEASIBLE


class TestReplay:
    def test_contradiction_replays(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        assert replay_witness(v, G4_22, 4)

    def test_partial_profile_contradiction_replays(self):
        v = propagate_narrow(G6_PARTIAL, 4, 12, 3)
        assert replay_witness(v, G6_PARTIAL, 4)

    def test_no_contradiction_replays(self):
        v = propagate_narrow(G4_12, 3, 6, 2)
        assert replay_witness(v, G4_12, 3)

    def test_feasible_replays(self):
        v = oracle_narrow_feasible(G4_12, 3)
        assert replay_witness(v, G4_12, 3)

    def test_feasible_replay_never_steps_pages(self):
        v = oracle_narrow_feasible(G4_12, 3)
        # the page stepper is the tests' reference model; the engine has none
        assert not hasattr(specseq, "step_page")
        assert replay_witness(v, G4_12, 3)

    @pytest.mark.parametrize(
        "pairs,ok",
        [
            (((0, 1, 2), (5, 1, 1)), True),
            # each of these balances every slot's count, and one rule refuses it
            (((0, 1, 1), (0, 1, 1), (5, 1, 1)), False),  # (0, 1) listed twice
            (((5, 1, 1), (0, 1, 2)), False),  # not ascending
            (((0, 1, 2), (0, 2, 0), (5, 1, 1)), False),  # count 0
            # around the cycle 0-2-7-5: -1 on page 2 makes room for a third count
            (((0, 1, 3), (0, 2, -1), (2, 2, -1), (5, 1, 2)), False),
            # and these leave a slot unbalanced
            (((0, 1, 3), (5, 1, 1)), False),
            (((0, 1, 2),), False),
        ],
    )
    def test_pair_edits(self, pairs, ok):
        profile = make_profile(7, [(0, 2), (2, 2), (5, 1), (7, 1)])
        assert oracle_narrow_feasible(profile, 3).witness.pairs == ((0, 1, 2), (5, 1, 1))
        edited = NarrownessVerdict(3, FeasibleWitness(pairs))
        assert replay_witness(edited, profile, 3) is ok

    @pytest.mark.parametrize(
        "dims,pair",
        [
            # page 2 would reach slot 5, past n = 4: t <= n bounds r by nu = 1
            ((1, 0, 0, 0, 1), (0, 2, 1)),
            ((1, 1, 0), (1, 0, 1)),  # a "page 0" pair would join the neighbours 0 and 1
            ((1, 0, 0, 1, 0), (-2, 1, 1)),  # slot -2 would index slot 3 from the end
        ],
    )
    def test_pair_off_the_graph_fails(self, dims, pair):
        profile = make_profile(len(dims) - 1, list(enumerate(dims)))
        assert oracle_narrow_feasible(profile, 3).kind == INFEASIBLE
        witness = FeasibleWitness((pair,))
        assert not replay_witness(NarrownessVerdict(2, witness), profile, 3)

    def test_chain_through_an_unbounded_neighbour_fails(self):
        # slot 0's page-1 neighbour 2 is unbounded, so no bound survives there
        profile = make_partial_profile(4, [(0, 1)])
        chain = (ChainStep(1, 2, -2, 0, 2, 0, 1, 1),)
        forged = NarrownessVerdict(2, ContradictionWitness(0, 1, chain))
        assert not replay_witness(forged, profile, 3)

    def test_infeasible_replays(self):
        v = oracle_narrow_feasible(G4_22, 4)
        assert replay_witness(v, G4_22, 4)

    def test_infeasible_replay_never_runs_the_decider(self, monkeypatch):
        v = oracle_narrow_feasible(G4_22, 4)

        def refuse(*args):
            raise AssertionError("replay ran the decider")

        monkeypatch.setattr(specseq, "oracle_narrow_feasible", refuse)
        monkeypatch.setattr(matching, "_match", refuse)
        assert replay_witness(v, G4_22, 4)

    @pytest.mark.parametrize(
        "barrier,ok",
        [
            ((2,), True),
            ((), False),  # slot 0's three classes meet slot 2's one: even total
            ((0, 2), False),  # nothing is left to be odd
            ((1, 2), True),  # an empty slot changes nothing
            ((2, 2), False),
            ((3,), False),
        ],
    )
    def test_barrier_edits(self, barrier, ok):
        profile = make_profile(2, [(0, 3), (2, 1)])
        v = oracle_narrow_feasible(profile, 3)
        assert v.witness.barrier == (2,)
        edited = NarrownessVerdict(2, InfeasibleWitness(barrier))
        assert replay_witness(edited, profile, 3) is ok

    def test_infeasible_witness_holds_one_barrier(self):
        profile = make_partial_profile(4, [(0, 1), (3, 1)], cap=3)
        v = oracle_narrow_feasible(profile, 3)
        assert v.witness.barrier == ()
        payload = verdict_to_json(v)
        assert payload["witness"] == {"type": "tutte-barrier", "barrier": []}
        # a list of barriers is not a barrier
        payload["witness"]["barrier"] = [[]]
        with pytest.raises(WitnessError, match="integer"):
            verdict_from_json(payload)

    @pytest.mark.parametrize(
        "barrier,ok",
        [
            ((7,), True),  # the pool's 2 classes cannot serve slot 0's 3 and slot 6's 1
            ((), False),  # one group with an even total
            ((0,), False),  # slot 6 and the pool pair off
            ((8,), False),  # past the pool
        ],
    )
    def test_pool_barrier_edits(self, barrier, ok):
        profile = make_partial_profile(6, [(0, 3), (6, 1)], cap=6)
        assert oracle_narrow_feasible(profile, 3).witness.barrier == (7,)
        edited = NarrownessVerdict(3, InfeasibleWitness(barrier))
        assert replay_witness(edited, profile, 3) is ok

    def test_barrier_replay_refuses_what_the_decider_refuses(self):
        # the partner lists of 4097 one-class slots at Maslov 3 would hold about
        # 11 million entries; replay stops at the same limit as the decider
        profile = profile_from_json({"n": 4096, "known": [[s, 1] for s in range(4097)]})
        forged = verdict_from_json({"kind": INFEASIBLE, "slot": None, "page": 4097 // 3 + 1,
                                    "bound": None,
                                    "witness": {"type": "tutte-barrier", "barrier": []}})
        start = time.perf_counter()
        with pytest.raises(SearchCapError, match="4097 exact classes"):
            replay_witness(forged, profile, 3)
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            with pytest.raises(SearchCapError):
                replay_witness(forged, profile, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_states_explored_stays_out_of_equality(self):
        v = oracle_narrow_feasible(G4_22, 4)
        other = InfeasibleWitness(v.witness.barrier, v.witness.states_explored + 1)
        assert v.witness == other and hash(v.witness) == hash(other)

    def test_corrupted_bound_fails(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        bad = NarrownessVerdict(
            v.page, ContradictionWitness(v.witness.slot, 3, v.witness.chain)
        )
        assert not replay_witness(bad, G4_22, 4)

    def test_corrupted_chain_fails(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        chain = (v.witness.chain[0], )
        bad = NarrownessVerdict(
            v.page, ContradictionWitness(v.witness.slot, v.witness.bound, chain)
        )
        assert not replay_witness(bad, G4_22, 4)

    def test_corrupted_rank_fails(self):
        # slot 0's pair moved to slot 2: slot 0 is left unpaired, slot 4 paired twice
        v = oracle_narrow_feasible(G4_12, 3)
        pairs = ((1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1))
        bad = NarrownessVerdict(v.page, type(v.witness)(pairs))
        assert not replay_witness(bad, G4_12, 3)

    def test_completion_outside_profile_fails(self):
        # the pairs add up to the completion (9, 1, 9, 2, 1, 1, 1)
        v = oracle_narrow_feasible(G4_12, 3)
        pairs = ((0, 1, 9),) + v.witness.pairs[1:]
        bad = NarrownessVerdict(v.page, type(v.witness)(pairs))
        assert not replay_witness(bad, G4_12, 3)

    def test_wrong_final_page_fails(self):
        for v, profile, maslov in [
            (propagate_narrow(G4_22, 4, 8, 2), G4_22, 4),
            (propagate_narrow(G4_12, 3, 6, 2), G4_12, 3),
            (oracle_narrow_feasible(G4_12, 3), G4_12, 3),
            (oracle_narrow_feasible(G4_22, 4), G4_22, 4),
        ]:
            for page in (None, 1, 2, 4, 42):
                bad = NarrownessVerdict(page, v.witness)
                assert not replay_witness(bad, profile, maslov), (v.kind, page)

    def test_completion_above_cap_fails(self):
        # the pairs add up to (1, 1, 1, 1, 0): every slot is within its
        # interval, but the total 4 exceeds the cap 3
        profile = make_partial_profile(4, [(0, 1), (3, 1)], cap=3)
        witness = FeasibleWitness(((0, 1, 1), (1, 1, 1)))
        assert not replay_witness(NarrownessVerdict(2, witness), profile, 3)

    @pytest.mark.parametrize(
        "verdict,profile",
        [
            (propagate_narrow(G4_22, 4, 8, 2), G4_22),
            (propagate_narrow(G4_12, 3, 6, 2), G4_12),
            (oracle_narrow_feasible(G4_12, 3), G4_12),
            (oracle_narrow_feasible(G4_22, 4), G4_22),
        ],
        ids=[CONTRADICTION, NO_CONTRADICTION, FEASIBLE, INFEASIBLE],
    )
    def test_every_kind_refuses_a_maslov_number_below_3(self, verdict, profile):
        # replay derives nu from the profile and the Maslov number, which it checks first
        with pytest.raises(MaslovTooSmallError):
            replay_witness(verdict, profile, 2)

    def test_non_witness_raises(self):
        # the kind is read off the witness class, so anything else is refused
        bad = NarrownessVerdict(3, G4_12_DIMS)
        with pytest.raises(WitnessError):
            replay_witness(bad, G4_12, 3)


class TestVerdictJson:
    def all_verdicts(self):
        # each verdict with the profile and Maslov number it replays against
        return [
            (propagate_narrow(G4_22, 4, 8, 2), G4_22, 4),
            (propagate_narrow(G6_PARTIAL, 4, 12, 3), G6_PARTIAL, 4),
            (propagate_narrow(G4_12, 3, 6, 2), G4_12, 3),
            (oracle_narrow_feasible(G4_12, 3), G4_12, 3),
            (oracle_narrow_feasible(G4_22, 4), G4_22, 4),
        ]

    def test_round_trip_all_kinds(self):
        kinds = set()
        for v, profile, maslov in self.all_verdicts():
            back = verdict_from_json(verdict_to_json(v))
            assert back == v
            assert replay_witness(back, profile, maslov)
            kinds.add(back.kind)
        assert kinds == {CONTRADICTION, NO_CONTRADICTION, FEASIBLE, INFEASIBLE}

    def test_witness_type_tags(self):
        tags = [verdict_to_json(v)["witness"]["type"] for v, *_ in self.all_verdicts()]
        assert tags == [
            "contradiction-chain",
            "contradiction-chain",
            "final-page",
            "cancellation-pairs",
            "tutte-barrier",
        ]
        # four distinct tags, each the key of its own class, and four distinct kinds
        assert specseq.WITNESS_TYPES == {
            "contradiction-chain": ContradictionWitness,
            "final-page": FinalPageWitness,
            "cancellation-pairs": FeasibleWitness,
            "tutte-barrier": InfeasibleWitness,
        }
        assert all(cls.tag == tag for tag, cls in specseq.WITNESS_TYPES.items())
        assert len({cls.kind for cls in specseq.WITNESS_TYPES.values()}) == 4

    def test_kind_witness_mismatch_rejected(self):
        payload = verdict_to_json(propagate_narrow(G4_22, 4, 8, 2))
        payload["kind"] = NO_CONTRADICTION
        with pytest.raises(WitnessError):
            verdict_from_json(payload)

    def test_bool_smuggling_rejected(self):
        payload = verdict_to_json(propagate_narrow(G4_22, 4, 8, 2))
        payload["witness"]["slot"] = True
        with pytest.raises(WitnessError):
            verdict_from_json(payload)

    def test_headline_must_match_witness(self):
        payload = verdict_to_json(propagate_narrow(G4_22, 4, 8, 2))
        for key, value in [("slot", 0), ("bound", 99), ("slot", None), ("bound", True)]:
            forged = dict(payload, **{key: value})
            with pytest.raises(WitnessError):
                verdict_from_json(forged)
        quiet = verdict_to_json(propagate_narrow(G4_12, 3, 6, 2))
        with pytest.raises(WitnessError):
            verdict_from_json(dict(quiet, slot=3))

    def test_non_dict_rejected(self):
        with pytest.raises(WitnessError):
            verdict_from_json("Contradiction")

    def test_unknown_witness_object_is_not_serialized(self):
        with pytest.raises(WitnessError, match="^unserializable witness type tuple$"):
            verdict_to_json(NarrownessVerdict(3, G4_12_DIMS))


# --- the propagator against its earlier form ---------------------------------


@st.composite
def propagator_cases(draw):
    """A fully known, capped or uncapped profile with listed zeros, n <= 60, its
    Maslov number 3..8, a page count up to one past the collapse, and an ``n``
    argument that is not always the profile's.  Half the profiles draw their
    dims from {0, 1, 2}, so that slots often tie at the best bound: the
    propagator skips only a slot strictly below it."""
    n, maslov = draw(st.integers(0, 60)), draw(st.integers(3, 8))
    dims = st.integers(0, draw(st.sampled_from((2, 4))))
    known = draw(st.dictionaries(st.integers(0, n), dims, max_size=n + 1))
    shape = draw(st.sampled_from(("known", "capped", "uncapped")))
    if shape == "known":
        profile = make_profile(n, known.items())
    else:
        cap = sum(known.values()) + draw(st.integers(0, 5)) if shape == "capped" else None
        profile = make_partial_profile(n, known.items(), cap)
    nu = draw(st.integers(0, (n + 1) // maslov + 1))
    return profile, maslov, draw(st.one_of(st.just(n), st.integers(0, 2 * n + 4))), nu


def same_verdict(verdict, reference):
    assert (verdict.kind, verdict.slot, verdict.bound) == (
        reference.kind, reference.slot, reference.bound)
    assert verdict.page == reference.page
    assert getattr(verdict.witness, "chain", None) == getattr(reference.witness, "chain", None)
    assert verdict == reference


@settings(deadline=None, max_examples=400)
@given(propagator_cases())
@example((make_partial_profile(9, [(0, 2), (9, 2)], 4), 3, 9, 3))  # a tie at equal distance
def test_propagator_matches_its_reference(case):
    profile, maslov, n, nu = case
    same_verdict(propagate_narrow(profile, maslov, n, nu),
                 propagator_reference.propagate_narrow(profile, maslov, n, nu))


def test_propagator_matches_its_reference_on_every_g4_table_at_bound_128():
    families = [f for f in enumerate_families(128) if f.g == 4 and minimal_maslov(f) >= 3]
    assert len(families) > 4000
    for f in families:
        table, maslov, nu = munzner_betti_N(f), minimal_maslov(f), collapse_step(f)
        # the reference gets the table as it was built before, degrees ascending
        ascending = make_profile(f.n, sorted(table.known.items()))
        same_verdict(propagate_narrow(table, maslov, f.n, nu),
                     propagator_reference.propagate_narrow(ascending, maslov, f.n, nu))


@pytest.mark.parametrize("maslov,nu", [(2, 1), (0, 0), (-3, 2), (3, -1), (5, -4)])
def test_propagator_refuses_what_its_reference_refuses(maslov, nu):
    errors = []
    for decide in (propagate_narrow, propagator_reference.propagate_narrow):
        with pytest.raises(EngineError) as caught:
            decide(G4_22, maslov, 8, nu)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


# --- the residue rule of the cancellation graph ------------------------------


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 200), st.integers(3, 12), st.data())
def test_graph_partners_follow_the_residue_rule(n, maslov, data):
    """With nu = (n + 1) // N, slots s and t are partners by the definition
    |t - s| + 1 = rN, 1 <= r <= nu, exactly when v - u = -1 (mod N) for u < v:
    the page limit never binds."""
    nu = (n + 1) // maslov
    dims = data.draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1))
    _, partners, _ = _graph(make_profile(n, enumerate(dims)), maslov)
    for s in range(n + 1):
        nonzero = [t for t in range(n + 1) if dims[s] and dims[t]]
        by_definition = {t for t in nonzero
                         if (abs(t - s) + 1) % maslov == 0 and (abs(t - s) + 1) // maslov <= nu}
        by_residue = {t for t in nonzero if (max(s, t) - min(s, t)) % maslov == maslov - 1}
        assert sorted(partners[s]) == sorted(by_definition) == sorted(by_residue)
