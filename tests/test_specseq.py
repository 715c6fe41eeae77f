"""Unit tests for the reduced spectral-sequence engine.

The numeric fixtures are the two g=4 covering tables: (1,2) whose final
page can die, and (2,2) whose middle slots cannot.
"""

import itertools

import pytest

from isofloer.catalog import munzner_betti_N, validate_family
from isofloer.homology import ProfileError, make_partial_profile, make_profile
from isofloer.specseq import (
    CONTRADICTION,
    ChainStep,
    ContradictionWitness,
    EngineError,
    FEASIBLE,
    FeasibleWitness,
    FinalPageWitness,
    INFEASIBLE,
    MaslovTooSmallError,
    NO_CONTRADICTION,
    NarrownessVerdict,
    RankVector,
    RankViolationError,
    SearchCapError,
    UnknownSlotsError,
    WitnessError,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    step_page,
    verdict_from_json,
    verdict_to_json,
)

G4_12 = munzner_betti_N(validate_family(4, 1, 2))    # dims (1,1,1,2,1,1,1), maslov 3
G4_22 = munzner_betti_N(validate_family(4, 2, 2))    # dims (1,0,2,0,2,0,2,0,1), maslov 4
G6_PARTIAL = munzner_betti_N(validate_family(6, 2, 2))


G4_12_DIMS = (1, 1, 1, 2, 1, 1, 1)


class TestPages:
    def test_first_page_is_profile_dims(self):
        assert G4_12.dims() == G4_12_DIMS

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
            G6_PARTIAL.dims()


class TestStepPage:
    def test_zero_ranks_keep_dims(self):
        assert step_page(G4_12_DIMS, 3, RankVector(1, (0,) * 7)) == G4_12_DIMS

    def test_full_cancellation(self):
        # the rank pattern that kills the whole (4,1,2) page in one turn
        nxt = step_page(G4_12_DIMS, 3, RankVector(1, (1, 1, 0, 1, 1, 0, 0)))
        assert nxt == (0,) * 7

    def test_rank_needs_matching_page(self):
        # page order is a property of a rank sequence, checked on replay
        v = oracle_narrow_feasible(G4_12, 3, 2)
        first, second = v.witness.ranks
        swapped = FeasibleWitness(
            v.witness.completion, (RankVector(1, second.ranks), RankVector(2, first.ranks))
        )
        assert not replay_witness(NarrownessVerdict(FEASIBLE, 3, swapped), G4_12, 3, 2)
        relabelled = FeasibleWitness(v.witness.completion, (second, first))
        assert not replay_witness(NarrownessVerdict(FEASIBLE, 3, relabelled), G4_12, 3, 2)
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
            step_page(G4_22.dims(), 4, RankVector(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)))

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
        assert all(slot.lo == 0 for slot in v.witness.slots)

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
        v = oracle_narrow_feasible(G4_12, 3, 2)
        assert v.kind == FEASIBLE
        assert v.witness.completion == (1, 1, 1, 2, 1, 1, 1)
        assert v.witness.ranks == (
            RankVector(1, (1, 1, 0, 1, 1, 0, 0)),
            RankVector(2, (0,) * 7),
        )

    def test_g4_22_infeasible(self):
        v = oracle_narrow_feasible(G4_22, 4, 2)
        assert v.kind == INFEASIBLE
        assert v.witness.completions_tried == 1
        assert v.witness.states_explored >= 1

    def test_zero_profile_is_trivially_feasible(self):
        v = oracle_narrow_feasible(make_profile(2, []), 3, 0)
        assert v.kind == FEASIBLE
        assert v.witness.ranks == ()

    def test_unbounded_slots_refused(self):
        with pytest.raises(UnknownSlotsError):
            oracle_narrow_feasible(G6_PARTIAL, 4, 3)

    def test_search_cap_refusal(self):
        profile = make_partial_profile(4, [(0, 1)], cap=10)
        with pytest.raises(SearchCapError):
            oracle_narrow_feasible(profile, 3, 1, search_cap=5)

    def test_search_cap_admits_small_inputs(self):
        v = oracle_narrow_feasible(G4_12, 3, 2, search_cap=8)
        assert v.kind == FEASIBLE

    @pytest.mark.parametrize(
        "n,known,cap,maslov,tried",
        [
            # slots 1 and 2 could each be 1, but not both: total 4 > cap 3
            (4, [(0, 1), (3, 1)], 3, 3, 4),
            # eight open slots in [0, 4], of which only totals <= 4 are tried
            (12, [(0, 1), (3, 0), (6, 2), (9, 0), (12, 1)], 8, 4, 495),
        ],
    )
    def test_completions_stay_within_the_cap(self, n, known, cap, maslov, tried):
        v = oracle_narrow_feasible(make_partial_profile(n, known, cap), maslov, (n + 1) // maslov)
        assert v.kind == INFEASIBLE
        assert v.witness.completions_tried == tried

    def test_bounded_partial_profile_enumerates_completions(self):
        # one open slot of width 2; the first completion (1,0,1) already dies
        profile = make_partial_profile(2, [(0, 1), (2, 1)], cap=3)
        v = oracle_narrow_feasible(profile, 3, 1)
        assert v.kind == FEASIBLE
        assert v.witness.completion == (1, 0, 1)


def brute_feasible(dims, maslov, nu):
    """Independent exhaustive check, no sharing with the engine.

    Enumerates full rank vectors per page by brute product, filtering on
    the three legality constraints, and asks whether any path of page
    turns ends at the zero page.
    """
    width = len(dims)

    def frontier(d, shift):
        caps = []
        for s in range(width):
            cod = d[s + shift] if s + shift < width else 0
            caps.append(min(d[s], cod))
        for a in itertools.product(*(range(c + 1) for c in caps)):
            ok = True
            for s in range(width):
                inc = a[s - shift] if s - shift >= 0 else 0
                if a[s] + inc > d[s]:
                    ok = False
                    break
            if ok:
                yield a

    def walk(d, r):
        if r > nu:
            return not any(d)
        shift = r * maslov - 1
        for a in frontier(d, shift):
            nxt = tuple(
                d[s] - a[s] - (a[s - shift] if s - shift >= 0 else 0)
                for s in range(width)
            )
            if walk(nxt, r + 1):
                return True
        return False

    return walk(tuple(dims), 1)


class TestOracleCrossCheck:
    SMALL_CASES = [
        ((1, 1, 1, 2, 1, 1, 1), 3, 2),
        ((1, 0, 2, 0, 2, 0, 2, 0, 1), 4, 2),
        ((1, 0, 1), 3, 1),
        ((1, 1, 1, 1), 3, 1),
        ((2, 1, 0, 1, 2), 3, 2),
        ((1, 2, 2, 1), 4, 1),
        ((0, 1, 1, 0, 1, 1), 3, 2),
        ((1, 0, 0, 0, 1), 5, 1),
    ]

    @pytest.mark.parametrize("dims,maslov,nu", SMALL_CASES)
    def test_oracle_matches_brute_force(self, dims, maslov, nu):
        profile = make_profile(len(dims) - 1, list(enumerate(dims)))
        v = oracle_narrow_feasible(profile, maslov, nu)
        assert (v.kind == FEASIBLE) == brute_feasible(dims, maslov, nu)

    @pytest.mark.parametrize("dims,maslov,nu", SMALL_CASES)
    def test_contradiction_implies_infeasible(self, dims, maslov, nu):
        profile = make_profile(len(dims) - 1, list(enumerate(dims)))
        p = propagate_narrow(profile, maslov, profile.n, nu)
        if p.kind == CONTRADICTION:
            assert oracle_narrow_feasible(profile, maslov, nu).kind == INFEASIBLE


class TestReplay:
    def test_contradiction_replays(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        assert replay_witness(v, G4_22, 4, 2)

    def test_partial_profile_contradiction_replays(self):
        v = propagate_narrow(G6_PARTIAL, 4, 12, 3)
        assert replay_witness(v, G6_PARTIAL, 4, 3)

    def test_no_contradiction_replays(self):
        v = propagate_narrow(G4_12, 3, 6, 2)
        assert replay_witness(v, G4_12, 3, 2)

    def test_feasible_replays(self):
        v = oracle_narrow_feasible(G4_12, 3, 2)
        assert replay_witness(v, G4_12, 3, 2)

    def test_infeasible_replays(self):
        v = oracle_narrow_feasible(G4_22, 4, 2)
        assert replay_witness(v, G4_22, 4, 2)

    def test_corrupted_bound_fails(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        bad = NarrownessVerdict(
            v.kind, v.page, ContradictionWitness(v.witness.slot, 3, v.witness.chain)
        )
        assert not replay_witness(bad, G4_22, 4, 2)

    def test_corrupted_chain_fails(self):
        v = propagate_narrow(G4_22, 4, 8, 2)
        chain = (v.witness.chain[0], )
        bad = NarrownessVerdict(
            v.kind, v.page, ContradictionWitness(v.witness.slot, v.witness.bound, chain)
        )
        assert not replay_witness(bad, G4_22, 4, 2)

    def test_corrupted_rank_fails(self):
        v = oracle_narrow_feasible(G4_12, 3, 2)
        ranks = (RankVector(1, (0, 1, 0, 1, 1, 0, 0)), v.witness.ranks[1])
        bad = NarrownessVerdict(v.kind, v.page, type(v.witness)(v.witness.completion, ranks))
        assert not replay_witness(bad, G4_12, 3, 2)

    def test_completion_outside_profile_fails(self):
        v = oracle_narrow_feasible(G4_12, 3, 2)
        bad = NarrownessVerdict(
            v.kind, v.page, type(v.witness)((9, 1, 1, 2, 1, 1, 1), v.witness.ranks)
        )
        assert not replay_witness(bad, G4_12, 3, 2)

    def test_wrong_final_page_fails(self):
        for v, profile, maslov in [
            (propagate_narrow(G4_22, 4, 8, 2), G4_22, 4),
            (propagate_narrow(G4_12, 3, 6, 2), G4_12, 3),
            (oracle_narrow_feasible(G4_12, 3, 2), G4_12, 3),
            (oracle_narrow_feasible(G4_22, 4, 2), G4_22, 4),
        ]:
            for page in (None, 1, 2, 4, 42):
                bad = NarrownessVerdict(v.kind, page, v.witness)
                assert not replay_witness(bad, profile, maslov, 2), (v.kind, page)

    def test_completion_above_cap_fails(self):
        # every slot is within its interval, but the total 4 exceeds the cap 3
        profile = make_partial_profile(4, [(0, 1), (3, 1)], cap=3)
        witness = FeasibleWitness((1, 1, 1, 1, 0), (RankVector(1, (1, 1, 0, 0, 0)),))
        assert not replay_witness(NarrownessVerdict(FEASIBLE, 2, witness), profile, 3, 1)

    def test_mismatched_witness_type_raises(self):
        bad = NarrownessVerdict(CONTRADICTION, 3, FinalPageWitness(()))
        with pytest.raises(WitnessError):
            replay_witness(bad, G4_22, 4, 2)

    def test_unknown_kind_raises(self):
        bad = NarrownessVerdict("Maybe", None, FinalPageWitness(()))
        with pytest.raises(WitnessError):
            replay_witness(bad, G4_22, 4, 2)


class TestVerdictJson:
    def all_verdicts(self):
        return [
            propagate_narrow(G4_22, 4, 8, 2),
            propagate_narrow(G6_PARTIAL, 4, 12, 3),
            propagate_narrow(G4_12, 3, 6, 2),
            oracle_narrow_feasible(G4_12, 3, 2),
            oracle_narrow_feasible(G4_22, 4, 2),
        ]

    def test_round_trip_all_kinds(self):
        for v in self.all_verdicts():
            assert verdict_from_json(verdict_to_json(v)) == v

    def test_witness_type_tags(self):
        tags = [verdict_to_json(v)["witness"]["type"] for v in self.all_verdicts()]
        assert tags == [
            "contradiction-chain",
            "contradiction-chain",
            "final-page",
            "rank-assignment",
            "exhausted-search",
        ]

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
