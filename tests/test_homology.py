"""Unit tests for Betti profiles: exact listed dims, the rest 0 or open."""

import pytest

from isofloer.homology import (
    BettiProfile,
    MAX_TOP_DEGREE,
    ProfileError,
    make_partial_profile,
    make_profile,
    profile_from_json,
    profile_to_json,
)

from isofloer.specseq import _upper

from page_model import check_poincare, euler_char


class TestConstruction:
    def test_make_profile_fills_zeros(self):
        p = make_profile(4, [(0, 1), (4, 1)])
        assert p.dims() == (1, 0, 0, 0, 1)
        assert p.fully_known
        assert p.cap is None

    def test_support_degree_range_enforced(self):
        with pytest.raises(ProfileError):
            BettiProfile(3, {4: 1})
        with pytest.raises(ProfileError):
            BettiProfile(3, {-1: 1})

    def test_sparse_storage(self):
        # only the listed degrees are stored; one room covers the rest
        p = make_profile(40, [(0, 1), (40, 1)])
        assert p.known == {0: 1, 40: 1}
        assert p.room == 0 and not p.open_rest
        q = make_partial_profile(12, [(0, 1), (6, 2)], cap=5)
        assert q.known == {0: 1, 6: 2}
        assert q.room == 2 and q.open_rest

    def test_equality_ignores_how_degrees_are_listed(self):
        sparse = BettiProfile(3, {0: 1})
        dense = BettiProfile(3, {s: int(s == 0) for s in range(4)}, None, True)
        assert sparse == dense and hash(sparse) == hash(dense)
        assert sparse != BettiProfile(3, {0: 1}, None, True)

    def test_a_listed_zero_is_an_unlisted_degree_only_when_closed(self):
        closed = BettiProfile(3, {0: 1, 2: 0})
        assert closed == BettiProfile(3, {0: 1}) and hash(closed) == hash(BettiProfile(3, {0: 1}))
        opened = BettiProfile(3, {0: 1, 2: 0}, 4, True)
        assert opened.room == 3
        assert opened != BettiProfile(3, {0: 1}, 4, True)
        # a cap spent on the known dims closes the rest
        spent = BettiProfile(3, {0: 1, 2: 0}, 1, True)
        assert spent.room == 0
        assert spent == BettiProfile(3, {0: 1}, 1) and hash(spent) == hash(BettiProfile(3, {0: 1}, 1))

    def test_n_and_cap_are_part_of_the_value(self):
        p = BettiProfile(3, {0: 1})
        assert p != BettiProfile(4, {0: 1})
        assert p != BettiProfile(3, {0: 1}, 1)
        assert BettiProfile(3, {0: 1}, 1) != BettiProfile(3, {0: 1}, 2)

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(ProfileError):
            make_profile(2, [(3, 1)])
        with pytest.raises(ProfileError):
            make_profile(2, [(-1, 1)])

    def test_top_degree_limit(self):
        # one home for the limit: every constructor, not only the file reader
        assert make_profile(MAX_TOP_DEGREE, []).n == MAX_TOP_DEGREE
        for build in (make_profile, make_partial_profile):
            with pytest.raises(ProfileError, match="top degree"):
                build(MAX_TOP_DEGREE + 1, [])
        with pytest.raises(ProfileError, match="top degree"):
            BettiProfile(-1, {})

    def test_duplicate_degree_rejected(self):
        with pytest.raises(ProfileError):
            make_profile(2, [(1, 1), (1, 2)])

    def test_negative_dim_rejected(self):
        with pytest.raises(ProfileError, match="must be >= 0, got -1"):
            make_profile(2, [(1, -1)])
        with pytest.raises(ProfileError, match="must be >= 0, got -1"):
            BettiProfile(2, {1: -1}, None, True)

    def test_partial_without_cap_is_unbounded(self):
        p = make_partial_profile(3, [(0, 1)])
        assert p.known == {0: 1}
        assert p.room is None
        assert not p.fully_known

    def test_partial_cap_bounds_unknown_slots(self):
        # cap 4 minus the known dim 1 leaves [0, 3] for each open slot
        p = make_partial_profile(2, [(0, 1)], cap=4)
        assert p.room == 3

    def test_listing_every_degree_leaves_no_room(self):
        # nothing is unlisted, so the cap and the open rest change nothing
        for cap in (None, 2, 9):
            p = make_partial_profile(2, [(0, 1), (1, 0), (2, 1)], cap)
            assert p.room == 0 and p.fully_known
            assert p.dims() == (1, 0, 1)

    def test_cap_equal_to_known_sum_forces_zeros(self):
        p = make_partial_profile(2, [(0, 1), (2, 1)], cap=2)
        assert p.fully_known
        assert p.dims() == (1, 0, 1)

    def test_cap_below_known_sum_rejected(self):
        with pytest.raises(ProfileError):
            make_partial_profile(2, [(0, 2), (2, 2)], cap=3)

    def test_constructor_rejects_a_cap_below_the_known_total(self):
        with pytest.raises(ProfileError, match="known dimensions total 3, exceeding cap 1"):
            BettiProfile(2, {0: 3}, cap=1)
        with pytest.raises(ProfileError, match="known dimensions total 6, exceeding cap 5"):
            BettiProfile(2, {0: 3, 2: 3}, 5, True)

    def test_dims_refuses_unknown_slots(self):
        p = make_partial_profile(3, [(0, 1)])
        with pytest.raises(ProfileError):
            p.dims()


class TestQueries:
    def test_out_of_range_degrees_are_zero(self):
        # the engine's upper bounds: 0 outside [0, n], even where the rest is open
        for p in (make_profile(2, [(0, 1), (2, 1)]), make_partial_profile(2, [(0, 1)])):
            assert [_upper(p, s) for s in (-1, 3, 17)] == [0, 0, 0]
        assert [_upper(make_partial_profile(2, [(0, 1)]), s) for s in (0, 1, 2)] == [1, None, None]

    def test_euler_char(self):
        # the g=3, m=2 hypersurface table
        p = make_profile(6, [(0, 1), (2, 2), (4, 2), (6, 1)])
        assert euler_char(p) == 6

    def test_euler_char_vanishes_on_odd_symmetric(self):
        p = make_profile(3, [(0, 1), (1, 1), (2, 1), (3, 1)])
        assert euler_char(p) == 0

    def test_poincare_symmetry(self):
        sym = make_profile(4, [(0, 1), (2, 2), (4, 1)])
        asym = make_profile(4, [(0, 1), (1, 2), (4, 1)])
        assert check_poincare(sym)
        assert not check_poincare(asym)


class TestJson:
    def test_round_trip_fully_known(self):
        p = make_profile(6, [(0, 1), (2, 2), (4, 2), (6, 1)])
        assert profile_from_json(profile_to_json(p)) == p

    def test_round_trip_partial_with_cap(self):
        p = make_partial_profile(5, [(0, 1), (5, 1)], cap=6)
        payload = profile_to_json(p)
        assert payload["cap"] == 6
        assert profile_from_json(payload) == p

    def test_round_trip_partial_unbounded(self):
        # the g=6, m=2 shape: five pinned slots, the rest open
        p = make_partial_profile(12, [(0, 1), (3, 0), (6, 2), (9, 0), (12, 1)])
        payload = profile_to_json(p)
        assert payload["n"] == 12
        assert payload["known"] == [[0, 1], [3, 0], [6, 2], [9, 0], [12, 1]]
        assert payload["cap"] is None
        assert profile_from_json(payload) == p

    def test_known_lists_only_pinned_slots(self):
        p = make_partial_profile(3, [(1, 2)], cap=5)
        assert profile_to_json(p)["known"] == [[1, 2]]

    def test_a_fully_known_profile_lists_every_degree(self):
        for p in (make_profile(3, [(3, 1), (0, 1)]), make_partial_profile(3, [(3, 1), (0, 1)], 2)):
            assert profile_to_json(p)["known"] == [[0, 1], [1, 0], [2, 0], [3, 1]]

    def test_rejects_non_dict(self):
        with pytest.raises(ProfileError):
            profile_from_json([1, 2, 3])

    def test_rejects_missing_fields(self):
        with pytest.raises(ProfileError):
            profile_from_json({"n": 2})

    def test_rejects_bool_n(self):
        with pytest.raises(ProfileError):
            profile_from_json({"n": True, "known": [], "cap": None})

    def test_rejects_string_cap(self):
        with pytest.raises(ProfileError):
            profile_from_json({"n": 2, "known": [], "cap": "4"})

    def test_rejects_malformed_entries(self):
        with pytest.raises(ProfileError):
            profile_from_json({"n": 2, "known": [[0]], "cap": None})

    @pytest.mark.parametrize(
        "known", [[[1.7, 2]], [["2", 1]], [[1, True]], [[True, 2]], [[1, 2.0]], [[1, None]]]
    )
    def test_rejects_non_integer_entries(self, known):
        # int() would read these as degree 1 -> 2 and the like
        with pytest.raises(ProfileError):
            profile_from_json({"n": 3, "known": known, "cap": None})
