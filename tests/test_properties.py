"""Property-based tests over random profiles, pages, and rank choices."""

from hypothesis import given, settings, strategies as st

from isofloer.criteria import _profile_brief
from isofloer.homology import (
    BettiProfile,
    make_partial_profile,
    make_profile,
    profile_from_json,
    profile_to_json,
)
from isofloer.specseq import (
    CONTRADICTION,
    FEASIBLE,
    INFEASIBLE,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    verdict_from_json,
    verdict_to_json,
)

from page_model import RankVector, dims, euler_char, slot_bounds, step_page


@st.composite
def known_profiles(draw, max_n=8, max_dim=4):
    n = draw(st.integers(0, max_n))
    dims = draw(st.lists(st.integers(0, max_dim), min_size=n + 1, max_size=n + 1))
    return make_profile(n, list(enumerate(dims)))


@st.composite
def partial_profiles(draw, max_n=8, max_dim=4):
    n = draw(st.integers(0, max_n))
    entries = []
    for s in range(n + 1):
        if draw(st.booleans()):
            entries.append((s, draw(st.integers(0, max_dim))))
    cap = None
    if draw(st.booleans()):
        cap = sum(d for _, d in entries) + draw(st.integers(0, 6))
    return make_partial_profile(n, entries, cap)


@st.composite
def pages_with_ranks(draw, max_n=8, max_dim=4):
    """A page of known dims, its Maslov number and one legal rank vector for it."""
    page = dims(draw(known_profiles(max_n, max_dim)))
    maslov = draw(st.integers(3, 6))
    r = draw(st.integers(1, 2))
    shift = r * maslov - 1
    acc = []
    for s in range(len(page)):
        cap = page[s] - (acc[s - shift] if s - shift >= 0 else 0)
        cap = min(cap, page[s + shift] if s + shift < len(page) else 0)
        acc.append(draw(st.integers(0, max(cap, 0))))
    return page, maslov, RankVector(r, tuple(acc))


@given(pages_with_ranks())
def test_page_turn_never_grows_a_slot(page_ranks):
    dims, maslov, ranks = page_ranks
    nxt = step_page(dims, maslov, ranks)
    assert all(b <= a for a, b in zip(dims, nxt))


@given(pages_with_ranks())
def test_page_turn_respects_exactness_bound(page_ranks):
    # dim'[s] >= dim[s] - dim[s-shift] - dim[s+shift] for any legal ranks
    dims, maslov, ranks = page_ranks
    shift = ranks.r * maslov - 1
    nxt = step_page(dims, maslov, ranks)

    def d(s):
        return dims[s] if 0 <= s < len(dims) else 0

    for s in range(len(dims)):
        assert nxt[s] >= dims[s] - d(s - shift) - d(s + shift)


@given(pages_with_ranks(max_dim=3))
def test_even_maslov_preserves_alternating_sum(page_ranks):
    dims, maslov, ranks = page_ranks
    if maslov % 2 != 0:
        return
    # odd slot shift: every cancelled pair spans both parities
    def alt(dims):
        return sum(d if s % 2 == 0 else -d for s, d in enumerate(dims))

    assert alt(step_page(dims, maslov, ranks)) == alt(dims)


@given(partial_profiles(), st.integers(3, 5), st.integers(1, 3))
def test_padding_with_zero_slots_changes_nothing(profile, maslov, extra):
    nu = (profile.n + 1) // maslov
    # the padded degrees are listed as exact zeros: unlisted ones would
    # be open in a partial profile
    zeros = dict.fromkeys(range(profile.n + 1, profile.n + extra + 1), 0)
    padded = BettiProfile(
        profile.n + extra, {**profile.known, **zeros}, profile.cap, profile.open_rest
    )
    base = propagate_narrow(profile, maslov, profile.n, nu)
    lifted = propagate_narrow(padded, maslov, profile.n, nu)
    assert (base.kind, base.slot, base.page, base.bound) == (
        lifted.kind, lifted.slot, lifted.page, lifted.bound,
    )
    if base.kind == CONTRADICTION:
        assert base.witness == lifted.witness


@given(known_profiles(), st.integers(3, 5), st.booleans())
def test_listing_every_degree_changes_nothing(profile, maslov, capped):
    # the nonzero degrees alone, closed, and every degree with its zeros,
    # open and so with no room left, are one profile
    page = dims(profile)
    cap = sum(page) if capped else None
    sparse = BettiProfile(profile.n, {s: dim for s, dim in enumerate(page) if dim}, cap)
    listed = make_partial_profile(profile.n, enumerate(page), cap)
    assert listed == sparse and hash(listed) == hash(sparse)
    nu = (profile.n + 1) // maslov
    assert propagate_narrow(listed, maslov, profile.n, nu) == propagate_narrow(
        sparse, maslov, profile.n, nu
    )


@given(partial_profiles())
def test_profile_json_round_trip(profile):
    assert profile_from_json(profile_to_json(profile)) == profile


@given(partial_profiles(), st.integers(3, 5))
def test_verdict_json_round_trip(profile, maslov):
    v = propagate_narrow(profile, maslov, profile.n, (profile.n + 1) // maslov)
    assert verdict_from_json(verdict_to_json(v)) == v


@given(partial_profiles(), st.integers(3, 5))
def test_propagation_verdicts_replay(profile, maslov):
    v = propagate_narrow(profile, maslov, profile.n, (profile.n + 1) // maslov)
    assert replay_witness(v, profile, maslov)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_odd_width_symmetric_profiles_have_zero_euler(half):
    # mirror the dims: odd top degree, so the alternating sum cancels
    dims = half + list(reversed(half))
    profile = make_profile(len(dims) - 1, list(enumerate(dims)))
    assert euler_char(profile) == 0


@settings(deadline=None, max_examples=60)
@given(known_profiles(max_n=6, max_dim=2), st.integers(3, 5))
def test_contradiction_implies_oracle_infeasible(profile, maslov):
    p = propagate_narrow(profile, maslov, profile.n, (profile.n + 1) // maslov)
    if p.kind != CONTRADICTION:
        return
    assert oracle_narrow_feasible(profile, maslov).kind == INFEASIBLE


@settings(deadline=None, max_examples=60)
@given(known_profiles(max_n=6, max_dim=2), st.integers(3, 5))
def test_oracle_witnesses_replay(profile, maslov):
    v = oracle_narrow_feasible(profile, maslov)
    assert v.kind in (FEASIBLE, INFEASIBLE)
    assert replay_witness(v, profile, maslov)


@st.composite
def sparse_profiles(draw):
    """Top degree up to 300, a few listed degrees, the rest 0 or open.

    An open rest has no cap or a cap 0..2 above the known total, so not
    every profile is fully known."""
    n = draw(st.integers(0, 300))
    known = draw(st.dictionaries(st.integers(0, n), st.integers(0, 3), max_size=10))
    room = draw(st.none() | st.integers(0, 2))
    cap = None if room is None else sum(known.values()) + room
    return BettiProfile(n, known, cap, draw(st.booleans()))


def dense_brief(profile):
    """The claim text as read off the dense view, degree by degree."""
    if profile.fully_known:
        return f"dims {list(dims(profile))}"
    known = {s: lo for s, (lo, hi) in enumerate(slot_bounds(profile)) if lo == hi}
    return f"known slots {known}, other degrees unknown"


@given(sparse_profiles() | partial_profiles(max_n=300))
def test_profile_brief_matches_the_dense_rendering(profile):
    assert _profile_brief(profile) == dense_brief(profile)
