"""Unit tests for family validation and the homology catalog."""

import json

import pytest

from isofloer.catalog import (
    FamilyError,
    IsoparametricFamily,
    MissingTableError,
    cited_facts,
    collapse_step,
    data_text,
    enumerate_families,
    gauss_image_betti_g3,
    iter_families,
    minimal_maslov,
    munzner_betti_N,
    orientable,
    validate_family,
    _munzner_degrees,
)
from isofloer.homology import profile_from_json

from page_model import check_poincare, dims


def munzner_degrees_by_g(family: IsoparametricFamily) -> list[int]:
    """The degrees of H_*(N; Z2), one branch per g <= 4, as the catalog once listed them."""
    g, m1, m2, n = family.g, family.m1, family.m2, family.n
    if g == 1:
        return [0, n]
    if g == 2:
        return [0, m1, m2, n]
    if g == 3:
        return [0, m1, m1, 2 * m1, 2 * m1, n]
    return [0, m1, m2, m1 + m2, m1 + m2, 2 * m1 + m2, m1 + 2 * m2, n]


class TestValidation:
    def test_dimension_formula(self):
        assert validate_family(4, 2, 3).n == 10
        assert validate_family(2, 1, 4).n == 5
        assert validate_family(6, 2, 2).n == 12
        assert validate_family(1, 3, 3).n == 3

    def test_multiplicities_normalized(self):
        f = validate_family(4, 2, 1)
        assert (f.m1, f.m2) == (1, 2)

    def test_invalid_g(self):
        for g in (0, 5, 7, -1):
            with pytest.raises(FamilyError):
                validate_family(g, 1, 1)

    def test_nonpositive_multiplicity(self):
        with pytest.raises(FamilyError):
            validate_family(4, 0, 2)
        with pytest.raises(FamilyError):
            validate_family(2, 1, -3)

    def test_odd_g_needs_equal_multiplicities(self):
        with pytest.raises(FamilyError):
            validate_family(3, 1, 2)
        with pytest.raises(FamilyError):
            validate_family(1, 2, 3)

    def test_g3_multiplicity_whitelist(self):
        for m in (1, 2, 4, 8):
            assert validate_family(3, m, m).n == 3 * m
        for m in (3, 5, 6, 7, 16):
            with pytest.raises(FamilyError):
                validate_family(3, m, m)

    def test_g6_multiplicity_whitelist(self):
        assert validate_family(6, 1, 1).n == 6
        assert validate_family(6, 2, 2).n == 12
        with pytest.raises(FamilyError):
            validate_family(6, 1, 2)
        with pytest.raises(FamilyError):
            validate_family(6, 3, 3)


class TestInvariants:
    def test_minimal_maslov(self):
        assert minimal_maslov(validate_family(4, 2, 2)) == 4
        assert minimal_maslov(validate_family(3, 1, 1)) == 2
        assert minimal_maslov(validate_family(1, 5, 5)) == 10
        assert minimal_maslov(validate_family(6, 2, 2)) == 4

    def test_maslov_times_g_is_twice_n(self):
        for f in enumerate_families(12):
            assert minimal_maslov(f) * f.g == 2 * f.n

    def test_orientability_follows_maslov_parity(self):
        assert orientable(validate_family(4, 1, 1))       # maslov 2
        assert not orientable(validate_family(4, 1, 2))   # maslov 3
        assert not orientable(validate_family(2, 1, 2))   # maslov 3
        assert orientable(validate_family(3, 2, 2))       # maslov 4

    def test_collapse_step(self):
        assert collapse_step(validate_family(4, 1, 2)) == 2   # floor(7/3)
        assert collapse_step(validate_family(6, 2, 2)) == 3   # floor(13/4)
        assert collapse_step(validate_family(3, 2, 2)) == 1   # floor(7/4)
        assert collapse_step(validate_family(3, 1, 1)) == 2   # floor(4/2)


class TestCoveringTables:
    def test_g4_12_table(self):
        p = munzner_betti_N(validate_family(4, 1, 2))
        assert dims(p) == (1, 1, 1, 2, 1, 1, 1)

    def test_g4_22_table(self):
        p = munzner_betti_N(validate_family(4, 2, 2))
        assert dims(p) == (1, 0, 2, 0, 2, 0, 2, 0, 1)

    def test_g2_equal_multiplicities_merge(self):
        # m1 = m2 = 1 puts two classes in the middle degree
        p = munzner_betti_N(validate_family(2, 1, 1))
        assert dims(p) == (1, 2, 1)

    def test_g1_sphere(self):
        p = munzner_betti_N(validate_family(1, 3, 3))
        assert dims(p) == (1, 0, 0, 1)

    def test_total_betti_is_2g_below_g6(self):
        for f in enumerate_families(10):
            if f.g == 6:
                continue
            assert sum(dims(munzner_betti_N(f))) == 2 * f.g

    def test_one_formula_gives_each_g_its_old_branch(self):
        # partial sums 0, m1, m1 + m2, ... and n minus each, degree by degree
        checked = 0
        for f in enumerate_families(256):
            if f.g != 6:
                assert sorted(_munzner_degrees(f)) == sorted(munzner_degrees_by_g(f)), f
                checked += 1
        assert checked == 32_900

    def test_poincare_symmetry_below_g6(self):
        for f in enumerate_families(10):
            if f.g == 6:
                continue
            assert check_poincare(munzner_betti_N(f))

    def test_g6_m2_partial_table(self):
        p = munzner_betti_N(validate_family(6, 2, 2))
        assert p.known == {0: 1, 3: 0, 6: 2, 9: 0, 12: 1}
        assert not p.fully_known
        assert p.room is None  # every other degree is open, with no cap

    def test_g6_m1_has_no_table(self):
        with pytest.raises(MissingTableError):
            munzner_betti_N(validate_family(6, 1, 1))


class TestGaussImageHomology:
    def test_m1_is_cited_sphere(self):
        family = validate_family(3, 1, 1)
        assert cited_facts(family)
        assert dims(gauss_image_betti_g3(family)) == (1, 0, 0, 1)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_even_m_computed_sphere(self, m):
        family = validate_family(3, m, m)
        assert not cited_facts(family)
        betti = dims(gauss_image_betti_g3(family))
        assert betti[0] == betti[3 * m] == 1
        assert sum(betti) == 2

    def test_rejects_other_g(self):
        with pytest.raises(FamilyError):
            gauss_image_betti_g3(validate_family(4, 2, 2))

    def test_cited_facts_by_family(self):
        assert len(cited_facts(validate_family(2, 1, 3))) == 1
        assert len(cited_facts(validate_family(3, 1, 1))) == 1
        assert cited_facts(validate_family(3, 2, 2)) == ()
        assert cited_facts(validate_family(4, 2, 2)) == ()


class TestEnumeration:
    def test_bound_2_families(self):
        fams = [(f.g, f.m1, f.m2) for f in enumerate_families(2)]
        assert fams == [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1), (6, 1, 1)]

    def test_sorted_and_unique(self):
        fams = enumerate_families(16)
        keys = [(f.g, f.m1, f.m2) for f in fams]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_bound_respected(self):
        assert all(f.m1 + f.m2 <= 9 for f in enumerate_families(9))

    def test_all_normalized(self):
        assert all(f.m1 <= f.m2 for f in enumerate_families(16))

    @pytest.mark.parametrize("bound", [2, 9, 17])
    def test_every_valid_triple_once(self, bound):
        # the loops build families without validate_family, which stays the reference
        valid = []
        for g in (1, 2, 3, 4, 6):
            for m1 in range(1, bound):
                for m2 in range(m1, bound - m1 + 1):
                    try:
                        valid.append(validate_family(g, m1, m2))
                    except FamilyError:
                        pass
        assert enumerate_families(bound) == valid
        assert list(iter_families(bound)) == valid

    def test_bound_below_2_rejected(self):
        for families in (enumerate_families, iter_families):
            with pytest.raises(FamilyError):
                families(1)

    def test_bound_beyond_the_widest_table_rejected(self):
        # at 2048 the widest g=4 table, n = 4096, fits; the refusal comes
        # before any of the ~10^8 families of bound 20000 is built, and
        # before the first family is asked of the generator
        for families in (enumerate_families, iter_families):
            for bound in (2049, 20000):
                with pytest.raises(FamilyError, match="bound must be <= 2048"):
                    families(bound)


def record(family) -> dict:
    """The family's ``catalog --format json`` record, parsed."""
    return json.loads(data_text(family))


class TestGaussImageData:
    def test_g3_record_has_both_profiles(self):
        rec = record(validate_family(3, 2, 2))
        assert rec["covering_degree"] == 3
        assert profile_from_json(rec["betti_N"]).fully_known
        assert dims(profile_from_json(rec["betti_L"])) == (1, 0, 0, 0, 0, 0, 1)

    def test_g6_m1_record_has_no_tables(self):
        rec = record(validate_family(6, 1, 1))
        assert rec["betti_N"] is None
        assert rec["betti_L"] is None
        assert rec["maslov"] == 2 and rec["nu"] == 3

    def test_g4_record(self):
        rec = record(validate_family(4, 1, 3))
        assert rec["betti_L"] is None
        assert rec["maslov"] == 4
        assert rec["orientable"] is True

    def test_json_round_trip(self):
        # a record's profiles read back through the one profile reader
        for g, m1, m2 in [(1, 2, 2), (2, 1, 3), (3, 2, 2), (4, 1, 2), (6, 1, 1), (6, 2, 2)]:
            family = validate_family(g, m1, m2)
            rec = record(family)
            data = json.loads(json.dumps(rec))
            assert data == rec
            betti_n = None if (g, m1) == (6, 1) else munzner_betti_N(family)
            betti_l = gauss_image_betti_g3(family) if g == 3 else None
            for key, profile in (("betti_N", betti_n), ("betti_L", betti_l)):
                assert (data[key] and profile_from_json(data[key])) == profile

    def test_family_json_round_trip(self):
        f = validate_family(4, 3, 5)
        data = json.loads(f.json_text())
        assert validate_family(data["g"], data["m1"], data["m2"]) == f
        assert data["n"] == f.n
