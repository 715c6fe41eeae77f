"""Isoparametric family data and the invariants of their Gauss images.

An isoparametric hypersurface N^n in the round sphere S^{n+1} has g
distinct constant principal curvatures, g in {1, 2, 3, 4, 6}, whose
multiplicities alternate between two values m1, m2 with n = g(m1+m2)/2
(Muenzner).  Odd g forces m1 = m2; Cartan's classification pins g = 3 to
m in {1, 2, 4, 8}, and Abresch's restriction pins g = 6 to m1 = m2 in
{1, 2}.  The Gauss map image L = N / Z_g is a monotone Lagrangian in the
complex hyperquadric, with minimal Maslov number 2n/g and deck covering
N -> L of degree g.

This module validates family triples, stores the Z2 homology of N in
profile form, and derives what the displaceability analysis consumes:
Maslov number, orientability, the collapse step of the lifted spectral
sequence, and the g = 3 Gauss-image homology.
"""

from __future__ import annotations

from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as quote

from .homology import (
    MAX_TOP_DEGREE,
    BettiProfile,
    Record,
    json_list,
    make_partial_profile,
    make_profile,
    profile_from_json,  # unused here; perfbench/worker.py patches this name
)


class FamilyError(ValueError):
    """Parameters violate the classification constraints."""


class MissingTableError(LookupError):
    """No homology table is on record for this family."""


VALID_G = (1, 2, 3, 4, 6)

# Cartan: g=3 hypersurfaces are tubes around the projective planes over
# R, C, H, O, so the common multiplicity is 1, 2, 4 or 8.
G3_MULTIPLICITIES = (1, 2, 4, 8)

# Abresch: g=6 forces m1 = m2 in {1, 2}.
G6_MULTIPLICITIES = (1, 2)


class IsoparametricFamily(Record):
    __slots__ = ("g", "m1", "m2")

    @property
    def n(self) -> int:
        """Dimension g(m1 + m2)/2 of N, whole because odd g forces m1 = m2."""
        return self.g * (self.m1 + self.m2) // 2

    def json_text(self, indent: str = "\n") -> str:
        """The wire form {"g", "m1", "m2", "n"}."""
        inner = indent + "  "
        return (f'{{{inner}"g": {self.g},{inner}"m1": {self.m1},{inner}"m2": {self.m2},'
                f'{inner}"n": {self.n}{indent}}}')


def validate_family(g: int, m1: int, m2: int) -> IsoparametricFamily:
    """Check (g, m1, m2) against the classification.

    Multiplicities are normalized to m1 <= m2; the two principal-curvature
    multiplicities are an unordered pair, so nothing is lost.
    """
    if g not in VALID_G:
        raise FamilyError(f"number of distinct principal curvatures must be one of {VALID_G}, got {g}")
    if m1 < 1 or m2 < 1:
        raise FamilyError(f"multiplicities must be >= 1, got ({m1}, {m2})")
    m1, m2 = min(m1, m2), max(m1, m2)
    if g % 2 == 1 and m1 != m2:
        raise FamilyError(f"odd g forces equal multiplicities, got ({m1}, {m2}) with g={g}")
    if g == 3 and m1 not in G3_MULTIPLICITIES:
        raise FamilyError(f"g=3 multiplicity must be in {G3_MULTIPLICITIES}, got {m1}")
    if g == 6 and (m1 != m2 or m1 not in G6_MULTIPLICITIES):
        raise FamilyError(f"g=6 multiplicities must be equal and in {G6_MULTIPLICITIES}, got ({m1}, {m2})")
    return IsoparametricFamily(g, m1, m2)


def minimal_maslov(family: IsoparametricFamily) -> int:
    """Minimal Maslov number of the Gauss image: 2n/g = m1 + m2, 2*m1 for odd g."""
    return family.m1 + family.m2


def orientable(family: IsoparametricFamily) -> bool:
    """The Gauss image is orientable exactly when 2n/g is even."""
    return minimal_maslov(family) % 2 == 0


def collapse_step(family: IsoparametricFamily) -> int:
    """Number of potentially nonzero differentials: floor((n+1) / maslov).

    The lifted spectral sequence freezes after this many page turns.
    """
    return (family.n + 1) // minimal_maslov(family)


def munzner_betti_N(family: IsoparametricFamily) -> BettiProfile:
    """Z2 Betti profile of the hypersurface N itself.

    For g <= 4 the homology sits in 2g degrees, coinciding degrees adding
    up (Muenzner).  For g = 6, m = 2 only the degrees 3, 6, 9 are on
    record beyond the automatic H_0 = H_12 = Z2, so the profile is
    partial; for g = 6, m = 1 no table is on record at all.
    """
    if family.g == 6:
        if family.m1 != 2:
            raise MissingTableError("no Z2 homology table is on record for g=6, m=1")
        return make_partial_profile(family.n, [(0, 1), (3, 0), (6, 2), (9, 0), (12, 1)])
    counts: dict[int, int] = {}
    for degree in _munzner_degrees(family):
        counts[degree] = counts.get(degree, 0) + 1
    return BettiProfile(family.n, counts)


def _munzner_degrees(family: IsoparametricFamily) -> list[int]:
    """The 2g degrees of H_*(N; Z2) for g <= 4, one Z2 each, coinciding ones repeated.

    Muenzner (Math. Ann. 251 (1980), 256 (1981)): they are the first g partial
    sums 0, m1, m1 + m2, 2m1 + m2, ... of the alternating multiplicities
    m1, m2, m1, ..., together with n minus each of them.
    """
    sums, n = [0], family.n
    for i in range(family.g - 1):
        sums.append(sums[-1] + (family.m2 if i % 2 else family.m1))
    return sums + [n - degree for degree in sums]


def gauss_image_betti_g3(family: IsoparametricFamily) -> BettiProfile:
    """Z2 homology of the g = 3 Gauss image L = N / Z3.

    For even m this is computed here: the transfer of the degree-3
    covering identifies H_k(L; Z2) with the deck invariants of
    H_k(N; Z2), which vanish outside degrees {0, m, 2m, 3m}; Z2 Poincare
    duality ties the dimensions at m and 2m to a common value l, and
    chi(L) = chi(N)/3 = 2 = 2 + 2l forces l = 0.  The m = 1 case rests
    on the cited integral computation H_1(L^3; Z) = Z/3, which kills both
    middle Z2 Betti numbers.  Either way L is a Z2-homology sphere.
    """
    if family.g != 3:
        raise FamilyError(f"Gauss-image homology is computed here only for g=3, got g={family.g}")
    m, n = family.m1, family.n
    if m == 1:
        return make_profile(3, [(0, 1), (3, 1)])
    chi_n = sum((-1) ** degree for degree in _munzner_degrees(family))
    if chi_n % 3 != 0:
        raise FamilyError(f"Euler characteristic {chi_n} of N is not divisible by the deck order 3")
    chi_l = chi_n // 3
    middle = (chi_l - 2) // 2  # chi(L) = 2 + 2l when m is even
    return make_profile(n, [(0, 1), (m, middle), (2 * m, middle), (n, 1)])


class CitedFact(Record):
    """A statement this package does not rederive, with its attribution."""

    __slots__ = ("statement", "source")

    def json_text(self, indent: str) -> str:
        """The wire form {"statement", "source"}."""
        inner = indent + "  "
        return (f'{{{inner}"statement": {quote(self.statement)},'
                f'{inner}"source": {quote(self.source)}{indent}}}')


REAL_FORM_WIDE = CitedFact(
    statement="the Gauss image is a real form of the complex hyperquadric, and real forms are wide",
    source="Oh: Floer cohomology of real forms in Hermitian symmetric spaces",
)

G3_INTEGRAL_H1 = CitedFact(
    statement="the 3-dimensional Gauss image has H_1(L; Z) = Z/3, hence is a Z2-homology sphere",
    source="commutator computation in the homogeneous presentation of the g=3, m=1 Gauss image",
)


def cited_facts(family: IsoparametricFamily) -> tuple[CitedFact, ...]:
    """External inputs the classifier may lean on for this family."""
    if family.g in (1, 2):
        return (REAL_FORM_WIDE,)
    if (family.g, family.m1) == (3, 1):
        return (G3_INTEGRAL_H1,)
    return ()


def iter_families(bound: int) -> Iterator[IsoparametricFamily]:
    """All valid families with m1 + m2 <= bound, in (g, m1, m2) order, one at a time.

    The widest bound is the one at which every g = 4 table, n = 2(m1 + m2),
    still fits ``MAX_TOP_DEGREE``; a bad bound is refused here, before any
    family is built.  The loops make only valid triples with m1 <= m2, so
    they build each family without ``validate_family``.
    """
    if bound < 2:
        raise FamilyError(f"bound must be >= 2 to admit any family, got {bound}")
    if bound > MAX_TOP_DEGREE // 2:
        raise FamilyError(f"bound must be <= {MAX_TOP_DEGREE // 2}, where every g=4 table "
                          f"fits the top degree {MAX_TOP_DEGREE}, got {bound}")
    return _families(bound)


def _families(bound: int) -> Iterator[IsoparametricFamily]:
    equal = {1: range(1, bound // 2 + 1), 3: G3_MULTIPLICITIES, 6: G6_MULTIPLICITIES}
    for g in VALID_G:
        if g in equal:
            yield from (IsoparametricFamily(g, m, m) for m in equal[g] if 2 * m <= bound)
            continue
        for m1 in range(1, bound // 2 + 1):
            for m2 in range(m1, bound - m1 + 1):
                yield IsoparametricFamily(g, m1, m2)


def enumerate_families(bound: int) -> list[IsoparametricFamily]:
    """``iter_families(bound)`` as a list."""
    return list(iter_families(bound))


def data_text(family: IsoparametricFamily, indent: str = "\n") -> str:
    """Everything the analysis knows about one family's Gauss image, as ``catalog
    --format json`` prints it: {"family", "maslov", "nu", "orientable", ..., "cited"}.

    ``covering_degree`` is g, the degree of the deck covering N -> L;
    ``betti_N`` is null exactly when no table is on record (g=6, m=1);
    ``betti_L`` is populated only where the package derives it (g=3).
    """
    inner = indent + "  "
    try:
        betti_n = munzner_betti_N(family).json_text(inner)
    except MissingTableError:
        betti_n = "null"
    betti_l = gauss_image_betti_g3(family).json_text(inner) if family.g == 3 else "null"
    cited = json_list([fact.json_text(inner + "  ") for fact in cited_facts(family)], inner)
    return (f'{{{inner}"family": {family.json_text(inner)},'
            f'{inner}"maslov": {minimal_maslov(family)},{inner}"nu": {collapse_step(family)},'
            f'{inner}"orientable": {"true" if orientable(family) else "false"},'
            f'{inner}"covering_degree": {family.g},{inner}"betti_N": {betti_n},'
            f'{inner}"betti_L": {betti_l},{inner}"cited": {cited}{indent}}}')
