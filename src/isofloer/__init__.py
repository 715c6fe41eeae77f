"""Displaceability obstructions for Gauss images of isoparametric hypersurfaces.

The package classifies the Gauss image of each isoparametric hypersurface in a
sphere, viewed as a monotone Lagrangian in the complex hyperquadric, as Wide
(Floer homology of full rank, hence non-displaceable), NonDisplaceable (Floer
homology nonzero by a spectral-sequence narrowness contradiction), or
Unresolved.  ``classify`` is the one classification path for a family; the
engine functions (``propagate_narrow``, ``oracle_narrow_feasible``,
``replay_witness``) work on raw Betti profiles.
"""

from .catalog import (
    CitedFact,
    FamilyError,
    IsoparametricFamily,
    MissingTableError,
    collapse_step,
    enumerate_families,
    gauss_image_betti_g3,
    minimal_maslov,
    munzner_betti_N,
    orientable,
    validate_family,
)
from .criteria import (
    CaseReport,
    JustificationStep,
    NON_DISPLACEABLE,
    STATUSES,
    UNRESOLVED,
    WIDE,
    classify,
    report_to_json,
    volume_lower_bound,
    wide_check_biran_cornea,
)
from .homology import (
    BettiProfile,
    DimBound,
    ProfileError,
    make_partial_profile,
    make_profile,
    profile_from_json,
    profile_to_json,
)
from .specseq import (
    CONTRADICTION,
    EngineError,
    FEASIBLE,
    INFEASIBLE,
    MaslovTooSmallError,
    NO_CONTRADICTION,
    NarrownessVerdict,
    SearchCapError,
    UnknownSlotsError,
    WitnessError,
    oracle_narrow_feasible,
    propagate_narrow,
    replay_witness,
    verdict_from_json,
    verdict_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BettiProfile",
    "CaseReport",
    "CitedFact",
    "CONTRADICTION",
    "DimBound",
    "EngineError",
    "FEASIBLE",
    "FamilyError",
    "INFEASIBLE",
    "IsoparametricFamily",
    "JustificationStep",
    "MaslovTooSmallError",
    "MissingTableError",
    "NO_CONTRADICTION",
    "NON_DISPLACEABLE",
    "NarrownessVerdict",
    "ProfileError",
    "STATUSES",
    "SearchCapError",
    "UNRESOLVED",
    "UnknownSlotsError",
    "WIDE",
    "WitnessError",
    "classify",
    "collapse_step",
    "enumerate_families",
    "gauss_image_betti_g3",
    "make_partial_profile",
    "make_profile",
    "minimal_maslov",
    "munzner_betti_N",
    "oracle_narrow_feasible",
    "orientable",
    "profile_from_json",
    "profile_to_json",
    "propagate_narrow",
    "replay_witness",
    "report_to_json",
    "validate_family",
    "verdict_from_json",
    "verdict_to_json",
    "volume_lower_bound",
    "wide_check_biran_cornea",
]
