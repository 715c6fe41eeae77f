"""Displaceability decisions: wideness, narrowness contradictions, volume.

The classifier runs a fixed cascade over a validated family and always
lands on one of three statuses:

* ``Wide``: Floer homology is H(L; Z2) (x) Lambda, so L is
  non-displaceable and intersects the real form; only the computed
  g = 3 cases also carry a sweep-volume bound.
* ``NonDisplaceable``: the lifted Floer homology of the covering
  N -> L cannot vanish, certified by a replayable spectral-sequence
  contradiction.
* ``Unresolved``: no criterion in scope applies; an honest "this
  machinery proves nothing here", not a displaceability claim.

Every report carries its justification as an ordered list of steps, each
tagged computed (this package derived it) or cited (external input).
"""

from __future__ import annotations

import math
from json import dumps, loads
from json.encoder import encode_basestring_ascii as quote

from .catalog import (
    REAL_FORM_WIDE,
    IsoparametricFamily,
    cited_facts,
    gauss_image_betti_g3,
    minimal_maslov,
    munzner_betti_N,
)
from .homology import BettiProfile, ProfileError, Record, json_list
from .specseq import (
    CONTRADICTION,
    LIFTED_MIN_MASLOV,
    MaslovTooSmallError,
    _page_turns,
    propagate_narrow,
    verdict_from_json,  # unused here, as is verdict_to_json; perfbench/worker.py patches them
    verdict_to_json,
)

WIDE = "Wide"
NON_DISPLACEABLE = "NonDisplaceable"
UNRESOLVED = "Unresolved"

STATUSES = (WIDE, NON_DISPLACEABLE, UNRESOLVED)


def wideness_obstructions(betti_l: BettiProfile, maslov: int) -> list[int]:
    """Degrees congruent to -1 mod the Maslov number where H(L; Z2) is nonzero.

    Every tested degree maslov - 1, 2*maslov - 1, ... in [0, n] must be
    known exactly.
    """
    if maslov < 2:
        raise MaslovTooSmallError(
            f"the wideness criterion needs minimal Maslov number >= 2, got {maslov}"
        )
    failed, known = [], betti_l.known
    for degree in range(maslov - 1, betti_l.n + 1, maslov):
        if degree not in known and betti_l.room != 0:
            raise ProfileError(
                f"degree {degree} of the profile is unknown; the wideness test needs it exactly"
            )
        if known.get(degree, 0) != 0:
            failed.append(degree)
    return failed


def wide_check_biran_cornea(betti_l: BettiProfile, maslov: int) -> bool:
    """Vanishing test in degrees congruent to -1 mod the Maslov number.

    When H_i(L; Z2) = 0 for every i = maslov - 1, 2*maslov - 1, ... in
    [0, n], no Floer differential can connect the surviving generators,
    and the Floer homology equals H(L; Z2) (x) Lambda: L is wide.
    """
    return not wideness_obstructions(betti_l, maslov)


def volume_lower_bound(n: int) -> float:
    """Half the volume of the round unit n-sphere: pi^((n+1)/2) / Gamma((n+1)/2).

    Any Hamiltonian deformation of a wide Gauss image keeps intersecting
    the real form, and integral geometry turns that into a sweep-volume
    bound of half the sphere volume.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


class JustificationStep(Record):
    """One link of a report's reasoning chain.

    ``rule`` is a stable machine-readable label; ``kind`` is "computed"
    or "cited"; ``verdict`` carries the replayable engine output when the
    step is a spectral-sequence fact.
    """

    __slots__ = ("rule", "kind", "claim", "source", "verdict")
    _defaults = {"source": None, "verdict": None}

    def json_text(self, indent: str) -> str:
        """The step's wire form: {"rule", "kind", "claim", "source", "verdict"}."""
        inner = indent + "  "
        verdict = "null" if self.verdict is None else self.verdict.json_text(inner)
        return (f'{{{inner}"rule": {quote(self.rule)},{inner}"kind": {quote(self.kind)},'
                f'{inner}"claim": {quote(self.claim)},'
                f'{inner}"source": {"null" if self.source is None else quote(self.source)},'
                f'{inner}"verdict": {verdict}{indent}}}')


# the justification of every g = 1 and 2 report: one step, built once
REAL_FORM_STEPS = (
    JustificationStep("real-form", "cited", REAL_FORM_WIDE.statement, REAL_FORM_WIDE.source),
)


class CaseReport(Record):
    __slots__ = ("family", "status", "justification", "volume_lower_bound")

    @property
    def intersects_real_form(self) -> bool:
        """A wide Gauss image keeps meeting the real form under Hamiltonian motion."""
        return self.status == WIDE

    def json_text(self, indent: str = "\n") -> str:
        """The report's wire form: {"family", "status", "justification", ...}."""
        inner = indent + "  "
        meets = "true" if self.intersects_real_form else "false"
        volume = "null" if self.volume_lower_bound is None else dumps(self.volume_lower_bound)
        steps = json_list([step.json_text(inner + "  ") for step in self.justification], inner)
        return (f'{{{inner}"family": {self.family.json_text(inner)},'
                f'{inner}"status": {quote(self.status)},{inner}"justification": {steps},'
                f'{inner}"intersects_real_form": {meets},'
                f'{inner}"volume_lower_bound": {volume}{indent}}}')


def report_to_json(report: CaseReport) -> dict:
    """The report as a dict: the parse of ``report.json_text()``."""
    return loads(report.json_text())


def _profile_brief(profile: BettiProfile) -> str:
    """The table as the claim states it, written from the sorted support.

    A fully known profile reads ``dims [d0, d1, ..., dn]``: each run of k
    unlisted degrees is k zeros, so the dense tuple is never built.
    Otherwise the listed slots are written as a dict, in ascending order.
    """
    known = profile.known
    if profile.fully_known:
        text, start = "", 0
        for degree in sorted(known):
            text += f"{', 0' * (degree - start)}, {known[degree]}"
            start = degree + 1
        text += ", 0" * (profile.n + 1 - start)
        return f"dims [{text[2:]}]"
    listed = {s: known[s] for s in sorted(known)}
    return f"known slots {listed}, other degrees unknown"


def classify(family: IsoparametricFamily) -> CaseReport:
    """Decision cascade; every valid family lands on exactly one status.

    Order matters: cited real-form wideness for g in {1, 2}; the sphere
    profile (cited for m = 1) plus the wideness criterion for g = 3; the
    lifted narrowness contradiction for g in {4, 6} when the Maslov number
    admits the lifted theory; below that threshold nothing applies.
    """
    g = family.g
    if g in (1, 2):
        return CaseReport(family, WIDE, REAL_FORM_STEPS, None)

    if g == 3:
        maslov = minimal_maslov(family)
        profile = gauss_image_betti_g3(family)
        steps = [JustificationStep("gauss-image-homology", "cited", f.statement, f.source)
                 for f in cited_facts(family)]
        if not steps:  # nothing cited: the profile is computed
            steps.append(
                JustificationStep(
                    "gauss-image-homology",
                    "computed",
                    f"the Gauss image is a Z2-homology {family.n}-sphere: the transfer of "
                    "the degree-3 covering kills all degrees outside {0, m, 2m, 3m} and "
                    "chi(L) = chi(N)/3 = 2 forces the middle slots to zero",
                    "covering-space transfer and Euler characteristic",
                )
            )
        bad = wideness_obstructions(profile, maslov)
        if not bad:
            steps.append(
                JustificationStep(
                    "wide-criterion",
                    "computed",
                    f"no Z2 homology in degrees congruent to -1 mod {maslov}, so the Floer "
                    "homology is H(L; Z2) (x) Lambda",
                    "Biran-Cornea wideness criterion",
                )
            )
            return CaseReport(family, WIDE, tuple(steps), volume_lower_bound(family.n))
        steps.append(
            JustificationStep(
                "wide-criterion",
                "computed",
                f"wideness criterion fails: nonzero Z2 homology in degree(s) {bad} "
                f"congruent to -1 mod {maslov}",
                "Biran-Cornea wideness criterion",
            )
        )
        return CaseReport(family, UNRESOLVED, tuple(steps), None)

    # g in {4, 6}; the threshold comes before the table lookup because
    # (6, 1, 1) has no table on record
    maslov = minimal_maslov(family)
    try:
        nu = _page_turns(family.n, maslov)  # collapse_step(family)
    except MaslovTooSmallError:
        below = JustificationStep(
            "maslov-threshold",
            "computed",
            f"minimal Maslov number {maslov} is below the threshold {LIFTED_MIN_MASLOV} "
            "of the lifted theory and no wideness route applies",
            "minimal Maslov number 2n/g of the Gauss image",
        )
        return CaseReport(family, UNRESOLVED, (below,), None)

    n, table = family.n, munzner_betti_N(family)
    covering = JustificationStep(
        "covering-homology",
        "cited",
        f"Z2 Betti numbers of the covering N^{n}: {_profile_brief(table)}",
        "Muenzner: Z2 homology of isoparametric hypersurfaces",
    )
    verdict = propagate_narrow(table, maslov, n, nu)
    witness = verdict.witness
    if witness.kind == CONTRADICTION:
        contradiction = JustificationStep(
            "narrowness-contradiction",
            "computed",
            f"a vanishing lifted Floer homology would force dimension >= "
            f"{witness.bound} in slot {witness.slot} of the final page; "
            "contradiction, so the lifted Floer homology is nonzero",
            "lifted Floer spectral sequence of the covering N -> L",
            verdict,
        )
        return CaseReport(family, NON_DISPLACEABLE, (covering, contradiction), None)
    no_contradiction = JustificationStep(
        "no-contradiction",
        "computed",
        "interval propagation derives no contradiction from a vanishing "
        "lifted Floer homology",
        "lifted Floer spectral sequence of the covering N -> L",
        verdict,
    )
    return CaseReport(family, UNRESOLVED, (covering, no_contradiction), None)

