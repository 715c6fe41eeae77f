"""The tests' reference for every wire form the package prints, as dicts.

The package writes each record's JSON text directly (``json_text``, and
``catalog.data_text`` for a catalog record); these are the dict builders it
used before, kept here so that the tests can require
``json.dumps(reference, indent=2)`` byte for byte.  They cover families,
profiles, cited facts, catalog records, witnesses, verdicts, steps and
reports.  The package never calls them.
"""

from isofloer.catalog import (
    MissingTableError,
    cited_facts,
    collapse_step,
    gauss_image_betti_g3,
    minimal_maslov,
    munzner_betti_N,
    orientable,
)
from isofloer.specseq import (
    ChainStep,
    ContradictionWitness,
    FeasibleWitness,
    FinalPageWitness,
    InfeasibleWitness,
)


def family_to_json(family) -> dict:
    return {"g": family.g, "m1": family.m1, "m2": family.m2, "n": family.n}


def profile_to_json(profile) -> dict:
    """{"n", "known", "cap"}: every degree of a fully known profile, else the
    known degrees in ascending order."""
    get = profile.known.get
    degrees = range(profile.n + 1) if profile.fully_known else sorted(profile.known)
    return {"n": profile.n, "known": [[s, get(s, 0)] for s in degrees], "cap": profile.cap}


def cited_to_json(fact) -> dict:
    return {"statement": fact.statement, "source": fact.source}


def data_to_json(family) -> dict:
    """A ``catalog`` record: betti_N is None where no table is on record,
    betti_L is set only for g = 3."""
    try:
        betti_n = profile_to_json(munzner_betti_N(family))
    except MissingTableError:
        betti_n = None
    return {
        "family": family_to_json(family),
        "maslov": minimal_maslov(family),
        "nu": collapse_step(family),
        "orientable": orientable(family),
        "covering_degree": family.g,
        "betti_N": betti_n,
        "betti_L": (profile_to_json(gauss_image_betti_g3(family))
                    if family.g == 3 else None),
        "cited": [cited_to_json(c) for c in cited_facts(family)],
    }


def witness_to_json(witness) -> dict:
    """The payload of each witness kind, its tag under "type"."""
    if type(witness) is ContradictionWitness:
        return {"type": witness.tag, "slot": witness.slot, "bound": witness.bound,
                "chain": [dict(zip(ChainStep.__slots__, ChainStep._values(c)))
                          for c in witness.chain]}
    if type(witness) is FinalPageWitness:
        return {"type": witness.tag, "slots": [list(slot) for slot in witness.slots]}
    if type(witness) is FeasibleWitness:
        return {"type": witness.tag, "pairs": [list(pair) for pair in witness.pairs]}
    if type(witness) is InfeasibleWitness:
        return {"type": witness.tag, "barrier": list(witness.barrier)}
    raise TypeError(f"not a witness: {type(witness).__name__}")


def verdict_to_json(verdict) -> dict:
    """{"kind", "slot", "page", "bound", "witness"}."""
    witness = verdict.witness
    return {"kind": witness.kind, "slot": witness.slot, "page": verdict.page,
            "bound": witness.bound, "witness": witness_to_json(witness)}


def step_to_json(step) -> dict:
    return {
        "rule": step.rule,
        "kind": step.kind,
        "claim": step.claim,
        "source": step.source,
        "verdict": verdict_to_json(step.verdict) if step.verdict is not None else None,
    }


def report_to_json(report) -> dict:
    return {
        "family": family_to_json(report.family),
        "status": report.status,
        "justification": [step_to_json(s) for s in report.justification],
        "intersects_real_form": report.intersects_real_form,
        "volume_lower_bound": report.volume_lower_bound,
    }
