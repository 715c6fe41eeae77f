"""The tests' reference for the wire forms of reports and verdicts, as dicts.

The package writes each record's JSON text directly (``json_text``); these
are the dict builders it used before, kept here so that the tests can
require ``json.dumps(reference, indent=2)`` byte for byte.  The package
never calls them.
"""

from isofloer.catalog import family_to_json
from isofloer.specseq import (
    ChainStep,
    ContradictionWitness,
    FeasibleWitness,
    FinalPageWitness,
    InfeasibleWitness,
)


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
