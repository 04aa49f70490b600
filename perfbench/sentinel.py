"""Seeded corruption sentinel: single-entry +1 corruptions of stored data,
each of which must make its check FAIL with a concrete counterexample.

The seed picks entries uniformly from every relation coefficient and every
transfer_offset entry of the workload's records; the sample is not filtered,
so a corruption the checks cannot see is reported as an escape.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import workloads

PICKS = 3  # corruptions of each kind per run


def _records(workload: str):
    from branchlab import catalog

    records = catalog.load_default(max_n=workloads.MAX_N[workload])
    if workload == "poly-model":
        return [r for r in records if r.id.tag == "star"]
    cases = workloads.THETA_BOX[workload]
    return [r for r in records if str(r.id) in cases]


def _in_box(record, theta, bound: int) -> bool:
    return record.theta.contains(theta) and all(abs(t) <= bound for t in theta)


def _corrupt_relation(record, rel_index: int, term_index: int):
    rel = record.relations[rel_index]
    terms = list(rel.terms)
    coeff, symbol = terms[term_index]
    terms[term_index] = (coeff + 1, symbol)
    relations = list(record.relations)
    relations[rel_index] = dataclasses.replace(rel, terms=tuple(terms))
    return dataclasses.replace(record, relations=tuple(relations))


def _corrupt_offset(record, index: int):
    offset = list(record.transfer_offset)
    offset[index] += 1
    return dataclasses.replace(record, transfer_offset=tuple(offset))


def _relation_caught(record, bound: int) -> bool:
    from branchlab import verify

    report = verify.check_relations(record, bound)
    if not report.failures:
        return False
    name, theta, _, _ = report.failures[0]
    if not _in_box(record, theta, bound):
        return False
    # Confirm the counterexample with the reference evaluator.
    rel = next(r for r in record.relations if "relation:%s" % r.name == name)
    total = sum(
        (c * verify.evaluate_generator_reference(record, s, theta) for c, s in rel.terms),
        Fraction(0),
    )
    return total != 0


def _transfer_caught(record, bound: int) -> bool:
    from branchlab import verify

    report = verify.check_transfer(record, bound)
    return bool(report.failures) and _in_box(record, report.failures[0][1], bound)


def run(workload: str, seed: int) -> dict:
    """{"attempted", "escapes", "errors", "escaped": [descriptions]}."""
    records = _records(workload)
    bound = workloads.BOUND[workload]
    rng = random.Random(seed)
    relation_entries = [
        (r, i, j) for r in records for i, rel in enumerate(r.relations) for j in range(len(rel.terms))
    ]
    offset_entries = [(r, k) for r in records for k in range(len(r.transfer_offset))]
    trials = []
    for r, i, j in rng.sample(relation_entries, min(PICKS, len(relation_entries))):
        label = "%s relation %s coefficient %d" % (r.id, r.relations[i].name, j)
        trials.append((label, lambda r=r, i=i, j=j: _relation_caught(_corrupt_relation(r, i, j), bound)))
    for r, k in rng.sample(offset_entries, min(PICKS, len(offset_entries))):
        label = "%s transfer_offset[%d]" % (r.id, k)
        trials.append((label, lambda r=r, k=k: _transfer_caught(_corrupt_offset(r, k), bound)))
    if workload == "poly-model":
        from branchlab import dgx

        trials.append(
            ("membership(x) in R", lambda: dgx.membership(dgx.X, dgx.subalgebra_generators(), 4) is None)
        )
    escaped, errors = [], 0
    for label, caught in trials:
        try:
            if not caught():
                escaped.append(label)
        except Exception:
            errors += 1
    return {"attempted": len(trials), "escapes": len(escaped), "errors": errors, "escaped": escaped}
