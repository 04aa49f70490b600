"""Branching rules: classical one-step interlacing laws and the case rules.

The case-specific decompositions live in the catalog as closed-form
enumerators; ``branch_case`` just drives them and returns labelled output.
The classical SO/U steps exist to cross-validate those enumerators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Vector, vec


def _steps(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Values lo, lo+1, ..., hi (same integrality class as the endpoints)."""
    if hi < lo:
        return []
    count = hi - lo
    if count.denominator != 1:
        raise ValueError("interval endpoints %s, %s differ by a non-integer" % (lo, hi))
    return [lo + i for i in range(int(count) + 1)]


def branch_SO_step(N: int, lam: Sequence) -> list[Vector]:
    """SO(N) ↓ SO(N-1) interlacing; multiplicity one each, sorted output.

    Half-integral (spin) weights are allowed; the branched weights stay in the
    same integrality class.
    """
    lam = vec(lam)
    if N < 4:
        raise ValueError("need N >= 4")
    r = N // 2
    if N % 2 == 1:
        # B_r down to D_r: lam_1 >= mu_1 >= lam_2 >= ... >= lam_r >= |mu_r|
        if len(lam) != r:
            raise ValueError("SO(%d) weight needs %d coordinates" % (N, r))
        if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
            raise ValueError("weight %s not dominant for SO(%d)" % (lam, N))
        ranges = [_steps(lam[i + 1], lam[i]) for i in range(r - 1)]
        ranges.append(_steps(-lam[r - 1], lam[r - 1]))
        out = [tuple(mu) for mu in itertools.product(*ranges)]
    else:
        # D_r down to B_{r-1}: lam_1 >= mu_1 >= ... >= mu_{r-1} >= |lam_r|
        if len(lam) != r:
            raise ValueError("SO(%d) weight needs %d coordinates" % (N, r))
        if any(a < b for a, b in zip(lam, lam[1:-1] + (abs(lam[-1]),))):
            raise ValueError("weight %s not dominant for SO(%d)" % (lam, N))
        ranges = [_steps(lam[i + 1], lam[i]) for i in range(r - 2)]
        ranges.append(_steps(abs(lam[r - 1]), lam[r - 2]))
        out = [tuple(mu) for mu in itertools.product(*ranges)]
    return sorted(out, reverse=True)


def branch_U_step(N: int, lam: Sequence) -> list[tuple[Vector, Fraction]]:
    """U(N) ↓ U(N-1) × U(1): interlacing mu plus its U(1) charge sum(lam)-sum(mu)."""
    lam = vec(lam)
    if len(lam) != N:
        raise ValueError("U(%d) weight needs %d coordinates" % (N, N))
    if any(x.denominator != 1 for x in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("weight %s not dominant integral for U(%d)" % (lam, N))
    total = sum(lam)
    ranges = [_steps(lam[i + 1], lam[i]) for i in range(N - 1)]
    out = [(tuple(mu), total - sum(mu)) for mu in itertools.product(*ranges)]
    return sorted(out, reverse=True)


def branch_case(record, pi_params: Sequence):
    """Decompose the case's pi(pi_params) into Disc(G/H); multiplicity-free.

    Returns a list of (theta, IrrepLabel-of-G) pairs, theta a tuple of ints,
    sorted by theta.
    """
    return record.branch(pi_params)


@dataclass(frozen=True)
class BranchingRule:
    """A restriction rule from one group to another.

    ``kind`` is "SO_interlace", "U_interlace", or "case_rule:<tag>"; applying
    it to a valid source label yields a finite multiplicity-free list.
    """

    source: object
    target: object
    kind: str
    _record: object = None

    def apply(self, label):
        if self.kind == "SO_interlace":
            return branch_SO_step(self.source, label)
        if self.kind == "U_interlace":
            return branch_U_step(self.source, label)
        return self._record.branch(label)


def rule_for(record) -> BranchingRule:
    """The case rule of a catalog record as a BranchingRule value."""
    return BranchingRule(
        source=record.pi_group,
        target=record.nu_group,
        kind="case_rule:%s" % record.id.tag,
        _record=record,
    )
