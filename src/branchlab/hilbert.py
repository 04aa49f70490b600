"""Graded-dimension bookkeeping: the v_m(N) counting sequence and the
case-specific combinatorial models certifying the claimed generator degrees.

``check_generator_degrees`` compares two lists over N = 0..Nmax: the
v-sequence of the claimed degrees, by dynamic programming, and the model's
dimensions, by an independent count (``graded_invariant_dims``), which for
a weighted model visits each exponent tuple of weighted sum <= Nmax once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def _v(degrees: tuple[int, ...], N: int) -> int:
    if N == 0:
        return 1
    if not degrees:
        return 0
    head, tail = degrees[0], degrees[1:]
    return sum(_v(tail, N - head * a) for a in range(N // head + 1))


def v_sequence(degrees: Sequence[int], N: int) -> int:
    """#{a in N^k : sum a_i m_i = N}, by dynamic programming."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if any(d <= 0 for d in degrees):
        raise ValueError("degrees must be positive")
    return _v(tuple(degrees), N)


def _interlaced_iv_dim(n: int, N: int) -> int:
    """dim S^N for case (iv): a trace line plus interlaced pairs.

    Counts (c, a_1, b_1, ..., a_n, b_n) with c in N, a_1 >= b_1 >= a_2 >= ...
    >= b_n >= 0 and c + 2*sum(a) - sum(b) = N, by direct recursion over the
    chain (independent of the v_sequence dynamic programming).
    """
    return sum(_interlaced_tail(n, N, N - c) for c in range(N + 1))


@lru_cache(maxsize=None)
def _interlaced_tail(pairs_left: int, upper: int, target: int) -> int:
    """The chains of ``pairs_left`` pairs upper >= a_1 >= b_1 >= a_2 >= ...
    >= b >= 0 with sum(2a - b) = target.  Each pair contributes 2a - b in
    [a, 2a], so a <= remaining target prunes exactly.  At module level, the
    cache serves every n and N and makes no reference cycle, as a cached
    closure that calls itself does."""
    if target < 0:
        return 0
    if pairs_left == 0:
        return 1 if target == 0 else 0
    total = 0
    for a in range(0, min(upper, target) + 1):
        for b in range(0, a + 1):
            total += _interlaced_tail(pairs_left - 1, b, target - (2 * a - b))
    return total


def graded_invariant_dims(record, Nmax: int) -> list[int]:
    """[dim S^N(g_C/h_C)^H for N = 0..Nmax] from the case's stored
    combinatorial model.  A weighted model counts each exponent tuple of
    weighted sum <= Nmax once, by its sum: a deliberate brute force,
    independent of the v_sequence dynamic program.  The interlaced model of
    case (iv) counts its chains per N by its own recursion."""
    if Nmax < 0:
        raise ValueError("Nmax must be >= 0")
    model = record.hilbert_model
    if model is None:
        raise ValueError(
            "case %s has no stored combinatorial model (external tables)" % record.id
        )
    if model["kind"] == "weighted":
        # the weighted sum of each exponent tuple, one coordinate at a time
        sums = [0]
        for d in model["weights"]:
            sums = [t for s in sums for t in range(s, Nmax + 1, d)]
        counts = [0] * (Nmax + 1)
        for total in sums:
            counts[total] += 1
        return counts
    if model["kind"] == "interlaced_iv":
        return [_interlaced_iv_dim(model["n"], N) for N in range(Nmax + 1)]
    raise ValueError("unknown model %r" % (model,))


def claimed_degrees(record) -> tuple[int, ...]:
    return tuple(sorted(record.degrees_p + record.degrees_q))


def check_generator_degrees(record, Nmax: int) -> bool:
    """v_sequence of the claimed degree multiset matches the model up to Nmax."""
    degrees = claimed_degrees(record)
    if Nmax < max(degrees, default=0):
        raise ValueError("Nmax must cover the largest claimed degree")
    return [v_sequence(degrees, N) for N in range(Nmax + 1)] == graded_invariant_dims(record, Nmax)
