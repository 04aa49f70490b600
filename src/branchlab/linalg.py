"""Exact linear algebra: rank, solving, affine maps.

Vectors and matrices are tuples of ``fractions.Fraction``; the rank runs on
an integer row echelon (``IntEchelon``) that never divides.  Nothing here
ever touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def vadd(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def _clear_column(rows: list[list[Fraction]], r: int, c: int, targets: Iterable[int]) -> None:
    """Scale row r to 1 at column c and subtract it from each target row
    with a non-zero entry there, touching only the pivot row's non-zero columns."""
    pivot_row = rows[r]
    inv = 1 / pivot_row[c]
    support = [(j, x * inv) for j, x in enumerate(pivot_row) if x != 0]
    for j, y in support:
        pivot_row[j] = y
    for i in targets:
        row = rows[i]
        f = row[c]
        if f != 0:
            for j, y in support:
                row[j] -= f * y


class IntEchelon:
    """A row echelon form over the integers, grown one row at a time without
    fractions: a new row is cleared at the leading column of each kept row
    by x·p − f·y (p the kept row's entry there, f the new row's) and divided
    by the gcd of its entries.  Each kept row is primitive.  Which rows are
    kept, and so the rank, is exactly what elimination over the rationals
    gives, since each integer row is a non-zero multiple of the rational one."""

    def __init__(self):
        self._rows: dict[int, list[int]] = {}  # leading column -> kept row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Sequence[int]) -> bool:
        """Reduce row by the kept rows; keep it and return True unless it
        reduces to zero."""
        row = list(row)
        lead = 0
        while True:
            lead = next((c for c in range(lead, len(row)) if row[c]), None)
            if lead is None:
                return False
            kept = self._rows.get(lead)
            if kept is None:
                break
            g = math.gcd(kept[lead], row[lead])
            p, f = kept[lead] // g, row[lead] // g
            row = [x * p - f * y for x, y in zip(row, kept)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
        self._rows[lead] = row
        return True


def rank(m: Sequence[Sequence]) -> int:
    """The rank over the rationals of rows of integers or Fractions: each row
    is scaled to integers by the lcm of its denominators."""
    echelon = IntEchelon()
    for row in m:
        den = math.lcm(1, *(x.denominator for x in row))
        echelon.add([x.numerator * (den // x.denominator) for x in row])
    return echelon.rank


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution x of m·x = rhs, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    nrows = len(m)
    if nrows == 0:
        return () if all(b == 0 for b in rhs) else None
    ncols = len(m[0])
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    r = 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        _clear_column(aug, r, c, [i for i in range(nrows) if i != r])
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][ncols]
    return tuple(x)


@dataclass(frozen=True)
class AffineMap:
    """v ↦ matrix·v + offset over the rationals."""

    matrix: Matrix
    offset: Vector
    source: Optional[int] = None  # needed only when the matrix has no rows

    def __post_init__(self):
        for row in self.matrix:
            if len(row) != self.source_dim:
                raise ValueError("ragged matrix")
        if len(self.matrix) != len(self.offset):
            raise ValueError("matrix/offset dimension mismatch")

    @property
    def source_dim(self) -> int:
        if self.matrix:
            return len(self.matrix[0])
        return self.source if self.source is not None else 0

    def apply(self, v: Sequence) -> Vector:
        w = vec(v)
        if len(w) != self.source_dim:
            raise ValueError(
                "affine map expects dimension %d, got %d" % (self.source_dim, len(w))
            )
        return vadd(mat_vec(self.matrix, w), self.offset)

    def __call__(self, v: Sequence) -> Vector:
        return self.apply(v)
