"""Exact linear algebra in integers: affine maps, the writer of the source
of their rows, the package's one exact row reducer, and the mod-P filter in
front of it for the independence certificate.

An ``AffineMap`` is sparse integer rows over one positive denominator, with
a ``Fraction`` view for the readers that print it or evaluate it at
rational points.  ``IntEchelon`` is a reduced row echelon over the integers
that never divides: it answers rank, independence and span membership, with
the integer combination that expresses a member when asked for one.  It
serves the rank and the parity gap in ``verify``, and subalgebra membership
in ``dgx``, where only ``dgx.membership`` asks for combinations.
``independent_rows`` keeps the rows of the independence certificate by
their residues mod the prime P, and hands over to ``IntEchelon`` only at
the first row that the prime cannot decide.  Nothing here ever touches
floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _primitive(terms: dict, payload: dict) -> tuple[dict, dict]:
    """The row (terms, payload) with the gcd of all its entries divided out."""
    g = math.gcd(*terms.values(), *payload.values())
    if g == 1:
        return terms, payload
    return {k: x // g for k, x in terms.items()}, {k: x // g for k, x in payload.items()}


def _combine(x: int, a: dict, y: int, b: dict) -> dict:
    """x·a + y·b for non-zero x, y and sparse integer vectors with no zero
    entries; none in the result either."""
    out = {k: x * v for k, v in a.items()}
    for k, v in b.items():
        v = out.get(k, 0) + y * v
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class IntEchelon:
    """A reduced row echelon form over the integers that never divides.

    ``rows`` maps each pivot column to a row (terms, payload): terms is a
    sparse vector {column: int}, zero at every other row's pivot, and its
    pivot is the largest column of the residual it was kept from.  A vector
    inserted with a payload {label: int} is that combination of labelled
    vectors, and a row's payload is the integer combination of labels whose
    sum is its terms (empty without payloads).  Each row is primitive, its
    entries having gcd 1, and none is changed in place, so
    ``IntEchelon(other.rows)`` is an independent copy.  The vectors kept,
    and so the rank, are exactly those elimination over the rationals keeps.
    """

    def __init__(self, rows: Optional[dict] = None):
        self.rows: dict = dict(rows or {})

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> tuple[int, dict, dict]:
        """(scale, residual, used) with scale·vec = residual + sum(used ·
        labelled vectors) and residual zero in every pivot column: one row
        operation per pivot column of vec.  vec lies in the span iff residual
        is empty."""
        hits = [(c, p, self.rows[p]) for p, c in vec.items() if p in self.rows]
        scale = math.lcm(*(terms[p] for _, p, (terms, _) in hits))
        residual = {k: scale * c for k, c in vec.items()}
        used: dict = {}
        for c, p, (terms, payload) in hits:
            f = c * (scale // terms[p])
            for k, x in terms.items():
                residual[k] = residual.get(k, 0) - f * x
            for k, x in payload.items():
                used[k] = used.get(k, 0) + f * x
        return scale, {k: x for k, x in residual.items() if x}, {k: x for k, x in used.items() if x}

    def insert(self, vec: dict, payload: Optional[dict] = None) -> bool:
        """Keep vec as a row unless it lies in the span already; return
        whether it was kept.  Only a payload makes the rows track one."""
        scale, residual, used = self.reduce(vec)
        if not residual:
            return False
        pivot = max(residual)
        new = _primitive(residual, _combine(scale, payload or {}, -1, used))
        den = new[0][pivot]
        for p, (terms, row_payload) in list(self.rows.items()):
            c = terms.get(pivot)
            if c:
                self.rows[p] = _primitive(
                    _combine(den, terms, -c, new[0]), _combine(den, row_payload, -c, new[1])
                )
        self.rows[pivot] = new
        return True

    def add(self, row: Sequence[int]) -> bool:
        """insert of a dense row, keyed by column index."""
        return self.insert({c: x for c, x in enumerate(row) if x})


# The largest prime below 2**15: a product of two residues stays below 2**30,
# one digit of a CPython int.
P = 32749


def independent_rows(rows: Iterable, ncols: int, exact) -> tuple[bool, list]:
    """(full rank, kept): the labels of the rows, in order, that are
    independent over the rationals of the rows kept before them, and
    whether ``ncols`` of them were kept, where the walk of ``rows`` stops.

    ``rows`` yields (label, row) with row a list of ``ncols`` integers
    congruent mod P to the label's exact integer row, which ``exact(label)``
    gives.  Each row is reduced mod P, forward only, against the rows kept
    so far, each scaled to 1 at its pivot; a row left non-zero is kept.  At
    the first row that reduces to zero, the exact rows of the labels kept so
    far go into an ``IntEchelon``, which goes on from that row.

    Why the labels are those of the exact route alone:
    - Rows independent mod P are independent over the rationals: a minor of
      theirs is non-zero mod P, so the integer minor is non-zero.  A full
      rank reached mod P is full rank, with no rational arithmetic.
    - A row dependent over the rationals on the rows kept before it has an
      integer relation with them whose coefficients have gcd 1, so the
      relation is non-trivial mod P.  Its coefficient of the row is non-zero
      mod P, since the kept rows are independent mod P, so the row reduces
      to zero mod P.
    - So while no row has reduced to zero, the rows kept mod P are exactly
      those the exact route keeps.  A row that reduces to zero proves
      nothing, so the exact route takes over there.

    A row being reduced is one integer, ``size`` bytes per entry, and a
    kept row is stored negated mod P in the same layout, so that one row
    operation is one integer multiply-add.  An entry starts below P and
    takes fewer than ``ncols`` additions, each below P², so it stays below
    ncols·P² and never carries into the next entry.
    """
    size = (2 * P.bit_length() + ncols.bit_length() + 7) // 8
    mask = (1 << 8 * size) - 1

    def pack(row) -> int:
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in row), "little")

    kept: list = []
    pivots: list = []
    rows = iter(rows)
    for label, row in rows:
        packed = pack([x % P for x in row])
        for shift, negated in pivots:
            f = (packed >> shift & mask) % P
            if f:
                packed += f * negated
        data = packed.to_bytes(size * ncols, "little")
        row = [int.from_bytes(data[i : i + size], "little") % P for i in range(0, len(data), size)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None:
            break
        inverse = pow(row[c], -1, P)
        pivots.append((8 * size * c, pack([-x * inverse % P for x in row])))
        kept.append(label)
        if len(kept) == ncols:
            return True, kept
    else:
        return False, kept
    echelon = IntEchelon()
    for done in kept:
        echelon.add(exact(done))
    for label, _ in itertools.chain([(label, row)], rows):
        if echelon.add(exact(label)):
            kept.append(label)
            if echelon.rank == ncols:
                return True, kept
    return False, kept


def int_affine_source(var: str, coeffs: Iterable[tuple[int, int]], const: int) -> str:
    """Python source, in parentheses, of const + sum(c·x_i) over the sparse
    (i, c) pairs, where ``var % i`` is the source of x_i, such as "p[%d]" for
    an item of the kernel's parameter p or "v%d" for a local: the one writer
    of the expressions that the compiled per-point kernels of ``weights``,
    ``catalog`` and ``verify`` are built from.  Every number passes
    ``operator.index``, so the source holds integers only."""
    out = ""
    for i, c in coeffs:
        i, c = operator.index(i), operator.index(c)
        if c:
            term = var % i if abs(c) == 1 else "%d * %s" % (abs(c), var % i)
            out += (" - " if c < 0 else " + ") + term if out else ("-" if c < 0 else "") + term
    const = operator.index(const)
    if not out:
        return "(%d)" % const
    if const:
        out += " %s %d" % ("-" if const < 0 else "+", abs(const))
    return "(%s)" % out


def rank(m: Sequence[Sequence[int]]) -> int:
    """The rank over the rationals of dense rows of integers."""
    echelon = IntEchelon()
    for row in m:
        echelon.add(row)
    return echelon.rank


@dataclass(frozen=True)
class AffineMap:
    """v ↦ (rows·v + offset) / den on ``source`` coordinates: one sparse
    integer row (((index, coefficient), ...), offset) per image coordinate,
    indices increasing and no coefficient zero, the row format of ``nest``,
    over a positive den in lowest terms with the entries.  ``of`` is the one
    place where rationals become rows; ``matrix``, ``offset`` and ``apply``
    are the rational view for the export, the CLI and the reference
    evaluator."""

    rows: tuple
    den: int
    source: int

    @classmethod
    def of(cls, matrix: Sequence[Sequence], offset: Sequence, source: int) -> "AffineMap":
        """v ↦ matrix·v + offset on ``source`` coordinates, from entries
        that ``Fraction`` takes; ValueError if the shapes disagree.  An int
        entry is kept as it is, so den comes from the other entries alone."""
        rows = [
            [x if type(x) is int else Fraction(x) for x in (*row, off)]
            for row, off in zip(matrix, offset, strict=True)
        ]
        if any(len(row) != source + 1 for row in rows):
            raise ValueError("matrix/offset dimension mismatch")
        dens = [x.denominator for row in rows for x in row if type(x) is not int]
        den = math.lcm(1, *dens)
        if dens:
            rows = [
                [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row]
                for row in rows
            ]
        return cls(
            tuple((tuple((i, x) for i, x in enumerate(row[:-1]) if x), row[-1]) for row in rows),
            den,
            source,
        )

    @property
    def matrix(self) -> Matrix:
        return tuple(
            tuple(Fraction(row.get(j, 0), self.den) for j in range(self.source))
            for row in (dict(coeffs) for coeffs, _ in self.rows)
        )

    @property
    def offset(self) -> Vector:
        return tuple(Fraction(off, self.den) for _, off in self.rows)

    def numerators(self, v: Sequence) -> tuple:
        """den times the image of v: its numerators over den for integral v."""
        if len(v) != self.source:
            raise ValueError("affine map expects dimension %d, got %d" % (self.source, len(v)))
        return tuple(off + sum(c * v[i] for i, c in coeffs) for coeffs, off in self.rows)

    def apply(self, v: Sequence) -> Vector:
        return tuple(Fraction(x, self.den) for x in self.numerators(v))
