"""Exact weight-vector arithmetic: root systems, Weyl canonicalization, dimensions.

Weights are in the standard orthonormal coordinates of each type, except G2
which uses the two-coordinate fundamental-weight basis (a, b) ↦ a·ω1 + b·ω2,
with the invariant form normalized so the short root has length 1.  Roots
and rho are tuples of ``Fraction``; the checks pass weights doubled, as
integers, and canonicalization and dominance keep the number type they get.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import Vector, vec, vsub

LETTERED = ("A", "B", "C", "D", "BC")


@dataclass(frozen=True)
class WeylType:
    family: str  # "A","B","C","D","BC","G2","Trivial","Product"
    rank: int = 1
    factors: tuple["WeylType", ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.family in LETTERED and self.rank < 1:
            raise ValueError("rank must be >= 1 for type %s" % self.family)
        if self.family == "Product" and not self.factors:
            raise ValueError("empty product type")

    @property
    def ncoords(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family in ("B", "C", "D", "BC", "Trivial"):
            return self.rank
        if self.family == "G2":
            return 2
        return sum(f.ncoords for f in self.factors)

    def __str__(self):
        if self.family == "Product":
            return "x".join(str(f) for f in self.factors)
        if self.family in ("G2", "Trivial"):
            return self.family if self.family == "G2" else "Trivial(%d)" % self.rank
        return "%s(%d)" % (self.family, self.rank)


def A(n):
    return WeylType("A", n)


def B(n):
    return WeylType("B", n)


def C(n):
    return WeylType("C", n)


def D(n):
    return WeylType("D", n)


G2 = WeylType("G2", 2)


def Trivial(n=1):
    return WeylType("Trivial", n)


def Product(*factors: WeylType) -> WeylType:
    return WeylType("Product", 0, tuple(factors))


def _unit(n: int, i: int, c=1) -> Vector:
    return tuple(Fraction(c if j == i else 0) for j in range(n))


# Positive roots of G2 in omega-coordinates; first three short, last three long.
_G2_POS = (
    vec((-1, 2)),  # alpha2
    vec((1, -1)),  # alpha1 + alpha2
    vec((0, 1)),  # alpha1 + 2 alpha2  (= omega2, highest short root)
    vec((2, -3)),  # alpha1
    vec((-1, 3)),  # alpha1 + 3 alpha2
    vec((1, 0)),  # 2 alpha1 + 3 alpha2  (= omega1, highest root)
)

# Twice the Gram matrix of (omega1, omega2) with |short root|^2 = 1, which is
# integral: the Gram matrix is ((3, 3/2), (3/2, 1)).
_G2_GRAM2 = ((6, 3), (3, 2))
# Per positive root a, the integer vector 2·Gram·a: its dot product with a
# doubled weight 2w is 4·<w, a>.
_G2_ROOT_ROWS = tuple(
    tuple(sum(g * int(x) for g, x in zip(row, a)) for row in _G2_GRAM2) for a in _G2_POS
)


def positive_roots(t: WeylType) -> list[Vector]:
    """The standard positive system for a lettered type or G2."""
    fam, n = t.family, t.rank
    if fam == "A":
        m = n + 1
        return [vsub(_unit(m, i), _unit(m, j)) for i in range(m) for j in range(i + 1, m)]
    if fam in ("B", "C", "D", "BC"):
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(vsub(_unit(n, i), _unit(n, j)))
                roots.append(tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j))))
        if fam in ("B", "BC"):
            roots.extend(_unit(n, i) for i in range(n))
        if fam in ("C", "BC"):
            roots.extend(_unit(n, i, 2) for i in range(n))
        return roots
    if fam == "G2":
        return list(_G2_POS)
    raise ValueError("no positive system for type %s" % t)


def rho(t: WeylType) -> Vector:
    """Half the sum of the positive roots (zero vector for Trivial; per factor)."""
    if t.family == "Trivial":
        return tuple(Fraction(0) for _ in range(t.rank))
    if t.family == "Product":
        return sum((rho(f) for f in t.factors), ())
    return _half_sum(t)


# rho depends only on the (frozen, hashable) type: built once per type
@functools.cache
def _half_sum(t: WeylType) -> Vector:
    total = [Fraction(0)] * t.ncoords
    for r in positive_roots(t):
        for i, x in enumerate(r):
            total[i] += x
    return tuple(x / 2 for x in total)


@functools.cache
def _rho2(t: WeylType) -> tuple[int, ...]:
    """2·rho as integers, built once per type."""
    return tuple(int(2 * x) for x in rho(t))


def _split(t: WeylType, v: Vector) -> list[tuple[WeylType, Vector]]:
    parts = []
    pos = 0
    for f in t.factors:
        k = f.ncoords
        parts.append((f, v[pos : pos + k]))
        pos += k
    return parts


def is_dominant(t: WeylType, v: Sequence) -> bool:
    """<v, a> >= 0 for every simple root a, read off the coordinates."""
    if t.family == "Trivial":
        return True
    if t.family == "Product":
        return all(is_dominant(f, part) for f, part in _split(t, v))
    if t.family not in LETTERED + ("G2",):
        raise ValueError("no simple system for type %s" % t)
    if len(v) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(v)))
    if t.family == "D" and t.rank < 2:
        raise ValueError("D requires rank >= 2")
    return _dominant(t.family, v)


def dominant_representative(t: WeylType, v: Sequence) -> tuple:
    """The unique dominant element of the Weyl orbit of v, in v's number type:
    the Weyl group acts by integer matrices, so doubled integers stay integers."""
    if len(v) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(v)))
    fam = t.family
    if fam == "Trivial":
        return tuple(v)
    if fam == "Product":
        return sum((dominant_representative(f, part) for f, part in _split(t, v)), ())
    if fam == "A":
        return tuple(sorted(v, reverse=True))
    if fam in ("B", "C", "BC"):
        return tuple(sorted(map(abs, v), reverse=True))
    if fam == "D":
        flips = sum(1 for x in v if x < 0)
        out = sorted(map(abs, v), reverse=True)
        if flips % 2 == 1 and out[-1] != 0:
            out[-1] = -out[-1]
        return tuple(out)
    if fam == "G2":
        # reflect in a simple root with a negative pairing until there is none
        a, b = v
        while a < 0 or b < 0:
            a, b = (-a, b + 3 * a) if a < 0 else (a + b, -b)
        return (a, b)
    raise ValueError("cannot canonicalize type %s" % t)


def weyl_dimension(t: WeylType, lam: Sequence) -> int:
    """Weyl dimension formula: prod <lam+rho, a> / <rho, a> over positive roots,
    for a dominant half-integral weight lam."""
    if len(lam) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(lam)))
    lam2 = [2 * Fraction(x) for x in lam]
    if any(x.denominator != 1 for x in lam2):
        raise ValueError("weight %s is not half-integral" % (tuple(lam),))
    return _dimension2(_dimension_table(t), [int(x) for x in lam2])


@functools.cache
def _dimension_table(t: WeylType) -> tuple:
    """Per non-trivial factor of t: (family, the factor's slice of the
    coordinates, 2·rho, the formula's denominator) for ``_dimension2``."""
    table = []
    pos = 0
    for f in t.factors or (t,):
        k = f.ncoords
        if f.family != "Trivial":
            rho2 = _rho2(f)
            table.append((f.family, slice(pos, pos + k), rho2, _root_product(f.family, rho2)))
        pos += k
    return tuple(table)


def _dimension2(table: tuple, lam2: Sequence[int]) -> int:
    """The Weyl dimension of the weight with doubled coordinates lam2, from
    the type's ``_dimension_table``."""
    out = 1
    for fam, sl, rho2, den in table:
        block = lam2[sl]
        if not _dominant(fam, block):
            raise ValueError("doubled weight %s is not dominant for %s" % (list(block), fam))
        num = _root_product(fam, [x + r for x, r in zip(block, rho2)])
        if num % den:
            raise AssertionError("non-integral Weyl dimension %s/%s" % (num, den))
        out *= num // den
    if out <= 0:
        raise AssertionError("non-positive Weyl dimension %d" % out)
    return out


@functools.cache
def _pair_getters(n: int) -> tuple:
    """Two functions from n coordinates to the tuples of the first and of the
    second coordinates of the pairs i < j, in the same order."""
    pairs = tuple(itertools.combinations(range(n), 2))
    if len(pairs) < 2:  # itemgetter returns a tuple only for two indices or more
        return (
            lambda a: tuple(a[i] for i, _ in pairs),
            lambda a: tuple(a[j] for _, j in pairs),
        )
    return (
        operator.itemgetter(*(i for i, _ in pairs)),
        operator.itemgetter(*(j for _, j in pairs)),
    )


def _root_product(fam: str, a: Sequence[int]) -> int:
    """The product over the positive roots of their pairings with the doubled
    weight a, each scaled alike (G2: through twice its Gram matrix)."""
    if fam == "G2":
        return math.prod(a[0] * g0 + a[1] * g1 for g0, g1 in _G2_ROOT_ROWS)
    first, second = _pair_getters(len(a))
    x, y = first(a), second(a)
    out = math.prod(map(operator.sub, x, y))
    if fam != "A":
        out *= math.prod(map(operator.add, x, y))
    if fam in ("B", "BC"):
        out *= math.prod(a)
    if fam in ("C", "BC"):
        out *= 2 ** len(a) * math.prod(a)
    return out


def _dominant(fam: str, v: Sequence) -> bool:
    """Dominance read off the coordinates: the pairings with the simple roots
    are v_i - v_(i+1) and, per family, v_n (B, BC), 2·v_n (C) or
    v_(n-1) + v_n (D); G2's omega-coordinates are its simple coroot pairings."""
    if fam == "G2":
        return v[0] >= 0 and v[1] >= 0
    for i in range(len(v) - 1):
        if v[i] < v[i + 1]:
            return False
    if fam in ("B", "C", "BC") and v and v[-1] < 0:
        return False
    if fam == "D" and len(v) >= 2 and v[-2] < abs(v[-1]):
        return False
    return True
