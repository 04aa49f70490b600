"""Exact weight-vector arithmetic: rho, Weyl canonicalization, dimensions.

Weights are in the standard orthonormal coordinates of each type, except G2
which uses the two-coordinate fundamental-weight basis (a, b) ↦ a·ω1 + b·ω2,
with the invariant form normalized so the short root has length 1.  No root
is listed: 2·rho has a closed form per family (``_rho2``), and the dimension
formula writes the positive roots' pairings in closed form
(``_root_product``).  The checks pass weights doubled, as integers, and
canonicalization and dominance keep the number type they get.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import Vector, vec

LETTERED = ("A", "B", "C", "D")


@dataclass(frozen=True)
class WeylType:
    family: str  # "A","B","C","D","G2","Trivial","Product"
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
        if self.family in ("B", "C", "D", "Trivial"):
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


# Twice the Gram matrix of (omega1, omega2) with |short root|^2 = 1, which is
# integral: the Gram matrix is ((3, 3/2), (3/2, 1)).
_G2_GRAM2 = ((6, 3), (3, 2))
# Per positive root a of G2, the integer vector 2·Gram·a: its dot product with
# a doubled weight 2w is 4·<w, a>.  The roots, in omega-coordinates, are
# alpha2, alpha1 + alpha2, alpha1 + 2 alpha2 (short), then alpha1,
# alpha1 + 3 alpha2, 2 alpha1 + 3 alpha2 (long).
_G2_ROOT_ROWS = ((0, 1), (3, 1), (3, 2), (3, 0), (3, 3), (6, 3))


def rho(t: WeylType) -> Vector:
    """Half the sum of the positive roots (zero vector for Trivial; per factor)."""
    return tuple(Fraction(x, 2) for x in _rho2(t))


@functools.cache
def _rho2(t: WeylType) -> tuple[int, ...]:
    """2·rho as integers, from its closed form per family (Bourbaki, Lie
    Groups, Ch. VI, Plates I-IX), built once per type."""
    fam, n = t.family, t.rank
    if fam == "Product":
        return sum((_rho2(f) for f in t.factors), ())
    if fam == "Trivial":
        return (0,) * n
    if fam == "A":
        return tuple(n - 2 * i for i in range(n + 1))
    if fam == "G2":
        return (2, 2)  # rho = omega1 + omega2
    if fam in LETTERED:  # B, C, D: 2·rho_i = 2(n - i) + c
        c = {"B": -1, "C": 0, "D": -2}[fam]
        return tuple(2 * (n - i) + c for i in range(n))
    raise ValueError("no positive system for type %s" % t)


def _double(w: Sequence) -> tuple[int, ...]:
    """2·w as integers; ValueError unless w is half-integral."""
    w2 = [2 * x for x in vec(w)]
    if any(x.denominator != 1 for x in w2):
        raise ValueError("weight %s is not half-integral" % (vec(w),))
    return tuple(int(x) for x in w2)


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
    if fam in ("B", "C"):
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
    return _dimension2(_dimension_table(t), _double(lam))


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
    if fam == "B":
        out *= math.prod(a)
    if fam == "C":
        out *= 2 ** len(a) * math.prod(a)
    return out


def _dominant(fam: str, v: Sequence) -> bool:
    """Dominance read off the coordinates: the pairings with the simple roots
    are v_i - v_(i+1) and, per family, v_n (B), 2·v_n (C) or
    v_(n-1) + v_n (D); G2's omega-coordinates are its simple coroot pairings."""
    if fam == "G2":
        return v[0] >= 0 and v[1] >= 0
    for i in range(len(v) - 1):
        if v[i] < v[i + 1]:
            return False
    if fam in ("B", "C") and v and v[-1] < 0:
        return False
    if fam == "D" and len(v) >= 2 and v[-2] < abs(v[-1]):
        return False
    return True
