"""Exact weight-vector arithmetic: rho, Weyl canonicalization, dimensions.

Weights are in the standard orthonormal coordinates of each type, except G2
which uses the two-coordinate fundamental-weight basis (a, b) ↦ a·ω1 + b·ω2,
with the invariant form normalized so the short root has length 1.  No root
is listed: 2·rho has a closed form per family (``_rho2``), and the dimension
formula generates the positive roots' pairings per family (``_root_rows``).
The checks pass weights doubled, as integers, and canonicalization and
dominance keep the number type they get.

The box checks ask for a dimension and a canonical form at every point of a
box, for one type, so each Weyl-group test is compiled once per type into
one Python expression (``_dominance_kernel``, ``_canonical_kernel``,
``_dimension_kernel``), and that kernel is its only route:
``dominant_representative`` and ``weyl_dimension`` call it, as the box pass
does, and a group descriptor's label validation holds its type's dominance
kernel (``reps.GroupDescriptor._is_dominant``).  The source is written from
integers and the fixed family letters only, as a ``def _c0`` that
``nest.kernel`` compiles under the kernel's kind and type, such as
``<canonical kernel A(6) mod_trace>``; it reads the builtins and this
module's six helpers (``_HELPERS``) only, so a kernel makes no reference
cycle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import nest
from .linalg import Vector, int_affine_source, vec

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


def _wrong_length(n: int, v) -> None:
    raise ValueError("expected %d coordinates, got %d" % (n, len(v)))


def dominant_representative(t: WeylType, v: Sequence) -> tuple:
    """The unique dominant element of the Weyl orbit of v, in v's number type:
    the Weyl group acts by integer matrices, so doubled integers stay integers."""
    return _canonical_kernel(t, False)(v)


def _dominant_D(v) -> tuple:
    """The dominant representative for D: sign changes come in pairs."""
    flips = sum(1 for x in v if x < 0)
    out = sorted(map(abs, v), reverse=True)
    if flips % 2 == 1 and out[-1] != 0:
        out[-1] = -out[-1]
    return tuple(out)


def _dominant_G2(v) -> tuple:
    """The dominant representative for G2: reflect in a simple root with a
    negative pairing until there is none."""
    a, b = v
    while a < 0 or b < 0:
        a, b = (-a, b + 3 * a) if a < 0 else (a + b, -b)
    return (a, b)


# Per family, the source of the dominant representative of a slice.
_CANONICAL_SOURCE = {
    "Trivial": "tuple(%s)",
    "A": "tuple(sorted(%s, reverse=True))",
    "B": "tuple(sorted(map(abs, %s), reverse=True))",
    "C": "tuple(sorted(map(abs, %s), reverse=True))",
    "D": "_dominant_D(%s)",
    "G2": "_dominant_G2(%s)",
}


@functools.cache
def _canonical_kernel(t: WeylType, mod_trace: bool):
    """The dominant representative of a weight of t as one expression
    compiled once per type: a sort for type A, one slice per factor of a
    product, and G2's reflection loop.  With mod_trace the same function
    first takes n·v − sum(v), the trace direction removed and scaled by the
    coordinate count n to stay integral."""
    n = t.ncoords
    factors = t.factors or (t,)
    parts = []
    pos = 0
    for f in factors:
        if f.family not in _CANONICAL_SOURCE:
            raise ValueError("cannot canonicalize type %s" % f)
        k = f.ncoords
        part = "v" if len(factors) == 1 else "v[%d:%d]" % (pos, pos + k)
        parts.append(_CANONICAL_SOURCE[f.family] % part)
        pos += k
    trace = ("s = sum(v)", "v = [%d * x - s for x in v]" % n) if mod_trace else ()
    expr = "_wrong_length(%d, v) if len(v) != %d else %s" % (n, n, " + ".join(parts))
    name = "canonical kernel %s%s" % (t, " mod_trace" if mod_trace else "")
    return nest.kernel(nest.returning("v", expr, trace), name, _HELPERS)


def weyl_dimension(t: WeylType, lam: Sequence) -> int:
    """Weyl dimension formula: prod <lam+rho, a> / <rho, a> over positive roots,
    for a dominant half-integral weight lam."""
    if len(lam) != t.ncoords:
        _wrong_length(t.ncoords, lam)
    return _dimension_kernel(t)(_double(lam))


def _root_rows(fam: str, n: int) -> tuple:
    """Per positive root of the family on n coordinates, the sparse integer
    row ((index, coefficient), ...) whose product with a doubled weight 2w
    is the root's pairing with w, each scaled alike: e_i - e_j for i < j,
    then e_i + e_j (B, C, D), then e_i (B) or 2·e_i (C); G2's rows are
    ``_G2_ROOT_ROWS``."""
    if fam == "G2":
        return tuple(((0, g0), (1, g1)) for g0, g1 in _G2_ROOT_ROWS)
    if fam not in LETTERED:
        raise ValueError("no positive system for family %s" % fam)
    pairs = list(itertools.combinations(range(n), 2))
    rows = [((i, 1), (j, -1)) for i, j in pairs]
    if fam != "A":
        rows += [((i, 1), (j, 1)) for i, j in pairs]
    if fam in ("B", "C"):
        rows += [((i, 1 if fam == "B" else 2),) for i in range(n)]
    return tuple(rows)


@functools.cache
def _dimension_kernel(t: WeylType):
    """The Weyl dimension from doubled coordinates lam2, as one expression
    compiled once per type.  Per non-trivial factor, in order: the dominance
    test (ValueError), the product of the positive roots' pairings with
    lam2 + 2·rho, 2·rho folded into each row's constant, and its quotient by
    the same product at 2·rho (AssertionError if that does not divide); then
    the product of the quotients (AssertionError unless positive).  A wrong
    number of coordinates is a ValueError."""
    n = t.ncoords
    branches, dims = [], []
    pos = 0
    for k, f in enumerate(t.factors or (t,)):
        m = f.ncoords
        if f.family != "Trivial":
            rho2 = _rho2(f)
            den, pairings = 1, []
            for row in _root_rows(f.family, m):
                const = sum(x * rho2[i] for i, x in row)
                den *= const
                pairings.append(int_affine_source("a[%d]", ((pos + i, x) for i, x in row), const))
            branches.append(
                "_not_dominant(a[%d:%d], %r) if not (%s) else"
                % (pos, pos + m, f.family, _dominance_source(f.family, pos, m))
            )
            branches.append(
                "_non_integral(d%d, %d) if (d%d := %s) %% %d else"
                % (k, den, k, " * ".join(pairings) or "1", den)
            )
            dims.append("d%d // %d" % (k, den))
        pos += m
    total = "(d if (d := %s) > 0 else _non_positive(d))" % (" * ".join(dims) or "1")
    expr = "_wrong_length(%d, a) if len(a) != %d else %s %s" % (n, n, " ".join(branches), total)
    return nest.kernel(nest.returning("a", expr), "dimension kernel %s" % t, _HELPERS)


@functools.cache
def _dominance_kernel(t: WeylType):
    """Dominance of a weight of t as one expression compiled once per type:
    ``_dominance_source`` of each non-trivial factor.  A type with no simple
    system, a D factor of rank < 2 and a wrong number of coordinates are a
    ValueError."""
    n = t.ncoords
    conds = []
    pos = 0
    for f in t.factors or (t,):
        if f.family not in LETTERED + ("G2", "Trivial"):
            raise ValueError("no simple system for type %s" % f)
        if f.family == "D" and f.rank < 2:
            raise ValueError("D requires rank >= 2")
        if f.family != "Trivial":
            conds.append("(%s)" % _dominance_source(f.family, pos, f.ncoords))
        pos += f.ncoords
    expr = "_wrong_length(%d, a) if len(a) != %d else %s" % (n, n, " and ".join(conds) or "True")
    return nest.kernel(nest.returning("a", expr), "dominance kernel %s" % t, _HELPERS)


def _dominance_rows(fam: str, m: int) -> tuple:
    """Per simple root of the family on m coordinates, the sparse integer
    row ((index, coefficient), ...) whose product with a weight is >= 0 on
    a dominant weight: a_i - a_(i+1), then a_n (B), 2·a_n (C) or a_(n-1) +
    a_n (D); G2's omega-coordinates are its simple coroot pairings."""
    if fam == "G2":
        return (((0, 1),), ((1, 1),))
    rows = [((i, 1), (i + 1, -1)) for i in range(m - 1)]
    if fam in ("B", "C"):
        rows.append(((m - 1, 1 if fam == "B" else 2),))
    if fam == "D" and m >= 2:
        rows.append(((m - 2, 1), (m - 1, 1)))
    return tuple(rows)


def _dominance_source(fam: str, pos: int, m: int) -> str:
    """The source of the dominance test on the m coordinates a[pos:pos + m],
    one condition per row of ``_dominance_rows``."""
    conds = [
        "%s >= 0" % int_affine_source("a[%d]", ((pos + i, c) for i, c in row), 0)
        for row in _dominance_rows(fam, m)
    ]
    return " and ".join(conds) or "True"


def _not_dominant(block, fam: str):
    raise ValueError("doubled weight %s is not dominant for %s" % (list(block), fam))


def _non_integral(num: int, den: int):
    raise AssertionError("non-integral Weyl dimension %s/%s" % (num, den))


def _non_positive(dim: int):
    raise AssertionError("non-positive Weyl dimension %d" % dim)


# The functions the compiled kernels read besides the builtins.
_HELPERS = (_wrong_length, _dominant_D, _dominant_G2, _not_dominant, _non_integral, _non_positive)
