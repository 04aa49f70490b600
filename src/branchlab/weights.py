"""Exact weight-vector arithmetic: root systems, Weyl canonicalization, dimensions.

Weights are tuples of ``Fraction`` in the standard orthonormal coordinates of
each type, except G2 which uses the two-coordinate fundamental-weight basis
(a, b) ↦ a·ω1 + b·ω2, with the invariant form normalized so the short root has
length 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import Vector, dot, vec, vsub

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

# Gram matrix of (omega1, omega2) with |short root|^2 = 1.
_G2_GRAM = ((Fraction(3), Fraction(3, 2)), (Fraction(3, 2), Fraction(1)))


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


def simple_roots(t: WeylType) -> list[Vector]:
    fam, n = t.family, t.rank
    if fam == "A":
        m = n + 1
        return [vsub(_unit(m, i), _unit(m, i + 1)) for i in range(n)]
    if fam in ("B", "C", "D", "BC"):
        roots = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        if fam == "B":
            roots.append(_unit(n, n - 1))
        elif fam == "C":
            roots.append(_unit(n, n - 1, 2))
        elif fam == "BC":
            roots.append(_unit(n, n - 1))
        else:  # D
            if n < 2:
                raise ValueError("D requires rank >= 2")
            roots.append(tuple(a + b for a, b in zip(_unit(n, n - 2), _unit(n, n - 1))))
        return roots
    if fam == "G2":
        return [vec((2, -3)), vec((-1, 2))]  # alpha1 (long), alpha2 (short)
    raise ValueError("no simple system for type %s" % t)


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


def pairing(t: WeylType, v: Sequence, w: Sequence) -> Fraction:
    """Invariant form; plain dot except in the G2 omega-basis (Gram matrix)."""
    v, w = vec(v), vec(w)
    if t.family == "G2":
        return sum(
            v[i] * _G2_GRAM[i][j] * w[j] for i in range(2) for j in range(2)
        )
    if t.family == "Product":
        out = Fraction(0)
        pos = 0
        for f in t.factors:
            k = f.ncoords
            out += pairing(f, v[pos : pos + k], w[pos : pos + k])
            pos += k
        return out
    return dot(v, w)


def _split(t: WeylType, v: Vector) -> list[tuple[WeylType, Vector]]:
    parts = []
    pos = 0
    for f in t.factors:
        k = f.ncoords
        parts.append((f, v[pos : pos + k]))
        pos += k
    return parts


def _g2_orbit(v: Vector) -> set[Vector]:
    def s1(w):
        return (-w[0], w[1] + 3 * w[0])

    def s2(w):
        return (w[0] + w[1], -w[1])

    seen = {tuple(v)}
    frontier = [tuple(v)]
    while frontier:
        w = frontier.pop()
        for img in (s1(w), s2(w)):
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def is_dominant(t: WeylType, v: Sequence) -> bool:
    """<v, a> >= 0 for every simple root a; on coordinates for the lettered types."""
    v = vec(v)
    if t.family == "Trivial":
        return True
    if t.family == "Product":
        return all(is_dominant(f, part) for f, part in _split(t, v))
    if t.family in LETTERED:
        if len(v) != t.ncoords:
            raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(v)))
        if t.family == "D" and t.rank < 2:
            raise ValueError("D requires rank >= 2")
        return _dominant_classical(t.family, v)
    return all(pairing(t, v, a) >= 0 for a in simple_roots(t))


def dominant_representative(t: WeylType, v: Sequence) -> Vector:
    """The unique dominant element of the Weyl orbit of v."""
    v = vec(v)
    if len(v) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(v)))
    fam = t.family
    if fam == "Trivial":
        return v
    if fam == "Product":
        return sum((dominant_representative(f, part) for f, part in _split(t, v)), ())
    if fam == "A":
        return tuple(sorted(v, reverse=True))
    if fam in ("B", "C", "BC"):
        return tuple(sorted((abs(x) for x in v), reverse=True))
    if fam == "D":
        flips = sum(1 for x in v if x < 0)
        out = sorted((abs(x) for x in v), reverse=True)
        if flips % 2 == 1 and out[-1] != 0:
            out[-1] = -out[-1]
        return tuple(out)
    if fam == "G2":
        for w in _g2_orbit(v):
            if w[0] >= 0 and w[1] >= 0:
                return vec(w)
        raise AssertionError("G2 orbit without dominant element")
    raise ValueError("cannot canonicalize type %s" % t)


def _dim_classical(fam: str, a: list[int], b: list[int]) -> tuple[int, int]:
    """Numerator/denominator products over the positive system, doubled coords."""
    n = len(a)
    num = den = 1
    for i in range(n):
        ai, bi = a[i], b[i]
        for j in range(i + 1, n):
            num *= ai - a[j]
            den *= bi - b[j]
            if fam != "A":
                num *= ai + a[j]
                den *= bi + b[j]
        if fam in ("B", "BC"):
            num *= ai
            den *= bi
        if fam in ("C", "BC"):
            num *= 2 * ai
            den *= 2 * bi
    return num, den


def weyl_dimension(t: WeylType, rho_vec: Sequence, lam: Sequence) -> int:
    """Weyl dimension formula: prod <lam+rho, a> / <rho, a> over positive roots."""
    rho_vec, lam = vec(rho_vec), vec(lam)
    if t.family == "Trivial":
        return 1
    if t.family == "Product":
        out = 1
        pos = 0
        for f in t.factors:
            k = f.ncoords
            out *= weyl_dimension(f, rho_vec[pos : pos + k], lam[pos : pos + k])
            pos += k
        return out
    shifted = tuple(a + b for a, b in zip(lam, rho_vec))
    if t.family != "G2" and all(x.denominator in (1, 2) for x in shifted + rho_vec):
        # Integer fast path on doubled coordinates (the common half-integral case).
        lam2 = [int(2 * x) for x in lam]
        if not _dominant_classical(t.family, lam2):
            raise ValueError("weight %s is not dominant for %s" % (lam, t))
        a = [int(2 * x) for x in shifted]
        b = [int(2 * x) for x in rho_vec]
        num, den = _dim_classical(t.family, a, b)
        if den == 0 or num % den:
            raise AssertionError("non-integral Weyl dimension %s/%s" % (num, den))
        result = num // den
    else:
        if not is_dominant(t, lam):
            raise ValueError("weight %s is not dominant for %s" % (lam, t))
        num = Fraction(1)
        den = Fraction(1)
        for a in positive_roots(t):
            num *= pairing(t, vec(shifted), a)
            den *= pairing(t, rho_vec, a)
        ratio = num / den
        if ratio.denominator != 1:
            raise AssertionError("non-integral Weyl dimension %s" % ratio)
        result = int(ratio)
    if result <= 0:
        raise AssertionError("non-positive Weyl dimension %d" % result)
    return result


def _dominant_classical(fam: str, v: Sequence) -> bool:
    """Dominance read off the coordinates: the pairings with the simple roots
    are v_i - v_(i+1) and, per family, v_n (B, BC), 2·v_n (C) or
    v_(n-1) + v_n (D)."""
    for i in range(len(v) - 1):
        if v[i] < v[i + 1]:
            return False
    if fam in ("B", "C", "BC") and v and v[-1] < 0:
        return False
    if fam == "D" and len(v) >= 2 and v[-2] < abs(v[-1]):
        return False
    return True
