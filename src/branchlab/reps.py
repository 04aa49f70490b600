"""Compact-group descriptors, irrep labels with lattice validation, Casimir scalars.

Labels are validated and Casimirs computed on doubled integers: a label
keeps 2·(highest weight), which is integral for every half-integral weight,
and nothing here does ``Fraction`` arithmetic except to return the Casimir
value and to print a weight in an error message.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import weights
from .linalg import Vector
from .weights import WeylType

@dataclass(frozen=True)
class GroupDescriptor:
    """A compact group with enough data to compute on its weight lattice.

    ``kind`` is one of U/SU/SO/Spin/Sp/G2/Product, or "Named" for groups that
    appear only as display data (isotropy groups like iota7(SO(4))).  For
    Product, ``almost`` marks an almost-product (computations run on the
    product cover; the covering-kernel parity condition is ``sum_even``:
    the sum of all label coordinates must be an even integer).
    """

    kind: str
    n: int = 0
    factors: tuple["GroupDescriptor", ...] = field(default_factory=tuple)
    almost: bool = False
    label: str = ""  # display name override

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "Product":
            sep = "·" if self.almost else "×"
            return sep.join(f.name for f in self.factors)
        if self.kind == "G2":
            return "G2(-14)"
        return "%s(%d)" % (self.kind, self.n)

    @property
    def weyl(self) -> WeylType:
        k = self.kind
        if k in ("U", "SU"):
            return weights.A(self.n - 1) if self.n >= 2 else weights.Trivial(1)
        if k in ("SO", "Spin"):
            if self.n == 2:
                return weights.Trivial(1)
            if self.n % 2 == 1:
                return weights.B(self.n // 2)
            return weights.D(self.n // 2)
        if k == "Sp":
            return weights.C(self.n)
        if k == "G2":
            return weights.G2
        if k == "Product":
            return weights.Product(*(f.weyl for f in self.factors))
        raise ValueError("group %s carries no root data" % self.name)

    @property
    def rank(self) -> int:
        return self.weyl.ncoords

    @property
    def rho(self) -> Vector:
        return weights.rho(self.weyl)

    def factor_slices(self) -> list[tuple["GroupDescriptor", slice]]:
        if self.kind != "Product":
            return [(self, slice(0, self.rank))]
        out = []
        pos = 0
        for f in self.factors:
            out.append((f, slice(pos, pos + f.rank)))
            pos += f.rank
        return out

    def _validate2(self, w2: tuple[int, ...]) -> None:
        """Raise ValueError unless the doubled weight w2 is a highest weight."""
        if len(w2) != self.rank:
            raise ValueError(
                "%s expects %d coordinates, got %d" % (self.name, self.rank, len(w2))
            )
        if self.kind == "Product":
            for f, sl in self.factor_slices():
                f._validate2(w2[sl])
            if self.almost and sum(w2) % 4:
                raise ValueError(
                    "label %s fails the covering parity of %s" % (_halve(w2), self.name)
                )
            return
        if not weights.is_dominant(self.weyl, w2):
            raise ValueError("label %s is not dominant for %s" % (_halve(w2), self.name))
        odd = [x & 1 for x in w2]
        if self.kind == "Spin":
            if any(odd) and not all(odd):
                raise ValueError("Spin label %s mixes integrality classes" % (_halve(w2),))
        elif any(odd):
            if self.kind == "G2":
                raise ValueError("G2 label %s must be integral" % (_halve(w2),))
            raise ValueError("%s label %s must be integral" % (self.name, _halve(w2)))


def _halve(w2: Sequence[int]) -> Vector:
    return tuple(Fraction(x, 2) for x in w2)


def U(n):
    return GroupDescriptor("U", n)


def SU(n):
    return GroupDescriptor("SU", n)


def SO(n):
    return GroupDescriptor("SO", n)


def Spin(n):
    return GroupDescriptor("Spin", n)


def Sp(n):
    return GroupDescriptor("Sp", n)


def G2Group():
    return GroupDescriptor("G2", 2)


def ProductGroup(*factors: GroupDescriptor, almost: bool = False, label: str = "") -> GroupDescriptor:
    return GroupDescriptor("Product", 0, tuple(factors), almost, label)


def Named(label: str) -> GroupDescriptor:
    return GroupDescriptor("Named", 0, (), False, label)


@dataclass(frozen=True, init=False)
class IrrepLabel:
    """An irreducible representation of ``group`` by its highest weight,
    validated and kept doubled: ``doubled`` is 2·highest_weight in integers."""

    group: GroupDescriptor
    doubled: tuple[int, ...]

    def __init__(self, group: GroupDescriptor, highest_weight: Sequence):
        self._set(group, weights._double(highest_weight))

    @classmethod
    def from_doubled(cls, group: GroupDescriptor, doubled: Sequence[int]) -> "IrrepLabel":
        label = cls.__new__(cls)
        label._set(group, tuple(doubled))
        return label

    def _set(self, group: GroupDescriptor, doubled: tuple[int, ...]) -> None:
        group._validate2(doubled)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "doubled", doubled)


@functools.cache
def _casimir_plan(group: GroupDescriptor) -> tuple:
    """Per factor of group: (its kind, its rank, its slice, 4·rho)."""
    return tuple(
        (f.kind, f.rank, sl, tuple(2 * r for r in weights._rho2(f.weyl)))
        for f, sl in group.factor_slices()
    )


def _casimir2(kind: str, n: int, w2: Sequence[int], rho4: Sequence[int]) -> Fraction:
    """<lam, lam + 2 rho> of a simple group from lam2 = 2·lam: it is
    <lam2, lam2 + 4·rho> / 4, less the SU trace term; G2 pairs through twice
    its Gram matrix, which gives 8 times the value."""
    shifted = [a + r for a, r in zip(w2, rho4)]
    if kind == "G2":
        gram = weights._G2_GRAM2
        return Fraction(
            sum(w2[i] * gram[i][j] * shifted[j] for i in range(2) for j in range(2)), 8
        )
    value = sum(a * b for a, b in zip(w2, shifted))
    if kind == "SU":
        # Trace-free normalization: the U(n) coordinates are defined modulo the
        # diagonal direction, which is orthogonal to every root.
        s = sum(w2)
        return Fraction(n * value - s * s, 4 * n)
    return Fraction(value, 4)


def casimir_eigenvalue(r: IrrepLabel):
    """<lam, lam + 2 rho> with B(e_i, e_i) = 1 (G2: short root of length 1).

    Returns a Fraction for a simple group and a tuple of per-factor values for
    a product or almost-product.
    """
    values = tuple(
        _casimir2(kind, n, r.doubled[sl], rho4)
        for kind, n, sl, rho4 in _casimir_plan(r.group)
    )
    return values if r.group.kind == "Product" else values[0]
