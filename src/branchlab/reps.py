"""Compact-group descriptors, irrep labels with lattice validation, Casimir scalars."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import weights
from .linalg import Vector, vec
from .weights import WeylType

COMPUTABLE_KINDS = ("U", "SU", "SO", "Spin", "Sp", "G2", "Product")


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

    def validate_weight(self, w: Sequence) -> None:
        w = vec(w)
        if len(w) != self.rank:
            raise ValueError(
                "%s expects %d coordinates, got %d" % (self.name, self.rank, len(w))
            )
        if self.kind == "Product":
            for f, sl in self.factor_slices():
                f.validate_weight(w[sl])
            if self.almost and (sum(w) % 2) != 0:
                raise ValueError(
                    "label %s fails the covering parity of %s" % (w, self.name)
                )
            return
        if not weights.is_dominant(self.weyl, w):
            raise ValueError("label %s is not dominant for %s" % (w, self.name))
        if self.kind == "Spin":
            frac = {x % 1 for x in w}
            if not (frac <= {Fraction(0)} or frac <= {Fraction(1, 2)}):
                raise ValueError("Spin label %s mixes integrality classes" % (w,))
        elif self.kind == "G2":
            if any(x.denominator != 1 for x in w):
                raise ValueError("G2 label %s must be integral" % (w,))
        else:
            if any(x.denominator != 1 for x in w):
                raise ValueError("%s label %s must be integral" % (self.name, w))


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


@dataclass(frozen=True)
class IrrepLabel:
    group: GroupDescriptor
    highest_weight: Vector

    def __post_init__(self):
        object.__setattr__(self, "highest_weight", vec(self.highest_weight))
        self.group.validate_weight(self.highest_weight)

    def factor(self, i: int) -> "IrrepLabel":
        f, sl = self.group.factor_slices()[i]
        return IrrepLabel(f, self.highest_weight[sl])

    def dimension(self) -> int:
        return weights.weyl_dimension(self.group.weyl, self.highest_weight)


def _simple_casimir(group: GroupDescriptor, w: Vector) -> Fraction:
    t = group.weyl
    r = weights.rho(t)
    value = weights.pairing(t, w, w) + 2 * weights.pairing(t, w, r)
    if group.kind == "SU":
        # Trace-free normalization: the U(n) coordinates are defined modulo the
        # diagonal direction, which is orthogonal to every root.
        s = sum(w)
        value -= s * s / Fraction(group.rank)
    return value


def casimir_eigenvalue(r: IrrepLabel):
    """<lam, lam + 2 rho> with B(e_i, e_i) = 1 (G2: short root of length 1).

    Returns a Fraction for a simple group and a tuple of per-factor values for
    a product or almost-product.
    """
    g = r.group
    if g.kind == "Product":
        return tuple(
            _simple_casimir(f, r.highest_weight[sl]) for f, sl in g.factor_slices()
        )
    return _simple_casimir(g, r.highest_weight)
