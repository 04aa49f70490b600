"""The polynomial model C[x, y, z] of the invariant-operator ring for the
product-overgroup case: generators, subalgebra membership by exact linear
algebra, the symmetry witness for x not lying in R, and the constructive
R + R·x module decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

VARS = ("x", "y", "z")


class Poly:
    """Sparse exact-rational polynomial in x, y, z (no zero terms stored)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[tuple[int, int, int], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(0, 0, 0): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        i = VARS.index(name)
        exps = [0, 0, 0]
        exps[i] = 1
        return cls({tuple(exps): 1})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            new = out.get(e, Fraction(0)) + c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        out: dict[tuple[int, int, int], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                new = out.get(e, Fraction(0)) + c1 * c2
                if new:
                    out[e] = new
                else:
                    out.pop(e, None)
        return Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def __pow__(self, k: int) -> "Poly":
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, x, y, z) -> Fraction:
        vals = (Fraction(x), Fraction(y), Fraction(z))
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    def substitute_z(self, value) -> "Poly":
        value = Fraction(value)
        out = Poly()
        for (a, b, c), coeff in self.terms.items():
            out = out + Poly({(a, b, 0): coeff * value ** c})
        return out

    def swap_xy(self) -> "Poly":
        return Poly({(b, a, c): coeff for (a, b, c), coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "".join(
                "%s%s" % (v, "^%d" % k if k > 1 else "") for v, k in zip(VARS, e) if k
            )
            bits.append("%s%s" % (c, ("*" + mono) if mono else ""))
        return " + ".join(bits)


def _coerce(p) -> Poly:
    return p if isinstance(p, Poly) else Poly.const(p)


X, Y, Z = (Poly.var(v) for v in VARS)

# z, x+y, xz+y, xy: the members of R the product-overgroup suite certifies.
R_MEMBERS = (Z, X + Y, X * Z + Y, X * Y)
# Generator of the model -> the star record's symbol it must agree with at
# x = (j+3)^2, y = (j'+3)^2, z = (a+3)^2.
SYMBOL_PAIRS = (
    ("r1", "R_1"),
    ("r2", "R_2"),
    ("r3", "R_3"),
    ("r4", "R_4"),
    ("q", "C_K"),
    ("p1", "C_Gt1"),
    ("p2", "C_Gt2"),
)


def dgx_generators() -> dict[str, Poly]:
    """The seven generators of the polynomial model, built in factored form."""
    one = Poly.const(1)
    return {
        "r1": X + Y + Z + one,
        "r2": X ** 2 + 6 * Z * X + Z ** 2 + Y ** 2 + 6 * Y + one,
        "r3": X ** 3
        + 15 * Z * X ** 2
        + 15 * Z ** 2 * X
        + Z ** 3
        + Y ** 3
        + 15 * Y ** 2
        + 15 * Y
        + one,
        "r4": (X - one) * (Y - Z),
        "q": Fraction(3, 4) * (Z - Poly.const(9)),
        "p1": X - Poly.const(9),
        "p2": Y - Poly.const(9),
    }


def subalgebra_generators() -> dict[str, Poly]:
    """The generators of R = <dr(Z(k_C)), dl(Z(g_C))>: q and r1..r4."""
    gens = dgx_generators()
    return {k: gens[k] for k in ("q", "r1", "r2", "r3", "r4")}


def _generator_products(gens: dict[str, Poly], degree_bound: int):
    """All products prod g^e (including the empty product) of total degree
    <= degree_bound, keyed by the exponent dict."""
    names = sorted(gens)
    degs = {k: max(gens[k].degree(), 1) for k in names}
    out = []

    def rec(i: int, exps: dict, poly: Poly, deg: int):
        if i == len(names):
            out.append((dict(exps), poly))
            return
        name = names[i]
        e = 0
        current = poly
        while deg + e * degs[name] <= degree_bound:
            exps[name] = e
            rec(i + 1, exps, current, deg + e * degs[name])
            e += 1
            current = current * gens[name]
            if current.degree() > degree_bound:
                break
        exps.pop(name, None)

    rec(0, {}, Poly.const(1), 0)
    return out


def _mono_key(mono):
    return (sum(mono), mono)


class _Echelon:
    """Incremental sparse row reduction with combination tracking.

    Rows are dicts monomial -> coefficient; each stored row is normalized to
    have coefficient 1 at its pivot (the graded-lex largest monomial), and the
    payload records the generator-product combination the row stands for.
    """

    def __init__(self):
        self.rows: dict[tuple, tuple[dict, dict]] = {}

    @staticmethod
    def _pivot(vec: dict):
        return max(vec, key=_mono_key) if vec else None

    def reduce(self, vec: dict, payload: dict) -> tuple[dict, dict]:
        vec = dict(vec)
        payload = dict(payload)
        while vec:
            pivot = self._pivot(vec)
            hit = self.rows.get(pivot)
            if hit is None:
                break
            factor = vec[pivot]
            row, row_payload = hit
            for m, c in row.items():
                new = vec.get(m, Fraction(0)) - factor * c
                if new:
                    vec[m] = new
                else:
                    vec.pop(m, None)
            for k, c in row_payload.items():
                new = payload.get(k, Fraction(0)) + factor * c
                if new:
                    payload[k] = new
                else:
                    payload.pop(k, None)
        return vec, payload

    def insert(self, vec: dict, payload: dict) -> bool:
        # Stored-row invariant: row_vec = sum(row_payload · products).
        residual, delta = self.reduce(vec, {})
        if not residual:
            return False
        combined = dict(payload)
        for k, c in delta.items():
            new = combined.get(k, Fraction(0)) - c
            if new:
                combined[k] = new
            else:
                combined.pop(k, None)
        pivot = self._pivot(residual)
        inv = 1 / residual[pivot]
        self.rows[pivot] = (
            {m: c * inv for m, c in residual.items()},
            {k: c * inv for k, c in combined.items()},
        )
        return True


def _span_solver(gens_items: tuple, degree_bound: int) -> _Echelon:
    gens = dict(gens_items)
    ech = _Echelon()
    for exps, prod in _generator_products(gens, degree_bound):
        key = tuple(sorted(exps.items()))
        ech.insert(dict(prod.terms), {key: Fraction(1)})
    return ech


_SPAN_CACHE: dict = {}


def _cached_span(gens: dict[str, Poly], degree_bound: int) -> _Echelon:
    key = (tuple(sorted((k, tuple(sorted(p.terms.items()))) for k, p in gens.items())), degree_bound)
    solver = _SPAN_CACHE.get(key)
    if solver is None:
        solver = _span_solver(tuple(gens.items()), degree_bound)
        _SPAN_CACHE[key] = solver
    return solver


def membership(f: Poly, gens: dict[str, Poly], degree_bound: int):
    """Expression of f in the subalgebra generated by ``gens`` within total
    degree <= degree_bound, or None.  Exact linear algebra over the monomial
    basis of generator products."""
    if degree_bound < f.degree():
        raise ValueError(
            "degree bound %d below deg f = %d" % (degree_bound, f.degree())
        )
    solver = _cached_span(gens, degree_bound)
    residual, payload = solver.reduce(dict(f.terms), {})
    if residual:
        return None
    return {k: c for k, c in payload.items() if c}


def combination_value(combination: dict, gens: dict[str, Poly]) -> Poly:
    """Reassemble a membership() combination into the polynomial it denotes."""
    total = Poly()
    for key, coeff in combination.items():
        prod = Poly.const(1)
        for name, e in key:
            prod = prod * gens[name] ** e
        total = total + coeff * prod
    return total


@dataclass(frozen=True)
class SymmetryWitness:
    """Transcript of the z = 1 swap-symmetry argument certifying x not in R."""

    symmetric_generators: tuple[str, ...]
    asymmetric_target: str
    target_specialization: Poly
    passed: bool


def x_not_in_R_witness() -> SymmetryWitness:
    """Every generator of R specialized at z = 1 is x<->y symmetric while x is
    not, so no polynomial in the generators can equal x — at any degree."""
    gens = subalgebra_generators()
    symmetric = []
    for name, p in sorted(gens.items()):
        sp = p.substitute_z(1)
        if sp != sp.swap_xy():
            return SymmetryWitness(tuple(symmetric), name, sp, False)
        symmetric.append(name)
    target = X.substitute_z(1)
    ok = target != target.swap_xy()
    return SymmetryWitness(tuple(symmetric), "x", target, ok)


def _base_members():
    """z, s = x+y, w = xz+y, m = xy as explicit elements of R (exact identities)."""
    gens = subalgebra_generators()
    q, r1, r2, r4 = gens["q"], gens["r1"], gens["r2"], gens["r4"]
    one = Poly.const(1)
    z = Fraction(4, 3) * q + Poly.const(9)
    s = r1 - z - one
    w = Fraction(1, 4) * (r2 + 2 * r4 - s * s - (z + one) * (z + one))
    m = r4 + w - z
    return z, s, w, m


def _x_power(k: int, s: Poly, m: Poly) -> tuple[Poly, Poly]:
    """x^k = g + h·x with g, h in R, via x^2 = -xy + (x+y)·x."""
    g, h = Poly.const(1), Poly()
    for _ in range(k):
        g, h = -(m * h), g + s * h
    return g, h


def _y_power(k: int, s: Poly, m: Poly) -> tuple[Poly, Poly]:
    """y^k = g + h·x, via y = (x+y) - x."""
    g, h = Poly.const(1), Poly()
    for _ in range(k):
        g, h = s * g + m * h, -g
    return g, h


def decompose_R_plus_Rx(f: Poly, degree_bound: int):
    """f = g + h·x with g and h in R; the identity is exact and both parts are
    certified in R by the membership solver.

    Constructive: z, x+y, xz+y, xy lie in R, and x^n, y^n lie in R + R·x by
    the recursion x^2 = -xy + (x+y)·x; a monomial x^l y^m z^n strips z and xy
    factors and reduces to a pure power.  Raises if f exceeds the bound.
    """
    if f.degree() > degree_bound:
        raise ValueError("degree bound %d below deg f = %d" % (degree_bound, f.degree()))
    z, s, w, m = _base_members()
    g_total, h_total = Poly(), Poly()
    for (ex, ey, ez), coeff in f.terms.items():
        common = min(ex, ey)
        prefix = coeff * (z ** ez) * (m ** common)
        if ex - common:
            g, h = _x_power(ex - common, s, m)
        elif ey - common:
            g, h = _y_power(ey - common, s, m)
        else:
            g, h = Poly.const(1), Poly()
        g_total = g_total + prefix * g
        h_total = h_total + prefix * h
    if (g_total + h_total * X) != f:
        raise AssertionError("inexact recomposition for %r" % (f,))
    gens = subalgebra_generators()
    for part, name in ((g_total, "g"), (h_total, "h")):
        if not part.is_zero() and membership(part, gens, max(part.degree(), 1)) is None:
            raise ValueError(
                "%s-part of the decomposition escapes R at degree %d"
                % (name, part.degree())
            )
    return g_total, h_total


def specialize_fiber(a: int) -> dict[str, Poly]:
    """The q_a specialization: substitute z = (a+3)^2 into the R-generators."""
    za = Fraction((a + 3) ** 2)
    return {name: p.substitute_z(za) for name, p in subalgebra_generators().items()}
