"""The polynomial model C[x, y, z] of the invariant-operator ring for the
product-overgroup case: generators, subalgebra membership by exact linear
algebra, the symmetry witness for x not lying in R, and the constructive
R + R·x module decomposition.
"""

from __future__ import annotations

import math
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
        if k < 0:
            raise ValueError("negative exponent %d" % k)
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
        out: dict[tuple[int, int, int], Fraction] = {}
        for (a, b, c), coeff in self.terms.items():
            out[(a, b, 0)] = out.get((a, b, 0), 0) + coeff * value ** c
        return Poly(out)

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


def _int_terms(p: Poly) -> tuple[dict, int]:
    """p as integer terms over a positive denominator: p = terms / den."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


def _int_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int, int], int] = {}
    for (a0, a1, a2), c1 in a.items():
        for (b0, b1, b2), c2 in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _axpy(acc: dict, factor: int, vec: dict) -> None:
    """acc += factor * vec, in place; zero entries may remain."""
    for k, c in vec.items():
        acc[k] = acc.get(k, 0) + factor * c


def _mono_key(mono):
    return (sum(mono), mono)


def _primitive(terms: dict, payload: dict, pivot) -> tuple[dict, dict, int]:
    """The row (terms, payload, den) with zeros dropped and the common gcd
    divided out; den = terms[pivot]."""
    terms = {m: c for m, c in terms.items() if c}
    payload = {k: c for k, c in payload.items() if c}
    g = math.gcd(*terms.values(), *payload.values())
    terms = {m: c // g for m, c in terms.items()}
    payload = {k: c // g for k, c in payload.items()}
    return terms, payload, terms[pivot]


class _Echelon:
    """Reduced row echelon form over the integers, with combination tracking.

    ``rows`` maps each pivot monomial to a row (terms, payload, den) standing
    for the vector terms/den.  The pivot is the row's graded-lex leading
    monomial; terms[pivot] = den, and every other pivot column is zero in the
    row.  payload holds integer coefficients on the generator products with
    sum(payload · products) = terms, and each row is primitive: the gcd of all
    its terms and payload entries is 1.  Rows are never mutated, so a copy of
    ``rows`` is an independent echelon.
    """

    def __init__(self, rows: Optional[dict] = None):
        self.rows: dict[tuple, tuple[dict, dict, int]] = dict(rows or {})

    def reduce(self, vec: dict) -> tuple[int, dict, dict]:
        """(scale, residual, used) with scale·vec = residual + sum(used ·
        products) and residual zero in every pivot column: one row operation
        per pivot monomial of vec.  vec lies in the span iff residual is 0."""
        hits = [(c, self.rows[m]) for m, c in vec.items() if m in self.rows]
        scale = math.lcm(*(den for _, (_, _, den) in hits))
        residual = {m: scale * c for m, c in vec.items()}
        used: dict = {}
        for c, (terms, payload, den) in hits:
            factor = c * (scale // den)
            _axpy(residual, -factor, terms)
            _axpy(used, factor, payload)
        return scale, {m: c for m, c in residual.items() if c}, used

    def insert(self, vec: dict, payload: dict) -> bool:
        """Add vec = sum(payload · products) as a row unless it lies in the
        span already; keep the echelon reduced."""
        scale, residual, used = self.reduce(vec)
        if not residual:
            return False
        combined = {k: scale * c for k, c in payload.items()}
        _axpy(combined, -1, used)
        pivot = max(residual, key=_mono_key)
        new_terms, new_payload, new_den = _primitive(residual, combined, pivot)
        for p, (terms, row_payload, den) in list(self.rows.items()):
            c = terms.get(pivot)
            if c:
                terms = {m: new_den * v for m, v in terms.items()}
                row_payload = {k: new_den * v for k, v in row_payload.items()}
                _axpy(terms, -c, new_terms)
                _axpy(row_payload, -c, new_payload)
                self.rows[p] = _primitive(terms, row_payload, p)
        self.rows[pivot] = (new_terms, new_payload, new_den)
        return True


class _Span:
    """The span of the generator products of one generator set, for every
    degree bound asked for so far.

    Each product prod g^e is built once, in integers, and filed by its
    degree, counting a generator of degree 0 as degree 1; the products within
    degree bound d are the levels 0..d.  The solver for bound d is the solver
    for bound d-1 with level d inserted.
    """

    def __init__(self, gens: dict[str, Poly]):
        self.names = tuple(sorted(gens))
        self.gens = [(max(gens[k].degree(), 1), *_int_terms(gens[k])) for k in self.names]
        # Product index -> exponent tuple; levels[w] lists (index, terms, den).
        self.exps: list[tuple[int, ...]] = [(0,) * len(self.names)]
        self.levels: list[list[tuple[int, dict, int]]] = [[(0, {(0, 0, 0): 1}, 1)]]
        # Bound -1 spans nothing; every other solver extends the one below it.
        self.solvers: dict[int, _Echelon] = {-1: _Echelon()}

    def _level(self, w: int) -> list:
        while len(self.levels) <= w:
            top = len(self.levels)
            level = []
            for i, (gdeg, gterms, gden) in enumerate(self.gens):
                if gdeg > top:
                    continue
                # Extend only products whose last nonzero exponent is at
                # generator i or before, so each exponent tuple comes once.
                for idx, terms, den in self.levels[top - gdeg]:
                    exps = self.exps[idx]
                    if any(exps[i + 1:]):
                        continue
                    self.exps.append(exps[:i] + (exps[i] + 1,) + exps[i + 1:])
                    level.append((len(self.exps) - 1, _int_mul(terms, gterms), den * gden))
            self.levels.append(level)
        return self.levels[w]

    def solver(self, degree_bound: int) -> _Echelon:
        if degree_bound not in self.solvers:
            below = max(b for b in self.solvers if b < degree_bound)
            solver = self.solvers[below]
            for w in range(below + 1, degree_bound + 1):
                solver = _Echelon(solver.rows)
                for idx, terms, den in self._level(w):
                    # terms = den · product, so the payload counts whole products.
                    solver.insert(terms, {idx: den})
                self.solvers[w] = solver
        return self.solvers[degree_bound]

    def combination(self, f: Poly, degree_bound: int) -> Optional[dict]:
        terms, den = _int_terms(f)
        scale, residual, used = self.solver(degree_bound).reduce(terms)
        if residual:
            return None
        return {
            tuple(zip(self.names, self.exps[idx])): Fraction(c, scale * den)
            for idx, c in used.items()
            if c
        }


# The one process-lifetime cache of this module: generator set -> _Span.
_SPAN_CACHE: dict = {}


def _cached_span(gens: dict[str, Poly]) -> _Span:
    key = tuple(sorted((k, tuple(sorted(p.terms.items()))) for k, p in gens.items()))
    span = _SPAN_CACHE.get(key)
    if span is None:
        span = _SPAN_CACHE[key] = _Span(gens)
    return span


def membership(f: Poly, gens: dict[str, Poly], degree_bound: int):
    """Expression of f in the subalgebra generated by ``gens`` within total
    degree <= degree_bound, or None.  Exact linear algebra over the monomial
    basis of generator products: a combination maps each product, keyed by
    every generator name with its exponent, to its nonzero coefficient."""
    if degree_bound < f.degree():
        raise ValueError(
            "degree bound %d below deg f = %d" % (degree_bound, f.degree())
        )
    return _cached_span(gens).combination(f, degree_bound)


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


def _base_members(gens: dict[str, Poly]):
    """z, s = x+y, w = xz+y, m = xy as explicit elements of R (exact identities)."""
    q, r1, r2, r4 = gens["q"], gens["r1"], gens["r2"], gens["r4"]
    one = Poly.const(1)
    z = Fraction(4, 3) * q + Poly.const(9)
    s = r1 - z - one
    w = Fraction(1, 4) * (r2 + 2 * r4 - s * s - (z + one) * (z + one))
    m = r4 + w - z
    return z, s, w, m


# R's generators and its members z, x+y, xz+y, xy written through them, built
# once for decompose_R_plus_Rx.
_R_GENERATORS = subalgebra_generators()
_BASE_MEMBERS = _base_members(_R_GENERATORS)


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
    z, s, _, m = _BASE_MEMBERS
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
    for part, name in ((g_total, "g"), (h_total, "h")):
        if not part.is_zero() and membership(part, _R_GENERATORS, max(part.degree(), 1)) is None:
            raise ValueError(
                "%s-part of the decomposition escapes R at degree %d"
                % (name, part.degree())
            )
    return g_total, h_total


def specialize_fiber(a: int) -> dict[str, Poly]:
    """The q_a specialization: substitute z = (a+3)^2 into the R-generators."""
    za = Fraction((a + 3) ** 2)
    return {name: p.substitute_z(za) for name, p in subalgebra_generators().items()}
