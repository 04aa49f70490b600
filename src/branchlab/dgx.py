"""The polynomial model C[x, y, z] of the invariant-operator ring for the
product-overgroup case: generators, subalgebra membership by exact linear
algebra, the symmetry witness for x not lying in R, and the constructive
R + R·x module decomposition.

A ``Poly`` is integer numerators over one positive denominator in lowest
terms, so its arithmetic, its evaluation at integer points and the echelon
rows built from it all run in integers: an int constant or coerced int is
its own numerator over 1, and a power squares the numerators.  A
``Fraction`` is built only for each coefficient given to the constructor,
for ``Poly.terms`` (the exact-rational view), for ``evaluate``'s result,
for ``substitute_z`` and for a combination's coefficients.  The span of
the generator products within each degree bound is a
``linalg.IntEchelon`` grown from the rows the bound below added, times a
generator, so no product is built (``_Span``).  ``in_subalgebra`` decides
on rows that carry nothing else; ``membership`` on rows that carry the
combination of products each equals.  The checks only decide, so they never
build a payload row.
``decompose_R_plus_Rx`` takes the powers of x and y it recombines from memos
grown to the largest exponent asked for, and finds R's span in the span
cache under a key computed once at import; ``in_subalgebra`` and
``membership`` key a caller's generator set by its content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import IntEchelon

VARS = ("x", "y", "z")


class Poly:
    """Sparse exact-rational polynomial in x, y, z: integer numerators over
    one positive denominator, p = num / den, in lowest terms (den and the
    numerators have gcd 1, the zero polynomial is {} / 1) and with no zero
    numerator stored.  So equal polynomials have equal (num, den), and every
    product runs in integers through ``_int_mul``.  ``terms`` is the
    exact-rational view {(a, b, c): Fraction}, a fresh dict on every read.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: Optional[dict] = None):
        fractions = {}
        for exps, coeff in (terms or {}).items():
            if not (
                isinstance(exps, tuple)
                and len(exps) == 3
                and all(type(k) is int and k >= 0 for k in exps)
            ):
                raise ValueError("exponent key %r is not three non-negative ints" % (exps,))
            coeff = Fraction(coeff)
            if coeff:
                fractions[exps] = coeff
        # Each coefficient is in lowest terms, so the numerators over the lcm
        # of the denominators share no factor with it.
        self.den = math.lcm(1, *(c.denominator for c in fractions.values()))
        self.num = {e: c.numerator * (self.den // c.denominator) for e, c in fractions.items()}

    @classmethod
    def _lowest(cls, num: dict, den: int) -> "Poly":
        """num / den with den > 0 and no zero in num, put in lowest terms;
        num is kept, not copied, when it is already in lowest terms."""
        p = object.__new__(cls)
        g = math.gcd(den, *num.values()) if den != 1 else 1
        p.num = {e: c // g for e, c in num.items()} if g != 1 else num
        p.den = den // g
        return p

    @property
    def terms(self) -> dict:
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    @classmethod
    def const(cls, c) -> "Poly":
        # An int is its own numerator over 1, so no Fraction is built.
        if type(c) is int:
            return cls._lowest({(0, 0, 0): c} if c else {}, 1)
        return cls({(0, 0, 0): c})

    @classmethod
    def var(cls, name: str) -> "Poly":
        i = VARS.index(name)
        exps = [0, 0, 0]
        exps[i] = 1
        return cls._lowest({tuple(exps): 1}, 1)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.num == other.num

    def __hash__(self):
        # Equal polynomials have equal (num, den), by the lowest-terms invariant.
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        den = math.lcm(self.den, other.den)
        out = {e: c * (den // self.den) for e, c in self.num.items()}
        scale = den // other.den
        for e, c in other.num.items():
            new = out.get(e, 0) + c * scale
            if new:
                out[e] = new
            else:
                del out[e]
        return Poly._lowest(out, den)

    def __neg__(self) -> "Poly":
        return Poly._lowest({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        return Poly._lowest(_int_mul(self.num, other.num), self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        # Square and multiply on the numerators; num^k / den^k is already in
        # lowest terms (Gauss's lemma), and _lowest runs once.
        out, base, n = {(0, 0, 0): 1}, self.num, k
        while n:
            if n & 1:
                out = _int_mul(out, base)
            n >>= 1
            if n:
                base = _int_mul(base, base)
        return Poly._lowest(out, self.den ** k)

    def degree(self) -> int:
        return max((sum(e) for e in self.num), default=0)

    def num_at(self, x, y, z):
        """den · p(x, y, z): an int at integer coordinates."""
        total = 0
        for (a, b, e), c in self.num.items():
            total += c * x ** a * y ** b * z ** e
        return total

    def evaluate(self, x, y, z) -> Fraction:
        # Integer coordinates keep the sum in integers; it is divided once.
        if not (type(x) is type(y) is type(z) is int):
            x, y, z = Fraction(x), Fraction(y), Fraction(z)
        return Fraction(self.num_at(x, y, z), self.den)

    def substitute_z(self, value) -> "Poly":
        # z^c = p^c / q^c: scale every term to the denominator q^top.
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        top = max((e[2] for e in self.num), default=0)
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, c), coeff in self.num.items():
            out[(a, b, 0)] = out.get((a, b, 0), 0) + coeff * p ** c * q ** (top - c)
        return Poly._lowest({e: c for e, c in out.items() if c}, self.den * q ** top)

    def swap_xy(self) -> "Poly":
        return Poly._lowest({(b, a, c): k for (a, b, c), k in self.num.items()}, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        if not self.num:
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


def _int_mul(a: dict, b: dict) -> dict:
    """The product of two integer term dicts, with no zero term."""
    out: dict[tuple[int, int, int], int] = {}
    for (a0, a1, a2), c1 in a.items():
        for (b0, b1, b2), c2 in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


ONE, ZERO = Poly.const(1), Poly()
X, Y, Z = (Poly.var(v) for v in VARS)

# z, x+y, xz+y, xy: the members of R the product-overgroup suite certifies.
R_MEMBERS = (Z, X + Y, X * Z + Y, X * Y)
# Generator of the model -> the star record's symbol it must agree with at
# (x, y, z) = ``xyz_of(theta)``.
SYMBOL_PAIRS = (
    ("r1", "R_1"),
    ("r2", "R_2"),
    ("r3", "R_3"),
    ("r4", "R_4"),
    ("q", "C_K"),
    ("p1", "C_Gt1"),
    ("p2", "C_Gt2"),
)


def xyz_of(theta) -> tuple[int, int, int]:
    """(x, y, z) = ((j+3)^2, (j'+3)^2, (a+3)^2) at the star's theta = (j, j', a)."""
    j, jp, a = theta
    return (j + 3) ** 2, (jp + 3) ** 2, (a + 3) ** 2


def dgx_generators() -> dict[str, Poly]:
    """The seven generators of the polynomial model, built in factored form."""
    return {
        "r1": X + Y + Z + ONE,
        "r2": X ** 2 + 6 * Z * X + Z ** 2 + Y ** 2 + 6 * Y + ONE,
        "r3": X ** 3
        + 15 * Z * X ** 2
        + 15 * Z ** 2 * X
        + Z ** 3
        + Y ** 3
        + 15 * Y ** 2
        + 15 * Y
        + ONE,
        "r4": (X - ONE) * (Y - Z),
        "q": Fraction(3, 4) * (Z - Poly.const(9)),
        "p1": X - Poly.const(9),
        "p2": Y - Poly.const(9),
    }


def subalgebra_generators() -> dict[str, Poly]:
    """The generators of R = <dr(Z(k_C)), dl(Z(g_C))>: q and r1..r4."""
    gens = dgx_generators()
    return {k: gens[k] for k in ("q", "r1", "r2", "r3", "r4")}


class _Span:
    """The spans V_d of one generator set, for every bound d asked for so
    far: V_d is the span of the products prod g^e of weight at most d, where
    g_i weighs its degree and a generator of degree 0 weighs 1.

    Two chains map each bound d to E_d, the reduced echelon of V_d, from
    bound -1, which spans nothing: ``spans`` keeps bare rows, which decide
    membership, and ``solvers`` keeps rows carrying the combination of
    products each equals, keyed by exponent tuple, which only
    ``combination`` builds.  No product is built.  E_0 is the row 1, and
    E_w is a copy of E_(w-1) with g_i·r inserted for each generator g_i and
    each r in N_(w - deg g_i), the rows of that echelon whose pivots the
    echelon below it lacks.  That spans V_w:

    - V_d = V_(d-1) ⊕ span N_d.  E_d is reduced, so a combination of N_d
      rows is 0 at every pivot of E_(d-1), which no non-zero member of
      V_(d-1) is; so the sum is direct, of the dimension |E_d| of V_d.
    - Every product of weight w is g_i times a product of weight w - deg g_i,
      and g_i·V_(w-1-deg g_i) ⊂ V_(w-1).  So V_w = V_(w-1) + Σ_i g_i·N_(w - deg g_i).

    g_i·r goes in as r's terms times g_i's numerators, so a payload {e: c}
    becomes {e + 1_i: c·den(g_i)} and a row's terms stay Σ c·prod g^e.
    """

    def __init__(self, gens: dict[str, Poly]):
        self.names = tuple(sorted(gens))
        self.gens = [(max(p.degree(), 1), p.num, p.den) for p in (gens[k] for k in self.names)]
        self.spans: dict[int, IntEchelon] = {-1: IntEchelon()}
        self.solvers: dict[int, IntEchelon] = {-1: IntEchelon()}

    def _echelon(self, chain: dict, degree_bound: int, payloads: bool) -> IntEchelon:
        for w in range(max(chain) + 1, degree_bound + 1):
            echelon = IntEchelon(chain[w - 1].rows)
            if w == 0:
                echelon.insert({(0, 0, 0): 1}, {(0,) * len(self.names): 1} if payloads else None)
            for i, (gdeg, gnum, gden) in enumerate(self.gens):
                if gdeg > w:
                    continue
                lower = chain[w - gdeg - 1].rows
                for p, (terms, payload) in chain[w - gdeg].rows.items():
                    if p not in lower:
                        echelon.insert(
                            _int_mul(terms, gnum),
                            {(*e[:i], e[i] + 1, *e[i + 1 :]): c * gden for e, c in payload.items()},
                        )
            chain[w] = echelon
        return chain[degree_bound]

    def contains(self, f: Poly, degree_bound: int) -> bool:
        _, residual, _ = self._echelon(self.spans, degree_bound, False).reduce(f.num)
        return not residual

    def combination(self, f: Poly, degree_bound: int) -> Optional[dict]:
        scale, residual, used = self._echelon(self.solvers, degree_bound, True).reduce(f.num)
        if residual:
            return None
        return {tuple(zip(self.names, e)): Fraction(c, scale * f.den) for e, c in used.items()}


# Process-lifetime cache: generator set, keyed by content (``_span_key``) ->
# _Span.  R's key, computed once below, and decompose_R_plus_Rx's power memos
# are the module's other process-lifetime state.
_SPAN_CACHE: dict = {}


def _span_key(gens: dict[str, Poly]) -> tuple:
    return tuple(sorted((k, p.den, tuple(sorted(p.num.items()))) for k, p in gens.items()))


def _cached_span(gens: dict[str, Poly], key: Optional[tuple] = None) -> _Span:
    """The _Span of ``gens``, under ``key`` when the caller has computed
    ``_span_key(gens)`` already."""
    if key is None:
        key = _span_key(gens)
    span = _SPAN_CACHE.get(key)
    if span is None:
        span = _SPAN_CACHE[key] = _Span(gens)
    return span


def _check_bound(f: Poly, degree_bound: int) -> None:
    if degree_bound < f.degree():
        raise ValueError(
            "degree bound %d below deg f = %d" % (degree_bound, f.degree())
        )


def membership(f: Poly, gens: dict[str, Poly], degree_bound: int):
    """Expression of f in the subalgebra generated by ``gens`` within total
    degree <= degree_bound, or None.  Exact linear algebra over the monomial
    basis of generator products: a combination maps each product, keyed by
    every generator name with its exponent, to its nonzero coefficient."""
    _check_bound(f, degree_bound)
    return _cached_span(gens).combination(f, degree_bound)


def in_subalgebra(f: Poly, gens: dict[str, Poly], degree_bound: int) -> bool:
    """Whether f lies in the subalgebra generated by ``gens`` within total
    degree <= degree_bound: ``membership(...) is not None``, decided by one
    reduction against rows that carry no combination."""
    _check_bound(f, degree_bound)
    return _cached_span(gens).contains(f, degree_bound)


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
    z = Fraction(4, 3) * q + Poly.const(9)
    s = r1 - z - ONE
    w = Fraction(1, 4) * (r2 + 2 * r4 - s * s - (z + ONE) * (z + ONE))
    m = r4 + w - z
    return z, s, w, m


# R's generators, their span's cache key, and R's members z, x+y, xz+y, xy
# written through them, built once for decompose_R_plus_Rx.
_R_GENERATORS = subalgebra_generators()
_R_SPAN_KEY = _span_key(_R_GENERATORS)
_BASE_MEMBERS = _base_members(_R_GENERATORS)


# Per-exponent memos of decompose_R_plus_Rx, grown to the largest exponent it
# is asked for: x^k and y^k as pairs (g, h) with g, h in R and the power equal
# to g + h·x.
_X_POWERS = [(ONE, ZERO)]
_Y_POWERS = [(ONE, ZERO)]


def _power(memo: list, k: int, step):
    """memo[k], after extending memo by step(memo[-1]) up to index k."""
    while len(memo) <= k:
        memo.append(step(memo[-1]))
    return memo[k]


def _next_x_power(gh: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """x^(k+1) from x^k = g + h·x, via x^2 = -xy + (x+y)·x."""
    g, h = gh
    _, s, _, m = _BASE_MEMBERS
    return -(m * h), g + s * h


def _next_y_power(gh: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """y^(k+1) from y^k = g + h·x, via y = (x+y) - x."""
    g, h = gh
    _, s, _, m = _BASE_MEMBERS
    return s * g + m * h, -g


def decompose_R_plus_Rx(f: Poly, degree_bound: int):
    """f = g + h·x with g and h in R; the identity is exact and both parts are
    certified in R by reduction against R's span, as ``in_subalgebra`` does,
    found in ``_SPAN_CACHE`` under R's key without re-keying it.

    Constructive: z, x+y, xz+y, xy lie in R, and x^n, y^n lie in R + R·x by
    the recursion x^2 = -xy + (x+y)·x; a monomial x^l y^m z^n strips z and xy
    factors and reduces to a pure power.  Raises if f exceeds the bound.
    """
    _check_bound(f, degree_bound)
    g_total, h_total = Poly(), Poly()
    for (ex, ey, ez), coeff in f.num.items():
        common = min(ex, ey)
        # coeff · z^ez · (xy)^common, a product of members of R
        prefix = Poly._lowest({(common, common, ez): coeff}, 1)
        if ex > common:
            g, h = _power(_X_POWERS, ex - common, _next_x_power)
        else:
            g, h = _power(_Y_POWERS, ey - common, _next_y_power)
        g_total = g_total + prefix * g
        h_total = h_total + prefix * h
    # The loop summed f's numerators; divide once by f's denominator.
    g_total = Poly._lowest(g_total.num, g_total.den * f.den)
    h_total = Poly._lowest(h_total.num, h_total.den * f.den)
    if (g_total + h_total * X) != f:
        raise AssertionError("inexact recomposition for %r" % (f,))
    span = _cached_span(_R_GENERATORS, _R_SPAN_KEY)
    for part, name in ((g_total, "g"), (h_total, "h")):
        if not part.is_zero() and not span.contains(part, max(part.degree(), 1)):
            raise ValueError(
                "%s-part of the decomposition escapes R at degree %d"
                % (name, part.degree())
            )
    return g_total, h_total
