"""The C[x,y,z] polynomial model: generators, membership, R + R·x structure."""

import hashlib
import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import catalog, dgx, verify
from branchlab.dgx import (
    Poly,
    X,
    Y,
    Z,
    decompose_R_plus_Rx,
    dgx_generators,
    in_subalgebra,
    membership,
    subalgebra_generators,
    x_not_in_R_witness,
)
from branchlab.linalg import IntEchelon
import oracles

ONE = Poly.const(1)
# Rational points at which membership combinations are re-evaluated through
# the generators' values, independently of the Poly arithmetic.
POINTS = (
    (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 5)),
    (Fraction(-3), Fraction(4), Fraction(1, 2)),
)


def combination_value(combination, gens):
    """Reassemble a membership() combination into the polynomial it denotes.

    Each generator power is built once, and every product is added into one
    term dict."""
    powers = {}
    terms = {}
    for key, coeff in combination.items():
        prod = ONE
        for name, e in key:
            if e:
                if (name, e) not in powers:
                    powers[name, e] = gens[name] ** e
                prod = prod * powers[name, e]
        for mono, c in prod.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff * c
    return Poly(terms)


def test_generator_displays():
    gens = dgx_generators()
    assert gens["r1"] == X + Y + Z + ONE
    assert gens["r4"] == (X - ONE) * (Y - Z)
    assert gens["q"] == Fraction(3, 4) * (Z - Poly.const(9))
    assert gens["p1"] == X - Poly.const(9)
    assert gens["p2"] == Y - Poly.const(9)
    assert gens["r2"] == X ** 2 + 6 * X * Z + Z ** 2 + Y ** 2 + 6 * Y + ONE


def test_poly_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X ** 2 - Y ** 2
    assert p.evaluate(3, 2, 0) == 5
    assert (X * Y * Z).degree() == 3
    assert (X - X).is_zero()
    assert (X + 2 * Z).substitute_z(5) == X + Poly.const(10)
    assert (X ** 2 * Y).swap_xy() == Y ** 2 * X
    assert (X ** 2 + Z ** 2 + Y * Z).substitute_z(3) == X ** 2 + 3 * Y + Poly.const(9)
    assert (X * Z - 2 * X).substitute_z(2).is_zero()


@pytest.mark.parametrize("key", [(-1, 0, 0), (1, 2), (0, 0, 0, 0), (1.0, 0, 0), "xyz", 5])
def test_poly_rejects_bad_exponent_keys(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        Poly({key: 1})


def _well_formed(p):
    """p = num / den in lowest terms, with no zero numerator stored."""
    return p.den > 0 and all(p.num.values()) and math.gcd(p.den, *p.num.values()) == 1


def test_poly_denominators_cancel():
    half = Fraction(1, 2)
    assert half * X + half * X == X and (half * X + half * X).den == 1
    assert Poly.const(Fraction(2, 3)) * Poly.const(Fraction(3, 2)) == ONE
    p = Fraction(5, 6) * X * Y - Fraction(7, 4) * Z
    for zero in (p - p, p + (-1) * p, p * Poly()):
        assert zero == Poly() and zero.is_zero() and (zero.num, zero.den) == ({}, 1)
    assert (Fraction(3, 4) * (Z - Poly.const(9))).evaluate(1, 1, 13) == 3


_COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _COEFFS, max_size=5)
_POINT = st.tuples(*[st.integers(-4, 4)] * 3)


@given(_TERMS, _TERMS, _POINT, st.tuples(*[_COEFFS] * 3), _COEFFS, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_poly_matches_fraction_oracle(t1, t2, ipoint, fpoint, value, k):
    p, q = Poly(t1), Poly(t2)
    o, r = oracles.FractionPoly(t1), oracles.FractionPoly(t2)
    c = oracles.FractionPoly({(0, 0, 0): value})
    pairs = [
        (p, o),
        (p + q, o + r),
        (p - q, o - r),
        (p - q + q, o),
        (p - p, o - o),
        (p * q, o * r),
        (p ** k, o ** k),
        (-p, -o),
        (value * p + 3, c * o + oracles.FractionPoly({(0, 0, 0): 3})),
        (2 - q, oracles.FractionPoly({(0, 0, 0): 2}) - r),
        (p.substitute_z(value), o.substitute_z(value)),
        (p.substitute_z(ipoint[2]), o.substitute_z(ipoint[2])),
        (p.swap_xy(), o.swap_xy()),
    ]
    for got, want in pairs:
        assert _well_formed(got), (got.num, got.den)
        assert got.terms == want.terms
        assert repr(sorted(got.terms.items())) == repr(sorted(want.terms.items()))
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert got.degree() == want.degree()
        assert got.is_zero() == (not want.terms)
        for point in (ipoint, fpoint):
            value_at = got.evaluate(*point)
            assert type(value_at) is Fraction and value_at == want.evaluate(*point)
    assert (p == q) == (o == r)
    assert p == Poly(o.terms) and hash(p) == hash(Poly(o.terms))


def test_poly_terms_is_a_fresh_view():
    p = Fraction(1, 3) * X + Z
    p.terms[(0, 0, 0)] = Fraction(5)
    p.terms.clear()
    assert p.terms == {(1, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(1)}


def test_poly_negative_power_raises():
    assert X ** 0 == ONE
    # p ** 0 is a new polynomial, not the module's shared one.
    (X ** 0).num[(0, 0, 0)] = 7
    assert dgx.ONE == ONE and X ** 0 == ONE
    with pytest.raises(ValueError):
        X ** -1


def test_memberships_lemma():
    gens = subalgebra_generators()
    for f in (Z, X + Y, X * Z + Y, X * Y, Fraction(2, 3) * X * Y - Fraction(1, 5) * Z):
        comb = membership(f, gens, 4)
        assert comb is not None
        assert combination_value(comb, gens) == f


def _products_by_poly(gens, degree_bound):
    """Every product prod g^e within the degree bound, built with Poly
    arithmetic, lowest degree first; a generator weighs its degree, at
    least 1."""
    names = sorted(gens)
    weights = [max(gens[n].degree(), 1) for n in names]
    out = []
    for exps in itertools.product(range(degree_bound + 1), repeat=len(names)):
        if sum(e * w for e, w in zip(exps, weights)) <= degree_bound:
            prod = ONE
            for n, e in zip(names, exps):
                prod = prod * gens[n] ** e
            out.append(prod)
    return sorted(out, key=Poly.degree)


def test_membership_matches_dense_oracle():
    gens = subalgebra_generators()
    for d in range(5):
        products = _products_by_poly(gens, d)
        # Low degrees first keeps the dense elimination's fractions small.
        monos = sorted(
            (e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d), key=sum
        )
        assert all(sum(m) <= d for p in products for m in p.terms)
        matrix = oracles.mat([[p.terms.get(m, 0) for p in products] for m in monos])
        targets = [Poly({m: 1}) for m in monos] + [f for f in dgx.R_MEMBERS if f.degree() <= d]
        for f in targets:
            comb = membership(f, gens, d)
            rhs = oracles.vec(f.terms.get(m, 0) for m in monos)
            solvable = oracles.solve(matrix, rhs) is not None
            assert (comb is not None) == solvable, (d, f)
            assert in_subalgebra(f, gens, d) == solvable, (d, f)
            if comb is not None:
                assert combination_value(comb, gens) == f, (d, f)
                assert all([n for n, _ in key] == sorted(gens) for key in comb), comb


def _assert_spans_products(echelon, products):
    """The rows of ``echelon`` span what ``products`` span: each product
    reduces to 0 against the rows, and each row reduces to 0 against an
    echelon of the products' numerators built here; returns that echelon."""
    built = IntEchelon()
    for p in products:
        built.insert(p.num)
        assert not echelon.reduce(p.num)[1], p
    for terms, _ in echelon.rows.values():
        assert not built.reduce(terms)[1], terms
    assert built.rank == echelon.rank
    return built


def test_span_chain_spans_the_generator_products():
    # Each E_d is grown from the rows E_(d-1) added times a generator; the
    # products themselves are built here only.
    gens = subalgebra_generators()
    assert in_subalgebra(ONE, gens, 8) and membership(ONE, gens, 8) is not None
    span = dgx._cached_span(gens)
    for chain in (span.spans, span.solvers):
        ranks = [_assert_spans_products(chain[d], _products_by_poly(gens, d)).rank for d in range(9)]
        assert ranks == [1, 3, 8, 16, 29, 47, 72, 104, 145]


_LOW_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2), _COEFFS, max_size=4
)


@given(st.lists(_LOW_TERMS, min_size=2, max_size=3), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_span_chain_of_random_generators(terms, d):
    # Generators of degree <= 2, a constant or zero one among them at times,
    # with denominators: E_d spans the products of weight <= d, membership
    # decides as the products' echelon does, and its combinations re-evaluate.
    gens = {"g%d" % i: Poly(t) for i, t in enumerate(terms)}
    with mock.patch.dict(dgx._SPAN_CACHE, clear=True):
        in_subalgebra(ONE, gens, d)
        products = _products_by_poly(gens, d)
        built = _assert_spans_products(dgx._cached_span(gens).spans[d], products)
        monos = [Poly({e: 1}) for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d]
        mixed = sum((k * p for k, p in enumerate(products, 1)), Poly())
        for f in products + monos + [mixed]:
            comb = membership(f, gens, d)
            assert (comb is not None) == in_subalgebra(f, gens, d) == (not built.reduce(f.num)[1]), f
            if comb is not None:
                assert combination_value(comb, gens) == f, f


def test_in_subalgebra_agrees_with_membership():
    # Both chains decide each monomial and X as the test's own echelon of the
    # generator products does, and membership's combinations re-evaluate.
    gens = subalgebra_generators()
    for d in range(1, 9):
        monos = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d]
        targets = [Poly({m: 1}) for m in monos] + [X]
        decided = [(in_subalgebra(f, gens, d), membership(f, gens, d)) for f in targets]
        built = _assert_spans_products(dgx._cached_span(gens).spans[d], _products_by_poly(gens, d))
        for f, (inside, comb) in zip(targets, decided):
            assert inside == (comb is not None) == (not built.reduce(f.num)[1]), (d, f)
            if comb is not None:
                assert combination_value(comb, gens) == f, (d, f)


def test_checks_build_no_payload_rows(monkeypatch):
    # Deciding membership must not build the echelons whose rows carry
    # combinations; membership builds them only up to the bound it is given.
    monkeypatch.setattr(dgx, "_SPAN_CACHE", {})
    gens = subalgebra_generators()
    decompose_R_plus_Rx(X ** 8, 8)
    star = next(r for r in catalog.build_records(1) if r.id.tag == "star")
    assert all(not e["failed"] for e in verify.run_case(star, 4, 2))
    (span,) = dgx._SPAN_CACHE.values()
    assert set(span.solvers) == {-1}
    assert max(span.spans) == 8
    assert membership(Z, gens, 4) is not None
    assert set(span.solvers) == set(range(-1, 5))


def test_membership_fails_for_x():
    gens = subalgebra_generators()
    assert membership(X, gens, 6) is None
    assert membership(X, gens, 4) is None


def test_membership_degree_bound_guard():
    gens = subalgebra_generators()
    with pytest.raises(ValueError):
        membership(X ** 5, gens, 4)
    with pytest.raises(ValueError):
        in_subalgebra(X ** 5, gens, 4)


def test_membership_proof_identity_4xz_plus_y():
    # 4(xz+y) = r2 + 2 r4 - (x+y)^2 - (z+1)^2: all of the right side is in R
    gens = dgx_generators()
    lhs = 4 * (X * Z + Y)
    rhs = gens["r2"] + 2 * gens["r4"] - (X + Y) ** 2 - (Z + ONE) ** 2
    assert lhs == rhs


def test_x_not_in_R_witness():
    w = x_not_in_R_witness()
    assert w.passed
    assert set(w.symmetric_generators) == {"q", "r1", "r2", "r3", "r4"}
    assert w.asymmetric_target == "x"
    assert w.target_specialization == X
    # the certified facts behind the witness
    for name, p in subalgebra_generators().items():
        sp = p.substitute_z(1)
        assert sp == sp.swap_xy(), name
    assert X.substitute_z(1) != X.substitute_z(1).swap_xy()


def test_decompose_examples():
    g, h = decompose_R_plus_Rx(X ** 2, 2)
    assert g + h * X == X ** 2
    assert h == X + Y  # x^2 = -xy + (x+y)x
    assert g == -(X * Y)

    g, h = decompose_R_plus_Rx(Z ** 5, 5)
    assert (g, h) == (Z ** 5, Poly())

    g, h = decompose_R_plus_Rx(Y, 1)
    assert g == X + Y and h == Poly.const(-1)


def test_decompose_all_monomials_degree_8():
    # Each nonzero part is certified in R again here, and its combination is
    # checked at POINTS from the generators' values (combination_value is
    # too slow at degree 8).
    gens = subalgebra_generators()
    values = [{n: p.evaluate(*pt) for n, p in gens.items()} for pt in POINTS]
    certified = 0
    for ex, ey, ez in itertools.product(range(9), repeat=3):
        if ex + ey + ez > 8:
            continue
        f = X ** ex * Y ** ey * Z ** ez
        g, h = decompose_R_plus_Rx(f, 8)
        assert g + h * X == f, (ex, ey, ez)
        for part in (g, h):
            if part.is_zero():
                continue
            comb = membership(part, gens, max(part.degree(), 1))
            assert comb is not None, (ex, ey, ez)
            for pt, vals in zip(POINTS, values):
                total = sum(
                    c * math.prod(vals[n] ** e for n, e in key) for key, c in comb.items()
                )
                assert total == part.evaluate(*pt), (ex, ey, ez, pt)
            certified += 1
    assert certified == 285


def _degree_8_monomials():
    """x^a y^b z^c with a + b + c <= 8, in the benchmark's order (165)."""
    return [(a, b, c) for a in range(9) for b in range(9 - a) for c in range(9 - a - b)]


def test_decompose_digest_degree_8():
    # The digest the benchmark's poly-model workload pins for its report.
    digest = hashlib.sha256()
    for a, b, c in _degree_8_monomials():
        for part in decompose_R_plus_Rx(X ** a * Y ** b * Z ** c, 8):
            digest.update(repr(sorted(part.terms.items())).encode())
    assert digest.hexdigest() == "1a26b97afe79b0019b5acfc9bff9809752afc3ca17dd3588d82a1804110c6146"


def test_decompose_power_memos(monkeypatch):
    # Fresh memos; a returned part is then mutated through its numerators as
    # well as its terms view, which shows any dict it shares with a memo.
    for name in ("_X_POWERS", "_Y_POWERS"):
        monkeypatch.setattr(dgx, name, [(ONE, Poly())])
    for f in (Poly(), ONE, X ** 6, Y ** 3, X ** 5 * Z, Y ** 4 * X, Fraction(2, 3) * X ** 3 - Y * Z):
        g, h = decompose_R_plus_Rx(f, 6)
        expected = repr(g), repr(h)
        for part in (g, h):
            part.terms.clear()
            part.num[(0, 0, 0)] = 12345
        g, h = decompose_R_plus_Rx(f, 6)
        assert (repr(g), repr(h)) == expected
    for a, b, c in _degree_8_monomials():
        decompose_R_plus_Rx(X ** a * Y ** b * Z ** c, 8)
    memos = (dgx._X_POWERS, dgx._Y_POWERS)
    assert [len(m) for m in memos] == [9, 9]


def test_decompose_degree_guard():
    with pytest.raises(ValueError):
        decompose_R_plus_Rx(X ** 9, 8)


def test_fiber_specialization():
    for a in range(5):
        za = Fraction((a + 3) ** 2)
        assert subalgebra_generators()["r1"].substitute_z(za) == X + Y + Poly.const(za + 1)
        gens = dgx_generators()
        lhs = (-(gens["r1"] * gens["r1"]) + gens["r2"] + 2 * gens["r4"]).substitute_z(za)
        assert lhs == 2 * (za - 1) * (X - Y)
        # after the specialization the images of dl(Z(g_C)) generate C[x,y]:
        # x+y and x-y are both reachable
        assert za != 1


def test_cross_module_star_agreement():
    star = next(r for r in catalog.build_records(1) if r.id.tag == "star")
    gens = dgx_generators()
    for theta in star.theta.enumerate(6):
        j, jp, a = theta
        x, y, z = (j + 3) ** 2, (jp + 3) ** 2, (a + 3) ** 2
        for gname, sym in dgx.SYMBOL_PAIRS:
            assert gens[gname].evaluate(x, y, z) == verify.evaluate_generator(
                star, sym, theta
            ), (theta, gname)
