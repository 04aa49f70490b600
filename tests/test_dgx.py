"""The C[x,y,z] polynomial model: generators, membership, R + R·x structure."""

import itertools
import math
from fractions import Fraction

import pytest

from branchlab import catalog, dgx, linalg, verify
from branchlab.dgx import (
    Poly,
    X,
    Y,
    Z,
    combination_value,
    decompose_R_plus_Rx,
    dgx_generators,
    membership,
    specialize_fiber,
    subalgebra_generators,
    x_not_in_R_witness,
)

ONE = Poly.const(1)
# Rational points at which membership combinations are re-evaluated through
# the generators' values, independently of the Poly arithmetic.
POINTS = (
    (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 5)),
    (Fraction(-3), Fraction(4), Fraction(1, 2)),
)


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


def test_poly_negative_power_raises():
    assert X ** 0 == ONE
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
        matrix = linalg.mat([[p.terms.get(m, 0) for p in products] for m in monos])
        targets = [Poly({m: 1}) for m in monos] + [f for f in dgx.R_MEMBERS if f.degree() <= d]
        for f in targets:
            comb = membership(f, gens, d)
            rhs = linalg.vec(f.terms.get(m, 0) for m in monos)
            assert (comb is None) == (linalg.solve(matrix, rhs) is None), (d, f)
            if comb is not None:
                assert combination_value(comb, gens) == f, (d, f)
                assert all([n for n, _ in key] == sorted(gens) for key in comb), comb


def test_membership_fails_for_x():
    gens = subalgebra_generators()
    assert membership(X, gens, 6) is None
    assert membership(X, gens, 4) is None


def test_membership_degree_bound_guard():
    gens = subalgebra_generators()
    with pytest.raises(ValueError):
        membership(X ** 5, gens, 4)


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


def test_decompose_degree_guard():
    with pytest.raises(ValueError):
        decompose_R_plus_Rx(X ** 9, 8)


def test_fiber_specialization():
    for a in range(5):
        za = Fraction((a + 3) ** 2)
        spec = specialize_fiber(a)
        assert spec["r1"] == X + Y + Poly.const(za + 1)
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
