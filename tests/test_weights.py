"""rho, canonicalization, and the dimension formula, against the root lists
and orbit walks of the oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import weights
from branchlab.linalg import dot, vec
from branchlab.weights import (
    A,
    B,
    C,
    D,
    G2,
    Product,
    Trivial,
    WeylType,
    dominant_representative,
    rho,
    weyl_dimension,
)
import oracles
from oracles import half_sum, positive_roots, random_weyl_image, reflect, simple_roots


def F(*args):
    return tuple(Fraction(a) for a in args)


def full_orbit(t, v):
    """The whole Weyl orbit (exponential in rank; fine for rank <= 4 and G2),
    walked on doubled integers."""
    v = vec(v)
    if t.family == "Trivial":
        return {v}
    if t.family == "Product":
        parts = [sorted(full_orbit(f, p)) for f, p in oracles._split(t, v)]
        return {sum(combo, ()) for combo in itertools.product(*parts)}
    simples = oracles.simple_roots2(t)
    v2 = tuple(int(2 * x) for x in v)
    seen = {v2}
    frontier = [v2]
    while frontier:
        w = frontier.pop()
        for a in simples:
            img = reflect(t, a, w)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return {tuple(Fraction(x, 2) for x in w) for w in seen}


def test_positive_roots_B2():
    assert set(positive_roots(B(2))) == {F(1, -1), F(1, 1), F(1, 0), F(0, 1)}


def test_positive_roots_A1():
    assert positive_roots(A(1)) == [F(1, -1)]


def test_positive_roots_D4_brute_force():
    # oracle: all +-1 pairs with positive leading sign
    expected = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0] * 4
                v[i], v[j] = 1, s
                expected.add(F(*v))
    assert set(positive_roots(D(4))) == expected
    assert len(positive_roots(D(4))) == 12


def test_positive_roots_counts():
    assert len(positive_roots(B(3))) == 9
    assert len(positive_roots(C(3))) == 9
    assert len(positive_roots(G2)) == 6


def test_positive_roots_rejects_trivial_and_product():
    with pytest.raises(ValueError):
        positive_roots(Trivial(1))
    with pytest.raises(ValueError):
        positive_roots(Product(B(2), B(1)))


@pytest.mark.parametrize(
    "t", [B(4), D(4), A(1), A(3), A(4), B(1), C(1), C(3), B(2), C(2), D(2), D(5), G2]
)
def test_rho_is_half_sum(t):
    assert rho(t) == half_sum(t)


def _record_types():
    """Every Weyl type of a group of build_records(6), and its factors."""
    from branchlab import catalog

    todo = [
        g.weyl
        for r in catalog.build_records(6)
        for g in (r.pi_group, r.nu_group, r.tau_group)
    ]
    seen = set()
    while todo:
        t = todo.pop()
        if t not in seen:
            seen.add(t)
            todo.extend(t.factors)
    return seen


CLOSED_FORM_TYPES = (
    [WeylType(fam, n) for fam in ("A", "B", "C") for n in range(1, 9)]
    + [D(n) for n in range(2, 9)]
    + [G2]
)


def test_closed_form_rho_is_the_half_sum_of_the_positive_roots():
    # rho by formula against the listed roots: the types the catalog reaches
    # (products and Trivial included) and every lettered family up to rank 8
    record_types = _record_types()
    assert any(t.family == "Product" for t in record_types)
    for t in record_types | set(CLOSED_FORM_TYPES):
        expected = half_sum(t)
        assert rho(t) == expected, t
        assert weights._rho2(t) == tuple(int(2 * x) for x in expected), t
        assert all(type(x) is int for x in weights._rho2(t)), t


def test_G2_root_rows_are_twice_the_gram_matrix_times_the_roots():
    expected = tuple(
        tuple(int(sum(2 * g * x for g, x in zip(row, a))) for row in oracles.G2_GRAM)
        for a in positive_roots(G2)
    )
    assert weights._G2_ROOT_ROWS == expected


def _half_integer_grid(n):
    # -1, -1/2, 0, 1/2, 1 in every coordinate: every sign and every tie
    return itertools.product([Fraction(k, 2) for k in range(-2, 3)], repeat=n)


DOMINANCE_TYPES = (
    [A(n) for n in range(1, 5)]
    + [B(n) for n in range(1, 5)]
    + [C(n) for n in range(1, 5)]
    + [D(n) for n in range(2, 6)]
    + [G2]
)


@pytest.mark.parametrize("t", DOMINANCE_TYPES, ids=str)
def test_is_dominant_matches_simple_root_pairings(t):
    simple = simple_roots(t)
    seen = set()
    for v in _half_integer_grid(t.ncoords):
        expected = all(oracles.pairing(t, v, a) >= 0 for a in simple)
        assert weights._dominance_kernel(t)(v) == expected, v
        seen.add(expected)
    assert seen == {True, False}


def test_is_dominant_rejects_D1_and_wrong_length():
    with pytest.raises(ValueError):
        weights._dominance_kernel(D(1))(F(1))
    with pytest.raises(ValueError):
        weights._dominance_kernel(B(2))(F(1, 0, 0))


def test_rho_values():
    assert rho(B(4)) == F(Fraction(7, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert rho(D(4)) == F(3, 2, 1, 0)
    assert rho(A(1)) == F(Fraction(1, 2), Fraction(-1, 2))
    assert rho(G2) == F(1, 1)  # omega1 + omega2


@pytest.mark.parametrize("t", [A(3), B(4), C(4), D(4), G2])
def test_rho_pairs_one_with_simple_coroots(t):
    r = rho(t)
    for a in simple_roots(t):
        assert 2 * oracles.pairing(t, r, a) / oracles.pairing(t, a, a) == 1


def test_dominant_representative_examples():
    assert dominant_representative(B(2), F(-1, 3)) == F(3, 1)
    assert dominant_representative(D(3), F(-2, 1, -1)) == F(2, 1, 1)
    assert dominant_representative(A(2), F(0, 5, -1)) == F(5, 0, -1)


def test_dominant_representative_D_parity():
    # odd number of sign flips leaves one negative entry on the smallest slot
    assert dominant_representative(D(3), F(2, 1, -1)) == F(2, 1, -1)
    assert dominant_representative(D(3), F(-2, -1, -1)) == F(2, 1, -1)
    # a zero coordinate absorbs the parity
    assert dominant_representative(D(3), F(0, -2, 1)) == F(2, 1, 0)


def test_weyl_orbit_equal_examples():
    # two weights lie in one orbit exactly when their canonical forms agree
    canon = dominant_representative
    assert canon(B(2), F(3, 1)) == canon(B(2), F(-1, 3))
    assert canon(D(3), F(2, 1, 1)) != canon(D(3), F(2, 1, -1))
    assert canon(A(1), F(1, 0)) == canon(A(1), F(0, 1))


def test_inner_product_examples():
    assert dot(F(1, 0), F(0, 1)) == 0
    h = Fraction(1, 2)
    assert dot((h, h, h, h), (h, h, h, h)) == 1
    assert dot(F(2, 1), F(2, 1)) == 5
    with pytest.raises(ValueError):
        dot(F(1, 0), F(1, 0, 0))


TYPES = [A(2), A(3), B(2), B(3), B(4), C(3), C(4), D(3), D(4), C(2), G2]


@pytest.mark.parametrize("t", TYPES)
def test_canonicalization_idempotent_and_invariant(t):
    rng = random.Random(20260810 + t.ncoords)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2))) for _ in range(t.ncoords))
        canon = dominant_representative(t, v)
        assert dominant_representative(t, canon) == canon
        for _ in range(20):
            moved = random_weyl_image(t, v, rng)
            assert dominant_representative(t, moved) == canon


@pytest.mark.parametrize("t", [A(2), A(3), B(3), B(4), C(4), D(3), D(4), G2])
def test_canonicalization_matches_orbit_enumeration(t):
    rng = random.Random(7 * t.ncoords + 1)
    for _ in range(12):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t.ncoords))
        orbit = full_orbit(t, v)
        dominant = [w for w in orbit if weights._dominance_kernel(t)(w)]
        assert dominant, (t, v)
        canon = dominant_representative(t, v)
        assert canon in orbit
        assert canon in dominant
        # unique dominant element up to chamber-wall coincidences: the canonical
        # form must be reproduced from every orbit element
        for w in orbit:
            assert dominant_representative(t, w) == canon


@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_canonicalization_D4_hypothesis(coords):
    v = tuple(Fraction(c) for c in coords)
    canon = dominant_representative(D(4), v)
    assert weights._dominance_kernel(D(4))(canon)
    flips = sum(1 for x in v if x < 0)
    if 0 not in [abs(x) for x in v]:
        assert sorted(map(abs, canon), reverse=True) == sorted(map(abs, v), reverse=True)
        assert (sum(1 for x in canon if x < 0) % 2) == (flips % 2)


def test_product_canonicalization_factorwise():
    t = Product(B(2), Trivial(1), A(1))
    v = F(-1, 3, -5, 0, 2)
    assert dominant_representative(t, v) == F(3, 1, -5, 2, 0)


def test_weyl_dimension_examples():
    assert weyl_dimension(B(2), F(1, 0)) == 5
    assert weyl_dimension(B(2), F(2, 0)) == 14
    assert weyl_dimension(D(4), F(1, 0, 0, 0)) == 8


def test_weyl_dimension_trivial_weight_is_one():
    for t in TYPES:
        zero = tuple(Fraction(0) for _ in range(t.ncoords))
        assert weyl_dimension(t, zero) == 1


def test_weyl_dimension_nondominant_rejected():
    with pytest.raises(ValueError):
        weyl_dimension(B(2), F(0, 1))


def _binom(n, k):
    import math

    return math.comb(n, k) if 0 <= k <= n else 0


def test_weyl_dimension_spherical_harmonics_oracle():
    # dim H^j(R^m) = C(j+m-1, m-1) - C(j+m-3, m-1)
    for m, t in [(7, B(3)), (8, D(4)), (9, B(4)), (16, D(8))]:
        for j in range(7):
            lam = tuple(Fraction(j if i == 0 else 0) for i in range(t.ncoords))
            expected = _binom(j + m - 1, m - 1) - _binom(j + m - 3, m - 1)
            assert weyl_dimension(t, lam) == expected


def test_weyl_dimension_complex_harmonics_oracle():
    # dim H^{k,l}(C^m) via U(m) highest weight (k,0,...,0,-l)
    for m in (3, 4):
        t = A(m - 1)
        for k in range(5):
            for l in range(5):
                lam = [0] * m
                lam[0], lam[-1] = k, lam[-1] - l
                expected = _binom(k + m - 1, k) * _binom(l + m - 1, l) - _binom(
                    k + m - 2, k - 1
                ) * _binom(l + m - 2, l - 1)
                assert weyl_dimension(t, tuple(map(Fraction, lam))) == expected


def test_weyl_dimension_G2_matches_seven_sphere_harmonics():
    # Rep(G2, k*omega2) has the dimension of H^k(R^7)
    for k in range(8):
        lam = (Fraction(0), Fraction(k))
        expected = _binom(k + 6, 6) - _binom(k + 4, 6)
        assert weyl_dimension(G2, lam) == expected


def test_weyl_dimension_constant_on_orbits():
    t = B(3)
    lam = F(4, 2, 1)
    dim = weyl_dimension(t, lam)
    rng = random.Random(5)
    for _ in range(10):
        moved = random_weyl_image(t, lam, rng)
        canon = dominant_representative(t, moved)
        assert weyl_dimension(t, canon) == dim


DIMENSION_TYPES = (
    [A(n) for n in range(1, 5)]
    + [B(n) for n in range(1, 5)]
    + [C(n) for n in range(1, 5)]
    + [D(n) for n in range(2, 6)]
    + [G2]
)


def _dimension_or_error(fn):
    try:
        return fn()
    except (ValueError, AssertionError) as exc:
        return type(exc)


@pytest.mark.parametrize("t", DIMENSION_TYPES, ids=str)
def test_weyl_dimension_matches_positive_root_oracle(t):
    # every weight with coordinates in {0, 1/2, 1, 3/2, 2}: the integer route
    # gives the exact positive-root product where that is a positive integer,
    # and raises the same error where it is not or the weight is not dominant
    seen = set()
    for v in itertools.product([Fraction(k, 2) for k in range(5)], repeat=t.ncoords):
        expected = _dimension_or_error(lambda: oracles.weyl_dimension(t, v))
        assert _dimension_or_error(lambda: weyl_dimension(t, v)) == expected, v
        seen.add(expected if isinstance(expected, type) else int)
    assert int in seen


def _outcome(fn):
    """fn()'s value, or the type and message of the ValueError or
    AssertionError it raised: reports print the message."""
    try:
        return fn()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _fraction_dimension(t, lam):
    """The Weyl dimension by the positive-root product in Fractions, factor
    by factor for a product."""
    if t.family == "Trivial":
        return 1
    if t.family == "Product":
        out = 1
        for f, part in oracles._split(t, lam):
            out *= _fraction_dimension(f, part)
        return out
    return oracles.weyl_dimension(t, lam)


def _doubled_labels(t, rng):
    """Doubled labels of t: random vectors (mostly not dominant, odd entries
    among them), their dominant forms, the doubles of integral dominant
    weights, and vectors one coordinate too short and too long."""
    n = t.ncoords
    labels = []
    for _ in range(12):
        v2 = tuple(rng.randint(-7, 7) for _ in range(n))
        dominant = dominant_representative(t, v2)
        labels += [v2, dominant, tuple(2 * x for x in dominant)]
    return labels + [(0,) * (n - 1), (1,) * (n + 1)]


def test_dimension_kernel_matches_the_integer_and_fraction_oracles():
    # the compiled dimension of every type of
    # test_closed_form_rho_is_the_half_sum_of_the_positive_roots (every nu
    # and pi group of build_records(6) among them) against the per-table
    # loop it replaced and the Fraction product over the listed roots: equal
    # values on dominant labels, and on the others the same exception, type
    # and message, as the loop; the Fraction route, which is slow, is asked
    # for the first 8 labels of the right length per type, and raises the
    # same type
    rng = random.Random(2026)
    seen = set()
    for t in sorted(_record_types() | set(CLOSED_FORM_TYPES), key=str):
        kernel = weights._dimension_kernel(t)
        fraction_checks = 8
        for lam2 in _doubled_labels(t, rng):
            got = _outcome(lambda: kernel(lam2))
            assert got == _outcome(lambda: oracles.dimension2(t, lam2)), (t, lam2)
            assert got == _outcome(lambda: kernel(list(lam2))), (t, lam2)
            if isinstance(got, tuple):
                seen.add(got[1].split(" ")[0])
            if len(lam2) != t.ncoords or not fraction_checks:
                continue
            fraction_checks -= 1
            lam = tuple(Fraction(x, 2) for x in lam2)
            expected = _outcome(lambda: _fraction_dimension(t, lam))
            if isinstance(got, int):
                assert expected == got == weyl_dimension(t, lam), (t, lam2)
                seen.add(int)
            else:
                assert isinstance(expected, tuple) and expected[0] is got[0], (t, lam2, got)
    assert seen == {int, "doubled", "non-integral", "expected"}, seen


CANONICAL_TYPES = (
    [A(1), A(4), B(1), B(3), C(2), C(4), D(2), D(3), D(5), G2, Trivial(2)]
    + [Product(B(2), Trivial(1), A(1)), Product(C(3), C(1)), Product(D(4), G2, A(2))]
)


@pytest.mark.parametrize("t", CANONICAL_TYPES, ids=str)
@pytest.mark.parametrize("mod_trace", [False, True])
def test_canonical_kernel_matches_dominant_representative(t, mod_trace):
    # the compiled canonical form on random doubled vectors against the
    # generic route (dominant_representative, after the trace is removed)
    # and the Fraction route of the transfer check's oracle
    from types import SimpleNamespace

    rng = random.Random("%s/%s" % (t, mod_trace))
    kernel = weights._canonical_kernel(t, mod_trace)
    n = t.ncoords
    record = SimpleNamespace(mod_trace=mod_trace, nu_group=SimpleNamespace(weyl=t))
    scale = 2 * n if mod_trace else 2
    for _ in range(80):
        v2 = [rng.randint(-9, 9) for _ in range(n)]
        got = kernel(v2)
        assert all(type(x) is int for x in got), got
        assert got == kernel(tuple(v2)) == oracles._canonical2(t, mod_trace, v2), v2
        if not mod_trace:
            assert got == dominant_representative(t, v2), v2
        reference = oracles.canonical_char(record, [Fraction(x, 2) for x in v2])
        assert tuple(Fraction(x, scale) for x in got) == reference, v2
    for wrong in ([0] * (n - 1), [1] * (n + 1)):
        expected = _outcome(lambda: oracles._canonical2(t, mod_trace, wrong))
        assert _outcome(lambda: kernel(wrong)) == expected == (
            ValueError,
            "expected %d coordinates, got %d" % (n, len(wrong)),
        )


@pytest.mark.parametrize("t", CANONICAL_TYPES, ids=str)
def test_dominance_kernel_matches_the_interpreted_test(t):
    # the compiled dominance test against the per-factor loop it replaced,
    # on random doubled vectors and on their dominant forms, products
    # included; a wrong length is a ValueError except for Trivial
    rng = random.Random("dominance/%s" % t)
    factors = t.factors or (t,)
    n = t.ncoords
    seen = set()
    for _ in range(60):
        v2 = [rng.randint(-9, 9) for _ in range(n)]
        for v in (v2, dominant_representative(t, v2)):
            parts = oracles._split(t, v) if t.factors else [(t, v)]
            expected = all(
                f.family == "Trivial" or oracles._dominant(f.family, part) for f, part in parts
            )
            assert weights._dominance_kernel(t)(v) is expected, v
            seen.add(expected)
    assert seen == ({True} if all(f.family == "Trivial" for f in factors) else {True, False})
    if t.family != "Trivial":
        with pytest.raises(ValueError, match="expected %d coordinates" % n):
            weights._dominance_kernel(t)([0] * (n + 1))
