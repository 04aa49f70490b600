"""Integer affine maps, the integer row reducer and the mod-P filter in
front of it, against the Fraction vectors and matrices of the oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.linalg import P, AffineMap, IntEchelon, independent_rows, rank
from oracles import dot, fraction_apply, mat, solve, vec


def test_vec_and_dot():
    v = vec([1, "1/2", Fraction(3, 4)])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
    assert dot(v, vec([4, 4, 4])) == 9
    with pytest.raises(ValueError):
        dot(vec([1]), vec([1, 2]))


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2, 0], [0, 1, 1]]) == 2


def test_solve_consistent_and_inconsistent():
    m = mat([[1, 1], [1, -1]])
    x = solve(m, vec([3, 1]))
    assert x == (Fraction(2), Fraction(1))
    assert solve(mat([[1, 1], [2, 2]]), vec([1, 3])) is None
    # underdetermined: free variables pinned to zero, still a valid solution
    m = mat([[1, 1, 0]])
    x = solve(m, vec([5]))
    assert sum(a * b for a, b in zip(m[0], x)) == 5


def test_solve_is_exact_on_int_entries():
    # 49 * (1 / 49) is not 1 in floats: a float division would leave the
    # second row non-zero and the consistent system without a solution.
    rows, rhs = [[49, 1], [98, 2]], [50, 100]
    assert solve(rows, rhs) == solve(mat(rows), vec(rhs)) == (Fraction(50, 49), Fraction(0))


def _gauss_jordan(m):
    """Oracle: full reduction of every row, pivots in the original row order."""
    rows = [list(row) for row in m]
    order = list(range(len(rows)))
    r, pivots = 0, []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        order[r], order[pivot] = order[pivot], order[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(order[r])
        r += 1
    return r, pivots


def _sparse_matrix(rng, nrows, ncols):
    return mat(
        [[rng.choice((0, 0, 0, 1, -2, "1/3")) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_and_pivot_rows_match_full_reduction():
    rng = random.Random(5)
    for _ in range(200):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        if rng.random() < 0.3:  # a dependent row
            m = m + (tuple(a + b for a, b in zip(m[0], m[-1])),)
        # every entry times 3 is an integer
        assert rank([[int(3 * x) for x in row] for row in m]) == _gauss_jordan(m)[0]
        # the integer echelon keeps exactly the rows that raise the rank of
        # the rows before them
        echelon = IntEchelon()
        kept = [i for i, row in enumerate(m) if echelon.add([int(3 * x) for x in row])]
        assert kept == [
            i for i in range(len(m)) if _gauss_jordan(m[: i + 1])[0] > _gauss_jordan(m[:i])[0]
        ]


def _sparse_vector(rng, ncols):
    return {c: rng.choice((1, -1, 2, -3, 6)) for c in range(ncols) if rng.random() < 0.45}


def _sum_of(coeffs, vectors):
    out = {}
    for k, a in coeffs.items():
        for c, x in vectors[k].items():
            out[c] = out.get(c, 0) + a * x
    return {c: x for c, x in out.items() if x}


def test_int_echelon_keeps_reduced_primitive_rows_and_combinations():
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        vectors = [_sparse_vector(rng, ncols) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.4:  # a dependent vector
            vectors.append(_sum_of({0: 2, len(vectors) - 1: -1}, vectors))
        dense = mat([[v.get(c, 0) for c in range(ncols)] for v in vectors])
        echelon = IntEchelon()
        for i, v in enumerate(vectors):
            rises = _gauss_jordan(dense[: i + 1])[0] > _gauss_jordan(dense[:i])[0]
            assert echelon.insert(v, {i: 1}) == rises
        assert echelon.rank == _gauss_jordan(dense)[0]
        for p, (terms, payload) in echelon.rows.items():
            assert terms[p]
            assert math.gcd(*terms.values(), *payload.values()) == 1
            assert all(p not in other for q, (other, _) in echelon.rows.items() if q != p)
            assert _sum_of(payload, vectors) == terms
        # a vector in the span reduces to nothing, with its combination
        member = _sum_of({i: rng.randint(-3, 3) for i in range(len(vectors))}, vectors)
        scale, residual, used = echelon.reduce(member)
        assert residual == {} and scale != 0
        assert _sum_of(used, vectors) == {c: scale * x for c, x in member.items()}
        # extending a copy leaves the original as it was
        before = {p: (dict(terms), dict(payload)) for p, (terms, payload) in echelon.rows.items()}
        copy = IntEchelon(echelon.rows)
        for j in range(4):
            copy.insert(_sparse_vector(rng, ncols + 1), {len(vectors) + j: 1})
        assert echelon.rank == len(before) and echelon.rows == before


def _exact_kept(m, ncols):
    """(full rank, kept) of a plain IntEchelon loop over the rows of m,
    stopping at ncols kept rows."""
    echelon = IntEchelon()
    kept = []
    for i, row in enumerate(m):
        if echelon.add(row):
            kept.append(i)
            if echelon.rank == ncols:
                return True, kept
    return False, kept


def _independent_rows(m, ncols, residues=False):
    """independent_rows over the labelled rows of m, given exact or as their
    residues mod P, and the labels whose exact rows it asked for: none
    unless it handed over to IntEchelon."""
    asked = []

    def exact(i):
        asked.append(i)
        return m[i]

    rows = [[x % P for x in row] if residues else row for row in m]
    return independent_rows(enumerate(rows), ncols, exact), asked


def test_independent_rows_hands_over_where_the_determinant_is_divisible_by_p():
    # full rank over the rationals with determinant P: the prime keeps the
    # first two rows and reduces the third to zero, so the exact route keeps it
    m = [[1, 2, 0], [0, 1, 5], [0, 0, P]]
    assert _independent_rows(m, 3) == ((True, [0, 1, 2]), [0, 1, 2])
    # rows 0 and 1 have determinant P, row 2 is twice row 0: the exact route
    # takes over at row 1, keeps it, leaves out row 2 and keeps row 3
    m = [[1, 1, 0], [1, 1 + P, 0], [2, 2, 0], [0, 0, 1]]
    assert _exact_kept(m, 3) == (True, [0, 1, 3])
    for residues in (False, True):
        assert _independent_rows(m, 3, residues) == ((True, [0, 1, 3]), [0, 1, 2, 3])


def test_independent_rows_leaves_out_a_planted_dependent_row():
    rng = random.Random(11)
    for _ in range(100):
        ncols = rng.randint(2, 6)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(ncols - 1)]
        a, b = rng.randint(-3, 3), rng.randint(1, 3)
        planted = len(m)
        m.append([a * x - b * y for x, y in zip(m[0], m[-1])])
        m += [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(3)]
        expected = _exact_kept(m, ncols)
        assert planted not in expected[1]
        assert _independent_rows(m, ncols)[0] == expected


def test_independent_rows_keeps_the_prime_route_where_nothing_is_skipped():
    # dense residues up to P - 1 take the most additions per entry that the
    # packed rows must hold without a carry; these reach full rank mod P
    rng = random.Random(12)
    for ncols in (1, 7, 40):
        m = [[rng.randrange(P) for _ in range(ncols)] for _ in range(ncols + 2)]
        assert _independent_rows(m, ncols) == (_exact_kept(m, ncols), [])
        assert _exact_kept(m, ncols) == (True, list(range(ncols)))
    # the identity never hands over, and stops at full rank
    m = [[int(i == j) for j in range(5)] for i in range(5)] + [[1] * 5]
    assert _independent_rows(m, 5) == ((True, [0, 1, 2, 3, 4]), [])
    # no rows, or too few, are not full rank
    assert _independent_rows([], 3) == ((False, []), [])
    assert _independent_rows([[1, 0, 0], [0, 1, 0]], 3) == ((False, [0, 1]), [])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda ncols: st.lists(
            st.lists(
                st.sampled_from((0, 0, 1, -1, 2, P, -P, 2 * P, P + 1, P * P)),
                min_size=ncols,
                max_size=ncols,
            ),
            max_size=8,
        ).map(lambda m: (ncols, m))
    ),
    st.booleans(),
)
def test_independent_rows_keeps_the_rows_int_echelon_keeps(case, residues):
    ncols, m = case
    assert _independent_rows(m, ncols, residues)[0] == _exact_kept(m, ncols)


def test_solve_on_sparse_systems():
    rng = random.Random(6)
    for _ in range(200):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rhs = vec(rng.randint(-3, 3) for _ in m)
        x = solve(m, rhs)
        augmented = tuple(row + (b,) for row, b in zip(m, rhs))
        consistent = _gauss_jordan(m)[0] == _gauss_jordan(augmented)[0]
        assert (x is not None) == consistent
        if x is not None:
            assert tuple(dot(row, x) for row in m) == rhs


def test_affine_map():
    f = AffineMap.of([[1, 2], [0, 1]], [5, "1/2"], 2)
    assert f.rows == ((((0, 2), (1, 4)), 10), (((1, 2),), 1))
    assert f.den == 2 and f.source == 2
    assert f.matrix == mat([[1, 2], [0, 1]]) and f.offset == vec([5, "1/2"])
    assert f.apply((1, 1)) == (Fraction(8), Fraction(3, 2))
    assert f.numerators((1, 1)) == (16, 3)
    assert f.apply((Fraction(1, 3), 0)) == fraction_apply(f, (Fraction(1, 3), 0))
    with pytest.raises(ValueError):
        f.apply((1, 2, 3))
    empty = AffineMap.of([], [], 3)
    assert (empty.rows, empty.den) == ((), 1)
    assert empty.apply((1, 2, 3)) == ()
    with pytest.raises(ValueError):
        AffineMap.of([[1, 2]], [1, 2], 2)
    with pytest.raises(ValueError):
        AffineMap.of([[1, 2]], [1], 3)


def test_affine_map_of_builds_its_documented_form_and_matches_the_fraction_route():
    rng = random.Random(8)
    for _ in range(200):
        source = rng.randint(0, 5)
        m = _sparse_matrix(rng, rng.randint(0, 5), source) if source else ()
        offset = vec(rng.choice((0, 1, "-3/2", "1/6")) for _ in m)
        f = AffineMap.of(m, offset, source)
        assert f.matrix == m and f.offset == offset
        # rows in the form AffineMap documents
        entries = [f.den]
        for coeffs, off in f.rows:
            assert [i for i, _ in coeffs] == sorted({i for i, _ in coeffs if 0 <= i < source})
            entries += [off] + [c for _, c in coeffs]
            assert all(type(x) is int for x in entries) and all(c for _, c in coeffs)
        assert f.den > 0 and math.gcd(*entries) == 1
        v = vec(rng.choice((0, 2, -1, "5/2")) for _ in range(source))
        assert f.apply(v) == fraction_apply(f, v) == tuple(dot(r, v) + o for r, o in zip(m, offset))


def test_affine_map_of_keeps_int_entries_and_matches_the_all_fraction_route():
    # Int entries stay ints, an integral Fraction becomes one, and the rows
    # and den are those the same entries give as Fractions.
    rng = random.Random(34)
    choices = (0, 1, -2, 7, Fraction(3), Fraction(-1, 2), "5/3", Fraction(4, 6), True)
    for _ in range(300):
        source = rng.randint(0, 4)
        m = [[rng.choice(choices) for _ in range(source)] for _ in range(rng.randint(0, 4))]
        offset = [rng.choice(choices) for _ in m]
        f = AffineMap.of(m, offset, source)
        exact = [[Fraction(x) for x in (*row, off)] for row, off in zip(m, offset)]
        den = math.lcm(1, *(x.denominator for row in exact for x in row))
        want = tuple(
            (tuple((i, int(x * den)) for i, x in enumerate(row[:-1]) if x), int(row[-1] * den))
            for row in exact
        )
        assert (f.rows, f.den) == (want, den)
        assert all(type(x) is int for coeffs, off in f.rows for x in (off, *(c for _, c in coeffs)))
