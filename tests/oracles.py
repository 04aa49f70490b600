"""Reference oracles: routes in Fractions that the package's integer code is
compared against, on Fraction vectors and matrices, which the package does
not use (``vec``, ``vadd``, ``dot``, ``mat``, ``mat_vec``, with
``fraction_rank``, ``fraction_apply`` and ``transfer_image``), among them
the listed positive roots whose half-sum is rho (``positive_roots``,
``half_sum``), the canonical orbit form of a
transfer image (``canonical_char``), the dense Gauss–Jordan ``solve`` behind
test_dgx's membership oracle and the row elimination of the independence
certificate (``independent_witness``), both exact whatever their entries'
type, ``FractionPoly`` (the polynomial arithmetic of ``dgx.Poly`` on a
dict of Fraction coefficients), the generic per-point
loops that the package's compiled kernels replaced (``_apply2``,
``_satisfies``, ``_canonical2`` with ``dominant_representative``,
``_dominant``, ``dimension2``), the composite maps in Fractions
(``fraction_maps``) that verify composes on integer rows, and the box
checks' separate per-check loops, which test_verify compares the one box
pass against.  It also holds two
record queries that only the tests ask: ``pi_tau`` (the labels of the
canonical map at one theta) and ``branch`` (the branching of one pi), and
``highest_weight``, which reads an irrep label's weight back.
``monomial`` gives one entry of a moment row, which the package builds a
row at a time.  The per-degree brute force of a weighted Hilbert model
(``graded_invariant_dim``) is the reference of ``hilbert``'s one pass.
The restricted roots and kill rows of each symmetric case
(``cartan_helgason_data``) give test_reps an independent route to the
spherical pi of Disc(Gtilde/Htilde).

Nothing in branchlab calls these; they exist only to cross-check it.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Optional

from branchlab import hilbert, linalg, verify, weights
from branchlab.catalog import CaseRecord
from branchlab.linalg import AffineMap, Matrix, Vector
from branchlab.reps import casimir_eigenvalue
from branchlab.verify import CaseReport
from branchlab.weights import _dominant_D, _dominant_G2, _rho2


def _clear_column(rows: list[list[Fraction]], r: int, c: int, targets: Iterable[int]) -> None:
    """Scale row r to 1 at column c and subtract it from each target row
    with a non-zero entry there, touching only the pivot row's non-zero columns."""
    pivot_row = rows[r]
    inv = Fraction(1) / pivot_row[c]
    support = [(j, x * inv) for j, x in enumerate(pivot_row) if x != 0]
    for j, y in support:
        pivot_row[j] = y
    for i in targets:
        row = rows[i]
        f = row[c]
        if f != 0:
            for j, y in support:
                row[j] -= f * y


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution x of m·x = rhs, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    nrows = len(m)
    if nrows == 0:
        return () if all(b == 0 for b in rhs) else None
    ncols = len(m[0])
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    r = 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        _clear_column(aug, r, c, [i for i in range(nrows) if i != r])
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][ncols]
    return tuple(x)


class FractionPoly:
    """Sparse polynomial in x, y, z as a dict {(a, b, c): Fraction} with no
    zero coefficient: the reference ``dgx.Poly``'s integer form is checked
    against, operation by operation."""

    VARS = ("x", "y", "z")

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                self.terms[tuple(exps)] = coeff

    def __eq__(self, other):
        return isinstance(other, FractionPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "FractionPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            new = out.get(e, Fraction(0)) + c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return FractionPoly(out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other) -> "FractionPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FractionPoly(out)

    def __pow__(self, k: int) -> "FractionPoly":
        out = FractionPoly({(0, 0, 0): 1})
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

    def substitute_z(self, value) -> "FractionPoly":
        value = Fraction(value)
        out: dict = {}
        for (a, b, c), coeff in self.terms.items():
            out[(a, b, 0)] = out.get((a, b, 0), 0) + coeff * value ** c
        return FractionPoly(out)

    def swap_xy(self) -> "FractionPoly":
        return FractionPoly({(b, a, c): coeff for (a, b, c), coeff in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "".join(
                "%s%s" % (v, "^%d" % k if k > 1 else "") for v, k in zip(self.VARS, e) if k
            )
            bits.append("%s%s" % (c, ("*" + mono) if mono else ""))
        return " + ".join(bits)


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def vadd(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x + y for x, y in zip(a, b))


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def fraction_rank(m) -> int:
    """The rank of rows of rationals: ``linalg.rank`` of each row scaled to
    integers by the lcm of its denominators."""
    scaled = []
    for row in mat(m):
        den = math.lcm(1, *(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return linalg.rank(scaled)


def fraction_apply(amap: AffineMap, v) -> Vector:
    """amap at v by its Fraction matrix and offset, apart from the integer
    rows that ``AffineMap.apply`` reads."""
    return vadd(mat_vec(amap.matrix, vec(v)), amap.offset)


def nu_plus_rho(record: CaseRecord, theta) -> Vector:
    """nu(theta) + rho by Fractions, through the oracle's own half sum."""
    return vadd(fraction_apply(record.nu_label_map, theta), half_sum(record.nu_group.weyl))


def transfer_image(record: CaseRecord, tau, lam) -> Vector:
    """S_tau(lam) from the record's three transfer fields in Fractions."""
    shift = vadd(mat_vec(record.transfer_tau, vec(tau)), record.transfer_offset)
    return vadd(mat_vec(record.transfer_matrix, vec(lam)), shift)


def vsub(a: Vector, b: Vector) -> Vector:
    assert len(a) == len(b), (a, b)
    return tuple(x - y for x, y in zip(a, b))


def _unit(n: int, i: int, c=1) -> Vector:
    return tuple(Fraction(c if j == i else 0) for j in range(n))


def positive_roots(t) -> list[Vector]:
    """The standard positive system for a lettered type or G2, listed root by
    root: the reference that ``weights._rho2`` and ``weights._root_rows``
    write in closed form."""
    fam, n = t.family, t.rank
    if fam == "A":
        m = n + 1
        return [vsub(_unit(m, i), _unit(m, j)) for i in range(m) for j in range(i + 1, m)]
    if fam in ("B", "C", "D"):
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(vsub(_unit(n, i), _unit(n, j)))
                roots.append(tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j))))
        if fam == "B":
            roots.extend(_unit(n, i) for i in range(n))
        if fam == "C":
            roots.extend(_unit(n, i, 2) for i in range(n))
        return roots
    if fam == "G2":
        # omega-coordinates; first three short, last three long
        return [vec(a) for a in ((-1, 2), (1, -1), (0, 1), (2, -3), (-1, 3), (1, 0))]
    raise ValueError("no positive system for type %s" % t)


@functools.cache
def half_sum(t) -> Vector:
    """Half the sum of ``positive_roots(t)``, per factor of a product; zero
    for Trivial."""
    if t.family == "Trivial":
        return (Fraction(0),) * t.rank
    if t.family == "Product":
        return sum((half_sum(f) for f in t.factors), ())
    total = [Fraction(0)] * t.ncoords
    for r in positive_roots(t):
        total = [a + b for a, b in zip(total, r)]
    return tuple(x / 2 for x in total)


# ---------------------------------------------------------------------------
# The generic per-point loops that the package's compiled kernels replaced:
# the doubled image of a row list, a space's membership rows, the canonical
# form of a transfer image and the Weyl dimension from a per-type table.
# The kernels are compared against them.


def _apply2(rows2, params) -> list[int]:
    """The values at params of the doubled rows (((index, coefficient),
    ...), offset): ``nest.affine_kernel``'s reference."""
    out = []
    for coeffs, value in rows2:
        for i, c in coeffs:
            value += c * params[i]
        out.append(value)
    return out


def _satisfies(rows, params) -> bool:
    """Do params satisfy every row (((index, coefficient), ...), const, mod):
    the sum plus const >= 0, or == 0 mod ``mod`` when mod > 0?  The
    reference of ``catalog._membership_kernel``, for params of its length."""
    for coeffs, value, mod in rows:
        for i, a in coeffs:
            value += a * params[i]
        if value % mod if mod else value < 0:
            return False
    return True


def _canonical2(weyl, mod_trace: bool, values2: list[int]) -> tuple:
    """Canonical W(g_C)-orbit form on doubled-integer coordinates; modulo the
    trace direction it is scaled by the coordinate count to stay integral:
    ``weights._canonical_kernel``'s reference."""
    if mod_trace:
        n = len(values2)
        total = sum(values2)
        values2 = [n * v - total for v in values2]
    return dominant_representative(weyl, values2)


def _split(t, v) -> list:
    """[(factor, its slice of v)] over the factors of a product type t."""
    parts = []
    pos = 0
    for f in t.factors:
        k = f.ncoords
        parts.append((f, v[pos : pos + k]))
        pos += k
    return parts


def dominant_representative(t, v) -> tuple:
    """The dominant element of the Weyl orbit of v, branch by branch and
    factor by factor: ``weights._canonical_kernel``'s reference."""
    if len(v) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(v)))
    fam = t.family
    if fam == "Trivial":
        return tuple(v)
    if fam == "Product":
        return sum((dominant_representative(f, part) for f, part in _split(t, v)), ())
    if fam == "A":
        return tuple(sorted(v, reverse=True))
    if fam in ("B", "C"):
        return tuple(sorted(map(abs, v), reverse=True))
    if fam == "D":
        return _dominant_D(v)
    if fam == "G2":
        return _dominant_G2(v)
    raise ValueError("cannot canonicalize type %s" % t)


def _dominant(fam: str, v) -> bool:
    """Dominance read off the coordinates, the reference of
    ``weights._dominance_kernel``: the pairings with the simple roots are
    v_i - v_(i+1) and, per family, v_n (B), 2·v_n (C) or v_(n-1) + v_n (D);
    G2's omega-coordinates are its simple coroot pairings."""
    if fam == "G2":
        return v[0] >= 0 and v[1] >= 0
    for i in range(len(v) - 1):
        if v[i] < v[i + 1]:
            return False
    if fam in ("B", "C") and v and v[-1] < 0:
        return False
    if fam == "D" and len(v) >= 2 and v[-2] < abs(v[-1]):
        return False
    return True


@functools.cache
def _dimension_table(t) -> tuple:
    """Per non-trivial factor of t: (family, the factor's slice of the
    coordinates, 2·rho, the formula's denominator) for ``_dimension2``."""
    table = []
    pos = 0
    for f in t.factors or (t,):
        k = f.ncoords
        if f.family != "Trivial":
            rho2 = _rho2(f)
            table.append((f.family, slice(pos, pos + k), rho2, _root_product(f.family, rho2)))
        pos += k
    return tuple(table)


def _dimension2(table: tuple, lam2) -> int:
    """The Weyl dimension of the weight with doubled coordinates lam2, from
    the type's ``_dimension_table``."""
    out = 1
    for fam, sl, rho2, den in table:
        block = lam2[sl]
        if not _dominant(fam, block):
            raise ValueError("doubled weight %s is not dominant for %s" % (list(block), fam))
        num = _root_product(fam, [x + r for x, r in zip(block, rho2)])
        if num % den:
            raise AssertionError("non-integral Weyl dimension %s/%s" % (num, den))
        out *= num // den
    if out <= 0:
        raise AssertionError("non-positive Weyl dimension %d" % out)
    return out


def dimension2(t, lam2) -> int:
    """``weights._dimension_kernel(t)``'s reference: the coordinate count
    that ``weights.weyl_dimension`` checks, then ``_dimension2``."""
    if len(lam2) != t.ncoords:
        raise ValueError("expected %d coordinates, got %d" % (t.ncoords, len(lam2)))
    return _dimension2(_dimension_table(t), lam2)


@functools.cache
def _pair_getters(n: int) -> tuple:
    """Two functions from n coordinates to the tuples of the first and of the
    second coordinates of the pairs i < j, in the same order."""
    pairs = tuple(itertools.combinations(range(n), 2))
    if len(pairs) < 2:  # itemgetter returns a tuple only for two indices or more
        return (
            lambda a: tuple(a[i] for i, _ in pairs),
            lambda a: tuple(a[j] for _, j in pairs),
        )
    return (
        operator.itemgetter(*(i for i, _ in pairs)),
        operator.itemgetter(*(j for _, j in pairs)),
    )


def _root_product(fam: str, a) -> int:
    """The product over the positive roots of their pairings with the doubled
    weight a, each scaled alike (G2: through twice its Gram matrix)."""
    if fam == "G2":
        return math.prod(a[0] * g0 + a[1] * g1 for g0, g1 in weights._G2_ROOT_ROWS)
    first, second = _pair_getters(len(a))
    x, y = first(a), second(a)
    out = math.prod(map(operator.sub, x, y))
    if fam != "A":
        out *= math.prod(map(operator.add, x, y))
    if fam == "B":
        out *= math.prod(a)
    if fam == "C":
        out *= 2 ** len(a) * math.prod(a)
    return out


def canonical_char(record: CaseRecord, v) -> tuple:
    """The canonical W(g_C)-orbit form of v in Fractions: modulo the trace
    direction for a mod-trace record, then the dominant representative."""
    v = vec(v)
    if record.mod_trace:
        # SU-side infinitesimal characters live modulo the trace direction.
        mean = sum(v) / len(v)
        v = tuple(x - mean for x in v)
    return dominant_representative(record.nu_group.weyl, v)


def simple_roots(t):
    fam, n = t.family, t.rank
    if fam == "A":
        m = n + 1
        return [vsub(_unit(m, i), _unit(m, i + 1)) for i in range(n)]
    if fam in ("B", "C", "D"):
        roots = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        if fam == "B":
            roots.append(_unit(n, n - 1))
        elif fam == "C":
            roots.append(_unit(n, n - 1, 2))
        else:  # D
            if n < 2:
                raise ValueError("D requires rank >= 2")
            roots.append(tuple(a + b for a, b in zip(_unit(n, n - 2), _unit(n, n - 1))))
        return roots
    if fam == "G2":
        return [vec((2, -3)), vec((-1, 2))]  # alpha1 (long), alpha2 (short)
    raise ValueError("no simple system for type %s" % t)


# The Gram matrix of G2's (omega1, omega2) with |short root|^2 = 1, written
# out apart from weights', so that a wrong entry there shows.
G2_GRAM = ((Fraction(3), Fraction(3, 2)), (Fraction(3, 2), Fraction(1)))


def pairing(t, v, w) -> Fraction:
    """The invariant form of a simple type: dot, or G2's Gram matrix."""
    v, w = vec(v), vec(w)
    if t.family == "G2":
        return sum(v[i] * G2_GRAM[i][j] * w[j] for i in range(2) for j in range(2))
    return dot(v, w)


def weyl_dimension(t, lam) -> int:
    """The Weyl dimension of a simple type as the exact product
    prod <lam+rho, a> / <rho, a> over the positive roots; ValueError for a
    weight that is not dominant, AssertionError for a ratio that is not a
    positive integer."""
    lam, r = vec(lam), half_sum(t)
    if not all(pairing(t, lam, a) >= 0 for a in simple_roots(t)):
        raise ValueError("weight %s is not dominant for %s" % (lam, t))
    shifted = tuple(a + b for a, b in zip(lam, r))
    ratio = Fraction(1)
    for a in positive_roots(t):
        ratio *= pairing(t, shifted, a) / pairing(t, r, a)
    if ratio.denominator != 1 or ratio <= 0:
        raise AssertionError("Weyl dimension %s is not a positive integer" % ratio)
    return int(ratio)


G2_GRAM2 = tuple(tuple(int(2 * x) for x in row) for row in G2_GRAM)


def _pairing2(t, v, w) -> int:
    """Twice the invariant form of a simple type on integer vectors."""
    if t.family == "G2":
        return sum(v[i] * G2_GRAM2[i][j] * w[j] for i in range(2) for j in range(2))
    return 2 * sum(a * b for a, b in zip(v, w))


def reflect(t, root, v2):
    """The reflection in the integral root of the weight with doubled
    coordinates v2, on integers: the coroot pairing 2<v2, a>/<a, a> of an
    integral vector is an integer."""
    c, r = divmod(2 * _pairing2(t, v2, root), _pairing2(t, root, root))
    assert r == 0, (t, root, v2)
    return tuple(x - c * y for x, y in zip(v2, root))


@functools.cache
def simple_roots2(t):
    """simple_roots(t) as integer tuples."""
    return [tuple(int(x) for x in a) for a in simple_roots(t)]


def random_weyl_image(t, v, rng: random.Random, words: int = 12):
    """Apply a random word in the simple reflections (per factor for
    products), on doubled integers."""
    v2 = tuple(2 * x for x in vec(v))
    assert all(x.denominator == 1 for x in v2), ("not half-integral", v)
    image = _random_weyl_image2(t, tuple(map(int, v2)), rng, words)
    return tuple(Fraction(x, 2) for x in image)


def _random_weyl_image2(t, v2, rng, words):
    if t.family == "Trivial":
        return v2
    if t.family == "Product":
        return sum(
            (_random_weyl_image2(f, part, rng, words) for f, part in _split(t, v2)), ()
        )
    simples = simple_roots2(t)
    for _ in range(words):
        v2 = reflect(t, rng.choice(simples), v2)
    return v2


# ---------------------------------------------------------------------------
# Label validation, Casimir values and the independence certificate in
# Fractions: the reference routes that the integer code of reps and verify
# is compared against.


def validate_weight(group, w) -> None:
    """Raise ValueError unless w is a highest weight of group."""
    w = vec(w)
    if len(w) != group.rank:
        raise ValueError(
            "%s expects %d coordinates, got %d" % (group.name, group.rank, len(w))
        )
    if group.kind == "Product":
        for f, sl in group.factor_slices:
            validate_weight(f, w[sl])
        if group.almost and (sum(w) % 2) != 0:
            raise ValueError(
                "label %s fails the covering parity of %s" % (w, group.name)
            )
        return
    if not weights._dominance_kernel(group.weyl)(w):
        raise ValueError("label %s is not dominant for %s" % (w, group.name))
    if group.kind == "Spin":
        frac = {x % 1 for x in w}
        if not (frac <= {Fraction(0)} or frac <= {Fraction(1, 2)}):
            raise ValueError("Spin label %s mixes integrality classes" % (w,))
    elif group.kind == "G2":
        if any(x.denominator != 1 for x in w):
            raise ValueError("G2 label %s must be integral" % (w,))
    else:
        if any(x.denominator != 1 for x in w):
            raise ValueError("%s label %s must be integral" % (group.name, w))


def _simple_casimir(group, w) -> Fraction:
    t = group.weyl
    r = half_sum(t)
    value = pairing(t, w, w) + 2 * pairing(t, w, r)
    if group.kind == "SU":
        # Trace-free normalization: the U(n) coordinates are defined modulo the
        # diagonal direction, which is orthogonal to every root.
        s = sum(w)
        value -= s * s / Fraction(group.rank)
    return value


def casimir(group, w):
    """<lam, lam + 2 rho>: a Fraction for a simple group, per factor for a product."""
    w = vec(w)
    if group.kind == "Product":
        return tuple(_simple_casimir(f, w[sl]) for f, sl in group.factor_slices)
    return _simple_casimir(group, w)


def monomial(values, mono):
    """The product of values[i] ** mono[i]: one entry of a moment row."""
    out = 1
    for v, e in zip(values, mono):
        if e:
            out *= v ** e
    return out


def independence_certificate(record, gens, bound: int, degree: int):
    """(bool, witness) of verify.independence_certificate, eliminating the
    moment matrix of the generators' Fraction values over the rationals."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return True, []
    thetas = record.theta.enumerate(bound)
    monos = verify._monomials(len(gens), degree)
    ncols = len(monos)
    if len(thetas) < ncols:
        raise verify.InsufficientSampleError(
            "box with %d points cannot certify degree %d over %d generators"
            % (len(thetas), degree, len(gens))
        )
    evals = [verify._int_eval(record, g) for g in gens]

    def row(theta):
        values = [Fraction(fn(theta), den) for fn, den in evals]
        return [math.prod(v ** e for v, e in zip(values, mono)) for mono in monos]

    return independent_witness(((theta, row(theta)) for theta in thetas), ncols)


def independent_witness(rows, ncols: int):
    """(full rank, witness): the labels of the rows (label, row), in order,
    that are independent of the rows kept before them, and whether ``ncols``
    were kept, where the walk stops.  Every division is a ``Fraction``'s, so
    int entries are eliminated as exactly as rational ones."""
    basis: list = []
    pivots: dict = {}
    witness: list = []
    for label, row in rows:
        while True:
            lead = next((c for c in range(ncols) if row[c] != 0), None)
            if lead is None or lead not in pivots:
                break
            f = row[lead]
            brow = basis[pivots[lead]]
            row = [x - f * y if y else x for x, y in zip(row, brow)]
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [x * inv for x in row]
        pivots[lead] = len(basis)
        basis.append(row)
        witness.append(label)
        if len(basis) == ncols:
            return True, witness
    return False, witness


# ---------------------------------------------------------------------------
# The composite maps in Fractions, as verify built them before it composed
# their doubled rows in integers: ``fraction_maps`` gives each map that
# ``verify._MAPS`` keys, and the box-check loops below read the transfer
# image and nu+rho from here, apart from verify's integer route.


def _compose_affine(outer_matrix, outer_offset, inner: AffineMap) -> AffineMap:
    matrix, inner_offset = inner.matrix, inner.offset
    rows = []
    for row in outer_matrix:
        rows.append(
            tuple(
                sum(row[k] * matrix[k][j] for k in range(len(row)))
                for j in range(inner.source)
            )
        )
    offset = tuple(
        o + sum(row[k] * inner_offset[k] for k in range(len(row)))
        for row, o in zip(outer_matrix, outer_offset)
    )
    return AffineMap.of(rows, offset, inner.source)


def _nu_rho_map(record: CaseRecord) -> AffineMap:
    """theta ↦ nu(theta) + rho, the Z(g_C) side of transfer."""
    nu = record.nu_label_map
    offset = vec(tuple(a + b for a, b in zip(nu.offset, record.nu_group.rho)))
    return AffineMap.of(nu.matrix, offset, nu.source)


def _transfer_image_map(record: CaseRecord) -> AffineMap:
    """theta ↦ S_{tau(theta)}(lambda(theta) + rho_a), as one affine map."""
    a = _compose_affine(record.transfer_matrix, record.transfer_offset, record.lam_rhoa_map)
    b = _compose_affine(
        record.transfer_tau,
        vec([0] * len(record.transfer_offset)),
        record.tau_of_theta,
    )
    rows = [vadd(r1, r2) for r1, r2 in zip(a.matrix, b.matrix)]
    return AffineMap.of(rows, vadd(a.offset, b.offset), a.source)


def fraction_maps(record: CaseRecord) -> dict:
    """{key of ``verify._MAPS``: the record's map in Fractions}, without a
    and b where the record has none."""
    maps = {
        "pi": _compose_affine(
            record.pi_label_map.matrix, record.pi_label_map.offset, record.pi_of_theta
        ),
        "nu": record.nu_label_map,
        "tau": _compose_affine(
            record.tau_label_map.matrix, record.tau_label_map.offset, record.tau_of_theta
        ),
        "a": record.a_map,
        "b": record.b_map,
        "nurho": _nu_rho_map(record),
        "transfer": _transfer_image_map(record),
        "pi_of_theta": record.pi_of_theta,
        "pi_label_map": record.pi_label_map,
    }
    return {key: amap for key, amap in maps.items() if amap is not None}


# ---------------------------------------------------------------------------
# The five box checks as separate loops, one walk of the box each, as they
# stood before verify fused them into one pass; the tests require the same
# (checks_run, failures) from both.  The loop bodies are unchanged but for
# strong multiplicity-freeness, which is written as the plain loop of the
# counting definition verify now uses; its earlier route, with a map per
# theta, stays as ``check_strong_multiplicity_freeness_by_maps``.  The two
# helpers below give the loops the per-symbol and nu+rho routes they were
# written against: a symbol is its compiled form evaluated at theta, the one
# object the box pass carries down its walk.


def _int_eval(record, name):
    fn, den = verify._int_eval(record, name)
    return (lambda theta, memo: fn(theta)), den


def _nu_rho_rows(record):
    return _rows2(_nu_rho_map(record))


def check_relations(record: CaseRecord, bound: int) -> CaseReport:
    """Evaluate every stored relation identity on every enumerated theta."""
    report = CaseReport(record.id, bound)
    compiled = []
    for rel in record.relations:
        pairs = [(coeff, _int_eval(record, sym)) for coeff, sym in rel.terms]
        L = math.lcm(*(den * coeff.denominator for coeff, (fn, den) in pairs))
        terms = tuple(
            (int(coeff * L) // den, fn) for coeff, (fn, den) in pairs
        )
        compiled.append((rel.name, terms))
    failures = []
    count = 0
    for theta in record.theta.enumerate(bound):
        memo: dict = {}
        for name, terms in compiled:
            count += 1
            total = 0
            for m, fn in terms:
                total += m * fn(theta, memo)
            if total:
                failures.append(("relation:%s" % name, theta, 0, total))
    report.checks_run = count
    report.failures = failures
    return report


def check_transfer(record: CaseRecord, bound: int) -> CaseReport:
    """S_tau(lambda(theta) + rho_a) = nu(theta) + rho mod W(g_C), exactly."""
    report = CaseReport(record.id, bound)
    img2 = _rows2(_transfer_image_map(record))
    nr2 = _nu_rho_rows(record)
    weyl = record.nu_group.weyl
    count = 0
    failures = []
    for theta in record.theta.enumerate(bound):
        count += 1
        lhs = _canonical2(weyl, record.mod_trace, _apply2(img2, theta))
        rhs = _canonical2(weyl, record.mod_trace, _apply2(nr2, theta))
        if lhs != rhs:
            failures.append(("transfer", theta, rhs, lhs))
    report.checks_run = count
    report.failures = failures
    return report


def check_dimension_conservation(record: CaseRecord, bound: int) -> CaseReport:
    """dim pi = sum of dim theta over the branching, exactly."""
    report = CaseReport(record.id, bound)
    pi2 = _rows2(record.pi_label_map)
    nu2 = _rows2(record.nu_label_map)

    def pi_dim(pi_params):
        return dimension2(record.pi_group.weyl, _apply2(pi2, pi_params))

    def nu_dim(theta):
        return dimension2(record.nu_group.weyl, _apply2(nu2, theta))

    count = 0
    failures = []
    for pi_params in record.pi_space.enumerate(bound):
        count += 1
        try:
            expected = pi_dim(pi_params)
            total = 0
            for theta in branch_fibers(record.branch_rule, tuple(pi_params)):
                total += nu_dim(theta)
        except (ValueError, AssertionError) as exc:
            failures.append(("dimension", tuple(pi_params), "computable", repr(exc)))
            continue
        if expected != total:
            failures.append(("dimension", tuple(pi_params), expected, total))
    report.checks_run = count
    report.failures = failures
    return report


def check_strong_multiplicity_freeness(
    record: CaseRecord, bound: int, fibers_of=None
) -> CaseReport:
    """Strong multiplicity-freeness as ``verify._box_pass`` defines it, one
    plain loop per item: nu is injective, each fiber theta is valid, not
    repeated in its pi's fibers and lies over its pi; pi(theta) is integral;
    and the fiber theta in the box number as many as the theta of the box
    whose pi(theta) lies in the pi box, else a search reports the missing.
    The fiber of pi is ``fibers_of(pi)``, by default the closed form of the
    record's rule."""
    if fibers_of is None:
        fibers_of = functools.partial(branch_fibers, record.branch_rule)
    report = CaseReport(record.id, bound)
    failures = report.failures
    k = len(record.theta.names)
    rank = fraction_rank(record.nu_label_map.matrix)
    if rank != k:
        failures.append(("nu-injective", None, k, rank))
    pi2 = _rows2(record.pi_of_theta)
    count = covered = 0
    for pi_params in record.pi_space.enumerate(bound):
        fibers = fibers_of(pi_params)
        for i, theta in enumerate(fibers):
            count += 2
            if not record.theta.contains(theta):
                failures.append(("branch-valid", theta, True, False))
            elif theta in fibers[:i]:
                failures.append(("disjoint", theta, None, pi_params))
            else:
                doubled = _apply2(pi2, theta)
                if doubled != [2 * p for p in pi_params]:
                    halves = tuple(Fraction(v, 2) if v % 2 else v // 2 for v in doubled)
                    failures.append(("recovers-pi", theta, halves, pi_params))
                elif all(abs(t) <= bound for t in theta):
                    covered += 1
    expected = 0
    for theta in record.theta.enumerate(bound):
        doubled = _apply2(pi2, theta)
        if any(v % 2 for v in doubled):
            failures.append(("integral-pi", theta, True, False))
            count += 1
        elif all(abs(v // 2) <= bound for v in doubled):
            count += 2
            expected += 1
    if covered < expected:
        for theta in record.theta.enumerate(bound):
            doubled = _apply2(pi2, theta)
            pi_params = tuple(v // 2 for v in doubled)
            if any(v % 2 for v in doubled) or any(abs(p) > bound for p in pi_params):
                continue
            if not record.pi_space.contains(pi_params) or theta not in fibers_of(pi_params):
                failures.append(("exhausts", theta, True, False))
    report.checks_run = count
    return report


def check_strong_multiplicity_freeness_by_maps(record: CaseRecord, bound: int) -> CaseReport:
    """The reference route of strong multiplicity-freeness, with a map per
    theta: branches of distinct pi are disjoint (by nu label) and exhaust
    Disc(G/H); every theta recovers its pi via the canonical map and occurs
    in its branching."""
    report = CaseReport(record.id, bound)
    nu2 = _rows2(record.nu_label_map)
    pi2 = _rows2(record.pi_of_theta)

    def labelkey(theta):
        return tuple(_apply2(nu2, theta))

    seen: dict[tuple, tuple] = {}
    fiber_of: dict[tuple, tuple] = {}
    count = 0
    failures = []
    contains = record.theta.contains
    for pi_params in record.pi_space.enumerate(bound):
        pi_params = tuple(pi_params)
        for theta in branch_fibers(record.branch_rule, pi_params):
            count += 2
            if not contains(theta):
                failures.append(("branch-valid", theta, True, False))
                continue
            key = labelkey(theta)
            if key in seen:
                failures.append(("disjoint", theta, None, seen[key]))
            seen[key] = pi_params
            fiber_of[theta] = pi_params
    for theta in record.theta.enumerate(bound):
        doubled = _apply2(pi2, theta)
        if any(v % 2 for v in doubled):
            failures.append(("integral-pi", theta, True, False))
            count += 1
            continue
        pi_params = tuple(v // 2 for v in doubled)
        if all(abs(p) <= bound for p in pi_params):
            count += 2
            if fiber_of.get(theta) != pi_params:
                failures.append(("recovers-pi", theta, pi_params, fiber_of.get(theta)))
            if labelkey(theta) not in seen:
                failures.append(("exhausts", theta, True, False))
    report.checks_run = count
    report.failures = failures
    return report


def pi_side_targets(value, symbols) -> list:
    """Per symbol (name, den, factor): (expected, target) for the Casimir
    value of pi(theta), a Fraction or a tuple per factor.  An integer
    numerator over den equals expected exactly when it equals target;
    target is None when den is not a multiple of expected's denominator.
    The Fraction route of ``verify._pi_side_targets``."""
    targets = []
    for _, den, factor in symbols:
        if isinstance(value, tuple):
            expected = value[factor] if factor is not None else sum(value, Fraction(0))
        else:
            expected = value
        q, r = divmod(den, expected.denominator)
        targets.append((expected, None if r else expected.numerator * q))
    return targets


def check_pi_side_consistency(record: CaseRecord, bound: int) -> CaseReport:
    """evaluate_generator on the P-side Casimir equals casimir_eigenvalue of the
    independently constructed pi(theta) label (per factor for products)."""
    report = CaseReport(record.id, bound)
    casimir_syms = [
        (name, s, _int_eval(record, name))
        for name, s in sorted(record.symbols.items())
        if s.kind == "casimir" and s.label == "pi"
    ]
    pi2 = _rows2(record.pi_of_theta)
    symbols = [(name, den, s.factor) for name, s, (_, den) in casimir_syms]
    cache: dict[tuple, list] = {}
    count = 0
    failures = []
    for theta in record.theta.enumerate(bound):
        pi_params = tuple(v // 2 for v in _apply2(pi2, theta))
        targets = cache.get(pi_params)
        if targets is None:
            value = casimir_eigenvalue(record.pi_label(pi_params))
            targets = cache[pi_params] = pi_side_targets(value, symbols)
        memo: dict = {}
        for (name, _, (fn, den)), (expected, target) in zip(casimir_syms, targets):
            count += 1
            got = fn(theta, memo)
            if got != target:
                failures.append(("pi-side:%s" % name, theta, expected, Fraction(got, den)))
    report.checks_run = count
    report.failures = failures
    return report


# ---------------------------------------------------------------------------
# The branch rules' closed forms and the pi walk they fed, which the fiber
# polytopes and the compiled pi kernel replaced.


def _rows2(amap: AffineMap):
    """[(sparse integer row, offset)] for 2·amap, through the package's own
    reading of its rows; ValueError if not half-integral."""
    return verify._doubled(
        amap.den, amap.rows, lambda: "affine map is not half-integral: %r" % (amap,)
    )


def branch_fibers(rule: tuple, pi: tuple) -> list:
    """The fiber of pi under the rule, by the closed forms of the lemmas."""
    name = rule[0]
    if name == "charge_split":  # (i), (i)': H^j -> {(k, j-k)}
        (j,) = pi
        return [(k, j - k) for k in range(j + 1)]
    if name == "quaternion_split":  # (iii): H^{j,j} -> {(k, 2j-k) : j<=k<=2j}
        (j,) = pi
        return [(k, 2 * j - k) for k in range(j, 2 * j + 1)]
    if name == "sphere_sp1":  # (v): H^j -> {(k, j-k) : j/2 <= k <= j}
        (j,) = pi
        return [(k, j - k) for k in range((j + 1) // 2, j + 1)]
    if name == "sphere_sp1_u1":  # (v)'
        (j,) = pi
        out = []
        for k in range((j + 1) // 2, j + 1):
            m = 2 * k - j
            out.extend((k, j - k, b) for b in range(-m, m + 1, 2))
        return out
    if name == "parity_tail":  # (vi): k = j, j-2, ..., >= 0
        (j,) = pi
        return [(j, k) for k in range(j % 2, j + 1, 2)]
    if name == "tail_le":  # (vii): 0 <= k <= j
        (j,) = pi
        return [(j, k) for k in range(j + 1)]
    if name == "tail_le_charge":  # (viii)
        (j,) = pi
        return [(j, k, a) for k in range(j + 1) for a in range(-k, k + 1)]
    if name == "charge_pm":  # (ix): |k| <= j
        (j,) = pi
        return [(j, k) for k in range(-j, j + 1)]
    if name == "identity":  # (x), (xi)
        return [tuple(pi)]
    if name == "triangle":  # (*): |j-j'| <= a <= j+j', parity
        j, jp = pi
        return [(j, jp, a) for a in range(abs(j - jp), j + jp + 1, 2)]
    if name in ("interlace_ii_odd", "interlace_iv"):  # (ii) odd, (iv): (j1,k1,...,jm)
        return _interlace(pi, closed=False)
    if name == "interlace_ii_even":  # (ii) even: chain (j1,k1,...,jm,km)
        return _interlace(pi, closed=True)
    raise ValueError("unknown branch rule %r" % (rule,))


def _interlace(j: tuple, closed: bool) -> list:
    """The chains (j1,k1,j2,...,jm) with j_(i+1) <= k_i <= j_i; a closed chain
    ends in one more k_m, with 0 <= k_m <= j_m.  The j_i are singleton
    factors of one product, which yields each chain whole."""
    factors = []
    for hi, lo in zip(j, j[1:]):
        factors += [(hi,), range(lo, hi + 1)]
    factors.append((j[-1],))
    if closed:
        factors.append(range(0, j[-1] + 1))
    return list(itertools.product(*factors))


def pi_walk(record: CaseRecord, bound: int, dim: bool, smf: bool, fibers_of=None) -> tuple:
    """``verify._pi_walk`` as the interpreted walk it replaced: per pi of
    the pi box, its fiber list (``fibers_of(pi)``, by default the closed
    form of the record's rule), the dimensions of the doubled images of
    ``_apply2`` through ``dimension2``, and SMF's per-theta tests with the
    theta space's membership rows through ``_satisfies``: none of the
    package's kernels."""
    if fibers_of is None:
        fibers_of = functools.partial(branch_fibers, record.branch_rule)
    dim_fail, smf_fail = [], []
    dim_runs = smf_runs = covered = 0
    if dim:
        pi_label_rows = verify._map_rows(record, "pi_label_map")
        nu_rows = verify._map_rows(record, "nu")
        pi_weyl, nu_weyl = record.pi_group.weyl, record.nu_group.weyl
    if smf:
        pi_rows = verify._map_rows(record, "pi_of_theta")
    space = record.theta

    def contains(theta):
        return len(theta) == len(space.names) and _satisfies(space._membership, theta)

    for pi_params in record.pi_space.walk(bound):
        fibers = fibers_of(pi_params) if smf else None
        if dim:
            dim_runs += 1
            try:
                want = dimension2(pi_weyl, _apply2(pi_label_rows, pi_params))
                if fibers is None:
                    fibers = fibers_of(pi_params)
                total = sum(dimension2(nu_weyl, _apply2(nu_rows, theta)) for theta in fibers)
            except (ValueError, AssertionError) as exc:
                dim_fail.append(("dimension", pi_params, "computable", repr(exc)))
            else:
                if want != total:
                    dim_fail.append(("dimension", pi_params, want, total))
        if not smf:
            continue
        pi2 = tuple(2 * p for p in pi_params)
        mine: set = set()
        smf_runs += 2 * len(fibers)
        for theta in fibers:
            if not contains(theta):
                smf_fail.append(("branch-valid", theta, True, False))
            elif theta in mine:
                smf_fail.append(("disjoint", theta, None, pi_params))
            else:
                mine.add(theta)
                doubled = tuple(_apply2(pi_rows, theta))
                if doubled != pi2:
                    smf_fail.append(("recovers-pi", theta, verify._halve(doubled), pi_params))
                elif max(map(abs, theta), default=0) <= bound:
                    covered += 1
    return dim_runs, dim_fail, smf_runs, smf_fail, covered


# ---------------------------------------------------------------------------
# Record queries that only the tests ask: the labels of the canonical map at
# one theta, and the branching of one pi by the record's rule.


def highest_weight(label) -> tuple:
    """The highest weight of an irrep label, its doubled coordinates halved."""
    return tuple(Fraction(x, 2) for x in label.doubled)


def pi_tau(record: CaseRecord, theta) -> tuple:
    """(pi(theta), tau(theta)) as irrep labels; ValueError off Disc(G/H)."""
    theta = record.require_theta(theta)
    return (
        record.pi_label(record.pi_params_of(theta)),
        record.tau_label(record.tau_params_of(theta)),
    )


def branch(record: CaseRecord, pi_params) -> list:
    """[(theta, nu(theta))] over the branching of pi, theta sorted; ValueError
    off Disc(Gtilde/Htilde)."""
    record.require_pi(pi_params)
    pi_params = tuple(int(p) for p in pi_params)
    out = []
    for t in sorted(branch_fibers(record.branch_rule, pi_params)):
        if not record.theta.contains(t):
            raise AssertionError("branch rule produced invalid %s for %s" % (t, record.id))
        out.append((t, record.nu_label(t)))
    return out


# ---------------------------------------------------------------------------
# The graded invariant dimension of one degree N, as hilbert computed it per N
# before it counted every degree up to Nmax in one pass.


def graded_invariant_dim(record, N: int) -> int:
    """dim S^N(g_C/h_C)^H from the case's stored combinatorial model: for a
    weighted model, every exponent tuple in the product of ranges up to
    N // weight whose weighted sum is N; the interlaced model of case (iv)
    by ``hilbert``'s own recursion."""
    if N < 0:
        raise ValueError("N must be >= 0")
    model = record.hilbert_model
    if model is None:
        raise ValueError("case %s has no stored combinatorial model (external tables)" % record.id)
    if model["kind"] == "weighted":
        weights = tuple(model["weights"])
        count = 0
        for combo in itertools.product(*(range(N // d + 1) for d in weights)):
            if sum(a * d for a, d in zip(combo, weights)) == N:
                count += 1
        return count
    if model["kind"] == "interlaced_iv":
        return hilbert._interlaced_iv_dim(model["n"], N)
    raise ValueError("unknown model %r" % (model,))


# ---------------------------------------------------------------------------
# Cartan–Helgason data of the symmetric cases: an independent route to the
# spherical pi of Disc(Gtilde/Htilde), which test_reps compares with the
# catalog's pi spaces and pi label maps.


def _sparse_vec(dim: int, entries: dict) -> Vector:
    """The vector of length dim with the given {index: coefficient}."""
    return vec(entries.get(i, 0) for i in range(dim))


def _sphere(dim: int, starts=(0,)) -> dict:
    """(A product of) spheres: the restricted root e_s of each block starting
    at s, and every other coordinate killed."""
    return {
        "restricted_pos": [_sparse_vec(dim, {s: 1}) for s in starts],
        "kill": [_sparse_vec(dim, {j: 1}) for j in range(dim) if j not in starts],
    }


def cartan_helgason_data(tag: str, n: Optional[int]) -> dict:
    """{"restricted_pos": the positive restricted roots, "kill": rows whose
    zero set is the weights that vanish on t_C}, on pi's label coordinates,
    for the catalog case (tag, n) whose Gtilde/Htilde is symmetric."""
    if tag in ("i", "i_prime"):
        return _sphere(n + 1)
    if tag in ("v", "v_prime"):
        return _sphere(2 * n + 2)
    if tag in ("vi", "x", "star"):
        return {"vi": _sphere(8), "x": _sphere(3), "star": _sphere(8, (0, 4))}[tag]
    if tag in ("ii_odd", "ii_even"):
        # on the pair blocks (2i, 2i+1), i < m: twice a block's unit (and the
        # unit itself when n is even, type BC), and half the sum or the
        # difference of two blocks' units; each block's difference is killed
        odd = tag == "ii_odd"
        m = (n + 1) // 2 if odd else n // 2
        dim, half = (2 * m if odd else 2 * m + 1), Fraction(1, 2)
        roots = []
        for i in range(m):
            roots.append(_sparse_vec(dim, {2 * i: 1, 2 * i + 1: 1}))
            if not odd:
                roots.append(_sparse_vec(dim, {2 * i: half, 2 * i + 1: half}))
        roots += [
            _sparse_vec(dim, {2 * i: half, 2 * i + 1: half, 2 * j: s * half, 2 * j + 1: s * half})
            for i in range(m)
            for j in range(i + 1, m)
            for s in (1, -1)
        ]
        kill = [_sparse_vec(dim, {2 * i: 1, 2 * i + 1: -1}) for i in range(m)]
        if not odd:
            kill.append(_sparse_vec(dim, {dim - 1: 1}))
        return {"restricted_pos": roots, "kill": kill}
    if tag == "iii":
        dim = 2 * n + 2
        return {
            "restricted_pos": [
                _sparse_vec(dim, {0: Fraction(1, 2), dim - 1: Fraction(-1, 2)}),
                _sparse_vec(dim, {0: 1, dim - 1: -1}),
            ],
            "kill": [_sparse_vec(dim, {j: 1}) for j in range(1, dim - 1)]
            + [_sparse_vec(dim, {0: 1, dim - 1: 1})],
        }
    if tag == "iv":
        dim, half = 2 * n + 2, Fraction(1, 2)
        roots = [
            _sparse_vec(dim, {2 * i: half, 2 * i + 1: half, 2 * j: -half, 2 * j + 1: -half})
            for i in range(n + 1)
            for j in range(i + 1, n + 1)
        ]
        kill = [_sparse_vec(dim, {2 * i: 1, 2 * i + 1: -1}) for i in range(n + 1)]
        return {"restricted_pos": roots, "kill": kill}
    raise ValueError("case %s has no Cartan–Helgason data here" % tag)
