"""Evaluation-based verification: relation identities, transfer maps,
independence certificates, and ``run_case``, the one runner that decides
which checks a case gets and in what order.  Everything is exact; a failure
carries the offending parameter tuple and both sides' values.

The bound-8 boxes of the rank-7 cases make the inner loops hot, so the checks
compile symbols down to arithmetic on doubled integers.  Every affine map in
the catalog is half-integral, and ``_rows2`` raises on one that is not, so
there is no second route behind the compiled one.  Weyl-group arithmetic
(canonical orbit forms, dimensions) is the ``weights`` module's, called on
the same doubled integers, G2 included.  The work that is fixed per record
and repeated per point is compiled once into straight-line Python: the
doubled image of a row list (``_affine_kernel``), a type's Weyl dimension
and canonical form (``weights._dimension_kernel``,
``weights._canonical_kernel``) and a space's membership
(``ParamSpace.contains_ints``).  The compiled evaluation is
cross-checked against the straightforward reference evaluation in the test
suite.  The independence certificate and the parity gap reduce moment
matrices of the symbols' integer numerators in ``linalg``'s integer echelon.

Pi-side consistency compares the compiled P-side Casimirs, which read the
composite map theta ↦ pi label, with a second route: per distinct pi(theta),
``pi_space.contains``, the doubled rows of ``pi_label_map`` alone, and
``casimir_eigenvalue`` of the ``IrrepLabel`` they give, in integers too.

The five checks that walk a box run in one pass per case, ``_box_pass``:
one walk of the pi box for dimension conservation and the fiber half of
strong multiplicity-freeness, then one walk of the theta box for relations,
transfer, the theta half of strong multiplicity-freeness and pi-side
consistency.  Every map the theta walk reads is stacked into one
doubled-integer matrix (``_Stack``).  The theta walk is a kernel compiled
per case (``_theta_source``, ``_theta_kernel``): one ``for`` per
coordinate, the stacked rows and the carried sums in locals, and the four
checks inline at the leaf; past 16 coordinates the loop nest is a chain of
functions, since CPython compiles at most 20 nested blocks.  ``run_case``
calls the pass once, and each ``check_*`` of the five runs it for its one
check.  The box is streamed: strong multiplicity-freeness compares two
counts instead of keeping a map per theta, pi-side keeps integer targets
per distinct pi(theta), and the independence certificate and the parity
gap stop their walks once decided, so memory does not grow with the box.
One rule isolates the box checks' errors: the pass carries
no per-check handler, and when it raises, each check runs alone; a check
that raises alone gets its own exception, and if none does, every check
gets the pass's, so an error never becomes a clean report.

Every symbol but an xyz_poly is compiled once per record (``_separable``)
into one form, cached beside the doubled rows of the record's maps
(``_symbol_cache``): a polynomial per row, keyed by the row's content, whose
sum at theta is the symbol's integer numerator.  Casimirs are squares of
label rows plus affine rows combined from them (G2's cross term through the
row a0 + a1), power sums are powers of the vector's rows, and Euler forms
are one row; only the powers of rows with several columns keep their own
row, the rest going onto the coordinate rows theta_i and the constant row.
A Casimir never reads the nu+rho power sums' rows, which would make the
relations between the two hold by construction.  Every reader takes this
one form: ``_int_eval`` evaluates it at a theta (for ``evaluate_generator``,
the independence certificate and the parity gap); a relation merges its
terms' forms (``_fold``), pi-side reads the P-side Casimirs' forms as they
are, and the theta kernel carries these K totals as ``ParamSpace.walk``
carries its sums, adding from a row's memo (``_RowSums``) where the row is
final.  An xyz_poly, which only the
star record's cross-evaluation reads, is a ``dgx.Poly`` evaluated at
``dgx.xyz_of(theta)``.  ``ParamSpace.contains`` checks constraints compiled
once per space into one expression, and its walk's leaf check is another.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import dgx, hilbert, linalg, weights
from .catalog import CaseId, CaseRecord, SymbolSpec, _branch_fibers, membership_source
from .linalg import AffineMap, mat, vec
from .reps import IrrepLabel, casimir_eigenvalue


class InsufficientSampleError(ValueError):
    """The enumerated box is too small for the requested certificate degree."""


@dataclass
class CaseReport:
    case: CaseId
    bound: int
    checks_run: int = 0
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# reference evaluation


def _poly_eval(poly, values: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly:
        term = coeff
        for v, e in zip(values, exps):
            if e:
                term *= v ** e
        total += term
    return total


def evaluate_generator_reference(record: CaseRecord, name: str, theta: Sequence[int]) -> Fraction:
    """Straightforward exact evaluation through the labelled-representation API."""
    theta = record.require_theta(theta)
    try:
        spec: SymbolSpec = record.symbols[name]
    except KeyError:
        raise KeyError("case %s has no generator %r" % (record.id, name))
    if spec.kind == "casimir":
        if spec.label == "pi":
            label = record.pi_label(record.pi_params_of(theta))
        elif spec.label == "nu":
            label = record.nu_label(theta)
        else:
            label = record.tau_label(record.tau_params_of(theta))
        value = casimir_eigenvalue(label)
        if isinstance(value, tuple):
            return value[spec.factor] if spec.factor is not None else sum(value, Fraction(0))
        return value
    if spec.kind == "euler":
        return spec.form.apply(theta)[0]
    if spec.kind == "power_ab":
        vmap = record.a_map if spec.vecname == "a" else record.b_map
        values = vmap.apply(theta)
        return Fraction(spec.base) ** spec.k * sum(
            (v ** (spec.scale * spec.k) for v in values), Fraction(0)
        )
    if spec.kind == "power_nu":
        values = record.nu_plus_rho(theta)
        return sum((v ** (spec.scale * spec.k) for v in values), Fraction(0))
    if spec.kind == "xyz_poly":
        j, jp, a = theta
        xyz = (Fraction((j + 3) ** 2), Fraction((jp + 3) ** 2), Fraction((a + 3) ** 2))
        return _poly_eval(spec.poly, xyz)
    raise ValueError("unknown symbol kind %r" % spec.kind)


# ---------------------------------------------------------------------------
# compiled evaluation on doubled integers


def _rows2(amap: AffineMap):
    """[(sparse integer row, offset)] for 2·amap; ValueError if not half-integral."""
    rows = []
    for row, off in zip(amap.matrix, amap.offset):
        if any((2 * x).denominator != 1 for x in row) or (2 * off).denominator != 1:
            raise ValueError("affine map is not half-integral: %r" % (amap,))
        rows.append(
            (tuple((i, int(2 * x)) for i, x in enumerate(row) if x), int(2 * off))
        )
    return rows


@functools.cache
def _affine_kernel(rows2: tuple):
    """params ↦ the list of the values at params of the doubled rows
    (((index, coefficient), ...), offset), written out as one list
    expression and compiled once per row tuple."""
    return eval(
        "lambda p: [%s]"
        % ", ".join(linalg.int_affine_source("p[%d]", coeffs, off) for coeffs, off in rows2),
        globals(),
    )


def _compose_affine(outer_matrix, outer_offset, inner: AffineMap) -> AffineMap:
    rows = []
    for row in outer_matrix:
        rows.append(
            tuple(
                sum(row[k] * inner.matrix[k][j] for k in range(len(row)))
                for j in range(inner.source_dim)
            )
        )
    offset = tuple(
        o + sum(row[k] * inner.offset[k] for k in range(len(row)))
        for row, o in zip(outer_matrix, outer_offset)
    )
    return AffineMap(mat(rows), vec(offset), source=inner.source_dim)


def _nu_rho_map(record: CaseRecord) -> AffineMap:
    """theta ↦ nu(theta) + rho, the Z(g_C) side of transfer."""
    nu = record.nu_label_map
    offset = vec(tuple(a + b for a, b in zip(nu.offset, record.nu_group.rho)))
    return AffineMap(nu.matrix, offset, source=nu.source_dim)


# The maps the checks read, by the key under which ``_map_rows`` keeps their
# doubled rows: the composite theta ↦ highest-weight coordinates of pi, nu
# and tau (a Casimir's label), the vectors a and b of the power sums, nu+rho,
# the transfer image, pi(theta), and the pi label map of the pi parameters.
_MAPS = {
    "pi": lambda r: _compose_affine(
        r.pi_label_map.matrix, r.pi_label_map.offset, r.pi_of_theta
    ),
    "nu": lambda r: r.nu_label_map,
    "tau": lambda r: _compose_affine(
        r.tau_label_map.matrix, r.tau_label_map.offset, r.tau_of_theta
    ),
    "a": lambda r: r.a_map,
    "b": lambda r: r.b_map,
    "nurho": _nu_rho_map,
    "transfer": lambda r: _transfer_image_map(r),
    "pi_of_theta": lambda r: r.pi_of_theta,
    "pi_label_map": lambda r: r.pi_label_map,
}


def _symbol_cache(record: CaseRecord) -> dict:
    """The record's compiled data, kept for its life and not grown by a box:
    {"rows": doubled rows by map (``_map_rows``), "forms": {symbol: (form,
    den) of ``_separable``}, "polys": {xyz_poly symbol: its ``dgx.Poly``}}."""
    cache = record.__dict__.get("_symbol_cache")
    if cache is None:
        cache = {"rows": {}, "forms": {}, "polys": {}}
        object.__setattr__(record, "_symbol_cache", cache)
    return cache


def _map_rows(record: CaseRecord, key) -> list:
    """The doubled rows (``_rows2``) of the record's map ``_MAPS[key]``, or
    of ``key`` itself when it is an AffineMap.  They are kept per record
    under the key and under the map, so equal maps are converted once."""
    rows = _symbol_cache(record)["rows"]
    if key not in rows:
        amap = _MAPS[key](record) if isinstance(key, str) else key
        if amap not in rows:
            rows[amap] = _rows2(amap)
        rows[key] = rows[amap]
    return rows[key]


def _compiled(record: CaseRecord, name: str):
    """(form, den) of ``_separable`` for the named symbol, compiled once per
    record; the walk, ``_int_eval`` and every plan read this one object."""
    forms = _symbol_cache(record)["forms"]
    if name not in forms:
        forms[name] = _separable(record, name)
    return forms[name]


class _Stack:
    """Affine maps of theta stacked into one doubled-integer matrix, each map
    once: the image of ``rows`` at theta holds every stacked map's values, and
    ``add(key)`` says where the values of the record's map ``_MAPS[key]``
    sit in it."""

    def __init__(self, record: CaseRecord):
        self.record = record
        self.rows: list = []
        self.slices: dict = {}

    def add(self, key: str) -> slice:
        sl = self.slices.get(key)
        if sl is None:
            rows = _map_rows(self.record, key)
            sl = self.slices[key] = slice(len(self.rows), len(self.rows) + len(rows))
            self.rows.extend(rows)
        return sl

    def row(self, row) -> int:
        """Index of ``row``, (((index, coefficient), ...), offset), stacked once."""
        at = self.slices.get(row)
        if at is None:
            at = self.slices[row] = slice(len(self.rows), len(self.rows) + 1)
            self.rows.append(row)
        return at.start


def _int_casimir_blocks(group):
    """[(slice, extra, unit, terms)] per factor of group, with a the factor's
    doubled label: unit·value = sum(c·(w·a)^e for (w, e, c) in terms), and a
    symbol over several blocks has denominator 4·lcm(extra):
    orth (unit 4): a·a + 4·rho·a;
    SU (unit 4·extra, extra the rank): extra·(a·a + 4·rho·a) − (sum a)²;
    G2 (unit 8, extra 4): a·G·a + (G·4·rho)·a, with G twice the Gram matrix,
    whose square part is (G00 − G01)·a0² + G01·(a0 + a1)² + (G11 − G01)·a1².
    Each w·a is one row combined from the label's rows, so each term is a
    power of one row."""
    blocks = []
    for f, sl in group.factor_slices():
        rho4 = [2 * r for r in weights._rho2(f.weyl)]
        axes = [tuple(int(i == j) for j in range(f.rank)) for i in range(f.rank)]
        if f.weyl.family == "G2":
            (g00, g01), (_, g11) = weights._G2_GRAM2
            gram_rho = [sum(map(operator.mul, row, rho4)) for row in weights._G2_GRAM2]
            terms = [
                (axes[0], 2, g00 - g01),
                ((1, 1), 2, g01),
                (axes[1], 2, g11 - g01),
                (gram_rho, 1, 1),
            ]
            blocks.append((sl, 4, 8, terms))
        elif f.kind == "SU":
            n = f.rank
            terms = [(u, 2, n) for u in axes] + [(rho4, 1, n), ((1,) * n, 2, -1)]
            blocks.append((sl, n, 4 * n, terms))
        else:
            blocks.append((sl, 1, 4, [(u, 2, 1) for u in axes] + [(rho4, 1, 1)]))
    return blocks


_CONSTANT = ((), 0)  # the row with no column, whose value is 0


def _separable(record: CaseRecord, name: str):
    """(form, den) for a symbol whose integer numerator is a polynomial in
    theta: form is {row: {exponent: coefficient}}, each row (((index,
    coefficient), ...), offset) given by its content, and the numerator at
    theta is the sum over the rows of the row's polynomial at the row's
    value.  A term c·x^e in the value x of a row is filed where the walk
    carries it most cheaply: a power of a row with one column, a·theta_i +
    off, is expanded onto the coordinate row of theta_i; the affine part of
    any row goes onto the coordinate rows and the constant row ((), 0); only
    a power e >= 2 of a row with several columns stays on that row.
    ValueError, naming the symbol, for any other kind, such as an xyz_poly.

    A Casimir reads the rows of its label map and rows combined from them
    (``_int_casimir_blocks``), never the nu+rho power sums' rows: the
    relations between those and the Casimirs would then hold by
    construction."""
    spec = record.symbols[name]
    form: dict = {}

    def put(row, e, c):
        poly = form.setdefault(row if e else _CONSTANT, {})
        poly[e] = poly.get(e, 0) + c

    def add(row, e, c):
        # c·x^e, x the value of row
        coeffs, off = row
        if len(coeffs) == 1:  # (a·theta_i + off)^e as a polynomial in theta_i
            ((i, a),) = coeffs
            for j in range(e + 1):
                put((((i, 1),), 0), j, c * math.comb(e, j) * a ** j * off ** (e - j))
        elif coeffs and e > 1:
            put(row, e, c)
        else:  # c·(sum(a_i·theta_i) + off)^e with e <= 1, or a row with no column
            if e == 1:
                for i, a in coeffs:
                    put((((i, 1),), 0), 1, c * a)
            put(_CONSTANT, 0, c * off ** e)

    if spec.kind == "casimir":
        rows = _map_rows(record, spec.label)
        blocks = _int_casimir_blocks(getattr(record, spec.label + "_group"))
        if spec.factor is not None:
            blocks = [blocks[spec.factor]]
        den = 4 * math.lcm(*(extra for _, extra, _, _ in blocks))
        for sl, _, unit, terms in blocks:
            for w, e, c in terms:
                # the row sum(w_i · label row i) of the factor
                coeffs: dict[int, int] = {}
                offset = 0
                for wi, (row, off) in zip(w, rows[sl]):
                    offset += wi * off
                    for i, x in row:
                        coeffs[i] = coeffs.get(i, 0) + wi * x
                combined = tuple((i, x) for i, x in sorted(coeffs.items()) if x)
                add((combined, offset), e, c * (den // unit))
    elif spec.kind in ("power_ab", "power_nu"):
        # the rows hold 2·v, and base^k·v^e = base^k·(2·v)^e / 2^e
        key = spec.vecname if spec.kind == "power_ab" else "nurho"
        e = spec.scale * spec.k
        den = 2 ** e
        for row in _map_rows(record, key):
            add(row, e, spec.base ** spec.k if spec.kind == "power_ab" else 1)
    elif spec.kind == "euler":
        add(_map_rows(record, spec.form)[0], 1, 1)
        den = 2
    else:
        raise ValueError("symbol %s is a %s, which has no compiled form" % (name, spec.kind))
    polys = ((row, {e: c for e, c in sorted(poly.items()) if c}) for row, poly in form.items())
    return {row: poly for row, poly in polys if poly}, den


def _form_value(form: dict, theta) -> int:
    """A compiled form's integer numerator at theta."""
    total = 0
    for (coeffs, x), poly in form.items():
        for i, c in coeffs:
            x += c * theta[i]
        for e, c in poly.items():
            total += c * x ** e
    return total


def _int_eval(record: CaseRecord, name: str):
    """(fn(theta) -> int numerator, denominator) of one symbol: its compiled
    form (``_compiled``) at theta, or for an xyz_poly its ``dgx.Poly``,
    built once per record, at ``dgx.xyz_of(theta)``."""
    spec = record.symbols[name]
    if spec.kind == "xyz_poly":
        polys = _symbol_cache(record)["polys"]
        if name not in polys:
            polys[name] = dgx.Poly(dict(spec.poly))
        poly = polys[name]
        return (lambda theta: poly.num_at(*dgx.xyz_of(theta))), poly.den
    form, den = _compiled(record, name)
    return (lambda theta: _form_value(form, theta)), den


def evaluate_generator(record: CaseRecord, name: str, theta: Sequence[int]) -> Fraction:
    """The exact scalar by which the named generator acts on the theta-isotypic part."""
    theta = record.require_theta(theta)
    if name not in record.symbols:
        raise KeyError("case %s has no generator %r" % (record.id, name))
    fn, den = _int_eval(record, name)
    return Fraction(fn(theta), den)


def _fold(parts) -> dict:
    """The sum of m·form over ``parts``, ((integer multiplier m, compiled
    form), ...), as one form."""
    out: dict = {}
    for m, form in parts:
        for row, poly in form.items():
            acc = out.setdefault(row, {})
            for e, c in poly.items():
                acc[e] = acc.get(e, 0) + m * c
    return out


class _RowSums(dict):
    """Row value x -> per slot, that slot's polynomial in the row at x: the
    tuple the walk adds for the row.  Computed on first use, so its size is
    bounded by the values the row takes, not by the box.  ``polys`` holds
    the polynomials, ((exponent, coefficient), ...) per slot, so a slot
    whose polynomial is empty always gets 0."""

    def __init__(self, polys):
        super().__init__()
        self.polys = polys

    def __missing__(self, x):
        out = self[x] = tuple([sum([c * x ** e for e, c in poly]) for poly in self.polys])
        return out


def _walk_sums(slots, stack: _Stack) -> list:
    """The sums that carry the totals of ``slots``, [(name, compiled form)],
    down a theta walk as K = len(slots) entries after the image: one term
    (row index, ``_RowSums``) per row the slots read, stacked on ``stack``.
    The constant row is always there, so the K totals exist even when every
    polynomial is zero; a walk step adds about one tuple per coordinate it
    places."""
    if not slots:
        return []
    per_row: dict = {_CONSTANT: [{} for _ in slots]}
    for k, (_, form) in enumerate(slots):
        for row, poly in form.items():
            per_row.setdefault(row, [{} for _ in slots])[k] = poly
    sums = []
    for row, accs in per_row.items():
        polys = tuple(tuple((e, c) for e, c in sorted(a.items()) if c) for a in accs)
        if any(polys) or not row[0]:
            sums.append((stack.row(row), _RowSums(polys)))
    return sums


# ---------------------------------------------------------------------------
# relation suite


def check_relations(record: CaseRecord, bound: int) -> CaseReport:
    """Evaluate every stored relation identity on every enumerated theta."""
    return _box_check(record, bound, "relations")


def _compile_relations(record: CaseRecord):
    """Per relation (name, ``_fold`` of its terms' compiled forms): the
    weighted sum of its symbols' numerators, which is the relation times a
    positive integer.  A symbol that ``_separable`` does not take is a
    ValueError."""
    out = []
    for rel in record.relations:
        pairs = [(coeff,) + _compiled(record, sym) for coeff, sym in rel.terms]
        L = math.lcm(*(den * coeff.denominator for coeff, _, den in pairs))
        parts = ((int(coeff * L) // den, form) for coeff, form, den in pairs)
        out.append((rel.name, _fold(parts)))
    return tuple(out)


# ---------------------------------------------------------------------------
# transfer suite


def _transfer_image_map(record: CaseRecord) -> AffineMap:
    """theta ↦ S_{tau(theta)}(lambda(theta) + rho_a), as one affine map."""
    a = _compose_affine(record.transfer_matrix, record.transfer_offset, record.lam_rhoa_map)
    b = _compose_affine(
        record.transfer_tau,
        vec([0] * len(record.transfer_offset)),
        record.tau_of_theta,
    )
    rows = mat(
        tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.matrix, b.matrix))
    )
    return AffineMap(
        rows, vec(tuple(x + y for x, y in zip(a.offset, b.offset))), source=a.source_dim
    )


def check_transfer(record: CaseRecord, bound: int) -> CaseReport:
    """S_tau(lambda(theta) + rho_a) = nu(theta) + rho mod W(g_C), exactly."""
    return _box_check(record, bound, "transfer")


# ---------------------------------------------------------------------------
# independence certificates


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = set()
    for total in range(degree + 1):
        for exps in itertools.combinations_with_replacement(range(nvars), total):
            mono = [0] * nvars
            for i in exps:
                mono[i] += 1
            out.add(tuple(mono))
    return sorted(out)


def _prod(values, mono):
    out = 1
    for v, e in zip(values, mono):
        if e:
            out *= v ** e
    return out


def _moment_rows(record: CaseRecord, gens: Sequence[str], degree: int, thetas):
    """Per theta, (theta, its row): every monomial of total degree <= degree
    in the generators' integer numerators, in the order of ``_monomials``."""
    monos = _monomials(len(gens), degree)
    fns = [_int_eval(record, g)[0] for g in gens]
    for theta in thetas:
        values = [fn(theta) for fn in fns]
        yield theta, [_prod(values, mono) for mono in monos]


def independence_certificate(
    record: CaseRecord,
    gens: Sequence[str],
    bound: int,
    degree: int,
) -> tuple[bool, list[tuple[int, ...]]]:
    """True iff no polynomial relation of total degree <= ``degree`` holds among
    the generator evaluations on the enumerated box; the witness is a set of
    parameter tuples giving an invertible maximal minor of the moment matrix.

    The moment matrix is reduced in integers: its rows hold the monomials of
    the generators' integer numerators, which scales each column by a non-zero
    constant and so changes neither the rank nor which rows are kept.  A box
    of fewer points than columns is an InsufficientSampleError, found by
    walking at most that many points before any row is reduced; otherwise
    the box is streamed in one walk, which stops at full rank.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return True, []
    ncols = math.comb(len(gens) + degree, degree)
    count = sum(1 for _ in itertools.islice(record.theta.walk(bound), ncols))
    if count < ncols:
        raise InsufficientSampleError(
            "box with %d points cannot certify degree %d over %d generators"
            % (count, degree, len(gens))
        )
    thetas = (theta for theta, _ in record.theta.walk(bound))
    echelon = linalg.IntEchelon()
    witness: list[tuple[int, ...]] = []
    for theta, row in _moment_rows(record, gens, degree, thetas):
        if echelon.add(row):
            witness.append(theta)
            if echelon.rank == ncols:
                return True, witness
    return False, witness


def function_in_span(
    record: CaseRecord,
    gens: Sequence[str],
    values_by_theta,
    bound: int,
    degree: int,
) -> bool:
    """Is the given function of theta a polynomial of total degree <= degree in
    the generator evaluations on the box?  Exact, on the monomials of the
    generators' integer numerators as in ``independence_certificate``: the
    box streams into one echelon of the rows [value] + moment row, whose
    pivot is the largest column of a residual, so a pivot in column 0 is a
    combination of points on which every monomial vanishes and the value
    does not: the value is outside the span, and the walk stops."""
    echelon = linalg.IntEchelon()
    thetas = (theta for theta, _ in record.theta.walk(bound))
    for theta, row in _moment_rows(record, gens, degree, thetas):
        echelon.add([values_by_theta(theta)] + row)
        if 0 in echelon.rows:
            return False
    return True


def check_ix_parity_gap(record: CaseRecord, bound: int, degree: int = 4) -> bool:
    """Case (ix) exception witness: the parity of the U(3)-charge theta[1] is
    not a polynomial (degree <= 4) in the two Casimir evaluations, so the pair
    {C_Gtilde, C_G} generates an index-two subalgebra of the evaluation image.

    True when the parity falls outside the span on the box.  Otherwise the
    box decides only if it refutes every such polynomial: one of degree <=
    ``degree`` in quadratic Casimirs has theta-degree <= 2·degree, so it
    matches the alternating parity on no 2·degree + 2 consecutive points of
    a theta[1] line (its next difference would vanish).  With such a segment
    in the box the result is False; without one, InsufficientSampleError.
    """
    if not record.parity_gap_gens:
        raise ValueError("case %s stores no parity-gap generators" % record.id)
    if not function_in_span(
        record,
        record.parity_gap_gens,
        lambda theta: theta[1] % 2,
        bound,
        degree,
    ):
        return True
    need = 2 * degree + 2
    run = _longest_run((theta for theta, _ in record.theta.walk(bound)), 1)
    if run < need:
        raise InsufficientSampleError(
            "longest theta[1] run of the box has %d points; refuting degree %d needs %d"
            % (run, degree, need)
        )
    return False


def _longest_run(thetas, axis: int) -> int:
    """The most points of ``thetas`` on one line along coordinate ``axis``
    at consecutive values of that coordinate."""
    lines: dict[tuple, set] = {}
    for theta in thetas:
        lines.setdefault(theta[:axis] + theta[axis + 1 :], set()).add(theta[axis])
    best = 0
    for values in lines.values():
        for v in values:
            if v - 1 not in values:
                n = 1
                while v + n in values:
                    n += 1
                best = max(best, n)
    return best


# ---------------------------------------------------------------------------
# structural checks


def check_rank_identity(record: CaseRecord) -> bool:
    a, b, c = record.rank3
    return a + b == c


def check_degree_counts(record: CaseRecord) -> bool:
    return len(record.degrees_p) + len(record.degrees_q) == record.degrees_rank


def check_dimension_conservation(record: CaseRecord, bound: int) -> CaseReport:
    """dim pi = sum of dim theta over the branching, exactly."""
    return _box_check(record, bound, "dimension-conservation")


def check_strong_multiplicity_freeness(record: CaseRecord, bound: int) -> CaseReport:
    """Branches of distinct pi are disjoint and exhaust Disc(G/H); every theta
    recovers its pi via the canonical map and occurs in its branching."""
    return _box_check(record, bound, "strong-multiplicity-freeness")


def check_pi_side_consistency(record: CaseRecord, bound: int) -> CaseReport:
    """evaluate_generator on the P-side Casimir equals casimir_eigenvalue of the
    independently constructed pi(theta) label (per factor for products)."""
    return _box_check(record, bound, "pi-side-consistency")


# ---------------------------------------------------------------------------
# the box pass: one pi walk and one theta walk per case

BOX_CHECKS = (
    "relations",
    "transfer",
    "dimension-conservation",
    "strong-multiplicity-freeness",
    "pi-side-consistency",
)


def _box_check(record: CaseRecord, bound: int, name: str) -> CaseReport:
    """The box pass for the one check ``name``."""
    return _report(_box_pass(record, bound, (name,))[name])


def _report(result) -> CaseReport:
    """A box-pass result: the check's report, or raise what stopped it."""
    if isinstance(result, Exception):
        raise result
    return result


def _box_pass(record: CaseRecord, bound: int, names=BOX_CHECKS) -> dict:
    """{name: CaseReport, or the exception that stopped the check} for the
    named checks of BOX_CHECKS, each run once over the box.

    One rule isolates errors.  The pass (``_one_pass``) lets whatever a
    setup or a per-point body raises propagate; only dimension conservation
    turns a ValueError or AssertionError of a dimension or a branching into
    its ``computable`` failure entries.  If the pass raises, each named
    check runs alone: a check that raises alone gets its own exception, and
    if none does, every named check gets the pass's exception, so an error
    never becomes a clean report.

    Dimension conservation and the fiber half of strong multiplicity-freeness
    (SMF) share one walk of the pi box: per fiber theta, one
    ``_affine_kernel`` of the nu label rows stacked on the pi_of_theta rows
    serves both, the nu part going to the nu group's
    ``weights._dimension_kernel`` and theta itself to the theta space's
    ``contains_ints``.  The walk branches a pi only when a check reads its
    fibers.  Relations, transfer, the theta half of SMF and
    pi-side consistency then share one walk of the theta box, a kernel
    written for the case and the checks named (``_theta_source``), so every
    subset of the four, the error rule's one-check re-runs included, takes
    this one path.  It carries the rows of one stacked matrix of every map
    they read, the relation totals and the P-side Casimir numerators
    (``_walk_sums``) in locals, as a chain of functions past 16
    coordinates (``iv[n=10]`` has 21); transfer compares two
    ``weights._canonical_kernel`` forms of fixed rows of it.  The box is
    streamed.  The pass reads the record's compiled forms and doubled
    rows, which are compiled once per record (``_symbol_cache``), and
    kernels compiled once per Weyl type, row tuple or source; none grows
    with the box.  What the pass itself keeps: one pi's fiber set,
    pi-side's integer targets per distinct pi(theta) (``None`` where none
    exists; the expected value is recomputed only for a failure entry),
    and the ``_RowSums`` memos, made fresh per pass, one per row the sums
    read and keyed by the row's value.  The targets grow with the pi box;
    the memos grow with the range of a row's values only.

    SMF, that the branches of distinct pi are disjoint and exhaust
    Disc(G/H), is checked without a map per theta:

    - the setup certifies that nu_label_map has rank k = len(theta), so that
      distinct theta have distinct nu labels (else ``nu-injective``, which
      adds nothing to ``run``);
    - per fiber theta of each pi (run += 2): theta in Disc(G/H)
      (``branch-valid``), not repeated in this pi's fibers (``disjoint``),
      and 2·pi(theta) = 2·pi (``recovers-pi``); otherwise, if theta lies in
      the theta box, it adds one to ``covered``;
    - per theta of the theta box: pi(theta) is integral (``integral-pi``,
      run += 1); if pi(theta) lies in the pi box, run += 2 and it adds one
      to ``expected``;
    - if covered < expected, a second walk of the theta box reports
      ``exhausts`` for each such theta missing from the fibers of pi(theta),
      or whose pi(theta) is not in pi_space.

    Why one count suffices: the fiber theta that pass are valid, distinct
    within a pi, and lie over their own pi, so fibers of distinct pi are
    disjoint and the covered theta are a subset of the theta counted in
    expected.  Equal counts mean equal sets: every theta of the box whose
    pi(theta) lies in the pi box occurs in the branching of pi(theta), and
    in no other.  Injectivity of nu turns distinct theta into distinct nu.
    """
    try:
        return _one_pass(record, bound, names)
    except Exception as exc:
        if len(names) == 1:
            return {names[0]: exc}
        alone = {name: _box_pass(record, bound, (name,))[name] for name in names}
        if any(isinstance(result, Exception) for result in alone.values()):
            return alone
        return dict.fromkeys(names, exc)


def _one_pass(record: CaseRecord, bound: int, names) -> dict:
    """``_box_pass`` without its error rule: {name: CaseReport} for the
    named checks.  Whatever a setup, a walk or a kernel raises propagates,
    but for dimension conservation's ``computable`` failure entries."""
    failures = {name: [] for name in BOX_CHECKS}
    rel_fail, transfer_fail, dim_fail, smf_fail, pi_fail = failures.values()
    stack = _Stack(record)
    rel = _compile_relations(record) if "relations" in names else None
    transfer = (
        (
            stack.add("transfer"),
            stack.add("nurho"),
            weights._canonical_kernel(record.nu_group.weyl, record.mod_trace),
        )
        if "transfer" in names
        else None
    )
    dim = _dimension_plan(record) if "dimension-conservation" in names else None
    smf = _smf_plan(record, stack) if "strong-multiplicity-freeness" in names else None
    pi_side = _pi_side_plan(record, stack) if "pi-side-consistency" in names else None

    # -- the pi walk: dimension conservation and SMF's fibers
    dim_runs = smf_runs = covered = 0
    if smf is not None:
        pi_theta_rows, injective = smf
        if injective is not None:
            smf_fail.append(injective)
    if dim is not None or smf is not None:
        pi_rows, pi_dimension, nu_rows, nu_dimension = dim or ((), None, (), None)
        nnu = len(nu_rows)
        fiber_image = _affine_kernel(nu_rows + (pi_theta_rows if smf is not None else ()))
        contains = record.theta.contains_ints
        for pi_params, pi_label2 in record.pi_space.walk(bound, pi_rows):
            # SMF reads every pi's fibers; dimension only those of a pi whose
            # own dimension it computes
            fibers = _branch_fibers(record.branch_rule, pi_params) if smf is not None else None
            adding = False  # dimension sums this pi's fibers
            if dim is not None:
                dim_runs += 1
                try:
                    want = pi_dimension(pi_label2)
                    if fibers is None:
                        fibers = _branch_fibers(record.branch_rule, pi_params)
                    adding, total = True, 0
                except (ValueError, AssertionError) as exc:
                    dim_fail.append(("dimension", pi_params, "computable", repr(exc)))
            if smf is not None:
                pi2 = [2 * p for p in pi_params]
                mine: set = set()
            elif not adding:
                continue
            for theta in fibers:
                image = None
                if adding:
                    try:
                        image = fiber_image(theta)
                        total += nu_dimension(image[:nnu])
                    except (ValueError, AssertionError) as exc:
                        dim_fail.append(("dimension", pi_params, "computable", repr(exc)))
                        adding = False
                if smf is not None:
                    smf_runs += 2
                    if not contains(theta):
                        smf_fail.append(("branch-valid", theta, True, False))
                    elif theta in mine:
                        smf_fail.append(("disjoint", theta, None, pi_params))
                    else:
                        mine.add(theta)
                        if image is None:
                            image = fiber_image(theta)
                        doubled = image[nnu:]
                        if doubled != pi2:
                            smf_fail.append(("recovers-pi", theta, _halve(doubled), pi_params))
                        elif max(map(abs, theta), default=0) <= bound:
                            covered += 1
            if adding and want != total:
                dim_fail.append(("dimension", pi_params, want, total))

    # -- the theta walk: relations, transfer, SMF's theta half, pi-side
    points = 0
    # the kernel carries the relation totals, then the P-side numerators
    rel_slots = rel if rel is not None else ()
    pi_symbols, pi_slots, pi_label = pi_side if pi_side is not None else ((), (), None)
    sums = _walk_sums(rel_slots + pi_slots, stack)
    pi_sl = stack.slices.get("pi_of_theta")  # SMF and pi-side read pi(theta)
    canonical = transfer[2] if transfer is not None else None
    get_targets = new_targets = pi_mismatch = None
    if pi_side is not None:
        pi_group = record.pi_group
        targets_of: dict[tuple, tuple] = {}
        get_targets = targets_of.get

        def casimir(pi_params):
            return casimir_eigenvalue(IrrepLabel.from_doubled(pi_group, pi_label(pi_params)))

        def new_targets(pi_params):
            # only the integer targets are kept, one tuple per distinct pi
            record.require_pi(pi_params)
            targets = _pi_side_targets(casimir(pi_params), pi_symbols)
            targets_of[pi_params] = out = tuple([target for _, target in targets])
            return out

        def pi_mismatch(theta, pi_params, nums):
            targets = _pi_side_targets(casimir(pi_params), pi_symbols)
            for (name, den, _), num, (want, target) in zip(pi_symbols, nums, targets):
                if num != target:
                    pi_fail.append(("pi-side:%s" % name, theta, want, Fraction(num, den)))

    odd = expected = 0
    if any(c is not None for c in (rel, transfer, smf, pi_side)):
        leaf = functools.partial(
            _leaf_lines,
            rel_names=[name for name, _ in rel_slots],
            transfer=transfer[:2] if transfer is not None else None,
            pi_sl=pi_sl,
            smf=smf is not None,
            pi_side=pi_side is not None,
        )
        kernel = _theta_kernel(_theta_source(record.theta, bound, stack.rows, sums, leaf))
        points, expected, odd = kernel(
            bound,
            tuple(memo for _, memo in sums),
            canonical,
            rel_fail.append,
            transfer_fail.append,
            smf_fail.append,
            pi_mismatch,
            get_targets,
            new_targets,
        )
    smf_runs += odd + 2 * expected

    # -- SMF's count: search the theta box only when a covered theta is missing
    if smf is not None and covered < expected:
        last, fibers = None, ()
        for theta, doubled in record.theta.walk(bound, pi_theta_rows):
            if any([v & 1 for v in doubled]):
                continue
            pi_params = tuple([v >> 1 for v in doubled])
            if max(map(abs, pi_params), default=0) > bound:
                continue
            if pi_params != last:
                last, fibers = pi_params, ()
                if record.pi_space.contains(pi_params):
                    fibers = set(_branch_fibers(record.branch_rule, pi_params))
            if theta not in fibers:
                smf_fail.append(("exhausts", theta, True, False))
    runs = (len(rel_slots) * points, points, dim_runs, smf_runs, len(pi_symbols) * points)
    runs = dict(zip(BOX_CHECKS, runs))
    return {name: CaseReport(record.id, bound, runs[name], failures[name]) for name in names}


# Coordinates per generated function of a theta kernel: CPython compiles at
# most 20 statically nested blocks, so a deeper loop nest is split into a
# chain of functions, each called from the innermost loop of the one before.
_CHUNK = 16
# The parameters every function of a theta kernel starts with.
_KERNEL_ARGS = (
    "bound, memos, canonical, rel_fail, transfer_fail, smf_fail, pi_fail, get_targets, new_targets"
)


def _tuple_source(items) -> str:
    return "(%s,)" % ", ".join(items) if items else "()"


def _theta_source(space, bound: int, rows, sums, leaf) -> str:
    """The source of a theta kernel, ``_c0(<_KERNEL_ARGS>)``, which runs
    the lines ``leaf`` writes at each point of ``space.walk(bound, rows,
    sums)``, in the walk's order, and returns (points, e, o), e and o being
    what those lines count.  The bound is an argument, so the source holds
    for every bound.

    One ``for`` per coordinate, over the bounds of ``space.walk_tables``,
    with locals v0, v1, ... for the coordinates and fresh locals after them.
    Each distinct row's value is carried down the depth, updated where each
    of its columns is placed.  Each sum term (row index, ``_RowSums``), its
    memo passed as memos[j], is added where its row is final, into the slots
    whose polynomial is not empty only, so the K totals are final where
    their last term is.  After every ``_CHUNK`` coordinates the loop body
    calls the next function of the chain with each local still live, and
    adds up the counts it returns.  ``leaf(value, totals, theta)`` writes
    the leaf's lines from the sources of the value of the stacked row of
    each index, of the K totals ("0" for a total no term reaches) and of
    theta."""
    memos = [memo for _, memo in sums]
    limits, final = space.walk_tables(bound, rows, [(r, j) for j, (r, _) in enumerate(sums)])
    n = len(space.names)
    fresh = itertools.count(n)
    # per distinct row: the index of the local holding its value, or None
    # and its offset while none of its columns is placed
    current = {row: (None, row[1]) for row in rows}
    cols: list[list] = [[] for _ in range(n)]
    for row in current:
        for i, c in row[0]:
            cols[i].append((row, c))
    totals: list = [None] * (len(memos[0].polys) if memos else 0)

    def value(row) -> str:
        at, off = current[row]
        return "%d" % off if at is None else "v%d" % at

    def place(d, pad) -> list:
        # the lines once d coordinates are placed: the rows with a column at
        # d - 1, then the sum terms final at d
        out = []
        for row, c in cols[d - 1] if d else ():
            at, off = current[row]
            if at is None and off == 0 and c == 1:
                current[row] = (d - 1, 0)  # the coordinate itself
                continue
            terms = ((d - 1, c),) if at is None else ((at, 1), (d - 1, c))
            current[row] = (next(fresh), 0)
            out.append("v%d = %s" % (current[row][0], linalg.int_affine_source("v%d", terms, off)))
        for r, j in final[d]:
            got = "m%d[%s]" % (j, value(rows[r]))
            slots = [k for k, poly in enumerate(memos[j].polys) if poly]
            if len(slots) > 1:
                q = "v%d" % next(fresh)
                out.append("%s = %s" % (q, got))
                got = q
            for k in slots:
                new = "v%d" % next(fresh)
                out.append("%s = %s%s[%d]" % (new, totals[k] + " + " if totals[k] else "", got, k))
                totals[k] = new
        return [pad + line for line in out]

    def head(k) -> tuple:
        # the first lines of the function for the coordinates from k, and
        # the locals it takes from the function before
        live = sorted(set(range(k)) | {at for at, _ in current.values() if at is not None})
        live = ["v%d" % i for i in live] + [t for t in totals if t]
        params = ", ".join([_KERNEL_ARGS] + live)
        if k + _CHUNK < n:
            params += ", _next=_c%d" % (k // _CHUNK + 1)
        lines = ["def _c%d(%s):" % (k // _CHUNK, params), "    n = e = o = 0", "    b2 = 2 * bound"]
        if memos:
            lines.append("    %s, = memos" % ", ".join("m%d" % j for j in range(len(memos))))
        return lines, live

    functions = []
    out, _ = head(0)
    pad = "    "
    out += place(0, pad)
    for t in range(n):
        if t and t % _CHUNK == 0:
            lines, live = head(t)
            out.append(pad + "_n, _e, _o = _next(%s)" % ", ".join([_KERNEL_ARGS] + live))
            out += [pad + "n += _n", pad + "e += _e", pad + "o += _o", "    return n, e, o"]
            functions.append(out)
            out, pad = lines, "    "
        lo = ["0" if space.domains[t] == "nat" else "-bound"]
        hi = ["bound"]
        for a, prefix, const in limits[t]:
            rest = linalg.int_affine_source("v%d", prefix, const)
            if a > 0:
                lo.append("-" + rest if a == 1 else "-(%s // %d)" % (rest, a))
            else:
                hi.append(rest if a == -1 else "%s // %d" % (rest, -a))
        lo = lo[0] if len(lo) == 1 else "max(%s)" % ", ".join(lo)
        hi = hi[0] if len(hi) == 1 else "min(%s)" % ", ".join(hi)
        out.append(pad + "for v%d in range(%s, %s + 1):" % (t, lo, hi))
        pad += "    "
        out += place(t + 1, pad)
    conds = membership_source(space.leaf_rows, "v%d")
    if conds:
        out.append(pad + "if %s:" % " and ".join(conds))
        pad += "    "
    theta = _tuple_source(["v%d" % t for t in range(n)])
    lines = leaf(lambda r: value(rows[r]), [t or "0" for t in totals], theta)
    out += [pad + line for line in ["n += 1"] + lines] + ["    return n, e, o"]
    functions.append(out)
    return "".join(line + "\n" for f in reversed(functions) for line in f)


@functools.cache
def _theta_kernel(source: str):
    """The function ``_c0`` that ``_theta_source``'s ``source`` defines,
    compiled once per source.  Each function of the chain holds the next as
    a default argument and the module's globals as its own, so the kernel
    makes no reference cycle."""
    functions: dict = {}
    exec(source, globals(), functions)
    return functions["_c0"]


def _leaf_lines(value, totals, theta, rel_names, transfer, pi_sl, smf, pi_side) -> list:
    """The leaf of a box pass's theta kernel, as ``_theta_source`` asks for
    it: the four theta-walk checks, each only when it runs, in this order.

    - relations (``rel_names``, the first totals): a total that is not 0 is
      a failure; a total that no term reaches has no test;
    - transfer (``transfer``, the slices of the transfer image and of
      nu+rho): their ``canonical`` forms must be equal;
    - SMF's theta half (``smf``): pi(theta) is integral when the bitwise or
      of its doubles d_i (``pi_sl``) is even, else o counts it; an integral
      one in the pi box, -2·bound <= d_i <= 2·bound, e counts;
    - pi-side (``pi_side``, the totals after the relations'): the targets
      of the pi parameters d_i >> 1, from ``get_targets`` or else
      ``new_targets``, against the carried P-side numerators; ``pi_fail``
      gets theta, the pi parameters and the numerators of a mismatch."""

    def values(sl):
        return [value(r) for r in range(sl.start, sl.stop)] if sl is not None else []

    lines = []
    for name, total in zip(rel_names, totals):
        if total != "0":
            lines += ["if %s:" % total, "    rel_fail((%r, %s, 0, %s))" % ("relation:" + name, theta, total)]
    if transfer is not None:
        image, nu_rho = map(values, transfer)
        lines += [
            "_l = canonical(%s)" % _tuple_source(image),
            "_r = canonical(%s)" % _tuple_source(nu_rho),
            "if _l != _r:",
            "    transfer_fail(('transfer', %s, _r, _l))" % theta,
        ]
    doubled = values(pi_sl)
    if smf and doubled:
        lines += [
            "if (%s) & 1:" % " | ".join(doubled),
            "    smf_fail(('integral-pi', %s, True, False))" % theta,
            "    o += 1",
            "elif %s:" % " and ".join("-b2 <= %s <= b2" % d for d in doubled),
            "    e += 1",
        ]
    elif smf:
        lines.append("e += 1")
    nums = totals[len(rel_names) :]
    if pi_side:
        lines += [
            "_k = %s" % _tuple_source(["%s >> 1" % d for d in doubled]),
            "_g = get_targets(_k)",
            "if _g is None:",
            "    _g = new_targets(_k)",
        ]
    if pi_side and nums:
        lines += [
            "if %s:" % " or ".join("%s != _g[%d]" % (num, k) for k, num in enumerate(nums)),
            "    pi_fail(%s, _k, %s)" % (theta, _tuple_source(nums)),
        ]
    return lines


def _halve(doubled) -> tuple:
    """The coordinates whose doubles are ``doubled``: ints, or Fractions
    where a double is odd."""
    return tuple(Fraction(v, 2) if v & 1 else v >> 1 for v in doubled)


def _smf_plan(record: CaseRecord, stack: _Stack):
    """(doubled rows of pi_of_theta, as a tuple, stacked for the theta walk,
    and the setup failure or None) for strong multiplicity-freeness.  The
    failure is ("nu-injective", None, k, rank) when nu_label_map's rank is
    not k."""
    rows = tuple(stack.rows[stack.add("pi_of_theta")])
    k = len(record.theta.names)
    rank = linalg.rank(record.nu_label_map.matrix)
    return rows, None if rank == k else ("nu-injective", None, k, rank)


def _dimension_plan(record: CaseRecord):
    """(doubled rows of the pi label map, the pi group's dimension kernel,
    doubled rows of the nu label map as a tuple, the nu group's dimension
    kernel) for dimension conservation."""
    return (
        _map_rows(record, "pi_label_map"),
        weights._dimension_kernel(record.pi_group.weyl),
        tuple(_map_rows(record, "nu")),
        weights._dimension_kernel(record.nu_group.weyl),
    )


def _pi_side_plan(record: CaseRecord, stack: _Stack):
    """(symbols, slots, pi label) for pi-side consistency: symbols [(name,
    denominator, factor)] of the P-side Casimirs, slots (name, compiled form
    of its numerator) for ``_walk_sums``, and the ``_affine_kernel`` of the
    doubled rows of the pi label map alone.  pi_of_theta goes on ``stack``."""
    symbols, slots = [], []
    for name, s in sorted(record.symbols.items()):
        if s.kind == "casimir" and s.label == "pi":
            form, den = _compiled(record, name)
            symbols.append((name, den, s.factor))
            slots.append((name, form))
    stack.add("pi_of_theta")
    return tuple(symbols), tuple(slots), _affine_kernel(tuple(_map_rows(record, "pi_label_map")))


def _pi_side_targets(value, symbols) -> list:
    """Per symbol (expected, target) for the Casimir value of pi(theta): the
    integer numerator equals target exactly when numerator/den == expected;
    target is None when den is not a multiple of expected's denominator."""
    targets = []
    for _, den, factor in symbols:
        if isinstance(value, tuple):
            expected = value[factor] if factor is not None else sum(value, Fraction(0))
        else:
            expected = value
        q, r = divmod(den, expected.denominator)
        targets.append((expected, None if r else expected.numerator * q))
    return targets


# ---------------------------------------------------------------------------
# the per-case runner


def run_case(record: CaseRecord, bound: int, degree: int) -> list[dict]:
    """Run every check that applies to ``record``; one report entry per check.

    An entry holds ``name``, ``run`` and ``failed``, plus ``first_failure``
    when something failed.  A box too small for the independence certificate
    gives ``inconclusive`` with the reason instead, and counts as no failure.
    An exception inside a check becomes that check's failure, and the
    remaining checks still run.
    """
    entries = []

    def run(name, check, message=None):
        # a check returns a CaseReport or a bool; message is what a False carries
        try:
            result = check()
        except InsufficientSampleError as exc:
            entries.append({"name": name, "run": 0, "failed": 0, "inconclusive": str(exc)})
            return
        except Exception as exc:
            result, message = False, "error: %s: %s" % (type(exc).__name__, exc)
        if isinstance(result, CaseReport):
            entry = {"name": name, "run": result.checks_run, "failed": len(result.failures)}
            if result.failures:
                entry["first_failure"] = repr(result.failures[0])
        else:
            entry = {"name": name, "run": 1, "failed": 0 if result else 1}
            if not result:
                entry["first_failure"] = message
        entries.append(entry)

    box = _box_pass(record, bound)
    run("relations", lambda: _report(box["relations"]))
    run("transfer", lambda: _report(box["transfer"]))
    run("rank-identity", lambda: check_rank_identity(record), "rank triple fails")
    run("degree-counts", lambda: check_degree_counts(record), "m+n != rank")
    run("dimension-conservation", lambda: _report(box["dimension-conservation"]))
    run("strong-multiplicity-freeness", lambda: _report(box["strong-multiplicity-freeness"]))
    run(
        "independence",
        lambda: independence_certificate(record, record.indep_gens, bound, degree)[0],
        "moment matrix is rank-deficient",
    )
    run("pi-side-consistency", lambda: _report(box["pi-side-consistency"]))
    if record.hilbert_model is not None:
        run(
            "generator-degrees",
            lambda: hilbert.check_generator_degrees(record, 12),
            "v-sequence mismatch",
        )
    if record.parity_gap_gens:
        run(
            "dl-only-subalgebra-index-2",
            lambda: check_ix_parity_gap(record, bound),
            "parity unexpectedly expressible",
        )
    if record.id.tag == "star":
        _run_star_suite(run, record, bound)
    return entries


def _run_star_suite(run, record: CaseRecord, bound: int) -> None:
    """The polynomial-model suite of the product-overgroup case, at degree 4."""
    gens = dgx.subalgebra_generators()
    run(
        "dgx-membership",
        lambda: all(dgx.in_subalgebra(f, gens, 4) for f in dgx.R_MEMBERS),
        "a Lemma-membership is missing at bound 4",
    )
    run("x-not-in-R", lambda: dgx.x_not_in_R_witness().passed, "symmetry witness failed")

    def decompositions():
        # decompose_R_plus_Rx raises when a part escapes R
        for ex in range(5):
            for ey in range(5 - ex):
                dgx.decompose_R_plus_Rx(dgx.X ** ex * dgx.Y ** ey, 4)
        return True

    run("dgx-module-decomposition", decompositions)
    table = dgx.dgx_generators()
    run(
        "dgx-cross-evaluation",
        lambda: all(
            table[g].evaluate(*dgx.xyz_of(t)) == evaluate_generator(record, s, t)
            for t in record.theta.enumerate(min(bound, 6))
            for g, s in dgx.SYMBOL_PAIRS
        ),
        "polynomial model disagrees with the case table",
    )
