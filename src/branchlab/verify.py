"""Evaluation-based verification: relation identities, transfer maps,
independence certificates, and ``run_case``, the one runner that decides
which checks a case gets and in what order.  Everything is exact; a failure
carries the offending parameter tuple and both sides' values.

The bound-8 boxes of the rank-7 cases make the inner loops hot, so the checks
compile symbols down to arithmetic on doubled integers.  Every affine map in
the catalog is half-integral, and ``_stored_rows`` raises, naming the case
and the map, on one that is not, so there is no second route behind the
compiled one.  The checks read each map's integer rows (``_MAPS``), a
stored map doubled and a composite composed and halved once, with no
``Fraction`` arithmetic.  Weyl-group arithmetic (canonical orbit forms,
dimensions) is the ``weights`` module's, called on the same doubled
integers, G2 included.  The work that is fixed per record and repeated per
point is compiled once into straight-line Python by the one compiler,
``nest.kernel``: the doubled image of a row list (``nest.affine_kernel``), a
type's Weyl dimension and canonical form (``weights._dimension_kernel``,
``weights._canonical_kernel``) and a space's membership
(``ParamSpace.contains_ints``), cross-checked against the straightforward
reference evaluation in the test suite.  The box pass builds a dimension
kernel only on its slow path, since its pi kernel writes the Weyl
dimensions of pi and nu into its own loops, and a canonical kernel only for
a theta kernel that compares forms.  The independence certificate and the
parity gap reduce moment matrices of the symbols' integer numerators: the
certificate mod a prime in ``linalg.independent_rows``, which hands over to
``linalg``'s integer echelon where the prime cannot decide, and the parity
gap in that echelon.

Pi-side consistency compares the compiled P-side Casimirs, which read the
composite map theta ↦ pi label, with a second route in integers: per
distinct pi(theta), ``pi_space.contains_ints``, the doubled rows of
``pi_label_map`` alone, the group's label validation and
``reps.casimir_numerators``; only a failure entry builds a ``Fraction``.

The five checks that walk a box run in one pass per case, ``_box_pass``:
one walk of the pi box and of each pi's fiber for dimension conservation
and the fiber half of strong multiplicity-freeness, then one walk of the
theta box for relations, transfer, the theta half of strong
multiplicity-freeness and pi-side consistency.  Each walk is a kernel
compiled per case by the one loop-nest writer, ``nest.source``: the pi
kernel (``_pi_source``) runs the pi box's loops and then the loops of the
free coordinates of the rule's ``fibers.FiberPolytope``, with pi's and
nu's Weyl products carried down the nest; the theta kernel (``_theta_source``) carries
the rows of one stacked doubled-integer matrix of every map the theta walk
reads (``_Stack``) and the sums, with the four checks inline at the leaf.
Past 16 coordinates a loop nest is a chain of functions, since CPython
compiles at most 20 nested blocks.  ``run_case``
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
are, and the theta kernel carries these K totals down its loop nest,
adding from a row's memo (``_RowSums``) where the row is final.  The
kernels are the one place that carries rows, sums and products down a
walk; every other walk of a box (``ParamSpace.walk``) yields bare points,
and a caller that needs an image computes it with ``nest.affine_kernel``.
An xyz_poly, which only the star record's cross-evaluation reads, is a
``dgx.Poly`` evaluated at ``dgx.xyz_of(theta)``.  ``ParamSpace.contains`` checks constraints
compiled once per space into one expression, and its walk's leaf check is
another.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import dgx, hilbert, linalg, nest, weights
from .catalog import CaseId, CaseRecord, SymbolSpec, membership_source
from .fibers import _branch_fibers, fiber_polytope
from .linalg import AffineMap
from .reps import casimir_eigenvalue, casimir_numerators


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
    if spec.kind in ("power_ab", "power_nu"):
        # a power sum of numerators m_i over one denominator d is Σ m_i^e / d^e;
        # nu+rho's are 2·(nu's numerators) + d·2·rho over 2·d
        e = spec.scale * spec.k
        if spec.kind == "power_ab":
            vmap = record.a_map if spec.vecname == "a" else record.b_map
            total = spec.base ** spec.k * sum(m ** e for m in vmap.numerators(theta))
            return Fraction(total, vmap.den ** e)
        nu, rho2 = record.nu_label_map, weights._rho2(record.nu_group.weyl)
        nums = [2 * m + nu.den * r for m, r in zip(nu.numerators(theta), rho2)]
        return Fraction(sum(m ** e for m in nums), (2 * nu.den) ** e)
    if spec.kind == "xyz_poly":
        j, jp, a = theta
        xyz = (Fraction((j + 3) ** 2), Fraction((jp + 3) ** 2), Fraction((a + 3) ** 2))
        return _poly_eval(spec.poly, xyz)
    raise ValueError("unknown symbol kind %r" % spec.kind)


# ---------------------------------------------------------------------------
# compiled evaluation on doubled integers


def _doubled(s, rows, message):
    """The doubled rows 2/s·rows of the map rows/s, which have no zero
    coefficient; ValueError(message()) if the map is not half-integral."""
    out = []
    for coeffs, off in rows:
        if (2 * off) % s or any((2 * x) % s for _, x in coeffs):
            raise ValueError(message())
        out.append((tuple((i, 2 * x // s) for i, x in coeffs), 2 * off // s))
    return out


def _stored_rows(record: CaseRecord, key, amap: AffineMap):
    """[(sparse integer row, offset)] for 2·amap, the record's stored map
    ``key`` (an Euler form is its own key); ValueError, naming the case and
    the map, if it is not half-integral."""

    def message():
        name = key
        if not isinstance(key, str):
            euler = sorted(n for n, s in record.symbols.items() if s.kind == "euler" and s.form == key)
            name = "Euler form of %s" % ", ".join(euler)
        return "case %s: map %s is not half-integral" % (record.id, name)

    return _doubled(amap.den, amap.rows, message)


def _composite_rows(record: CaseRecord, key: str, outer: AffineMap, *inner: AffineMap):
    """The doubled rows of the record's map ``key``, outer ∘ the maps
    ``inner`` stacked: their integer rows brought to one denominator d,
    composed with outer's over outer.den·d and halved once; ValueError,
    naming the case and the key, if it is not half-integral."""
    d = math.lcm(*(m.den for m in inner))
    stacked = [
        (tuple((i, d // m.den * c) for i, c in coeffs), d // m.den * off)
        for m in inner
        for coeffs, off in m.rows
    ]
    rows = nest.compose([(coeffs, d * off) for coeffs, off in outer.rows], stacked)
    return _doubled(outer.den * d, rows, lambda: "case %s: map %s is not half-integral" % (record.id, key))


# Builders of the doubled rows of the maps the checks read, from the integer
# rows of the record's stored maps, by the key ``_map_rows`` keeps them under:
# theta ↦ highest-weight coordinates of pi, nu and tau (a Casimir's label), a
# and b of the power sums, nu+rho, the transfer image, pi(theta), the pi label
# map.  A stored map goes through ``_stored_rows``, a composite through
# ``_composite_rows``; the transfer image is [transfer_matrix | transfer_tau]
# after lam_rhoa_map stacked on tau_of_theta.
_MAPS = {
    "pi": lambda r: _composite_rows(r, "pi", r.pi_label_map, r.pi_of_theta),
    "nu": lambda r: _stored_rows(r, "nu", r.nu_label_map),
    "tau": lambda r: _composite_rows(r, "tau", r.tau_label_map, r.tau_of_theta),
    "a": lambda r: _stored_rows(r, "a", r.a_map),
    "b": lambda r: _stored_rows(r, "b", r.b_map),
    "nurho": lambda r: [
        (coeffs, off + rho)
        for (coeffs, off), rho in zip(_map_rows(r, "nu"), weights._rho2(r.nu_group.weyl))
    ],
    "transfer": lambda r: _composite_rows(
        r,
        "transfer",
        AffineMap.of(
            [m + t for m, t in zip(r.transfer_matrix, r.transfer_tau)],
            r.transfer_offset,
            len(r.lam_rhoa_map.rows) + len(r.tau_of_theta.rows),
        ),
        r.lam_rhoa_map,
        r.tau_of_theta,
    ),
    "pi_of_theta": lambda r: _stored_rows(r, "pi_of_theta", r.pi_of_theta),
    "pi_label_map": lambda r: _stored_rows(r, "pi_label_map", r.pi_label_map),
}


def _symbol_cache(record: CaseRecord) -> dict:
    """The record's compiled data, kept for its life and not grown by a box:
    {"rows": doubled rows by map (``_map_rows``), "forms": {symbol: (form,
    den) of ``_separable``}, "evals": {symbol: (fn, den) of ``_int_eval``}}."""
    cache = record.__dict__.get("_symbol_cache")
    if cache is None:
        cache = {"rows": {}, "forms": {}, "evals": {}}
        object.__setattr__(record, "_symbol_cache", cache)
    return cache


def _map_rows(record: CaseRecord, key) -> list:
    """The doubled rows of the record's map ``_MAPS[key]``, or of ``key``
    itself when it is an AffineMap (an Euler form), kept per record under
    the key."""
    rows = _symbol_cache(record)["rows"]
    if key not in rows:
        rows[key] = _MAPS[key](record) if isinstance(key, str) else _stored_rows(record, key, key)
    return rows[key]


def _compiled(record: CaseRecord, name: str):
    """(form, den) of ``_separable`` for the named symbol, compiled once per
    record; the theta kernel, ``_int_eval`` and every plan read this one object."""
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
    for f, sl in group.factor_slices:
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
    """(fn(theta) -> int numerator, denominator) of one symbol, built once
    per record: its compiled form (``_compiled``) at theta, or for an
    xyz_poly its ``dgx.Poly`` at ``dgx.xyz_of(theta)``; KeyError, naming the
    case, for a symbol the record lacks."""
    evals = _symbol_cache(record)["evals"]
    if name not in evals:
        if name not in record.symbols:
            raise KeyError("case %s has no generator %r" % (record.id, name))
        spec = record.symbols[name]
        if spec.kind == "xyz_poly":
            poly = dgx.Poly(dict(spec.poly))
            evals[name] = (lambda theta: poly.num_at(*dgx.xyz_of(theta))), poly.den
        else:
            form, den = _compiled(record, name)
            evals[name] = functools.partial(_form_value, form), den
    return evals[name]


def evaluate_generator(record: CaseRecord, name: str, theta: Sequence[int]) -> Fraction:
    """The exact scalar by which the named generator acts on the theta-isotypic part."""
    theta = record.require_theta(theta)
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
    tuple the theta kernel adds for the row.  Computed on first use, so its
    size is bounded by the values the row takes, not by the box.  ``polys``
    holds the polynomials, ((exponent, coefficient), ...) per slot, so a
    slot whose polynomial is empty always gets 0."""

    def __init__(self, polys):
        super().__init__()
        self.polys = polys

    def __missing__(self, x):
        out = self[x] = tuple([sum([c * x ** e for e, c in poly]) for poly in self.polys])
        return out


def _walk_sums(slots, stack: _Stack) -> list:
    """The sum terms that carry the K = len(slots) totals of ``slots``,
    [(name, compiled form)], down a theta kernel (``_theta_source``): one
    term (row index, ``_RowSums``) per row the slots read, stacked on
    ``stack``.  The constant row is always there, so the K totals exist
    even when every polynomial is zero; a kernel step adds about one tuple
    per coordinate it places."""
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


def _moment_basis(record: CaseRecord, gens: Sequence[str], degree: int):
    """(fns, steps): per generator, its integer numerator as a function of
    theta; per monomial of ``_monomials`` after the constant 1, (the position
    of the monomial that it is x_v times, v).  That monomial comes first in
    the order, since lowering an exponent lowers the tuple."""
    monos = _monomials(len(gens), degree)
    index = {mono: i for i, mono in enumerate(monos)}
    steps = []
    for mono in monos[1:]:
        v = max(i for i, e in enumerate(mono) if e)
        steps.append((index[mono[:v] + (mono[v] - 1,) + mono[v + 1 :]], v))
    return [_int_eval(record, g)[0] for g in gens], steps


def _moment_row(values, steps) -> list:
    """Every monomial in the values, in the order of ``_monomials``."""
    row = [1]
    for parent, v in steps:
        row.append(row[parent] * values[v])
    return row


def _moment_rows(record: CaseRecord, gens: Sequence[str], degree: int, thetas):
    """Per theta, (theta, its row): every monomial of total degree <= degree
    in the generators' integer numerators, in the order of ``_monomials``."""
    fns, steps = _moment_basis(record, gens, degree)
    for theta in thetas:
        yield theta, _moment_row([fn(theta) for fn in fns], steps)


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
    of fewer points than columns is an InsufficientSampleError, found from
    the first points of the walk before any row is reduced; otherwise the
    walk goes on into ``linalg.independent_rows``, which stops at full rank.
    It reduces the rows mod ``linalg.P``, built from the numerators' residues,
    and keeps exactly the rows that exact elimination keeps: only from the
    first row that reduces to zero mod P does it reduce exact rows, rebuilt
    from their theta.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return True, []
    ncols = math.comb(len(gens) + degree, degree)
    walk = record.theta.walk(bound)
    head = list(itertools.islice(walk, ncols))
    if len(head) < ncols:
        raise InsufficientSampleError(
            "box with %d points cannot certify degree %d over %d generators"
            % (len(head), degree, len(gens))
        )
    fns, steps = _moment_basis(record, gens, degree)
    residues = (
        (theta, _moment_row([fn(theta) % linalg.P for fn in fns], steps))
        for theta in itertools.chain(head, walk)
    )
    return linalg.independent_rows(
        residues, ncols, lambda theta: _moment_row([fn(theta) for fn in fns], steps)
    )


def check_independence(record: CaseRecord, bound: int, degree: int) -> bool:
    """The independence certificate of the record's ``indep_gens`` on the
    box.  When the box's moment matrix comes out rank-deficient, the
    Jacobian of the generators' compiled forms at one integer point, drawn
    from 3..10**6 with the case id as seed, tells a box too small from a
    dependence: of full rank, the generators are algebraically independent
    (the Jacobian criterion), so no relation can hold and the result is an
    InsufficientSampleError that names the point; otherwise, or when a
    generator has no compiled form, the False stands."""
    if independence_certificate(record, record.indep_gens, bound, degree)[0]:
        return True
    rng = random.Random(str(record.id))
    point = tuple(rng.randint(3, 10**6) for _ in record.theta.names)
    try:
        forms = [_compiled(record, name)[0] for name in record.indep_gens]
    except ValueError:
        return False
    if linalg.rank([_gradient(form, point) for form in forms]) < len(forms):
        return False
    raise InsufficientSampleError(
        "box too small: the moment matrix is rank-deficient, but the Jacobian of %s "
        "at theta = %s has full rank" % (", ".join(record.indep_gens), point)
    )


def _gradient(form, point) -> list:
    """The gradient of a compiled form's numerator at the point."""
    grad = [0] * len(point)
    for (coeffs, off), poly in form.items():
        x = off + sum(c * point[i] for i, c in coeffs)
        slope = sum(e * c * x ** (e - 1) for e, c in poly.items() if e)
        for i, c in coeffs:
            grad[i] += c * slope
    return grad


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
    for theta, row in _moment_rows(record, gens, degree, record.theta.walk(bound)):
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
    run = _longest_run(record.theta.walk(bound), 1)
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
    turns a ValueError or AssertionError of a dimension into its
    ``computable`` failure entries.  If the pass raises, each named
    check runs alone: a check that raises alone gets its own exception, and
    if none does, every named check gets the pass's exception, so an error
    never becomes a clean report.

    Dimension conservation and the fiber half of strong multiplicity-freeness
    (SMF) share one walk of the pi box and of each pi's fiber, the pi kernel
    written for the case and the checks named (``_pi_source``,
    ``_pi_walk``).  Its loops run over the pi box, then over the lattice
    points of the rule's fiber polytope (``fibers.fiber_polytope``), so the
    leaf runs once per fiber theta and a fiber is never listed.  Per theta
    it multiplies in only the Weyl-product pairings of nu(theta) that its
    innermost coordinate makes final (six of iv[n=3]'s 21), the others being
    carried from the loops outside, and it tests dominance, integrality and
    positivity of the nu dimension; pi's dimension is the same product,
    final once pi is placed.  SMF's per-theta tests are folds carried the
    same way, and its set per pi catches a repeated theta where theta is
    not injective in the fiber's free coordinates.  A pi or a theta that
    fails a dimension test takes the slow path, which rebuilds the
    exception through ``weights._dimension_kernel``, so a ``computable``
    entry reads as before.  Relations, transfer, the theta half of SMF and
    pi-side consistency then share one walk of the theta box, a kernel
    written for the case and the checks named (``_theta_source``), so every
    subset of the four, the error rule's one-check re-runs included, takes
    this one path.  It carries the rows of one stacked matrix of every map
    they read, the relation totals and the P-side Casimir numerators
    (``_walk_sums``) in locals, as a chain of functions past 16
    coordinates (``iv[n=10]`` has 21); transfer compares two
    ``weights._canonical_kernel`` forms of fixed rows of it.  Both kernels
    leave out, when they are written, each per-point test that cannot fail
    at any point their loops reach, so a report is the same with or
    without them: transfer on rows equal to nu+rho's (``_leaf_lines``),
    whose canonical kernel is then not built either; the parity, sign and
    box tests that ``nest.always`` proves from the loops' own ranges; a
    branch-valid congruence that the fiber polytope's own leaf rows test
    (``_leaf_tested``); and ``disjoint``, where theta is injective in the
    fiber's free coordinates.  The box is streamed.  The pass reads the
    record's compiled forms and doubled rows, which are compiled once per
    record (``_symbol_cache``), and kernels compiled once per Weyl type,
    row tuple or source; none grows with the box.  What the pass itself
    keeps: one pi's set of fiber theta where theta may repeat,
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
    transfer = canonical = None
    if "transfer" in names:
        transfer = (stack.add("transfer"), stack.add("nurho"), record.nu_group.weyl.ncoords)
        # a type no canonical kernel takes is a setup error even where the
        # theta kernel compares no forms; the kernel is built only where it does
        weights._canonical_parts(record.nu_group.weyl)
        if _compares_forms(stack.rows, transfer):
            canonical = weights._canonical_kernel(record.nu_group.weyl, record.mod_trace)
    dim = "dimension-conservation" in names
    smf = _smf_plan(record, stack) if "strong-multiplicity-freeness" in names else None
    pi_side = _pi_side_plan(record, stack) if "pi-side-consistency" in names else None

    # -- the pi walk: dimension conservation and SMF's fibers
    dim_runs = smf_runs = covered = 0
    if smf is not None:
        pi_theta_rows, injective = smf
        if injective is not None:
            smf_fail.append(injective)
    if dim or smf is not None:
        dim_runs, dims, smf_runs, fibers, covered = _pi_walk(record, bound, dim, smf is not None)
        dim_fail += dims
        smf_fail += fibers

    # -- the theta walk: relations, transfer, SMF's theta half, pi-side
    points = 0
    # the kernel carries the relation totals, then the P-side numerators
    rel_slots = rel if rel is not None else ()
    pi_symbols, pi_slots, pi_label = pi_side if pi_side is not None else ((), (), None)
    sums = _walk_sums(rel_slots + pi_slots, stack)
    pi_sl = stack.slices.get("pi_of_theta")  # SMF and pi-side read pi(theta)
    get_targets = new_targets = pi_mismatch = None
    if pi_side is not None:
        targets = _pi_side_targets(record, pi_symbols, pi_label)
        targets_of: dict[tuple, tuple] = {}
        get_targets = targets_of.get

        def new_targets(pi_params):
            # only the integer targets are kept, one tuple per distinct pi
            targets_of[pi_params] = out = tuple([target for _, _, target in targets(pi_params)])
            return out

        def pi_mismatch(theta, pi_params, nums):
            for (name, den, _), num, (n, d, target) in zip(pi_symbols, nums, targets(pi_params)):
                if num != target:
                    pi_fail.append(("pi-side:%s" % name, theta, Fraction(n, d), Fraction(num, den)))

    odd = expected = 0
    if any(c is not None for c in (rel, transfer, smf, pi_side)):
        leaf = functools.partial(
            _leaf_lines,
            rows=stack.rows,
            holds=nest.always(_box_coords(record.theta)),
            rel_names=[name for name, _ in rel_slots],
            transfer=transfer,
            pi_sl=pi_sl,
            smf=smf is not None,
            pi_side=pi_side is not None,
        )
        source = _theta_source(record.theta, bound, stack.rows, sums, leaf)
        kernel = nest.kernel(source, "theta kernel %s" % record.id)
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
        pi_image = nest.affine_kernel(pi_theta_rows)
        last, fibers = None, ()
        for theta in record.theta.walk(bound):
            doubled = pi_image(theta)
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


# The parameters every function of a theta kernel starts with.
_KERNEL_ARGS = (
    "bound, memos, canonical, rel_fail, transfer_fail, smf_fail, pi_fail, get_targets, new_targets"
)


def _theta_source(space, bound: int, rows, sums, leaf) -> str:
    """The source of a theta kernel, ``_c0(<_KERNEL_ARGS>)``, which runs
    the lines ``leaf`` writes at each point of ``space.walk(bound)``, in
    the walk's order, and returns (points, e, o), e and o being what those
    lines count.  The bound is an argument, so the source holds for every
    bound; a negative one is a ValueError, as for the walk.

    One ``for`` per coordinate of ``space`` (``nest.source``), within the
    box and ``space.limits``, and the leaf rows tested at the leaf.  The
    stacked rows and the sum terms are ``nest.source``'s ``rows`` and
    ``sums``.  ``leaf(value, totals, theta)`` writes the leaf's lines from
    the sources of the value of the stacked row of each index, of the K
    totals ("0" for a total no term reaches) and of theta."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    n = len(space.names)
    coords = _box_coords(space)
    conds = [[] for _ in range(n)] + [membership_source(space.leaf_rows, "v%d")]
    theta = nest.tuple_source(["v%d" % t for t in range(n)])

    def at(d, value, totals, folds):
        # the leaf's box test reads b2, twice the bound
        before = ["b2 = 2 * bound"] if d == 0 else []
        if d == n:
            before += ["n += 1"] + leaf(value, totals, theta)
        return before, [], ["b2"] if d == 0 else []

    return nest.source(coords, conds, _KERNEL_ARGS, ("n", "e", "o"), rows, sums, (), at)


def _box_coords(space) -> list:
    """``nest.source``'s coords of the box of ``space``: per coordinate,
    from 0 (nat) or -bound to bound, within ``space.limits``."""
    return [(0 if domain == "nat" else -1, 1, limits) for domain, limits in zip(space.domains, space.limits)]


def _box_template(holds, row, k: int, name: str):
    """The template of the test -name <= row <= name, name k·bound, with
    each half that ``holds``, a loop nest's ``nest.always``, decides left
    out, or None when both are."""
    low = not holds(row, k=k)
    high = not holds((tuple((i, -c) for i, c in row[0]), -row[1]), k=k)
    if not (low or high):
        return None
    return ("-%s <= " % name if low else "") + "%s" + (" <= %s" % name if high else "")


# The parameters of a pi kernel.
_PI_ARGS = "bound, pi_want, nu_slow, fiber_fail, dim_fail"


def _pi_source(record: CaseRecord, fibers, dim: bool, smf: bool) -> str:
    """The source of the pi kernel of the record, ``_c0(<_PI_ARGS>)``,
    which returns (pi, fiber theta, covered): the pi box's loops, within the
    box and ``pi_space.limits``, then the loops of the free coordinates of
    ``fibers``, the record's ``FiberPolytope``, within its limits only, so
    the leaf runs once per fiber theta, in the order of ``walk``.

    Per pi of the box, for dimension conservation (``dim``): the dimension
    of pi (None when it is not computable) and the sum of the nu
    dimensions of its fiber, compared after the fiber's loops.  Both are
    the Weyl dimension formula written out (``_weyl_folds``): pi's doubled
    ``pi_label_map`` rows read the pi box's coordinates, and nu's doubled
    rows composed with the theta rows are rows in the loop coordinates, and
    so is each positive root's pairing with the label + 2·rho.  Each
    factor's product of pairings is a fold, so a pairing is multiplied in
    where it is final, and dominance is a fold of the simple roots'
    pairings; once pi is placed, and at the leaf for nu, the kernel tests
    dominance, the divisibility of each factor's product and the
    positivity of the dimension, as ``weights._dimension_kernel`` does
    (``_weyl_test``).  A pi that fails a test, or a label map that cannot
    feed pi's type, takes ``pi_want``, and such a theta, or a fiber whose
    theta rows cannot feed nu's rows, takes ``nu_slow``: each rebuilds the
    exact exception through that kernel.

    Per fiber theta, for SMF (``smf``), in this order: theta lies in the
    theta space (``branch-valid``), a fold of its rows composed with the
    theta rows; theta is not in the pi's set of theta so far
    (``disjoint``); pi(theta), pi_of_theta's doubled rows composed with the
    theta rows, is pi (``recovers-pi``); and theta in the box adds one to
    covered.  Where the theta rows' columns of the free coordinates have
    full rank, theta is injective in them at a fixed pi, so distinct
    points of the fiber's loops are distinct theta: ``disjoint`` cannot
    fail, no set is kept and ``fiber_fail`` gets a fresh one.

    A fold term whose test ``nest.always`` proves for every point of these
    loops, whatever the bound, is left out of its fold, and a fold with no
    term left out of its test: a dominance or branch-valid row that is a
    loop's own limit, a congruence whose modulus divides the row, a half of
    the box test that the pi box and the fiber's limits keep.  So is a
    branch-valid congruence that one of the fiber's leaf rows decides
    (``_leaf_tested``).  A factor 1 of a product and a recovers-pi row that
    is 0 are left out too."""
    npi = len(record.pi_space.names)
    space = fibers.space
    n = len(space.names)
    theta_rows = fibers.theta

    coords = _box_coords(record.pi_space) + [(None, None, limits) for limits in space.limits[npi:]]
    conds: list[list] = [[] for _ in range(n + 1)]
    conds[npi] += membership_source(record.pi_space.leaf_rows, "v%d")
    for row in space.leaf_rows:
        conds[nest.depth(row)] += membership_source([row], "v%d")
    rows = list(theta_rows)
    folds: list = []

    def fold(op, terms) -> int:
        folds.append((op, terms))
        return len(folds) - 1

    holds = nest.always(coords)

    def kept(row, mod=0) -> bool:
        # a term whose test holds at every point drops out of its fold
        return not holds(row, mod)

    if dim:
        # the Weyl dimensions of pi, on the doubled pi label rows of the pi
        # box's coordinates, and of nu(theta), on nu's doubled rows composed
        # with the theta rows
        pi_box = [(((i, 1),), 0) for i in range(npi)]
        pi_dim = _weyl_folds(fold, kept, record.pi_group.weyl, _map_rows(record, "pi_label_map"), pi_box)
        nu_dim = _weyl_folds(fold, kept, record.nu_group.weyl, _map_rows(record, "nu"), theta_rows)
    # SMF's folds; None for a test that fails at every theta: a theta of the
    # wrong length is never in the theta space, and a pi(theta) of the wrong
    # length never recovers pi
    valid = recovers = inbox = None
    if smf and len(theta_rows) == len(record.theta.names):
        member = record.theta._membership
        composed = nest.compose([(c, off) for c, off, _ in member], theta_rows)
        valid = fold(
            "and",
            [
                (row, "%%s %%%% %d == 0" % mod) if mod else (nest.reduced(row)[0], "%s >= 0")
                for row, (_, _, mod) in zip(composed, member)
                if kept(row, mod) and not (mod and _leaf_tested(holds, space.leaf_rows, row, mod))
            ],
        )
        doubled = nest.compose(_map_rows(record, "pi_of_theta"), theta_rows)
        if len(doubled) == npi:  # pi(theta) - 2·pi, row by row
            diffs = []
            for i, (coeffs, off) in enumerate(doubled):
                acc = dict(coeffs)
                acc[i] = acc.get(i, 0) - 2
                diffs.append((tuple(sorted((j, x) for j, x in acc.items() if x)), off))
            recovers = fold(
                "and",
                [(nest.reduced(row)[0], "%s == 0") for row in diffs if row != ((), 0)],
            )
        inbox = fold(
            "and", [(row, t) for row in theta_rows if (t := _box_template(holds, row, 1, "bound"))]
        )

    # theta is injective in the free coordinates at a fixed pi where their
    # columns of the theta rows have full rank, and then no theta of a
    # pi's fiber repeats: ``disjoint`` cannot fail
    free = range(npi, n)
    distinct = linalg.rank([[dict(c).get(j, 0) for j in free] for c, _ in theta_rows]) == len(free)
    pi = nest.tuple_source(["v%d" % t for t in range(npi)])

    def at(d, value, totals, folded):
        before, after, names = [], [], []
        if d == npi:
            before.append("_p = %s" % pi)
            names.append("_p")
            if dim:
                before.append("r += 1")
                if pi_dim is None:
                    before.append("_w = pi_want(_p)")
                else:
                    before += ["if not (%s):" % _weyl_test(folded, pi_dim, "_w"), "    _w = pi_want(_p)"]
                before.append("_t = 0")
                after += ["if _w is not None and _w != _t:", "    dim_fail(('dimension', _p, _w, _t))"]
                names += ["_w", "_t"]
            if smf and not distinct:
                before.append("_m = set()")
                names.append("_m")
        if d < n:
            return before, after, names
        theta_src = nest.tuple_source([value(r) for r in range(len(theta_rows))])
        if dim:
            slow = ["(_d := nu_slow(_p, %s)) is None:" % theta_src, "    _w = None", "else:", "    _t += _d"]
            if nu_dim is not None:
                passes = _weyl_test(folded, nu_dim, "_d")
                slow = ["if %s:" % passes, "    _t += _d", "elif " + slow[0]] + slow[1:]
            else:
                slow[0] = "if " + slow[0]
            before += ["if _w is not None:"] + ["    " + line for line in slow]
        if smf:

            def test(f):
                return "False" if f is None else folded[f]

            tests = [t for t in (test(valid), test(recovers)) if t != "True"]
            count = ["c += 1"] if test(inbox) == "True" else ["if %s:" % test(inbox), "    c += 1"]
            if distinct:  # no fiber theta repeats: no set, and fiber_fail gets a fresh one
                before.append("s += 1")
                if tests:
                    before.append("if %s:" % " and ".join(tests))
                    count = ["    " + line for line in count]
                    count += ["else:", "    fiber_fail(_p, %s, set(), %s)" % (theta_src, test(valid))]
                before += count
            else:
                before += [
                    "_h = %s" % theta_src,
                    "s += 1",
                    "if %s:" % " and ".join(tests + ["_h not in _m"]),
                    "    _m.add(_h)",
                    *["    " + line for line in count],
                    "else:",
                    "    fiber_fail(_p, _h, _m, %s)" % test(valid),
                ]
        return before, after, names

    return nest.source(coords, conds, _PI_ARGS, ("r", "s", "c"), rows, (), folds, at)


def _leaf_tested(holds, leaf_rows, row, mod: int) -> bool:
    """Whether the congruence row % mod == 0 follows from one of the
    ``leaf_rows`` (((index, coefficient), ...), const, mod) of a fiber
    polytope that has the same modulus: the two rows differ by a multiple
    of it (``holds``, a loop nest's ``nest.always``, decides that).  The
    pi kernel tests each such row at the depth where it is final, around
    every leaf, and reads its folds only at the leaf, so a fold term so
    decided cannot fail where it is read."""
    for coeffs, const, m in leaf_rows:
        if m == mod:
            acc = dict(row[0])
            for i, c in coeffs:
                acc[i] = acc.get(i, 0) - c
            if holds((tuple(acc.items()), row[1] - const), mod):
                return True
    return False


def _weyl_folds(fold, kept, weyl, label_rows, inner):
    """The folds of a pi kernel that compute the Weyl dimension of a doubled
    label as ``weights._dimension_kernel`` does, or None where the kernel
    cannot use them: ``label_rows``, the label's doubled rows, must be one
    per coordinate of ``weyl`` and read only the rows ``inner`` of the
    loop coordinates.  ``fold(op, terms)`` files a fold and returns its
    index; ``kept(row)`` says whether a dominance term may fail.

    The pairings of the positive roots with the label plus 2·rho are rows
    in the loop coordinates, and each non-trivial factor's product of them
    is a "*" fold, so a pairing is multiplied in where it is final; each
    pairing and its value at the label 0 are divided by their gcd, which
    leaves the factor's quotient and its divisibility as they are, and a
    factor 1 is left out.  Dominance is an "and" fold of the simple roots'
    pairings.  Returns (dims, dominant): [(product fold, its value at the
    label 0)] per factor and the dominance fold.  ``weights._root_pairings``
    is read for every factor first, so a type with no root data is a
    ValueError."""
    blocks, pos = [], 0
    for f in weyl.factors or (weyl,):
        if f.family != "Trivial":
            blocks.append((pos, f, weights._root_pairings(f)))
        pos += f.ncoords
    width = len(inner)
    if len(label_rows) != weyl.ncoords or any(i >= width for c, _ in label_rows for i, _ in c):
        return None
    dims, dominance = [], []
    for pos, f, roots in blocks:
        label = nest.compose(label_rows[pos : pos + f.ncoords], inner)
        den = 1
        pairings = []
        for row, (_, const) in zip(nest.compose(roots, label), roots):
            row, g = nest.reduced(row, const)
            if row != ((), 1) or const != g:  # else a factor 1
                den *= const // g
                pairings.append((row, "%s"))
        dims.append((fold("*", pairings), den))
        simple = weights._dominance_rows(f.family, f.ncoords)
        dominance += [nest.reduced(row)[0] for row in nest.compose([(row, 0) for row in simple], label)]
    return dims, fold("and", [(row, "%s >= 0") for row in dominance if kept(row)])


def _weyl_test(folded, plan, name: str) -> str:
    """The source of ``weights._dimension_kernel``'s tests, in its order, on
    the folds of ``plan`` (``_weyl_folds``) as ``folded`` writes them: true
    where the label is dominant, each factor's product divides and the
    dimension is positive, and then the local ``name`` holds the
    dimension."""
    dims, dominant = plan
    tests = [folded[dominant]]
    tests += ["%s %% %d == 0" % (folded[p], den) for p, den in dims if den != 1]
    quotient = " * ".join(folded[p] if den == 1 else "(%s // %d)" % (folded[p], den) for p, den in dims)
    tests.append("(%s := %s) > 0" % (name, quotient or "1"))
    return " and ".join(t for t in tests if t != "True")


def _pi_walk(record: CaseRecord, bound: int, dim: bool, smf: bool) -> tuple:
    """(dimension runs, dimension failures, SMF runs, SMF failures,
    covered) of the walk of the pi box and of each pi's fiber, for
    dimension conservation (``dim``) and the fiber half of strong
    multiplicity-freeness (``smf``): the record's pi kernel
    (``_pi_source``), compiled once per source.  A dimension that is not
    computable, of pi or of a fiber theta, is a ``computable`` failure
    entry holding the repr of the ValueError or AssertionError of the
    weights kernel, and ends the sum of that pi.  The kernel computes
    every dimension that passes its tests itself; ``pi_want`` and
    ``nu_slow`` are the slow path of one that fails, and alone build the
    label's affine kernel and the type's ``weights._dimension_kernel``."""
    dim_fail: list = []
    smf_fail: list = []

    def dimension(pi_params, kernel, label2):
        # the weights kernel's dimension of a doubled label, or None and a
        # computable entry for pi_params
        try:
            return kernel(label2)
        except (ValueError, AssertionError) as exc:
            dim_fail.append(("dimension", pi_params, "computable", repr(exc)))

    def pi_want(pi_params):
        # the slow path, which alone builds pi's kernels
        pi2 = nest.affine_kernel(tuple(_map_rows(record, "pi_label_map")))(pi_params)
        return dimension(pi_params, weights._dimension_kernel(record.pi_group.weyl), pi2)

    def nu_slow(pi_params, theta):
        # the slow path, which alone builds nu's kernels
        nu2 = nest.affine_kernel(tuple(_map_rows(record, "nu")))(theta)
        return dimension(pi_params, weights._dimension_kernel(record.nu_group.weyl), nu2)

    def fiber_fail(pi_params, theta, mine, valid):
        # the first SMF test a fiber theta fails, in the kernel's order
        if not valid:
            smf_fail.append(("branch-valid", theta, True, False))
        elif theta in mine:
            smf_fail.append(("disjoint", theta, None, pi_params))
        else:
            mine.add(theta)
            doubled = nest.affine_kernel(tuple(_map_rows(record, "pi_of_theta")))(theta)
            smf_fail.append(("recovers-pi", theta, _halve(doubled), pi_params))

    fibers = fiber_polytope(record.branch_rule, len(record.pi_space.names))
    kernel = nest.kernel(_pi_source(record, fibers, dim, smf), "pi kernel %s" % record.id)
    if bound < 0:  # the walk's error, as ParamSpace.walk raises it
        raise ValueError("bound must be >= 0")
    runs, count, covered = kernel(bound, pi_want, nu_slow, fiber_fail, dim_fail.append)
    return runs, dim_fail, 2 * count, smf_fail, covered


def _leaf_lines(
    value, totals, theta, rows, holds, rel_names, transfer, pi_sl, smf, pi_side
) -> list:
    """The leaf of a box pass's theta kernel, as ``_theta_source`` asks for
    it: the four theta-walk checks, each only when it runs, in this order.

    - relations (``rel_names``, the first totals): a total that is not 0 is
      a failure; a total that no term reaches has no test;
    - transfer (``transfer``, the slices of the transfer image and of
      nu+rho in the stacked ``rows``, and the count of coordinates of nu's
      Weyl type): their ``canonical`` forms must be equal;
    - SMF's theta half (``smf``): pi(theta) is integral when the bitwise or
      of its doubles d_i (``pi_sl``) is even, else o counts it; an integral
      one in the pi box, -2·bound <= d_i <= 2·bound, e counts;
    - pi-side (``pi_side``, the totals after the relations'): the targets
      of the pi parameters d_i >> 1, from ``get_targets`` or else
      ``new_targets``, against the carried P-side numerators; ``pi_fail``
      gets theta, the pi parameters and the numerators of a mismatch.

    A test that cannot fail at any theta of the loops is decided here and
    left out of the source; every other test is written as above.

    - Transfer, where the two slices hold the same stacked rows, one per
      coordinate of the type: the two forms are of one tuple, and the
      canonical kernel is a function of its argument that raises on a
      wrong length only, so the forms are equal.  No canonical call is
      written, and run still counts every theta.
    - A double d_i whose row ``holds`` (the theta loops' ``nest.always``)
      proves even: every coefficient and the offset are even, so d_i is
      never odd; pi-side reads the halved row in place of d_i >> 1.
    - A half of the box test whose row ``holds`` proves within ±2·bound
      from the loops' ranges.

    A row value that no written line reads is then not carried."""

    def values(sl):
        return [value(r) for r in range(sl.start, sl.stop)] if sl is not None else []

    lines = []
    for name, total in zip(rel_names, totals):
        if total != "0":
            lines += ["if %s:" % total, "    rel_fail((%r, %s, 0, %s))" % ("relation:" + name, theta, total)]
    if transfer is not None and _compares_forms(rows, transfer):
        image, nu_rho, _ = transfer
        lines += [
            "_l = canonical(%s)" % nest.tuple_source(values(image)),
            "_r = canonical(%s)" % nest.tuple_source(values(nu_rho)),
            "if _l != _r:",
            "    transfer_fail(('transfer', %s, _r, _l))" % theta,
        ]
    # the stacked rows of pi(theta)'s doubles; a value is read only where a
    # line reads it, so that the kernel carries no other
    pi = range(pi_sl.start, pi_sl.stop) if pi_sl is not None else ()
    even = [holds(rows[r], 2) for r in pi]
    if smf and pi:
        odd = [value(r) for r, e in zip(pi, even) if not e]
        box = [t % value(r) for r in pi if (t := _box_template(holds, rows[r], 2, "b2"))]
        if odd:
            lines += [
                "if (%s) & 1:" % " | ".join(odd),
                "    smf_fail(('integral-pi', %s, True, False))" % theta,
                "    o += 1",
            ]
            lines += ["elif %s:" % " and ".join(box), "    e += 1"] if box else ["else:", "    e += 1"]
        elif box:
            lines += ["if %s:" % " and ".join(box), "    e += 1"]
        else:
            lines.append("e += 1")
    elif smf:
        lines.append("e += 1")
    nums = totals[len(rel_names) :]
    if pi_side:
        halves = [
            linalg.int_affine_source("v%d", *nest.reduced(rows[r], 2)[0]) if e else "%s >> 1" % value(r)
            for r, e in zip(pi, even)
        ]
        lines += [
            "_k = %s" % nest.tuple_source(halves),
            "_g = get_targets(_k)",
            "if _g is None:",
            "    _g = new_targets(_k)",
        ]
    if pi_side and nums:
        lines += [
            "if %s:" % " or ".join("%s != _g[%d]" % (num, k) for k, num in enumerate(nums)),
            "    pi_fail(%s, _k, %s)" % (theta, nest.tuple_source(nums)),
        ]
    return lines


def _compares_forms(rows, transfer) -> bool:
    """Whether a theta kernel compares two canonical forms for transfer
    (``transfer`` as ``_leaf_lines`` takes it): not where the slices of the
    transfer image and of nu+rho in the stacked ``rows`` hold the same rows,
    one per coordinate of nu's Weyl type, which makes the forms equal."""
    image, nu_rho, ncoords = transfer
    return rows[image] != rows[nu_rho] or len(rows[image]) != ncoords


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
    nu = record.nu_label_map
    rank = linalg.rank([[dict(c).get(j, 0) for j in range(nu.source)] for c, _ in nu.rows])
    return rows, None if rank == k else ("nu-injective", None, k, rank)


def _pi_side_plan(record: CaseRecord, stack: _Stack):
    """(symbols, slots, pi label) for pi-side consistency: symbols [(name,
    denominator, factor)] of the P-side Casimirs, slots (name, compiled form
    of its numerator) for ``_walk_sums``, and the ``nest.affine_kernel`` of the
    doubled rows of the pi label map alone.  pi_of_theta goes on ``stack``."""
    symbols, slots = [], []
    for name, s in sorted(record.symbols.items()):
        if s.kind == "casimir" and s.label == "pi":
            form, den = _compiled(record, name)
            symbols.append((name, den, s.factor))
            slots.append((name, form))
    stack.add("pi_of_theta")
    return tuple(symbols), tuple(slots), nest.affine_kernel(tuple(_map_rows(record, "pi_label_map")))


def _pi_side_targets(record: CaseRecord, symbols, pi_label):
    """pi parameters ↦ (N, D, target) per symbol of ``_pi_side_plan``: pi's
    Casimir, from ``pi_label``'s doubled label alone, is N/D, which num/den
    equals exactly when num == target = N·den / D (None where D does not
    divide N·den).  It raises as ``require_pi`` and label validation do."""
    group = record.pi_group
    contains, validate = record.pi_space.contains_ints, group._validate2
    # a simple group's value, a product factor's, or the sum over the factors (last)
    picks = [0 if group.kind != "Product" else -1 if f is None else f for _, _, f in symbols]
    summed = -1 in picks

    def targets(pi_params):
        if not contains(pi_params):
            record.require_pi(pi_params)
        label2 = pi_label(pi_params)
        validate(label2)
        nums, dens = casimir_numerators(group, label2)
        values = list(zip(nums, dens))
        if summed:
            d = math.lcm(*dens)
            values.append((sum([n * (d // e) for n, e in zip(nums, dens)]), d))
        return [
            (n, d, None if n * den % d else n * den // d)
            for (_, den, _), (n, d) in zip(symbols, [values[k] for k in picks])
        ]

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
        lambda: check_independence(record, bound, degree),
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

    def cross_evaluation():
        # p(x, y, z) == fn(theta) / den as num_at · den == fn(theta) · p.den
        table = dgx.dgx_generators()
        pairs = [(table[g], *_int_eval(record, s)) for g, s in dgx.SYMBOL_PAIRS]
        return all(
            poly.num_at(*xyz) * den == fn(t) * poly.den
            for t in record.theta.enumerate(min(bound, 6))
            for xyz in [dgx.xyz_of(t)]
            for poly, fn, den in pairs
        )

    run("dgx-cross-evaluation", cross_evaluation, "polynomial model disagrees with the case table")
