"""Evaluation-based verification: relation identities, transfer maps,
independence certificates, and ``run_case``, the one runner that decides
which checks a case gets and in what order.  Everything is exact; a failure
carries the offending parameter tuple and both sides' values.

The bound-8 boxes of the rank-7 cases make the inner loops hot, so the checks
compile symbols down to arithmetic on doubled integers.  Every affine map in
the catalog is half-integral, and ``_rows2`` raises on one that is not, so
there is no second route behind the compiled one.  The only per-check
alternatives are the exact routes for G2 factors (case x).  The compiled
evaluation is cross-checked against the straightforward reference evaluation
in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import dgx, hilbert, linalg, weights
from .catalog import CaseId, CaseRecord, SymbolSpec, _branch_fibers
from .linalg import AffineMap, mat, vec
from .reps import casimir_eigenvalue


class InsufficientSampleError(ValueError):
    """The enumerated box is too small for the requested certificate degree."""


@dataclass
class CaseReport:
    case: CaseId
    bound: int
    checks_run: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


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
    if spec.kind == "theta_poly":
        return _poly_eval(spec.poly, vec(theta))
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


def _apply2(rows2, params) -> list[int]:
    return [sum(c * params[i] for i, c in coeffs) + off for coeffs, off in rows2]


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


_G2_GRAM4 = ((12, 6), (6, 4))


def _label_map_for(record: CaseRecord, label: str) -> AffineMap:
    """The composite theta ↦ highest-weight coordinates for pi/nu/tau."""
    if label == "pi":
        return _compose_affine(
            record.pi_label_map.matrix, record.pi_label_map.offset, record.pi_of_theta
        )
    if label == "nu":
        return record.nu_label_map
    return _compose_affine(
        record.tau_label_map.matrix, record.tau_label_map.offset, record.tau_of_theta
    )


def _group_for(record: CaseRecord, label: str):
    return {"pi": record.pi_group, "nu": record.nu_group, "tau": record.tau_group}[label]


def _rows_for(record: CaseRecord, key: str, make):
    """_rows2(make()), built once per record and kept under ``key``."""
    maps = _symbol_cache(record)["rows"]
    rows = maps.get(key)
    if rows is None:
        rows = maps[key] = _rows2(make())
    return rows


def _nu_rho_rows(record: CaseRecord):
    """Doubled rows of theta ↦ nu(theta) + rho, the Z(g_C) side of transfer."""
    return _rows_for(
        record,
        "nurho",
        lambda: AffineMap(
            record.nu_label_map.matrix,
            vec(tuple(a + b for a, b in zip(record.nu_label_map.offset, record.g_rho))),
            source=record.nu_label_map.source_dim,
        ),
    )


def _getter(key: str, rows2):
    def get(theta, memo):
        v = memo.get(key)
        if v is None:
            v = _apply2(rows2, theta)
            memo[key] = v
        return v

    return get


def _int_casimir_blocks(group):
    """[(kind, slice, rho2, extra)] with value numerator over denominator 4·extra."""
    blocks = []
    for f, sl in group.factor_slices():
        fam = f.weyl.family
        rho2 = [int(2 * x) for x in f.rho]
        if fam == "G2":
            blocks.append(("g2", sl, rho2, 4))
        elif f.kind == "SU":
            blocks.append(("su", sl, rho2, f.rank))
        else:
            blocks.append(("orth", sl, rho2, 1))
    return blocks


def _int_symbol(record: CaseRecord, name: str):
    """(fn(theta, memo) -> int numerator, constant denominator)."""
    spec = record.symbols[name]
    if spec.kind == "casimir":
        key = "label:%s" % spec.label
        get = _getter(key, _rows_for(record, key, lambda: _label_map_for(record, spec.label)))
        group = _group_for(record, spec.label)
        blocks = _int_casimir_blocks(group)
        if spec.factor is not None:
            blocks = [blocks[spec.factor]]
        den = 4 * math.lcm(*(extra for _, _, _, extra in blocks))

        def casimir_fn(theta, memo, blocks=tuple(blocks), den=den, get=get):
            lam2 = get(theta, memo)
            total = 0
            for kind, sl, rho2, extra in blocks:
                a = lam2[sl]
                if kind == "orth":
                    s = sum(x * (x + 2 * r) for x, r in zip(a, rho2))
                    total += s * (den // 4)
                elif kind == "su":
                    n = extra
                    s = sum(x * (x + 2 * r) for x, r in zip(a, rho2))
                    t = sum(a)
                    total += (n * s - t * t) * (den // (4 * n))
                else:  # g2
                    shifted = [x + 2 * r for x, r in zip(a, rho2)]
                    s = sum(
                        a[i] * _G2_GRAM4[i][j] * shifted[j]
                        for i in range(2)
                        for j in range(2)
                    )
                    total += s * (den // 16)
            return total

        return casimir_fn, den
    if spec.kind == "euler":
        key = "euler:%s" % name
        get = _getter(key, _rows_for(record, key, lambda: spec.form))
        return (lambda theta, memo: get(theta, memo)[0]), 2
    if spec.kind == "power_ab":
        vmap = record.a_map if spec.vecname == "a" else record.b_map
        key = "vec:%s" % spec.vecname
        get = _getter(key, _rows_for(record, key, lambda: vmap))
        e = spec.scale * spec.k
        num_scale = spec.base ** spec.k

        def power_ab_fn(theta, memo, get=get, e=e, s=num_scale):
            return s * sum(v ** e for v in get(theta, memo))

        return power_ab_fn, 2 ** e
    if spec.kind == "power_nu":
        get = _getter("nurho", _nu_rho_rows(record))
        e = spec.scale * spec.k

        def power_nu_fn(theta, memo, get=get, e=e):
            return sum(v ** e for v in get(theta, memo))

        return power_nu_fn, 2 ** e
    if spec.kind in ("theta_poly", "xyz_poly"):
        den = math.lcm(*(c.denominator for _, c in spec.poly)) if spec.poly else 1
        terms = tuple((exps, int(c * den)) for exps, c in spec.poly)

        def poly_fn(theta, memo, terms=terms, xyz=spec.kind == "xyz_poly"):
            if xyz:
                theta = tuple((v + 3) ** 2 for v in theta)
            total = 0
            for exps, c in terms:
                term = c
                for v, e in zip(theta, exps):
                    if e:
                        term *= v ** e
                total += term
            return total

        return poly_fn, den
    raise ValueError("unknown symbol kind %r" % spec.kind)


def _symbol_cache(record: CaseRecord) -> dict:
    cache = record.__dict__.get("_symbol_cache")
    if cache is None:
        cache = {"rows": {}, "int": {}}
        object.__setattr__(record, "_symbol_cache", cache)
    return cache


def _int_eval(record: CaseRecord, name: str):
    cache = _symbol_cache(record)
    if name not in cache["int"]:
        cache["int"][name] = _int_symbol(record, name)
    return cache["int"][name]


def evaluate_generator(record: CaseRecord, name: str, theta: Sequence[int]) -> Fraction:
    """The exact scalar by which the named generator acts on the theta-isotypic part."""
    theta = record.require_theta(theta)
    if name not in record.symbols:
        raise KeyError("case %s has no generator %r" % (record.id, name))
    fn, den = _int_eval(record, name)
    return Fraction(fn(theta, {}), den)


# ---------------------------------------------------------------------------
# relation suite


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


# ---------------------------------------------------------------------------
# transfer suite


def _canonical_char(record: CaseRecord, v) -> tuple:
    v = vec(v)
    if record.mod_trace:
        # SU-side infinitesimal characters live modulo the trace direction.
        mean = sum(v) / len(v)
        v = tuple(x - mean for x in v)
    return weights.dominant_representative(record.g_weyl, v)


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


def _canonical2(record: CaseRecord, values2: list[int]):
    """Canonical W(g_C)-orbit form on doubled-integer coordinates."""
    if record.mod_trace:
        n = len(values2)
        total = sum(values2)
        values2 = [n * v - total for v in values2]
    out = []
    pos = 0
    for f in record.g_weyl.factors or (record.g_weyl,):
        k = f.ncoords
        block = values2[pos : pos + k]
        pos += k
        fam = f.family
        if fam == "A":
            out.extend(sorted(block, reverse=True))
        elif fam in ("B", "C", "BC"):
            out.extend(sorted((abs(x) for x in block), reverse=True))
        elif fam == "D":
            flips = sum(1 for x in block if x < 0)
            blk = sorted((abs(x) for x in block), reverse=True)
            if flips % 2 == 1 and blk[-1] != 0:
                blk[-1] = -blk[-1]
            out.extend(blk)
        elif fam == "Trivial":
            out.extend(block)
        else:  # G2: exact slow route (tiny cases only)
            canon = weights.dominant_representative(
                f, vec([Fraction(x, 2) for x in block])
            )
            out.extend(2 * c for c in canon)
    return tuple(out)


def check_transfer(record: CaseRecord, bound: int) -> CaseReport:
    """S_tau(lambda(theta) + rho_a) = nu(theta) + rho mod W(g_C), exactly."""
    report = CaseReport(record.id, bound)
    img2 = _rows2(_transfer_image_map(record))
    nr2 = _nu_rho_rows(record)
    count = 0
    failures = []
    for theta in record.theta.enumerate(bound):
        count += 1
        lhs = _canonical2(record, _apply2(img2, theta))
        rhs = _canonical2(record, _apply2(nr2, theta))
        if lhs != rhs:
            failures.append(("transfer", theta, rhs, lhs))
    report.checks_run = count
    report.failures = failures
    return report


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


def _prod(values, mono) -> Fraction:
    out = Fraction(1)
    for v, e in zip(values, mono):
        if e:
            out *= v ** e
    return out


def independence_certificate(
    record: CaseRecord,
    gens: Sequence[str],
    bound: int,
    degree: int,
) -> tuple[bool, list[tuple[int, ...]]]:
    """True iff no polynomial relation of total degree <= ``degree`` holds among
    the generator evaluations on the enumerated box; the witness is a set of
    parameter tuples giving an invertible maximal minor of the moment matrix.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return True, []
    thetas = record.theta.enumerate(bound)
    monos = _monomials(len(gens), degree)
    ncols = len(monos)
    if len(thetas) < ncols:
        raise InsufficientSampleError(
            "box with %d points cannot certify degree %d over %d generators"
            % (len(thetas), degree, len(gens))
        )
    evals = [_int_eval(record, g) for g in gens]
    basis: list[list[Fraction]] = []
    pivots: dict[int, int] = {}
    witness: list[tuple[int, ...]] = []
    for theta in thetas:
        memo: dict = {}
        values = [Fraction(fn(theta, memo), den) for fn, den in evals]
        row = [_prod(values, mono) for mono in monos]
        while True:
            lead = next((c for c in range(ncols) if row[c] != 0), None)
            if lead is None or lead not in pivots:
                break
            f = row[lead]
            brow = basis[pivots[lead]]
            row = [x - f * y for x, y in zip(row, brow)]
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        pivots[lead] = len(basis)
        basis.append(row)
        witness.append(theta)
        if len(basis) == ncols:
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
    the generator evaluations on the box?  (Exact rank comparison.)"""
    thetas = record.theta.enumerate(bound)
    monos = _monomials(len(gens), degree)
    evals = [_int_eval(record, g) for g in gens]
    rows, rhs = [], []
    for theta in thetas:
        memo: dict = {}
        vals = [Fraction(fn(theta, memo), den) for fn, den in evals]
        rows.append([_prod(vals, mono) for mono in monos])
        rhs.append(Fraction(values_by_theta(theta)))
    m = linalg.mat(rows)
    base_rank = linalg.rank(m)
    aug = linalg.mat([row + [b] for row, b in zip(rows, rhs)])
    return linalg.rank(aug) == base_rank


def check_ix_parity_gap(record: CaseRecord, bound: int, degree: int = 4) -> bool:
    """Case (ix) exception witness: the parity of the U(3)-charge is not a
    polynomial (degree <= 4) in the two Casimir evaluations, so the pair
    {C_Gtilde, C_G} generates an index-two subalgebra of the evaluation image.
    """
    if not record.parity_gap_gens:
        raise ValueError("case %s stores no parity-gap generators" % record.id)
    return not function_in_span(
        record,
        record.parity_gap_gens,
        lambda theta: theta[1] % 2,
        bound,
        degree,
    )


# ---------------------------------------------------------------------------
# structural checks


def check_rank_identity(record: CaseRecord) -> bool:
    a, b, c = record.rank3
    return a + b == c


def check_degree_counts(record: CaseRecord) -> bool:
    return len(record.degrees_p) + len(record.degrees_q) == record.degrees_rank


def _dim_table(group):
    """Per-factor data for fast dimensions, or None if a G2 factor is present."""
    infos = []
    for f, sl in group.factor_slices():
        fam = f.weyl.family
        if fam == "G2":
            return None
        rho2 = [int(2 * x) for x in f.rho]
        if fam == "Trivial":
            infos.append((None, sl, rho2, 1))
            continue
        _, den = weights._dim_classical(fam, rho2, rho2)
        infos.append((fam, sl, rho2, den))
    return infos


def _dim_fast(infos, lam2) -> int:
    total = 1
    for fam, sl, rho2, den in infos:
        if fam is None:
            continue
        block = lam2[sl]
        if not weights._dominant_classical(fam, block):
            raise ValueError("non-dominant weight block %s" % (block,))
        shifted = [x + r for x, r in zip(block, rho2)]
        num, _ = weights._dim_classical(fam, shifted, rho2)
        if num % den:
            raise AssertionError("non-integral dimension")
        total *= num // den
    return total


def check_dimension_conservation(record: CaseRecord, bound: int) -> CaseReport:
    """dim pi = sum of dim theta over the branching, exactly."""
    report = CaseReport(record.id, bound)
    pi2 = _rows2(record.pi_label_map)
    nu2 = _rows2(record.nu_label_map)
    pi_infos = _dim_table(record.pi_group)
    nu_infos = _dim_table(record.nu_group)

    def pi_dim(pi_params):
        if pi_infos is not None:
            return _dim_fast(pi_infos, _apply2(pi2, pi_params))
        return weights.weyl_dimension(
            record.pi_group.weyl, record.pi_group.rho, record.pi_label_map.apply(pi_params)
        )

    def nu_dim(theta):
        if nu_infos is not None:
            return _dim_fast(nu_infos, _apply2(nu2, theta))
        return weights.weyl_dimension(
            record.g_weyl, record.g_rho, record.nu_label_map.apply(theta)
        )

    count = 0
    failures = []
    for pi_params in record.pi_space.enumerate(bound):
        count += 1
        try:
            expected = pi_dim(pi_params)
            total = 0
            for theta in _branch_fibers(record.branch_rule, tuple(pi_params)):
                total += nu_dim(theta)
        except (ValueError, AssertionError) as exc:
            failures.append(("dimension", tuple(pi_params), "computable", repr(exc)))
            continue
        if expected != total:
            failures.append(("dimension", tuple(pi_params), expected, total))
    report.checks_run = count
    report.failures = failures
    return report


def check_strong_multiplicity_freeness(record: CaseRecord, bound: int) -> CaseReport:
    """Branches of distinct pi are disjoint and exhaust Disc(G/H); every theta
    recovers its pi via the canonical map and occurs in its branching."""
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
        for theta in _branch_fibers(record.branch_rule, pi_params):
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
    # per pi(theta): (expected, target) for each symbol, where the integer
    # numerator fn(theta) equals target exactly when fn(theta)/den == expected;
    # target is None when den is not a multiple of expected's denominator
    cache: dict[tuple, list] = {}
    count = 0
    failures = []
    for theta in record.theta.enumerate(bound):
        pi_params = tuple(v // 2 for v in _apply2(pi2, theta))
        targets = cache.get(pi_params)
        if targets is None:
            value = casimir_eigenvalue(record.pi_label(pi_params))
            targets = cache[pi_params] = []
            for _, s, (_, den) in casimir_syms:
                if isinstance(value, tuple):
                    expected = value[s.factor] if s.factor is not None else sum(value, Fraction(0))
                else:
                    expected = value
                q, r = divmod(den, expected.denominator)
                targets.append((expected, None if r else expected.numerator * q))
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

    run("relations", lambda: check_relations(record, bound))
    run("transfer", lambda: check_transfer(record, bound))
    run("rank-identity", lambda: check_rank_identity(record), "rank triple fails")
    run("degree-counts", lambda: check_degree_counts(record), "m+n != rank")
    run("dimension-conservation", lambda: check_dimension_conservation(record, bound))
    run(
        "strong-multiplicity-freeness", lambda: check_strong_multiplicity_freeness(record, bound)
    )
    run(
        "independence",
        lambda: independence_certificate(record, record.indep_gens, bound, degree)[0],
        "moment matrix is rank-deficient",
    )
    run("pi-side-consistency", lambda: check_pi_side_consistency(record, bound))
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
        lambda: all(dgx.membership(f, gens, 4) is not None for f in dgx.R_MEMBERS),
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
            table[g].evaluate((t[0] + 3) ** 2, (t[1] + 3) ** 2, (t[2] + 3) ** 2)
            == evaluate_generator(record, s, t)
            for t in record.theta.enumerate(min(bound, 6))
            for g, s in dgx.SYMBOL_PAIRS
        ),
        "polynomial model disagrees with the case table",
    )
