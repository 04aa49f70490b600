"""The static case database: every triple of the classification, with its
discrete-series parametrization, branching enumerator, Harish-Chandra closed
forms, relation set, transfer-map family, ranks, and generator degrees.

The ``_case_*`` builders are the single source of the catalog: ``build_records``
(and ``load_default``, which the CLI calls) instantiates them in memory.
``dump_catalog`` exports the records as a versioned JSON document
(``python -m branchlab.catalog``, ``"schema": 3``) that holds every field of
every dataclass of each record; nothing reads that document back.

Every field of every dataclass here is read beyond the builders and the
export (``tests/test_package.py``).  A triality alias is its base's record
under its own id and groups; the reason is a comment at its ``_alias`` call.

Every map a record stores is a ``linalg.AffineMap`` built by ``_amap``; the
transfer family alone is three ``Fraction`` fields, ``transfer_*``, that its
readers turn into an ``AffineMap`` through ``AffineMap.of``.

The export and the CLI reports share the one output layer at the end of this
module: ``to_json`` encodes (a rational as its ``fraction_str``, "p" or
"p/q"; an ``AffineMap`` as its rational matrix, offset and source; any other
dataclass as all its fields) and ``write_output`` writes to ``--out`` or to
stdout.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import nest
from .linalg import AffineMap, Matrix, Vector, int_affine_source
from .reps import (
    SO,
    SU,
    Sp,
    Spin,
    U,
    G2Group,
    GroupDescriptor,
    IrrepLabel,
    Named,
    ProductGroup,
)

CATALOG_SCHEMA = 3

TAG_ORDER = (
    "i",
    "i_prime",
    "ii_odd",
    "ii_even",
    "iii",
    "iv",
    "v",
    "v_prime",
    "vi",
    "vii",
    "viii",
    "ix",
    "x",
    "xi",
    "xii",
    "xiii",
    "xiii_prime",
    "xiv",
    "star",
)

@dataclass(frozen=True)
class CaseId:
    tag: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.tag not in TAG_ORDER:
            raise ValueError("unknown case tag %r" % (self.tag,))

    def __str__(self):
        return self.tag if self.n is None else "%s[n=%d]" % (self.tag, self.n)

    def sort_key(self):
        return (TAG_ORDER.index(self.tag), self.n or 0)


@dataclass(frozen=True)
class Constraint:
    """sum(coeffs · params) + const >= 0, or == 0 mod ``mod`` when mod > 0."""

    coeffs: tuple[int, ...]
    const: int = 0
    mod: int = 0


def membership_source(rows, var: str) -> list:
    """The source of each condition of the rows (((index, coefficient),
    ...), const, mod): the sum plus const >= 0, or == 0 mod ``mod`` when mod
    > 0, with coordinate i written ``var % i`` (``int_affine_source``).  A
    row with no column is decided here: "False" when it fails, nothing when
    it holds."""
    conds = []
    for coeffs, const, mod in rows:
        if not coeffs:
            if const % mod if mod else const < 0:
                conds.append("False")
        elif mod:
            conds.append("%s %% %d == 0" % (int_affine_source(var, coeffs, const), mod))
        else:
            conds.append("%s >= 0" % int_affine_source(var, coeffs, const))
    return conds


@functools.cache
def _membership_kernel(rows: tuple, n: int):
    """params ↦ are params n ints that satisfy every row of
    ``membership_source``?  One expression, compiled once per row tuple
    under ``<membership kernel DIGEST>``."""
    conds = ["len(p) == %d" % n] + membership_source(rows, "p[%d]")
    text = nest.returning("p", " and ".join(conds))
    return nest.kernel(text, "membership kernel " + nest.digest(text))


@dataclass(frozen=True)
class ParamSpace:
    names: tuple[str, ...]
    domains: tuple[str, ...]  # "nat" | "int"
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if len(self.names) != len(self.domains):
            raise ValueError("names/domains mismatch")

    @functools.cached_property
    def _membership(self) -> tuple:
        """The rows of ``_membership_kernel`` that define the space: p_i >= 0
        per nat coordinate, then one per constraint.  Compiled once per
        space; a space is frozen, and ``dataclasses.replace`` makes a new
        one."""
        nat = tuple((((i, 1),), 0, 0) for i, d in enumerate(self.domains) if d == "nat")
        return nat + tuple(
            (tuple((i, a) for i, a in enumerate(c.coeffs) if a), c.const, c.mod)
            for c in self.constraints
        )

    def contains(self, params: Sequence[int]) -> bool:
        """Is params a point of the space?  A coordinate is an int, bool,
        Fraction or float of integral value; a str or None is in no space."""
        if len(params) != len(self.names):
            return False
        if not all(type(p) is int for p in params):
            if not all(isinstance(p, (int, Fraction, float)) and p % 1 == 0 for p in params):
                return False
            params = [int(p) for p in params]
        return self.contains_ints(params)

    @functools.cached_property
    def contains_ints(self):
        """``contains`` for a sequence of ints: the ``_membership_kernel`` of
        the space's rows, which the box pass calls on each fiber theta."""
        return _membership_kernel(self._membership, len(self.names))

    def enumerate(self, bound: int) -> list[tuple[int, ...]]:
        """All tuples with |coordinate| <= bound (nat: 0..bound), lex sorted."""
        return list(self.walk(bound))

    @functools.cached_property
    def leaf_rows(self) -> tuple:
        """The rows of ``_membership`` that a walk checks at each leaf: the
        congruences and the rows with no column.  Every other row is an
        inequality, which ``limits`` make exact."""
        return tuple(row for row in self._membership if row[2] or not row[0])

    @functools.cached_property
    def limits(self) -> tuple:
        """The one statement of the box's bounds, read by ``walk`` and by
        ``verify``'s compiled theta kernels.  limits[t] holds (a, ((s, c_s)
        for s < t), const) for each inequality whose last non-zero
        coefficient a sits at coordinate t: once the coordinates before t are
        placed, rest = const + sum(c_s·p_s) bounds p_t below by ceil(-rest /
        a) when a > 0, above by floor(rest / -a) otherwise, within 0 (nat) or
        -bound, and bound."""
        limits: list[list] = [[] for _ in self.names]
        for c in self.constraints:
            if c.mod or not any(c.coeffs):
                continue
            t = max(i for i, a in enumerate(c.coeffs) if a)
            prefix = tuple((s, a) for s, a in enumerate(c.coeffs[:t]) if a)
            limits[t].append((c.coeffs[t], prefix, c.const))
        return tuple(map(tuple, limits))

    def walk(self, bound: int):
        """Yield each tuple of ``enumerate(bound)``, in order; a negative
        bound is a ValueError.

        Depth-first with bound propagation through the linear constraints
        (``limits``, ``_limit_walk``), so interlacing chains are enumerated
        without wasted work.  The walk stays interpreted: its callers
        (``enumerate``, the independence certificate, the parity gap and the
        box pass's SMF search) would spend about as long compiling a kernel
        as walking.
        """
        if bound < 0:
            raise ValueError("bound must be >= 0")
        lows = [0 if d == "nat" else -bound for d in self.domains]
        return _limit_walk(lows, [bound] * len(lows), self.limits, self.leaf_rows)


def _limit_walk(lows, highs, limits, leaf_rows):
    """Yield, in lex order, each integer point p with lows[t] <= p_t <=
    highs[t] (either may be infinite), within the ``ParamSpace.limits``
    ``limits`` and satisfying ``leaf_rows``.  An inequality is exact once
    its last non-zero coefficient is placed, so a leaf checks only the rows
    of ``leaf_rows``."""
    n = len(lows)
    at_leaf = _membership_kernel(leaf_rows, n)
    point = [0] * n
    tops = [0] * n
    t = 0
    while True:
        if t < n:
            # open coordinate t at its lowest value, or backtrack if empty
            lo, hi = lows[t], highs[t]
            for a, prefix, const in limits[t]:
                rest = const + sum(c * point[s] for s, c in prefix)
                if a > 0:
                    lo = max(lo, -(rest // a))  # x >= ceil(-rest / a)
                else:
                    hi = min(hi, rest // -a)  # x <= floor(rest / -a)
            if lo <= hi:
                point[t], tops[t] = lo, hi
                t += 1
                continue
        else:
            p = tuple(point)
            if at_leaf(p):
                yield p
        # step to the next value of the deepest coordinate that has one
        t -= 1
        while t >= 0 and point[t] == tops[t]:
            t -= 1
        if t < 0:
            return
        point[t] += 1
        t += 1


@dataclass(frozen=True)
class SymbolSpec:
    """How one generator evaluates on a discrete-series parameter tuple.

    kind "casimir": Casimir of the pi/nu/tau label (``factor`` selects a
        product factor; None sums all factors).
    kind "euler": normalized Euler eigenvalue (the paper's sqrt(-1)·a divided
        by the imaginary unit), an affine integer form in the parameters.
    kind "power_ab": base^k · sum of v_i^(scale·k) over the stored a/b vector.
    kind "power_nu": sum of (nu(theta)+rho)_i^(scale·k) — the Z(g_C) route.
    kind "xyz_poly": polynomial in x=(j+3)^2, y=(j'+3)^2, z=(a+3)^2 (§7 case).
    """

    kind: str
    side: str = ""  # "P" (dl Z(gtilde)), "Q" (dr Z(k)), "R" (dl Z(g))
    label: str = ""  # casimir: "pi" | "nu" | "tau"
    factor: Optional[int] = None
    form: Optional[AffineMap] = None  # euler
    vecname: str = ""  # power_ab: "a" | "b"
    base: int = 1
    scale: int = 1
    k: int = 1
    poly: tuple[tuple[tuple[int, ...], Fraction], ...] = ()


@dataclass(frozen=True)
class Relation:
    """Claims sum(coeff · symbol value) = 0 on every discrete-series element."""

    name: str
    terms: tuple[tuple[Fraction, str], ...]


@dataclass(frozen=True)
class CaseRecord:
    id: CaseId
    groups: dict  # display descriptors: gtilde, htilde, g, h, k
    pi_group: GroupDescriptor
    nu_group: GroupDescriptor
    tau_group: GroupDescriptor
    theta: ParamSpace
    pi_space: ParamSpace
    tau_space: ParamSpace
    pi_of_theta: AffineMap
    tau_of_theta: AffineMap
    pi_label_map: AffineMap
    nu_label_map: AffineMap
    tau_label_map: AffineMap
    lam_rhoa_map: AffineMap
    symbols: dict
    relations: tuple[Relation, ...]
    transfer_matrix: Matrix
    transfer_tau: Matrix
    transfer_offset: Vector
    rank3: tuple[int, int, int]
    degrees_p: tuple[int, ...]
    degrees_q: tuple[int, ...]
    degrees_rank: int
    hilbert_model: Optional[dict]
    indep_gens: tuple[str, ...]
    branch_rule: tuple
    a_map: Optional[AffineMap] = None
    b_map: Optional[AffineMap] = None
    mod_trace: bool = False
    parity_gap_gens: tuple[str, ...] = ()
    alias_of: Optional[CaseId] = None

    # -- basic queries -----------------------------------------------------

    def require_theta(self, params: Sequence[int]) -> tuple[int, ...]:
        params = tuple(params)
        if not self.theta.contains(params):
            raise ValueError("%s is not in Disc(G/H) for case %s" % (params, self.id))
        return tuple(int(p) for p in params)

    def _ints(self, key: str, theta: Sequence[int]) -> tuple[int, ...]:
        """The image of theta under the record's map ``key``; ValueError,
        naming the case and the map, where it is not integral."""
        amap = getattr(self, key)
        values = amap.numerators(theta)
        if any(x % amap.den for x in values):
            raise ValueError("case %s: map %s is not integral" % (self.id, key))
        return tuple(x // amap.den for x in values)

    def pi_params_of(self, theta: Sequence[int]) -> tuple[int, ...]:
        return self._ints("pi_of_theta", theta)

    def tau_params_of(self, theta: Sequence[int]) -> tuple[int, ...]:
        return self._ints("tau_of_theta", theta)

    def require_pi(self, pi_params: Sequence[int]) -> None:
        if not self.pi_space.contains(pi_params):
            raise ValueError("%s not in Disc(Gtilde/Htilde) for %s" % (pi_params, self.id))

    def pi_label(self, pi_params: Sequence[int]) -> IrrepLabel:
        self.require_pi(pi_params)
        return IrrepLabel(self.pi_group, self.pi_label_map.apply(pi_params))

    def nu_label(self, theta: Sequence[int]) -> IrrepLabel:
        return IrrepLabel(self.nu_group, self.nu_label_map.apply(theta))

    def tau_label(self, tau_params: Sequence[int]) -> IrrepLabel:
        if not self.tau_space.contains(tau_params):
            raise ValueError("%s not in Disc(K/H) for %s" % (tau_params, self.id))
        return IrrepLabel(self.tau_group, self.tau_label_map.apply(tau_params))

    # -- transfer ----------------------------------------------------------

    def transfer(self, tau_params: Sequence[int]) -> AffineMap:
        if not self.tau_space.contains(tau_params):
            raise ValueError("%s not in Disc(K/H) for %s" % (tau_params, self.id))
        offset = [
            o + sum(map(operator.mul, row, tau_params))
            for o, row in zip(self.transfer_offset, self.transfer_tau)
        ]
        return AffineMap.of(self.transfer_matrix, offset, len(self.lam_rhoa_map.rows))


# ---------------------------------------------------------------------------
# assembly helpers


def _amap(names: Sequence[str], rows: Sequence[tuple[dict, object]]) -> AffineMap:
    matrix = [[terms.get(nm, 0) for nm in names] for terms, _ in rows]
    return AffineMap.of(matrix, [const for _, const in rows], len(names))


def _con(names: Sequence[str], terms: dict, const=0, mod=0) -> Constraint:
    return Constraint(tuple(int(terms.get(nm, 0)) for nm in names), int(const), int(mod))


def _poly(d: dict) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    return tuple(sorted((tuple(k), Fraction(v)) for k, v in d.items()))


def _casimir(side, label, factor=None):
    return SymbolSpec("casimir", side=side, label=label, factor=factor)


def _euler(side, names, terms):
    return SymbolSpec("euler", side=side, form=_amap(names, [(terms, 0)]))


def _rel(name, *terms) -> Relation:
    return Relation(name, tuple((Fraction(c), s) for c, s in terms))


def _weighted_model(*wts: int) -> dict:
    return {"kind": "weighted", "weights": list(wts)}


def _transfer(lam_dim, tau_names, rows):
    """rows: list of (lam_terms: dict[int, coeff], tau_terms: dict[name, coeff], const)."""
    return (
        tuple(tuple(Fraction(lam.get(i, 0)) for i in range(lam_dim)) for lam, _, _ in rows),
        tuple(tuple(Fraction(tau.get(nm, 0)) for nm in tau_names) for _, tau, _ in rows),
        tuple(Fraction(const) for _, _, const in rows),
    )


# ---------------------------------------------------------------------------
# case builders


def _case_i(n: int) -> CaseRecord:
    names = ("k", "l")
    theta = ParamSpace(names, ("nat", "nat"))
    pi_space = ParamSpace(("j",), ("nat",))
    tau_space = ParamSpace(("a",), ("int",))
    pi_label = _amap(("j",), [({"j": 1}, 0)] + [({}, 0)] * n)
    nu_rows = [({"k": 1}, 0)] + [({}, 0)] * (n - 1) + [({"l": -1}, 0)]
    tau_rows = [({}, 0)] * n + [({"a": 1}, 0)]
    M, T, off = _transfer(
        1,
        ("a",),
        [({0: Fraction(1, 2)}, {"a": Fraction(1, 2)}, 0)]
        + [({}, {}, Fraction(n - 2 * i, 2)) for i in range(1, n)]
        + [({0: Fraction(-1, 2)}, {"a": Fraction(1, 2)}, 0)],
    )
    return CaseRecord(
        id=CaseId("i", n),
        groups={
            "gtilde": SO(2 * n + 2),
            "htilde": SO(2 * n + 1),
            "g": U(n + 1),
            "h": U(n),
            "k": ProductGroup(U(n), U(1)),
        },
        pi_group=SO(2 * n + 2),
        nu_group=U(n + 1),
        tau_group=ProductGroup(U(n), U(1)),
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({"k": 1, "l": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1, "l": -1}, 0)]),
        pi_label_map=pi_label,
        nu_label_map=_amap(names, nu_rows),
        tau_label_map=_amap(("a",), tau_rows),
        lam_rhoa_map=_amap(names, [({"k": 1, "l": 1}, n)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
            "C_K": _casimir("Q", "tau"),
            "E_K": _euler("Q", names, {"k": 1, "l": -1}),
        },
        relations=(_rel("casimir", (1, "C_Gt"), (-2, "C_G"), (1, "C_K")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(1,),
        degrees_rank=2,
        hilbert_model=_weighted_model(1, 2),
        indep_gens=("C_Gt", "E_K"),
        branch_rule=("charge_split",),
    )


def _case_i_prime(n: int) -> CaseRecord:
    if n < 2:
        raise ValueError("case (i)' requires n >= 2")
    base = _case_i(n)
    names = ("k", "l")
    nu_rows = (
        [({"k": 1, "l": 1}, 0)] + [({"l": 1}, 0)] * (n - 1) + [({}, 0)]
    )
    rel = _rel(
        "casimir",
        (1, "C_Gt"),
        (-2, "C_G"),
        (Fraction(n - 1, n * (n + 1)), "C_K"),
    )
    return dataclasses.replace(
        base,
        id=CaseId("i_prime", n),
        groups={
            "gtilde": SO(2 * n + 2),
            "htilde": SO(2 * n + 1),
            "g": SU(n + 1),
            "h": SU(n),
            "k": U(n),
        },
        nu_group=SU(n + 1),
        tau_group=U(n),
        nu_label_map=_amap(names, nu_rows),
        tau_label_map=_amap(("a",), [({"a": -1}, 0)] * n),
        relations=(rel,),
        mod_trace=True,
    )


def _case_ii(n: int) -> CaseRecord:
    odd = n % 2 == 1
    m = (n + 1) // 2 if odd else n // 2
    jn = ["j%d" % (i + 1) for i in range(m)]
    kn = ["k%d" % (i + 1) for i in range(m - 1 if odd else m)]
    # theta params in chain (interlacing) order
    names: list[str] = []
    for i in range(len(kn)):
        names += [jn[i], kn[i]]
    if odd:
        names.append(jn[-1])
    names = tuple(names)
    cons = []
    for i in range(len(kn)):
        cons.append(_con(names, {jn[i]: 1, kn[i]: -1}))
        if i + 1 < m:
            cons.append(_con(names, {kn[i]: 1, jn[i + 1]: -1}))
    theta = ParamSpace(names, ("nat",) * len(names), tuple(cons))
    pi_cons = tuple(
        _con(tuple(jn), {jn[i]: 1, jn[i + 1]: -1}) for i in range(m - 1)
    )
    pi_space = ParamSpace(tuple(jn), ("nat",) * m, pi_cons)
    tau_cons = tuple(
        _con(tuple(kn), {kn[i]: 1, kn[i + 1]: -1}) for i in range(len(kn) - 1)
    )
    tau_space = ParamSpace(tuple(kn), ("nat",) * len(kn), tau_cons)

    if odd:
        gt, ht, g, h, kk = SO(4 * m), U(2 * m), SO(4 * m - 1), U(2 * m - 1), SO(4 * m - 2)
        pi_rows = []
        for i in range(m):
            pi_rows += [({jn[i]: 1}, 0), ({jn[i]: 1}, 0)]
        tau_rows = []
        for i in range(m - 1):
            tau_rows += [({kn[i]: 1}, 0), ({kn[i]: 1}, 0)]
        tau_rows.append(({}, 0))
        # a_i = j_i + 2(m-i) + 1/2, b_i = k_i + 2(m-i) - 1/2 (1-based i)
        a_rows = [({jn[i]: 1}, Fraction(4 * (m - 1 - i) + 1, 2)) for i in range(m)]
        b_rows = [({kn[i]: 1}, Fraction(4 * (m - 1 - i) - 1, 2)) for i in range(m - 1)]
        lam_rows = [({jn[i]: 2}, 4 * (m - 1 - i) + 1) for i in range(m)]
        rows = []
        for i in range(m):
            rows.append(({i: Fraction(1, 2)}, {}, 0))
            if i < m - 1:
                rows.append(({}, {kn[i]: 1}, Fraction(4 * (m - 1 - i) - 1, 2)))
        degrees_p = tuple(2 * k for k in range(1, m + 1))
        degrees_q = tuple(2 * k for k in range(1, m))
        rank3 = (m, m - 1, 2 * m - 1)
        branch_rule = ("interlace_ii_odd", m)
        tag = "ii_odd"
    else:
        gt, ht, g, h, kk = SO(4 * m + 2), U(2 * m + 1), SO(4 * m + 1), U(2 * m), SO(4 * m)
        pi_rows = []
        for i in range(m):
            pi_rows += [({jn[i]: 1}, 0), ({jn[i]: 1}, 0)]
        pi_rows.append(({}, 0))
        tau_rows = []
        for i in range(m):
            tau_rows += [({kn[i]: 1}, 0), ({kn[i]: 1}, 0)]
        a_rows = [({jn[i]: 1}, Fraction(4 * (m - 1 - i) + 3, 2)) for i in range(m)]
        b_rows = [({kn[i]: 1}, Fraction(4 * (m - 1 - i) + 1, 2)) for i in range(m)]
        lam_rows = [({jn[i]: 2}, 4 * (m - 1 - i) + 3) for i in range(m)]
        rows = []
        for i in range(m):
            rows.append(({i: Fraction(1, 2)}, {}, 0))
            rows.append(({}, {kn[i]: 1}, Fraction(4 * (m - 1 - i) + 1, 2)))
        degrees_p = tuple(2 * k for k in range(1, m + 1))
        degrees_q = tuple(2 * k for k in range(1, m + 1))
        rank3 = (m, m, 2 * m)
        branch_rule = ("interlace_ii_even", m)
        tag = "ii_even"
    M, T, off = _transfer(m, tuple(kn), rows)

    symbols = {
        "C_Gt": _casimir("P", "pi"),
        "C_G": _casimir("R", "nu"),
        "C_K": _casimir("Q", "tau"),
    }
    relations = [_rel("casimir", (1, "C_Gt"), (-2, "C_G"), (1, "C_K"))]
    for kdx in range(1, m + 2):
        symbols["P_%d" % kdx] = SymbolSpec("power_ab", side="P", vecname="a", base=4, scale=2, k=kdx)
        symbols["Q_%d" % kdx] = SymbolSpec("power_ab", side="Q", vecname="b", base=4, scale=2, k=kdx)
        symbols["R_%d" % kdx] = SymbolSpec("power_nu", side="R", scale=2, k=kdx)
        relations.append(
            _rel(
                "power-sum-%d" % kdx,
                (1, "P_%d" % kdx),
                (1, "Q_%d" % kdx),
                (-(4 ** kdx), "R_%d" % kdx),
            )
        )
    indep = tuple("P_%d" % k for k in range(1, m + 1)) + tuple(
        "Q_%d" % k for k in range(1, len(kn) + 1)
    )
    return CaseRecord(
        id=CaseId(tag, n),
        groups={"gtilde": gt, "htilde": ht, "g": g, "h": h, "k": kk},
        pi_group=gt,
        nu_group=g,
        tau_group=kk,
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({j: 1}, 0) for j in jn]),
        tau_of_theta=_amap(names, [({k: 1}, 0) for k in kn]),
        pi_label_map=_amap(tuple(jn), pi_rows),
        nu_label_map=_amap(names, [({nm: 1}, 0) for nm in names]),
        tau_label_map=_amap(tuple(kn), tau_rows),
        lam_rhoa_map=_amap(names, lam_rows),
        symbols=symbols,
        relations=tuple(relations),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=rank3,
        degrees_p=degrees_p,
        degrees_q=degrees_q,
        degrees_rank=rank3[2],
        hilbert_model=None,  # the paper cites external tables for item (4)
        indep_gens=indep,
        branch_rule=branch_rule,
        a_map=_amap(names, a_rows),
        b_map=_amap(names, b_rows) if kn else _amap(names, []),
    )


def _case_iii(n: int) -> CaseRecord:
    names = ("k", "l")
    theta = ParamSpace(
        names,
        ("nat", "nat"),
        (_con(names, {"k": 1, "l": -1}), _con(names, {"k": 1, "l": -1}, mod=2)),
    )
    pi_space = ParamSpace(("j",), ("nat",))
    tau_space = ParamSpace(("a",), ("nat",))
    pi_rows = [({"j": 1}, 0)] + [({}, 0)] * (2 * n) + [({"j": -1}, 0)]
    nu_rows = [({"k": 1}, 0), ({"l": 1}, 0)] + [({}, 0)] * (n - 1)
    tau_rows = [({}, 0)] * n + [({"a": 2}, 0)]
    # target dim n+1: (lam/2 + a + 1/2, lam/2 - a - 1/2, n-1, n-2, ..., 1)
    M, T, off = _transfer(
        1,
        ("a",),
        [
            ({0: Fraction(1, 2)}, {"a": 1}, Fraction(1, 2)),
            ({0: Fraction(1, 2)}, {"a": -1}, Fraction(-1, 2)),
        ]
        + [({}, {}, n - i) for i in range(1, n)],
    )
    return CaseRecord(
        id=CaseId("iii", n),
        groups={
            "gtilde": SU(2 * n + 2),
            "htilde": U(2 * n + 1),
            "g": Sp(n + 1),
            "h": ProductGroup(Sp(n), U(1)),
            "k": ProductGroup(Sp(n), Sp(1)),
        },
        pi_group=SU(2 * n + 2),
        nu_group=Sp(n + 1),
        tau_group=ProductGroup(Sp(n), Sp(1)),
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({"k": Fraction(1, 2), "l": Fraction(1, 2)}, 0)]),
        tau_of_theta=_amap(names, [({"k": Fraction(1, 2), "l": Fraction(-1, 2)}, 0)]),
        pi_label_map=_amap(("j",), pi_rows),
        nu_label_map=_amap(names, nu_rows),
        tau_label_map=_amap(("a",), tau_rows),
        lam_rhoa_map=_amap(names, [({"k": 1, "l": 1}, 2 * n + 1)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
            "C_K": _casimir("Q", "tau"),
        },
        relations=(_rel("casimir", (2, "C_Gt"), (-2, "C_G"), (1, "C_K")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(2,),
        degrees_rank=2,
        hilbert_model=_weighted_model(2, 2),
        indep_gens=("C_Gt", "C_K"),
        branch_rule=("quaternion_split",),
    )


def _case_iv(n: int) -> CaseRecord:
    jn = ["j%d" % (i + 1) for i in range(n + 1)]
    kn = ["k%d" % (i + 1) for i in range(n)]
    names: list[str] = []
    for i in range(n):
        names += [jn[i], kn[i]]
    names.append(jn[-1])
    names = tuple(names)
    cons = []
    for i in range(n):
        cons.append(_con(names, {jn[i]: 1, kn[i]: -1}))
        cons.append(_con(names, {kn[i]: 1, jn[i + 1]: -1}))
    theta = ParamSpace(names, ("int",) * len(names), tuple(cons))
    pi_space = ParamSpace(
        tuple(jn),
        ("int",) * (n + 1),
        tuple(_con(tuple(jn), {jn[i]: 1, jn[i + 1]: -1}) for i in range(n)),
    )
    tau_names = tuple(kn) + ("a",)
    tau_space = ParamSpace(
        tau_names,
        ("int",) * (n + 1),
        tuple(_con(tau_names, {kn[i]: 1, kn[i + 1]: -1}) for i in range(n - 1)),
    )
    pi_rows = []
    for i in range(n + 1):
        pi_rows += [({jn[i]: 1}, 0), ({jn[i]: 1}, 0)]
    tau_rows = []
    for i in range(n):
        tau_rows += [({kn[i]: 1}, 0), ({kn[i]: 1}, 0)]
    tau_rows.append(({"a": 1}, 0))
    a_rows = [({jn[i]: 1}, n - 2 * (i + 1) + 2) for i in range(n + 1)]
    b_rows = [({kn[i]: 1}, n - 2 * (i + 1) + 1) for i in range(n)]
    lam_rows = [({jn[i]: 2}, 2 * (n - 2 * (i + 1) + 2)) for i in range(n + 1)]
    rows = []
    for i in range(n + 1):
        rows.append(({i: Fraction(1, 2)}, {}, 0))
        if i < n:
            rows.append(({}, {kn[i]: 1}, n - 2 * (i + 1) + 1))
    M, T, off = _transfer(n + 1, tau_names, rows)
    symbols = {
        "C_Gt": _casimir("P", "pi"),
        "C_G": _casimir("R", "nu"),
        "C_K1": _casimir("Q", "tau", factor=0),
        "C_K2": _casimir("Q", "tau", factor=1),
    }
    relations = [_rel("casimir", (1, "C_Gt"), (-2, "C_G"), (1, "C_K1"))]
    for kdx in range(1, n + 3):
        symbols["P_%d" % kdx] = SymbolSpec("power_ab", side="P", vecname="a", base=2, scale=1, k=kdx)
        symbols["Q_%d" % kdx] = SymbolSpec("power_ab", side="Q", vecname="b", base=2, scale=1, k=kdx)
        symbols["R_%d" % kdx] = SymbolSpec("power_nu", side="R", scale=1, k=kdx)
        relations.append(
            _rel(
                "power-sum-%d" % kdx,
                (1, "P_%d" % kdx),
                (1, "Q_%d" % kdx),
                (-(2 ** kdx), "R_%d" % kdx),
            )
        )
    return CaseRecord(
        id=CaseId("iv", n),
        groups={
            "gtilde": SU(2 * n + 2),
            "htilde": Sp(n + 1),
            "g": U(2 * n + 1),
            "h": ProductGroup(Sp(n), U(1)),
            "k": ProductGroup(U(2 * n), U(1)),
        },
        pi_group=U(2 * n + 2),  # the paper's central extension device
        nu_group=U(2 * n + 1),
        tau_group=ProductGroup(U(2 * n), U(1)),
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({j: 1}, 0) for j in jn]),
        tau_of_theta=_amap(
            names,
            [({k: 1}, 0) for k in kn]
            + [({**{j: 1 for j in jn}, **{k: -1 for k in kn}}, 0)],
        ),
        pi_label_map=_amap(tuple(jn), pi_rows),
        nu_label_map=_amap(names, [({nm: 1}, 0) for nm in names]),
        tau_label_map=_amap(tau_names, tau_rows),
        lam_rhoa_map=_amap(names, lam_rows),
        symbols=symbols,
        relations=tuple(relations),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(n, n, 2 * n),
        degrees_p=tuple(range(1, n + 2)),
        degrees_q=tuple(range(1, n + 1)),
        degrees_rank=2 * n + 1,  # rank of G/H on the U(2n+2) cover
        hilbert_model={"kind": "interlaced_iv", "n": n},
        indep_gens=tuple("P_%d" % k for k in range(1, n + 2))
        + tuple("Q_%d" % k for k in range(1, n + 1)),
        branch_rule=("interlace_iv", n),
        a_map=_amap(names, a_rows),
        b_map=_amap(names, b_rows),
    )


def _case_v(n: int) -> CaseRecord:
    names = ("k", "l")
    theta = ParamSpace(names, ("nat", "nat"), (_con(names, {"k": 1, "l": -1}),))
    pi_space = ParamSpace(("j",), ("nat",))
    tau_space = ParamSpace(("a",), ("nat",), (_con(("a",), {"a": 1}, -1),))
    g = ProductGroup(Sp(n + 1), Sp(1), almost=True)
    kk = ProductGroup(Sp(n), Sp(1), Sp(1), almost=True)
    nu_rows = [({"k": 1}, 0), ({"l": 1}, 0)] + [({}, 0)] * (n - 1) + [({"k": 1, "l": -1}, 0)]
    tau_rows = [({}, 0)] * n + [({"a": 1}, -1), ({"a": 1}, -1)]
    # target dim n+2: ((lam+a)/2, (lam-a)/2, n-1, ..., 1 | a)
    M, T, off = _transfer(
        1,
        ("a",),
        [
            ({0: Fraction(1, 2)}, {"a": Fraction(1, 2)}, 0),
            ({0: Fraction(1, 2)}, {"a": Fraction(-1, 2)}, 0),
        ]
        + [({}, {}, n - i) for i in range(1, n)]
        + [({}, {"a": 1}, 0)],
    )
    return CaseRecord(
        id=CaseId("v", n),
        groups={
            "gtilde": SO(4 * n + 4),
            "htilde": SO(4 * n + 3),
            "g": g,
            "h": Named("Sp(%d)·Diag(Sp(1))" % n),
            "k": kk,
        },
        pi_group=SO(4 * n + 4),
        nu_group=g,
        tau_group=kk,
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({"k": 1, "l": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1, "l": -1}, 1)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] + [({}, 0)] * (2 * n + 1)),
        nu_label_map=_amap(names, nu_rows),
        tau_label_map=_amap(("a",), tau_rows),
        lam_rhoa_map=_amap(names, [({"k": 1, "l": 1}, 2 * n + 1)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G1": _casimir("R", "nu", factor=0),
            "C_G2": _casimir("R", "nu", factor=1),
            "C_K": _casimir("Q", "tau", factor=1),
        },
        relations=(
            _rel("casimir", (1, "C_Gt"), (-2, "C_G1"), (1, "C_K")),
            _rel("fiber-casimir", (1, "C_G2"), (-1, "C_K")),
        ),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(2,),
        degrees_rank=2,
        hilbert_model=_weighted_model(2, 2),
        indep_gens=("C_Gt", "C_K"),
        branch_rule=("sphere_sp1",),
    )


def _case_v_prime(n: int) -> CaseRecord:
    names = ("k", "l", "b")
    cons = (
        _con(names, {"k": 1, "l": -1}),
        _con(names, {"k": 1, "l": -1, "b": -1}),
        _con(names, {"k": 1, "l": -1, "b": 1}),
        _con(names, {"k": 1, "l": -1, "b": 1}, mod=2),
    )
    theta = ParamSpace(names, ("nat", "nat", "int"), cons)
    pi_space = ParamSpace(("j",), ("nat",))
    tau_names = ("c", "b")
    tau_space = ParamSpace(
        tau_names,
        ("nat", "int"),
        (
            _con(tau_names, {"c": 1, "b": -1}),
            _con(tau_names, {"c": 1, "b": 1}),
            _con(tau_names, {"c": 1, "b": 1}, mod=2),
        ),
    )
    g = ProductGroup(Sp(n + 1), U(1), almost=True)
    kk = ProductGroup(Sp(n), Sp(1), U(1), almost=True)
    nu_rows = [({"k": 1}, 0), ({"l": 1}, 0)] + [({}, 0)] * (n - 1) + [({"b": 1}, 0)]
    tau_rows = [({}, 0)] * n + [({"c": 1}, 0), ({"b": 1}, 0)]
    # target dim n+2: ((lam+c+1)/2, (lam-c-1)/2, n-1, ..., 1 | b)
    M, T, off = _transfer(
        1,
        tau_names,
        [
            ({0: Fraction(1, 2)}, {"c": Fraction(1, 2)}, Fraction(1, 2)),
            ({0: Fraction(1, 2)}, {"c": Fraction(-1, 2)}, Fraction(-1, 2)),
        ]
        + [({}, {}, n - i) for i in range(1, n)]
        + [({}, {"b": 1}, 0)],
    )
    return CaseRecord(
        id=CaseId("v_prime", n),
        groups={
            "gtilde": SO(4 * n + 4),
            "htilde": SO(4 * n + 3),
            "g": g,
            "h": Named("Sp(%d)·Diag(U(1))" % n),
            "k": kk,
        },
        pi_group=SO(4 * n + 4),
        nu_group=g,
        tau_group=kk,
        theta=theta,
        pi_space=pi_space,
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({"k": 1, "l": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1, "l": -1}, 0), ({"b": 1}, 0)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] + [({}, 0)] * (2 * n + 1)),
        nu_label_map=_amap(names, nu_rows),
        tau_label_map=_amap(tau_names, tau_rows),
        lam_rhoa_map=_amap(names, [({"k": 1, "l": 1}, 2 * n + 1)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G1": _casimir("R", "nu", factor=0),
            "C_K2": _casimir("Q", "tau", factor=1),
            "E_G": _euler("R", names, {"b": 1}),
            "E_K": _euler("Q", names, {"b": 1}),
        },
        relations=(
            _rel("casimir", (1, "C_Gt"), (-2, "C_G1"), (1, "C_K2")),
            _rel("euler", (1, "E_G"), (-1, "E_K")),
        ),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 2, 3),
        degrees_p=(2,),
        degrees_q=(1, 2),
        degrees_rank=3,
        hilbert_model=_weighted_model(1, 2, 2),
        indep_gens=("C_Gt", "C_K2", "E_K"),
        branch_rule=("sphere_sp1_u1",),
    )


def _case_vi() -> CaseRecord:
    names = ("j", "k")
    theta = ParamSpace(
        names,
        ("nat", "nat"),
        (_con(names, {"j": 1, "k": -1}), _con(names, {"j": 1, "k": -1}, mod=2)),
    )
    half = Fraction(1, 2)
    M, T, off = _transfer(
        1,
        ("k",),
        [
            ({0: half}, {}, 0),
            ({}, {"k": half}, Fraction(5, 2)),
            ({}, {"k": half}, Fraction(3, 2)),
            ({}, {"k": half}, half),
        ],
    )
    return CaseRecord(
        id=CaseId("vi"),
        groups={
            "gtilde": SO(16),
            "htilde": SO(15),
            "g": Spin(9),
            "h": Spin(7),
            "k": Spin(8),
        },
        pi_group=SO(16),
        nu_group=Spin(9),
        tau_group=Spin(8),
        theta=theta,
        pi_space=ParamSpace(("j",), ("nat",)),
        tau_space=ParamSpace(("k",), ("nat",)),
        pi_of_theta=_amap(names, [({"j": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1}, 0)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] + [({}, 0)] * 7),
        nu_label_map=_amap(names, [({"j": half}, 0)] + [({"k": half}, 0)] * 3),
        tau_label_map=_amap(("k",), [({"k": half}, 0)] * 4),
        lam_rhoa_map=_amap(names, [({"j": 1}, 7)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
            "C_K": _casimir("Q", "tau"),
        },
        relations=(_rel("casimir", (1, "C_Gt"), (-4, "C_G"), (3, "C_K")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(2,),
        degrees_rank=2,
        hilbert_model=_weighted_model(2, 2),
        indep_gens=("C_Gt", "C_K"),
        branch_rule=("parity_tail",),
    )


def _case_vii() -> CaseRecord:
    names = ("j", "k")
    theta = ParamSpace(names, ("nat", "nat"), (_con(names, {"j": 1, "k": -1}),))
    g = ProductGroup(SO(5), SO(3))
    kk = ProductGroup(SO(4), SO(3))
    half = Fraction(1, 2)
    M, T, off = _transfer(
        1,
        ("k",),
        [({0: half}, {}, 0), ({}, {"k": 1}, half), ({}, {"k": 1}, half)],
    )
    return CaseRecord(
        id=CaseId("vii"),
        groups={
            "gtilde": SO(8),
            "htilde": Spin(7),
            "g": g,
            "h": Named("ι7(SO(4))"),
            "k": kk,
        },
        pi_group=SO(8),
        nu_group=g,
        tau_group=kk,
        theta=theta,
        pi_space=ParamSpace(("j",), ("nat",)),
        tau_space=ParamSpace(("k",), ("nat",)),
        pi_of_theta=_amap(names, [({"j": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1}, 0)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] * 4),
        nu_label_map=_amap(names, [({"j": 1}, 0), ({"k": 1}, 0), ({"k": 1}, 0)]),
        tau_label_map=_amap(("k",), [({"k": 1}, 0)] * 3),
        lam_rhoa_map=_amap(names, [({"j": 2}, 3)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G1": _casimir("R", "nu", factor=0),
            "C_G2": _casimir("R", "nu", factor=1),
            "Cp_K": _casimir("Q", "tau", factor=0),
        },
        relations=(
            _rel("casimir", (1, "C_Gt"), (-4, "C_G1"), (4, "C_G2")),
            _rel("fiber-casimir", (2, "C_G2"), (-1, "Cp_K")),
        ),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(2,),
        degrees_rank=2,
        hilbert_model=_weighted_model(2, 2),
        indep_gens=("C_Gt", "Cp_K"),
        branch_rule=("tail_le",),
    )


def _case_viii() -> CaseRecord:
    names = ("j", "k", "a")
    cons = (
        _con(names, {"j": 1, "k": -1}),
        _con(names, {"k": 1, "a": -1}),
        _con(names, {"k": 1, "a": 1}),
    )
    theta = ParamSpace(names, ("nat", "nat", "int"), cons)
    tau_names = ("k", "a")
    tau_space = ParamSpace(
        tau_names,
        ("nat", "int"),
        (_con(tau_names, {"k": 1, "a": -1}), _con(tau_names, {"k": 1, "a": 1})),
    )
    g = ProductGroup(SO(5), SO(2))
    kk = ProductGroup(SO(4), SO(2))
    half = Fraction(1, 2)
    M, T, off = _transfer(
        1,
        tau_names,
        [({0: 1}, {}, 0), ({}, {"k": 1}, half), ({}, {"a": 1}, 0)],
    )
    return CaseRecord(
        id=CaseId("viii"),
        groups={
            "gtilde": SO(7),
            "htilde": G2Group(),
            "g": g,
            "h": Named("ι8(U(2))"),
            "k": kk,
        },
        pi_group=SO(7),
        nu_group=g,
        tau_group=kk,
        theta=theta,
        pi_space=ParamSpace(("j",), ("nat",)),
        tau_space=tau_space,
        pi_of_theta=_amap(names, [({"j": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1}, 0), ({"a": 1}, 0)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] * 3),
        nu_label_map=_amap(names, [({"j": 1}, 0), ({"k": 1}, 0), ({"a": 1}, 0)]),
        tau_label_map=_amap(tau_names, [({"k": 1}, 0), ({"k": 1}, 0), ({"a": 1}, 0)]),
        lam_rhoa_map=_amap(names, [({"j": 1}, Fraction(3, 2))]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G1": _casimir("R", "nu", factor=0),
            "C_K1": _casimir("Q", "tau", factor=0),
            "E_G": _euler("R", names, {"a": 1}),
            "E_K": _euler("Q", names, {"a": 1}),
        },
        relations=(
            _rel("euler", (1, "E_G"), (-1, "E_K")),
            _rel("casimir", (2, "C_Gt"), (-6, "C_G1"), (3, "C_K1")),
        ),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 2, 3),
        degrees_p=(2,),
        degrees_q=(1, 2),
        degrees_rank=3,
        hilbert_model=_weighted_model(1, 2, 2),
        indep_gens=("C_Gt", "C_K1", "E_K"),
        branch_rule=("tail_le_charge",),
    )


def _case_ix() -> CaseRecord:
    names = ("j", "k")
    cons = (_con(names, {"j": 1, "k": -1}), _con(names, {"j": 1, "k": 1}))
    theta = ParamSpace(names, ("nat", "int"), cons)
    M, T, off = _transfer(
        1,
        ("k",),
        [({0: 1}, {}, Fraction(1, 2)), ({0: 1}, {}, Fraction(-1, 2)), ({}, {"k": 1}, 0)],
    )
    return CaseRecord(
        id=CaseId("ix"),
        groups={
            "gtilde": SO(7),
            "htilde": G2Group(),
            "g": SO(6),
            "h": SU(3),
            "k": U(3),
        },
        pi_group=SO(7),
        nu_group=SO(6),
        tau_group=U(3),
        theta=theta,
        pi_space=ParamSpace(("j",), ("nat",)),
        tau_space=ParamSpace(("k",), ("int",)),
        pi_of_theta=_amap(names, [({"j": 1}, 0)]),
        tau_of_theta=_amap(names, [({"k": 1}, 0)]),
        pi_label_map=_amap(("j",), [({"j": 1}, 0)] * 3),
        nu_label_map=_amap(names, [({"j": 1}, 0), ({"j": 1}, 0), ({"k": 1}, 0)]),
        tau_label_map=_amap(("k",), [({"k": 1}, 0)] * 3),
        lam_rhoa_map=_amap(names, [({"j": 1}, Fraction(3, 2))]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
            # The paper's normalization for this case: C_K acts on det^k by
            # k^2, the power sum of b = (k).
            "C_K": SymbolSpec("power_ab", side="Q", vecname="b", base=1, scale=2, k=1),
            "E_K": _euler("Q", names, {"k": 1}),
        },
        relations=(_rel("casimir", (2, "C_Gt"), (-3, "C_G"), (3, "C_K")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 1, 2),
        degrees_p=(2,),
        degrees_q=(1,),
        degrees_rank=2,
        hilbert_model=_weighted_model(1, 2),
        indep_gens=("C_Gt", "E_K"),
        branch_rule=("charge_pm",),
        parity_gap_gens=("C_Gt", "C_G"),
        b_map=_amap(names, [({"k": 1}, 0)]),
    )


def _case_x() -> CaseRecord:
    names = ("k",)
    theta = ParamSpace(names, ("nat",))
    M, T, off = _transfer(1, (), [({}, {}, 1), ({0: 1}, {}, Fraction(-3, 2))])
    return CaseRecord(
        id=CaseId("x"),
        groups={
            "gtilde": SO(7),
            "htilde": SO(6),
            "g": G2Group(),
            "h": SU(3),
            "k": SU(3),
        },
        pi_group=SO(7),
        nu_group=G2Group(),
        tau_group=SU(3),
        theta=theta,
        pi_space=ParamSpace(("k",), ("nat",)),
        tau_space=ParamSpace((), ()),
        pi_of_theta=_amap(names, [({"k": 1}, 0)]),
        tau_of_theta=_amap(names, []),
        pi_label_map=_amap(("k",), [({"k": 1}, 0), ({}, 0), ({}, 0)]),
        nu_label_map=_amap(names, [({}, 0), ({"k": 1}, 0)]),
        tau_label_map=_amap((), [({}, 0)] * 3),
        lam_rhoa_map=_amap(names, [({"k": 1}, Fraction(5, 2))]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
        },
        relations=(_rel("casimir", (1, "C_Gt"), (-1, "C_G")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 0, 1),
        degrees_p=(2,),
        degrees_q=(),
        degrees_rank=1,
        hilbert_model=_weighted_model(2),
        indep_gens=("C_Gt",),
        branch_rule=("identity",),
    )


def _case_xi() -> CaseRecord:
    names = ("k",)
    theta = ParamSpace(names, ("nat",))
    half = Fraction(1, 2)
    M, T, off = _transfer(1, (), [({0: half}, {}, 1), ({0: half}, {}, 0), ({0: half}, {}, -1)])
    return CaseRecord(
        id=CaseId("xi"),
        groups={
            "gtilde": SO(8),
            "htilde": Spin(7),
            "g": SO(7),
            "h": G2Group(),
            "k": G2Group(),
        },
        pi_group=SO(8),
        nu_group=SO(7),
        tau_group=G2Group(),
        theta=theta,
        pi_space=ParamSpace(("k",), ("nat",)),
        tau_space=ParamSpace((), ()),
        pi_of_theta=_amap(names, [({"k": 1}, 0)]),
        tau_of_theta=_amap(names, []),
        pi_label_map=_amap(("k",), [({"k": 1}, 0)] * 4),
        nu_label_map=_amap(names, [({"k": 1}, 0)] * 3),
        tau_label_map=_amap((), [({}, 0)] * 2),
        lam_rhoa_map=_amap(names, [({"k": 2}, 3)]),
        symbols={
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
        },
        relations=(_rel("casimir", (3, "C_Gt"), (-4, "C_G")),),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(1, 0, 1),
        degrees_p=(2,),
        degrees_q=(),
        degrees_rank=1,
        hilbert_model=_weighted_model(2),
        indep_gens=("C_Gt",),
        branch_rule=("identity",),
    )


# The seven polynomial generators of the §7 model, expanded (see dgx module
# for the factored construction used as the independent route).
XYZ_R1 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1}
XYZ_R2 = {(2, 0, 0): 1, (1, 0, 1): 6, (0, 0, 2): 1, (0, 2, 0): 1, (0, 1, 0): 6, (0, 0, 0): 1}
XYZ_R3 = {
    (3, 0, 0): 1,
    (2, 0, 1): 15,
    (1, 0, 2): 15,
    (0, 0, 3): 1,
    (0, 3, 0): 1,
    (0, 2, 0): 15,
    (0, 1, 0): 15,
    (0, 0, 0): 1,
}
XYZ_R4 = {(1, 1, 0): 1, (1, 0, 1): -1, (0, 1, 0): -1, (0, 0, 1): 1}


def _case_star() -> CaseRecord:
    names = ("j", "jp", "a")
    cons = (
        _con(names, {"j": 1, "jp": 1, "a": -1}),
        _con(names, {"a": 1, "j": -1, "jp": 1}),
        _con(names, {"a": 1, "j": 1, "jp": -1}),
        _con(names, {"j": 1, "jp": 1, "a": 1}, mod=2),
    )
    theta = ParamSpace(names, ("nat", "nat", "nat"), cons)
    gt = ProductGroup(Spin(8), Spin(8))
    half = Fraction(1, 2)
    M, T, off = _transfer(
        2,
        ("a",),
        [
            ({0: half}, {"a": half}, Fraction(3, 2)),
            ({1: half}, {}, half),
            ({1: half}, {}, -half),
            ({0: half}, {"a": -half}, Fraction(-3, 2)),
        ],
    )

    def xyz(sym, side):
        return SymbolSpec("xyz_poly", side=side, poly=_poly(sym))

    return CaseRecord(
        id=CaseId("star"),
        groups={
            "gtilde": gt,
            "htilde": ProductGroup(Spin(7), Spin(7)),
            "g": Spin(8),
            "h": G2Group(),
            "k": Spin(7),
        },
        pi_group=gt,
        nu_group=Spin(8),
        tau_group=Spin(7),
        theta=theta,
        pi_space=ParamSpace(("j", "jp"), ("nat", "nat")),
        tau_space=ParamSpace(("a",), ("nat",)),
        pi_of_theta=_amap(names, [({"j": 1}, 0), ({"jp": 1}, 0)]),
        tau_of_theta=_amap(names, [({"a": 1}, 0)]),
        pi_label_map=_amap(
            ("j", "jp"),
            [({"j": 1}, 0), ({}, 0), ({}, 0), ({}, 0), ({"jp": 1}, 0), ({}, 0), ({}, 0), ({}, 0)],
        ),
        nu_label_map=_amap(
            names,
            [
                ({"j": half, "a": half}, 0),
                ({"jp": half}, 0),
                ({"jp": half}, 0),
                ({"j": half, "a": -half}, 0),
            ],
        ),
        tau_label_map=_amap(("a",), [({"a": half}, 0)] * 3),
        lam_rhoa_map=_amap(names, [({"j": 1}, 3), ({"jp": 1}, 3)]),
        symbols={
            "C_Gt1": _casimir("P", "pi", factor=0),
            "C_Gt2": _casimir("P", "pi", factor=1),
            "C_Gt": _casimir("P", "pi"),
            "C_G": _casimir("R", "nu"),
            "C_K": _casimir("Q", "tau"),
            "R_1": xyz(XYZ_R1, "R"),
            "R_2": xyz(XYZ_R2, "R"),
            "R_3": xyz(XYZ_R3, "R"),
            "R_4": xyz(XYZ_R4, "R"),
        },
        relations=(
            _rel("casimir", (3, "C_Gt1"), (3, "C_Gt2"), (-6, "C_G"), (4, "C_K")),
        ),
        transfer_matrix=M,
        transfer_tau=T,
        transfer_offset=off,
        rank3=(2, 1, 3),
        degrees_p=(2, 2),
        degrees_q=(2,),
        degrees_rank=3,
        hilbert_model=_weighted_model(2, 2, 2),
        indep_gens=("C_Gt1", "C_Gt2", "C_K"),
        branch_rule=("triangle",),
    )


def _alias(tag: str, base: CaseRecord, groups: dict) -> CaseRecord:
    return dataclasses.replace(base, id=CaseId(tag), groups=groups, alias_of=base.id)


def build_records(max_n: int) -> list[CaseRecord]:
    """One record per tag, instantiated for each admissible size parameter <= max_n."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    out: list[CaseRecord] = []
    for n in range(1, max_n + 1):
        out.append(_case_i(n))
    for n in range(2, max_n + 1):
        out.append(_case_i_prime(n))
    for n in range(1, max_n + 1, 2):
        out.append(_case_ii(n))
    for n in range(2, max_n + 1, 2):
        out.append(_case_ii(n))
    for n in range(1, max_n + 1):
        out.append(_case_iii(n))
    for n in range(1, max_n + 1):
        out.append(_case_iv(n))
    for n in range(1, max_n + 1):
        out.append(_case_v(n))
    for n in range(1, max_n + 1):
        out.append(_case_v_prime(n))
    out.extend(
        [_case_vi(), _case_vii(), _case_viii(), _case_ix(), _case_x(), _case_xi()]
    )
    xi_rec = next(r for r in out if r.id.tag == "xi")
    # triality ς* swaps so(7) and spin(7); all data delegated to case (xi)
    out.append(
        _alias(
            "xii",
            xi_rec,
            {
                "gtilde": SO(8),
                "htilde": SO(7),
                "g": Spin(7),
                "h": G2Group(),
                "k": G2Group(),
            },
        )
    )
    if max_n >= 3:
        i3 = next(r for r in out if r.id == CaseId("i", 3))
        # triality ς*(e1)=ω+ takes the triple to case (i) with n=3
        out.append(
            _alias(
                "xiii",
                i3,
                {
                    "gtilde": SO(8),
                    "htilde": Spin(7),
                    "g": ProductGroup(SO(6), SO(2)),
                    "h": Named("ι13(Ũ(3))"),
                    "k": ProductGroup(U(3), SO(2)),
                },
            )
        )
        i3p = next(r for r in out if r.id == CaseId("i_prime", 3))
        # triality reduction to case (i)' with n=3
        out.append(
            _alias(
                "xiii_prime",
                i3p,
                {
                    "gtilde": SO(8),
                    "htilde": Spin(7),
                    "g": SO(6),
                    "h": SU(3),
                    "k": U(3),
                },
            )
        )
        ii3 = next(r for r in out if r.id == CaseId("ii_odd", 3))
        # triality reduction to case (ii) with n=3
        out.append(
            _alias(
                "xiv",
                ii3,
                {
                    "gtilde": SO(8),
                    "htilde": ProductGroup(SO(6), SO(2)),
                    "g": Spin(7),
                    "h": Named("ι14(Ũ(3))"),
                    "k": Spin(6),
                },
            )
        )
    out.append(_case_star())
    out.sort(key=lambda r: r.id.sort_key())
    return out


# ---------------------------------------------------------------------------
# JSON output, shared with the CLI reports: one encoder and one writer


def fraction_str(x) -> str:
    """A rational as "p", or as "p/q" in lowest terms."""
    return str(Fraction(x))


def _encode(obj):
    """obj in JSON types: a Fraction as its ``fraction_str``, an AffineMap as
    the dict of its rational view {matrix, offset, source}, any other
    dataclass as the dict of all its fields, tuples and lists as lists, dict
    keys as strings; anything else as it is."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, AffineMap):
        obj = {"matrix": obj.matrix, "offset": obj.offset, "source": obj.source}
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    return obj


def to_json(payload) -> str:
    """The deterministic JSON text of payload (keys sorted, indent 1)."""
    return json.dumps(_encode(payload), indent=1, sort_keys=True)


# An empty --out names no file: a usage error in the CLI and the export alike.
EMPTY_OUT = "--out needs a file name"


def write_output(text: str, path: Optional[str]) -> int:
    """Write text and a newline to the file path, or to stdout when path is
    None.  Returns 0, or 2 after one ``error: cannot write`` line on stderr.

    A reader that closes stdout early (``| head``) is not an error: stdout is
    pointed at os.devnull, so that the interpreter's flush at exit does not
    fail a second time.
    """
    if path is None:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print("error: cannot write %s: %s" % (path, exc.strerror or exc), file=sys.stderr)
        return 2
    return 0


def dump_catalog(records: Iterable[CaseRecord]) -> str:
    return to_json({"schema": CATALOG_SCHEMA, "cases": list(records)})


def load_default(max_n: int = 2) -> list[CaseRecord]:
    """The records for every case instantiated up to ``max_n``."""
    return build_records(max_n)


def main(argv=None) -> int:
    """Export the catalog as JSON (python -m branchlab.catalog).

    Exit codes: 0 = exported, 2 = usage error (one ``error:`` line on stderr).
    """
    import argparse

    parser = argparse.ArgumentParser(description="export the case catalog as JSON")
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--out", default=None, help="write to this file instead of stdout")
    args = parser.parse_args(argv)
    error = "max-n must be >= 1" if args.max_n < 1 else EMPTY_OUT if args.out == "" else None
    if error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    status = write_output(dump_catalog(build_records(args.max_n)), args.out)
    if status or args.out is None:
        return status
    return write_output("wrote %s" % args.out, None)


if __name__ == "__main__":
    sys.exit(main())
