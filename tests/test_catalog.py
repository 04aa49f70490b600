"""Catalog structure: enumeration, the canonical map, ranks, the JSON export."""

import dataclasses
import gc
import itertools
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import catalog, nest, verify, weights
from branchlab.catalog import (
    CaseId,
    CaseRecord,
    Constraint,
    ParamSpace,
    Relation,
    SymbolSpec,
    build_records,
)
from branchlab.linalg import AffineMap
from branchlab.reps import GroupDescriptor
import oracles


@pytest.fixture(scope="module")
def records():
    return {(r.id.tag, r.id.n): r for r in build_records(3)}


def rec(records, tag, n=None):
    return records[(tag, n)]


def test_all_cases_population():
    ids = [str(r.id) for r in build_records(1)]
    assert "vi" in ids and "star" in ids
    assert "i[n=1]" in ids
    assert "xiii" not in ids  # needs the n=3 base case
    ids3 = [str(r.id) for r in build_records(3)]
    assert {"xii", "xiii", "xiii_prime", "xiv"} <= set(ids3)
    assert [s for s in ids3 if s.startswith("i[")] == ["i[n=1]", "i[n=2]", "i[n=3]"]


def test_all_cases_count_max_n_2():
    # 13 parametrized instances + 11 fixed/alias-capable rows minus the three
    # aliases that need n=3 bases
    assert len(build_records(2)) == 21
    assert len(build_records(3)) == 31


def test_star_group_names():
    star = build_records(1)[-1]
    assert star.groups["k"].name == "Spin(7)"
    assert star.groups["g"].name == "Spin(8)"


def test_enumerate_theta_examples(records):
    r = rec(records, "i", 2)
    assert r.theta.enumerate(1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    r = rec(records, "vi")
    assert r.theta.enumerate(2) == [(0, 0), (1, 1), (2, 0), (2, 2)]
    r = rec(records, "x")
    assert r.theta.enumerate(3) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        r.theta.enumerate(-1)


def test_enumerate_theta_lex_sorted_and_constrained(records):
    for r in records.values():
        elems = r.theta.enumerate(4)
        assert elems == sorted(elems)
        assert len(set(elems)) == len(elems)
        for p in elems:
            assert r.theta.contains(p)


def _box_filter(space, bound):
    ranges = [range(0 if d == "nat" else -bound, bound + 1) for d in space.domains]
    return [p for p in itertools.product(*ranges) if space.contains(p)]


def test_enumerate_is_complete():
    # the whole box filtered by contains, for every theta and pi space of the
    # max_n=2 catalog (congruences included: iii, v_prime, vi, star)
    spaces = [s for r in build_records(2) for s in (r.theta, r.pi_space)]
    assert any(c.mod for s in spaces for c in s.constraints)
    for space in spaces:
        assert space.enumerate(3) == _box_filter(space, 3), space


SYNTHETIC_CONSTRAINTS = [
    # a >= c - 1 is exact once c is placed; b <= 2; a + b + c even
    (Constraint((1, 0, -1), 1), Constraint((0, -1, 0), 2), Constraint((1, 1, 1), 0, 2)),
    (Constraint((0, 0, 0), -1),),  # a constant constraint that fails
    (Constraint((0, 0, 0), 0), Constraint((0, 0, 0), 1, 3)),  # one that holds; 1 mod 3
    (Constraint((0, 0, 0), 3, 3), Constraint((0, 2, 0), -3)),  # 3 mod 3; b >= 3/2
]


@pytest.mark.parametrize("constraints", SYNTHETIC_CONSTRAINTS)
def test_enumerate_matches_box_filter(constraints):
    space = ParamSpace(("a", "b", "c"), ("int", "nat", "int"), constraints)
    assert space.enumerate(3) == _box_filter(space, 3)


def _contains_by_constraints(space, params):
    """Membership as defined: the right length, integral entries (an int,
    or a Fraction or float of integral value), nat coordinates >= 0, and
    every constraint: sum(coeffs · params) + const >= 0, or == 0 mod
    ``mod`` when mod > 0."""
    if len(params) != len(space.names):
        return False
    for p in params:
        if not isinstance(p, (int, Fraction, float)) or p != int(p):
            return False
    params = [int(p) for p in params]
    if any(p < 0 for p, d in zip(params, space.domains) if d == "nat"):
        return False
    for c in space.constraints:
        v = sum(a * p for a, p in zip(c.coeffs, params)) + c.const
        if (v % c.mod != 0) if c.mod else v < 0:
            return False
    return True


def test_compiled_contains_matches_constraints():
    # the compiled sparse rows against the constraint-by-constraint
    # definition, on random integer tuples and on non-int entries
    rng = random.Random(12)
    spaces = [s for r in build_records(3) for s in (r.theta, r.pi_space, r.tau_space)]
    spaces += [
        ParamSpace(("a", "b", "c"), domains, constraints)
        for constraints in SYNTHETIC_CONSTRAINTS
        for domains in (("int", "nat", "int"), ("nat", "nat", "nat"))
    ]
    seen = set()
    for space in spaces:
        n = len(space.names)
        inputs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(200)]
        inputs += [(), (0,) * (n + 1), (1,) * (n - 1)]
        for p in inputs[:20]:
            for odd in (Fraction(4, 2), 2.0, True, Fraction(1, 2), "2", None):
                for i in range(n):
                    inputs.append(p[:i] + (odd,) + p[i + 1:])
        for p in inputs:
            expected = _contains_by_constraints(space, p)
            assert space.contains(p) is expected, (space, p)
            assert space.contains(list(p)) is expected, (space, p)
            seen.add(expected)
    assert seen == {True, False}
    # an integral Fraction, float or bool is a coordinate; a str or None,
    # whatever it spells, is not
    nat = ParamSpace(("a",), ("nat",))
    odd = (Fraction(4, 2), 2.0, True, Fraction(1, 2), "2", None)
    assert [nat.contains((x,)) for x in odd] == [True, True, True, False, False, False]
    assert not nat.contains((float("nan"),)) and not nat.contains((float("inf"),))
    assert not nat.contains((1, 2)) and not nat.contains(())


@pytest.mark.parametrize("constraints", SYNTHETIC_CONSTRAINTS)
@pytest.mark.parametrize("domains", [("int", "nat", "int"), ("nat", "nat", "nat")])
def test_walk_matches_enumerate_on_synthetic_spaces(constraints, domains):
    # walk yields the box filter's points in lex order at every bound 0..4;
    # a negative bound is a ValueError before anything is yielded
    space = ParamSpace(("a", "b", "c"), domains, constraints)
    for bound in range(5):
        assert list(space.walk(bound)) == _box_filter(space, bound), bound
        assert space.enumerate(bound) == _box_filter(space, bound), bound
    with pytest.raises(ValueError):
        next(space.walk(-1))


@st.composite
def _walk_with_sums(draw):
    """(space, bound, rows, sums): a small nat/int space with random
    inequalities and congruences, rows with zero columns and constant rows
    among them, and sum terms (row index, ``verify._RowSums``) whose K
    polynomials are quadratics in the row's value, some of them empty."""
    n = draw(st.integers(0, 4))
    ints = st.integers(-2, 2)
    domains = tuple(draw(st.lists(st.sampled_from(["nat", "int"]), min_size=n, max_size=n)))
    constraints = draw(
        st.lists(
            st.builds(
                Constraint,
                st.tuples(*[ints] * n),
                st.integers(-3, 3),
                st.sampled_from([0, 0, 2, 3]),
            ),
            max_size=3,
        )
    )
    space = ParamSpace(tuple("abcd"[:n]), domains, tuple(constraints))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows.append((tuple((i, c) for i, c in enumerate(coeffs) if c), draw(st.integers(-5, 5))))
    width = draw(st.integers(1, 3))
    sums = []
    if rows:
        for _ in range(draw(st.integers(0, 5))):
            cs = draw(st.lists(st.tuples(ints, ints, ints), min_size=width, max_size=width))
            polys = tuple(tuple((e, c) for e, c in enumerate(abc) if c) for abc in cs)
            sums.append((draw(st.integers(0, len(rows) - 1)), verify._RowSums(polys)))
    return space, draw(st.integers(0, 3)), rows, sums


@given(_walk_with_sums())
@settings(max_examples=150, deadline=None)
def test_walk_carries_sums_of_row_values(case):
    # a theta kernel whose leaf records (theta, row values, totals): the
    # points are enumerate's, in order, each row's value is the row at theta,
    # and the K totals are the sums of the terms' memos at their rows' values
    space, bound, rows, sums = case
    src = nest.tuple_source

    def leaf(value, totals, theta):
        values = src([value(r) for r in range(len(rows))])
        return ["rel_fail((%s, %s, %s))" % (theta, values, src(totals))]

    source = verify._theta_source(space, bound, rows, sums, leaf)
    kernel = nest.kernel.__wrapped__(source, "theta kernel random")
    seen = []
    memos = tuple(memo for _, memo in sums)
    assert kernel(bound, memos, None, seen.append, *[None] * 5)[0] == len(seen)
    assert [p for p, _, _ in seen] == space.enumerate(bound)
    for p, values, totals in seen:
        assert list(values) == oracles._apply2(rows, p), p
        direct = [sum(terms) for terms in zip(*[memo[values[r]] for r, memo in sums])]
        assert list(totals) == direct, (p, totals)


@given(_walk_with_sums())
@settings(max_examples=150, deadline=None)
def test_always_holds_at_every_point_of_the_walk(case):
    # nest.always on random spaces and rows: a test it proves holds at
    # every point of the space's walk, at the bound drawn and at 0..4
    space, bound, rows, _ = case
    holds = nest.always(verify._box_coords(space))
    points = {b: space.enumerate(b) for b in {bound, *range(5)}}
    for coeffs, off in rows:
        for row in ((coeffs, off), (tuple((i, -c) for i, c in coeffs), -off)):
            for mod, k in ((0, 0), (0, 1), (0, 2), (2, 0), (3, 0)):
                if holds(row, mod, k):
                    for b, walk in points.items():
                        for p in walk:
                            (value,) = oracles._apply2([row], p)
                            assert value % mod == 0 if mod else value + k * b >= 0, (row, mod, k, b, p)


def test_enumerate_leaves_no_cycle(records):
    # nor does a run_case, whose theta kernel takes the pass's callables as
    # arguments
    r = rec(records, "iv", 2)
    gc.collect()
    gc.disable()
    try:
        box = r.theta.enumerate(3)
        assert box
        del box
        assert gc.collect() == 0
        assert all(e["failed"] == 0 for e in verify.run_case(r, 3, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_membership_kernel_matches_the_row_loop():
    # a space's compiled membership against the row loop it replaced, on
    # random int tuples, and False for a tuple of the wrong length
    rng = random.Random(5)
    spaces = [s for r in build_records(3) for s in (r.theta, r.pi_space, r.tau_space)]
    spaces += [
        ParamSpace(("a", "b", "c"), domains, constraints)
        for constraints in SYNTHETIC_CONSTRAINTS
        for domains in (("int", "nat", "int"), ("nat", "nat", "nat"))
    ]
    seen = set()
    for space in spaces:
        n = len(space.names)
        for _ in range(100):
            p = tuple(rng.randint(-6, 6) for _ in range(n))
            expected = oracles._satisfies(space._membership, p)
            assert space.contains_ints(p) is expected, (space, p)
            seen.add(expected)
        assert space.contains_ints((0,) * (n + 1)) is False
    assert seen == {True, False}


def test_kernels_leave_no_cycle(monkeypatch):
    # compiling the kernels of a fresh Weyl type, row tuple and space, and
    # dropping them, leaves nothing for the cycle collector: each is
    # compiled by nest.kernel against a globals dict of the builtins and
    # the helpers it names.  The builders and nest.kernel are called past
    # their caches, and nest's first-compile map is a fresh one, cleared
    # below, so that the kernels are freed here.
    monkeypatch.setattr(nest, "kernel", nest.kernel.__wrapped__)
    monkeypatch.setattr(nest, "_FIRST", {})
    t = weights.Product(weights.B(23), weights.Trivial(2), weights.G2)
    rows = ((((0, 3), (2, -1)), 987651), ((), -7), (((1, 2),), 0))
    gc.collect()
    gc.disable()
    try:
        dimension = weights._dimension_kernel.__wrapped__(t)
        canonical = weights._canonical_kernel.__wrapped__(t, True)
        image = nest.affine_kernel.__wrapped__(rows)
        member = catalog._membership_kernel.__wrapped__(((((0, 1), (1, -1)), 5, 7),), 2)
        assert dimension((0,) * 27) == 1
        assert canonical([0] * 27) == (0,) * 27
        assert image((1, 2, 3)) == (987651, -7, 4)
        assert member((0, 5)) and not member((0, 0))
        space = ParamSpace(("a", "b"), ("nat", "int"), (Constraint((1, -1), 987650, 7),))
        assert space.contains((0, 987650)) and not space.contains((0, 0))
        # a theta kernel long enough to be a chain of two functions
        chain = ParamSpace(tuple("x%d" % i for i in range(17)), ("nat",) * 17)
        source = verify._theta_source(chain, 1, [], [], lambda value, totals, theta: [])
        theta = nest.kernel(source, "theta kernel chain")
        assert "_c1" in source and theta(1, (), *[None] * 7) == (2 ** 17, 0, 0)
        del dimension, canonical, image, member, space, theta
        nest._FIRST.clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_theta_star_triangle(records):
    r = rec(records, "star")
    got = set(r.theta.enumerate(2))
    expected = {
        (j, jp, a)
        for j in range(3)
        for jp in range(3)
        for a in range(3)
        if abs(j - jp) <= a <= j + jp and (j + jp - a) % 2 == 0
    }
    assert got == expected


def test_pi_tau_examples(records):
    r = rec(records, "i", 2)
    pi, tau = oracles.pi_tau(r, (2, 1))
    assert oracles.highest_weight(pi) == (Fraction(3), Fraction(0), Fraction(0))
    assert oracles.highest_weight(tau) == (Fraction(0), Fraction(0), Fraction(1))

    r = rec(records, "vi")
    pi, tau = oracles.pi_tau(r, (4, 2))
    assert oracles.highest_weight(pi) == tuple(Fraction(x) for x in (4, 0, 0, 0, 0, 0, 0, 0))
    assert oracles.highest_weight(tau) == tuple(Fraction(1) for _ in range(4))

    r = rec(records, "star")
    pi, tau = oracles.pi_tau(r, (1, 1, 2))
    assert oracles.highest_weight(pi) == tuple(Fraction(x) for x in (1, 0, 0, 0, 1, 0, 0, 0))
    assert oracles.highest_weight(tau) == (Fraction(1), Fraction(1), Fraction(1))


def test_pi_tau_rejects_invalid_theta(records):
    with pytest.raises(ValueError):
        oracles.pi_tau(rec(records, "vi"), (1, 2))  # k > j
    with pytest.raises(ValueError):
        oracles.pi_tau(rec(records, "vi"), (3, 2))  # parity fails
    with pytest.raises(ValueError):
        oracles.pi_tau(rec(records, "star"), (1, 1, 1))  # parity fails


@pytest.mark.parametrize(
    "key,query", [("pi_of_theta", "pi_params_of"), ("tau_of_theta", "tau_params_of")]
)
def test_map_not_integral_at_theta_is_a_value_error(records, key, query):
    # a half in the offset makes the image at (0, 0) a half: an error that
    # names the case and the map, and not a truncated image
    vi = rec(records, "vi")
    amap = getattr(vi, key)
    offset = (amap.offset[0] + Fraction(1, 2),) + amap.offset[1:]
    half = AffineMap.of(amap.matrix, offset, amap.source)
    assert half.den == 2
    broken = dataclasses.replace(vi, **{key: half})
    with pytest.raises(ValueError, match=r"^case vi: map %s is not integral$" % key):
        getattr(broken, query)((0, 0))
    assert getattr(vi, query)((0, 0)) == tuple(int(x) for x in amap.apply((0, 0)))


def _stored_maps(r):
    """(name, map) of each AffineMap the record stores: its map fields and
    its Euler forms."""
    for f in dataclasses.fields(r):
        if isinstance(getattr(r, f.name), AffineMap):
            yield f.name, getattr(r, f.name)
    for name, spec in sorted(r.symbols.items()):
        if spec.form is not None:
            yield name, spec.form


def test_every_stored_map_is_integer_rows_over_one_or_two():
    # the rows are in the form ``AffineMap`` requires, and no map needs a
    # denominator other than 1 or 2
    stored = 0
    for r in build_records(10):
        for name, amap in _stored_maps(r):
            assert type(amap) is AffineMap and amap.den in (1, 2), (r.id, name, amap.den)
            for coeffs, off in amap.rows:
                indices = [i for i, _ in coeffs]
                assert indices == sorted(set(indices)) and all(0 <= i < amap.source for i in indices)
                assert all(type(c) is int and c for _, c in coeffs) and type(off) is int
            stored += 1
    # the eight map fields, less the absent a and b maps, and the Euler forms
    assert stored == 567


def test_pi_tau_injective_on_box(records):
    for r in records.values():
        seen = set()
        for theta in r.theta.enumerate(4):
            pi, tau = oracles.pi_tau(r, theta)
            key = (oracles.highest_weight(pi), oracles.highest_weight(tau))
            assert key not in seen, (r.id, theta)
            seen.add(key)


def test_rank_triples(records):
    assert rec(records, "iv", 2).rank3 == (2, 2, 4)
    assert rec(records, "xi").rank3 == (1, 0, 1)
    assert rec(records, "star").rank3 == (2, 1, 3)
    assert rec(records, "ii_odd", 3).rank3 == (2, 1, 3)
    for r in records.values():
        a, b, c = r.rank3
        assert a + b == c, r.id


def test_generator_degree_counts():
    # m + n = rank, and the P-side and Q-side generators of indep_gens
    # number m = len(degrees_p) and n = len(degrees_q), on every record
    for r in build_records(10):
        assert len(r.degrees_p) + len(r.degrees_q) == r.degrees_rank, r.id
        report = verify.check_degree_counts(r)
        assert (report.checks_run, report.failures) == (1, []), (r.id, report.failures)


def test_aliases_delegate(records):
    xii = rec(records, "xii")
    xi = rec(records, "xi")
    assert xii.alias_of == xi.id
    assert xii.relations == xi.relations
    assert xii.transfer_matrix == xi.transfer_matrix
    assert xii.theta.enumerate(3) == xi.theta.enumerate(3)
    xiv = rec(records, "xiv")
    assert xiv.alias_of == CaseId("ii_odd", 3)
    assert xiv.groups["k"].name == "Spin(6)"


def test_tau_space_validation(records):
    r = rec(records, "vi")
    assert r.tau_space.contains((2,))
    assert not r.tau_space.contains((-1,))
    r = rec(records, "viii")
    assert r.tau_space.contains((2, -2))
    assert not r.tau_space.contains((2, 3))
    r = rec(records, "v_prime", 1)
    assert r.tau_space.contains((2, 0))
    assert not r.tau_space.contains((2, 1))  # parity


def test_load_default_is_build_records():
    for n in (1, 2, 3):
        assert [r.id for r in catalog.load_default(max_n=n)] == [r.id for r in build_records(n)]


def test_export_is_deterministic():
    argv = [sys.executable, "-m", "branchlab.catalog", "--max-n", "2"]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True) for _ in range(2)]
    first, second = (proc.stdout for proc in runs)
    assert first == second
    # the module runs once, as __main__, so runpy has nothing to warn about
    assert [proc.stderr for proc in runs] == ["", ""]
    payload = json.loads(first)
    assert payload["schema"] == 3
    ids = [CaseId(c["id"]["tag"], c["id"]["n"]) for c in payload["cases"]]
    assert ids == [r.id for r in build_records(2)]


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_export_has_every_dataclass_field():
    """The export is the records' dataclasses, field for field, with each
    rational as its "p/q" string and each AffineMap as its rational view."""
    records = build_records(2)
    cases = json.loads(catalog.dump_catalog(records))["cases"]
    assert len(cases) == len(records)

    def group(g):
        assert set(g) == _field_names(GroupDescriptor), g
        for f in g["factors"]:
            group(f)

    def amap(m):
        assert set(m) == {"matrix", "offset", "source"}, m
        assert len(m["matrix"]) == len(m["offset"])
        assert all(len(row) == m["source"] for row in m["matrix"]), m

    for r, case in zip(records, cases):
        assert set(case) == _field_names(CaseRecord)
        assert set(case["id"]) == _field_names(CaseId)
        for g in case["groups"].values():
            group(g)
        for key in ("pi_group", "nu_group", "tau_group"):
            group(case[key])
        for key in ("theta", "pi_space", "tau_space"):
            assert set(case[key]) == _field_names(ParamSpace)
            for c in case[key]["constraints"]:
                assert set(c) == _field_names(Constraint)
        for key in ("pi_of_theta", "tau_of_theta", "pi_label_map", "nu_label_map",
                    "tau_label_map", "lam_rhoa_map", "a_map", "b_map"):
            if case[key] is not None:
                amap(case[key])
        assert set(case["symbols"]) == set(r.symbols)
        for s in case["symbols"].values():
            assert set(s) == _field_names(SymbolSpec)
            if s["form"] is not None:
                amap(s["form"])
        for rel in case["relations"]:
            assert set(rel) == _field_names(Relation)
        assert case["lam_rhoa_map"]["offset"] == [
            str(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
            for x in r.lam_rhoa_map.offset
        ]
    x = next(c for c in cases if c["id"] == {"tag": "x", "n": None})
    assert x["lam_rhoa_map"]["offset"] == ["5/2"]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--max-n", "0"], "error: max-n must be >= 1"),
        (["--max-n", "1", "--out", "{missing}"], "error: cannot write {missing}: "),
        (["--max-n", "1", "--out", ""], "error: --out needs a file name"),
    ],
    ids=["max-n-0", "unwritable-out", "empty-out"],
)
def test_export_usage_errors_exit_2(tmp_path, args, message):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    argv = [sys.executable, "-m", "branchlab.catalog"] + [a.format(missing=missing) for a in args]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message.format(missing=missing)), lines
    assert proc.stdout == ""


def test_no_bundled_data_file():
    # the builders are the only catalog source; a serialized copy would drift
    package = pathlib.Path(catalog.__file__).parent
    assert not (package / "data").exists()
    assert "package-data" not in (package.parents[1] / "pyproject.toml").read_text()
