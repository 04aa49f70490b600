"""Relation identities, transfer maps, independence certificates."""

import collections
import cProfile
import hashlib
import random
from fractions import Fraction

import pytest

from branchlab import catalog, fibers, linalg, nest, reps, verify, weights
from branchlab.linalg import AffineMap
from branchlab.reps import casimir_eigenvalue, casimir_numerators
from branchlab.verify import (
    InsufficientSampleError,
    check_ix_parity_gap,
    check_relations,
    check_transfer,
    evaluate_generator,
    evaluate_generator_reference,
    independence_certificate,
)
import oracles


@pytest.fixture(scope="module")
def records():
    return {(r.id.tag, r.id.n): r for r in catalog.build_records(3)}


def rec(records, tag, n=None):
    return records[(tag, n)]


def _rebuilt(amap, matrix=None, offset=None):
    """amap with its Fraction matrix or offset replaced, rebuilt through
    ``AffineMap.of``."""
    return AffineMap.of(
        amap.matrix if matrix is None else matrix,
        amap.offset if offset is None else offset,
        amap.source,
    )


def test_evaluate_generator_examples(records):
    assert evaluate_generator(rec(records, "vi"), "C_Gt", (2, 0)) == 32
    assert evaluate_generator(rec(records, "star"), "C_K", (1, 1, 2)) == 12
    # power sum with a_i = j_i + 2(m-i) + 1/2 at j=(0,0), k=(0)
    r = rec(records, "ii_odd", 3)
    assert evaluate_generator(r, "P_1", (0, 0, 0)) == 26


def test_evaluate_generator_unknown_symbol(records):
    with pytest.raises(KeyError):
        evaluate_generator(rec(records, "vi"), "nope", (0, 0))


def test_evaluate_generator_invalid_theta(records):
    with pytest.raises(ValueError):
        evaluate_generator(rec(records, "vi"), "C_Gt", (1, 2))


@pytest.mark.parametrize("theta", [(2.5, 0), (Fraction(5, 2), 0)], ids=str)
def test_evaluators_reject_a_non_integral_theta(records, theta):
    # checked before it is made integral, not truncated to (2, 0)
    for evaluate in (evaluate_generator, evaluate_generator_reference):
        with pytest.raises(ValueError, match="not in Disc"):
            evaluate(rec(records, "vi"), "C_Gt", theta)


def test_compiled_matches_reference(records):
    rng = random.Random(11)
    for r in records.values():
        elems = r.theta.enumerate(4)
        sample = rng.sample(elems, min(12, len(elems)))
        for theta in sample:
            for name in r.symbols:
                assert evaluate_generator(r, name, theta) == evaluate_generator_reference(
                    r, name, theta
                ), (r.id, name, theta)


def _fresh_sums(record):
    """(names, dens, sums, points) for every symbol of record that
    ``verify._separable`` takes, one slot each: the record's compiled forms,
    carried by new memos that have seen no value yet, on a new stack, and
    the (theta, image) pairs of the box of bound 3, image being the stacked
    rows at theta."""
    stack = verify._Stack(record)
    names, dens, slots = [], [], []
    for name in sorted(record.symbols):
        if record.symbols[name].kind == "xyz_poly":
            continue
        form, den = verify._compiled(record, name)
        names.append(name)
        dens.append(den)
        slots.append((name, form))
    sums = verify._walk_sums(slots, stack)
    thetas = record.theta.enumerate(3)
    return names, dens, sums, [(theta, oracles._apply2(stack.rows, theta)) for theta in thetas]


def test_compiled_values_do_not_depend_on_image_order(records):
    # the kernel's sums keep memos across calls; fed in walk order, in reverse,
    # or alternating between two records' memos, each image must still give
    # the reference values (ii_odd[n=1] has an empty b)
    assert len(records[("ii_odd", 1)].b_map.matrix) == 0
    ordered = sorted(records.values(), key=lambda r: r.id.sort_key())
    expected = {
        r.id: {
            theta: {name: evaluate_generator_reference(r, name, theta) for name in r.symbols}
            for theta in r.theta.enumerate(3)
        }
        for r in ordered
    }

    def feed(record, names, dens, sums, point):
        theta, image = point
        totals = [0] * len(names)
        for row, memo in sums:
            totals = [a + b for a, b in zip(totals, memo[image[row]])]
        for name, den, total in zip(names, dens, totals):
            assert Fraction(total, den) == expected[record.id][theta][name], (
                record.id, name, theta,
            )

    for r in ordered:
        names, dens, sums, points = _fresh_sums(r)
        assert set(r.symbols) - set(names) <= {
            name for name, s in r.symbols.items() if s.kind == "xyz_poly"
        }
        for point in points:
            feed(r, names, dens, sums, point)
        names, dens, sums, points = _fresh_sums(r)
        for point in reversed(points):
            feed(r, names, dens, sums, point)
    for r, s in zip(ordered, ordered[1:] + ordered[:1]):
        left, right = (r,) + _fresh_sums(r), (s,) + _fresh_sums(s)
        for i in range(max(len(left[4]), len(right[4]))):
            for record, names, dens, sums, points in (left, right):
                if i < len(points):
                    feed(record, names, dens, sums, points[i])


def test_casimir_scalar_tables(records):
    # frozen values from the per-case proof tables
    i2 = rec(records, "i", 2)
    k, l = 3, 1
    assert evaluate_generator(i2, "C_Gt", (k, l)) == (k + l) * (k + l + 4)
    assert evaluate_generator(i2, "C_G", (k, l)) == k * k + l * l + 2 * (k + l)
    assert evaluate_generator(i2, "C_K", (k, l)) == (k - l) ** 2
    assert evaluate_generator(i2, "E_K", (k, l)) == k - l

    iii1 = rec(records, "iii", 1)
    k, l = 4, 2
    assert evaluate_generator(iii1, "C_Gt", (k, l)) == Fraction((k + l) * (k + l + 6), 2)
    assert evaluate_generator(iii1, "C_G", (k, l)) == k * k + l * l + 2 * (k + l) + 2 * k
    assert evaluate_generator(iii1, "C_K", (k, l)) == (k - l) * (k - l + 2)

    vii = rec(records, "vii")
    j, k = 3, 2
    assert evaluate_generator(vii, "C_Gt", (j, k)) == 4 * (j * j + 3 * j)
    assert evaluate_generator(vii, "C_G1", (j, k)) == j * j + 3 * j + k * k + k
    assert evaluate_generator(vii, "C_G2", (j, k)) == k * k + k
    assert evaluate_generator(vii, "Cp_K", (j, k)) == 2 * (k * k + k)

    viii = rec(records, "viii")
    j, k, a = 4, 2, -1
    assert evaluate_generator(viii, "C_Gt", (j, k, a)) == 3 * (j * j + 3 * j)
    assert evaluate_generator(viii, "E_G", (j, k, a)) == a
    assert evaluate_generator(viii, "E_K", (j, k, a)) == a

    ix = rec(records, "ix")
    j, k = 3, -2
    assert evaluate_generator(ix, "C_Gt", (j, k)) == 3 * (j * j + 3 * j)
    assert evaluate_generator(ix, "C_G", (j, k)) == 2 * (j * j + 3 * j) + k * k
    assert evaluate_generator(ix, "C_K", (j, k)) == k * k
    assert evaluate_generator(ix, "E_K", (j, k)) == k

    x = rec(records, "x")
    assert evaluate_generator(x, "C_Gt", (4,)) == 16 + 20
    assert evaluate_generator(x, "C_G", (4,)) == 16 + 20

    star = rec(records, "star")
    assert evaluate_generator(star, "C_G", (1, 1, 2)) == 15
    assert evaluate_generator(star, "C_Gt1", (1, 1, 2)) == 7
    assert evaluate_generator(star, "C_Gt2", (1, 1, 2)) == 7


def test_check_relations_passes_everywhere(records):
    for r in records.values():
        report = check_relations(r, 5)
        assert not report.failures, (r.id, report.failures[:3])
        assert report.checks_run == len(r.relations) * len(r.theta.enumerate(5))


def test_check_relations_example_case_i(records):
    report = check_relations(rec(records, "i", 2), 4)
    assert not report.failures and report.checks_run == 25


def test_relation_star_spot_value(records):
    star = rec(records, "star")
    # 3*14 = 6*15 - 4*12 at theta = (1,1,2)
    c_gt = evaluate_generator(star, "C_Gt", (1, 1, 2))
    assert c_gt == 14
    assert 3 * c_gt == 6 * 15 - 4 * 12


def test_power_sum_relations_case_ii(records):
    r = rec(records, "ii_odd", 3)
    for theta in r.theta.enumerate(3):
        for k in (1, 2):
            p = evaluate_generator(r, "P_%d" % k, theta)
            q = evaluate_generator(r, "Q_%d" % k, theta)
            rr = evaluate_generator(r, "R_%d" % k, theta)
            assert p + q == 4 ** k * rr


def test_two_route_casimir_consistency_ii_iv(records):
    # d l(C_G) computed from the theta label equals the combination predicted
    # by the proposition's Casimir row
    for key in (("ii_odd", 3), ("ii_even", 2), ("iv", 2)):
        r = records[key]
        ck = "C_K" if key[0] != "iv" else "C_K1"
        for theta in r.theta.enumerate(3):
            direct = casimir_eigenvalue(r.nu_label(theta))
            via_relation = (
                evaluate_generator(r, "C_Gt", theta) + evaluate_generator(r, ck, theta)
            ) / 2
            assert direct == via_relation


def test_transfer_map_examples(records):
    smap = rec(records, "vi").transfer((2,))
    assert smap.apply((11,)) == tuple(Fraction(x, 2) for x in (11, 7, 5, 3))

    smap = rec(records, "i", 2).transfer((1,))
    assert smap.apply((5,)) == (Fraction(3), Fraction(0), Fraction(-2))

    smap = rec(records, "i", 2).transfer((0,))
    assert smap.apply((2,)) == (Fraction(1), Fraction(0), Fraction(-1))

    smap = rec(records, "x").transfer(())
    assert smap.apply((Fraction(5, 2),)) == (Fraction(1), Fraction(1))

    smap = rec(records, "xi").transfer(())
    assert smap.apply((9,)) == tuple(Fraction(x, 2) for x in (11, 9, 7))


def test_every_transfer_map_matches_the_fraction_route():
    # S_tau of every record at tau in Disc(K/H) and rational lambda, against
    # the three transfer fields in Fractions; and at tau(theta), applied to
    # lambda(theta) + rho_a, against the composite transfer image
    import itertools

    rng = random.Random(30)
    checked = 0
    for r in catalog.build_records(6):
        taus = list(itertools.islice(r.tau_space.walk(2), 30))
        for tau in rng.sample(taus, min(3, len(taus))):
            smap = r.transfer(tau)
            for _ in range(2):
                lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(smap.source))
                assert smap.apply(lam) == oracles.transfer_image(r, tau, lam), (r.id, tau, lam)
                checked += 1
        image = oracles._transfer_image_map(r)
        for theta in itertools.islice(r.theta.walk(2), 4):
            smap = r.transfer(r.tau_params_of(theta))
            got = smap.apply(r.lam_rhoa_map.apply(theta))
            assert got == oracles.fraction_apply(image, theta), (r.id, theta)
    assert checked >= 2 * len(catalog.build_records(6))


def test_transfer_map_rejects_invalid_tau(records):
    with pytest.raises(ValueError):
        rec(records, "vi").transfer((-1,))
    with pytest.raises(ValueError):
        rec(records, "viii").transfer((1, 2))


def test_check_transfer_passes_everywhere(records):
    for r in records.values():
        report = check_transfer(r, 5)
        assert not report.failures, (r.id, report.failures[:3])


def test_check_transfer_example_values(records):
    r = rec(records, "i", 2)
    theta = (2, 1)
    lam = r.lam_rhoa_map.apply(theta)
    assert lam == (Fraction(5),)
    image = r.transfer(r.tau_params_of(theta)).apply(lam)
    assert image == (Fraction(3), Fraction(0), Fraction(-2))
    assert image == oracles.nu_plus_rho(r, theta)

    r = rec(records, "xi")
    theta = (3,)
    image = r.transfer(()).apply(r.lam_rhoa_map.apply(theta))
    assert image == oracles.nu_plus_rho(r, theta) == (Fraction(11, 2), Fraction(9, 2), Fraction(7, 2))


def test_independence_certificates(records):
    ok, witness = independence_certificate(rec(records, "i", 2), ("C_Gt", "E_K"), 4, 2)
    assert ok and len(witness) == 6
    ok, _ = independence_certificate(
        rec(records, "star"), ("C_Gt1", "C_Gt2", "C_K"), 5, 2
    )
    assert ok
    for r in records.values():
        ok, _ = independence_certificate(r, r.indep_gens, 6, 2)
        assert ok, r.id


def test_independence_certificate_matches_fraction_oracle(records):
    """The integer echelon gives the Fraction elimination's (bool, witness),
    or the same InsufficientSampleError, on every record at bounds 0..5 and
    degrees 1..3."""

    def outcome(certificate, r, bound, degree):
        try:
            return certificate(r, r.indep_gens, bound, degree)
        except InsufficientSampleError as exc:
            return str(exc)

    results = set()
    for r in records.values():
        for bound in range(6):
            for degree in (1, 2, 3):
                got = outcome(independence_certificate, r, bound, degree)
                expected = outcome(oracles.independence_certificate, r, bound, degree)
                assert got == expected, (r.id, bound, degree)
                results.add(got[0] if isinstance(got, tuple) else "insufficient")
    assert results == {True, False, "insufficient"}


def test_independence_oracle_is_exact_on_int_entries(records):
    """The oracle's elimination gives the same witness on int rows as on
    the same rows in Fractions: on a crafted matrix where a float division
    keeps b = 2·a (49 * (1 / 49) is not 1 in floats), and on every record's
    integer moment rows, whose witness is the certificate's."""
    rows = [("a", [49, 1, 0]), ("b", [98, 2, 0]), ("c", [0, 7, 3]), ("d", [49, 8, 3]), ("e", [1, 0, 0])]
    as_fractions = [(label, [Fraction(x) for x in row]) for label, row in rows]
    assert oracles.independent_witness(rows, 3) == (True, ["a", "c", "e"])
    assert oracles.independent_witness(as_fractions, 3) == (True, ["a", "c", "e"])
    for r in records.values():
        for degree in (1, 2):
            thetas = r.theta.enumerate(4)
            ncols = len(verify._monomials(len(r.indep_gens), degree))
            if len(thetas) < ncols:
                continue
            moment_rows = verify._moment_rows(r, r.indep_gens, degree, thetas)
            expected = oracles.independence_certificate(r, r.indep_gens, 4, degree)
            assert oracles.independent_witness(moment_rows, ncols) == expected, (r.id, degree)


def test_independence_certificate_of_dependent_generators_matches_the_oracle(records):
    """A generator list with a planted dependence, a generator repeated or a
    symbol that a stored relation ties to the others, is not independent:
    the certificate gives the Fraction oracle's (False, witness)."""
    planted = [
        (rec(records, "vi"), ("C_Gt", "C_Gt")),
        # casimir: C_Gt - 4·C_G + 3·C_K = 0
        (rec(records, "vi"), ("C_Gt", "C_K", "C_G")),
        # fiber-casimir: C_G2 = C_K
        (rec(records, "v", 2), ("C_Gt", "C_K", "C_G2")),
        # casimir: 3·C_Gt1 + 3·C_Gt2 - 6·C_G + 4·C_K = 0
        (rec(records, "star"), ("C_Gt1", "C_Gt2", "C_K", "C_G")),
    ]
    for r, gens in planted:
        for degree in (1, 2):
            got = independence_certificate(r, gens, 5, degree)
            assert got[0] is False, (r.id, gens, degree)
            assert got == oracles.independence_certificate(r, gens, 5, degree), (r.id, gens)


def test_independence_certificate_of_iv_never_leaves_the_prime(monkeypatch, records):
    """On the iv family at degree 2 the rows reduced mod linalg.P reach full
    rank without skipping a row, so no exact IntEchelon is ever built."""
    built = []

    class Counted(linalg.IntEchelon):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(linalg, "IntEchelon", Counted)
    cases = [(rec(records, "iv", n), 5) for n in (1, 2, 3)]
    cases += [(r, 1) for r in catalog.build_records(6) if r.id.tag == "iv" and r.id.n >= 4]
    assert len(cases) == 6
    for r, bound in cases:
        assert independence_certificate(r, r.indep_gens, bound, 2)[0] is True, r.id
    assert built == []


def test_independence_degree_zero_trivial(records):
    ok, witness = independence_certificate(rec(records, "vi"), ("C_Gt",), 3, 0)
    assert ok and witness == []


def test_independence_insufficient_sample(records):
    with pytest.raises(InsufficientSampleError):
        independence_certificate(rec(records, "x"), ("C_Gt",), 1, 4)


def test_independence_witness_is_invertible_minor(records):
    r = rec(records, "vi")
    ok, witness = independence_certificate(r, ("C_Gt", "C_K"), 5, 2)
    assert ok
    monos = verify._monomials(2, 2)
    rows = []
    for theta in witness:
        values = [
            evaluate_generator(r, "C_Gt", theta),
            evaluate_generator(r, "C_K", theta),
        ]
        rows.append([oracles.monomial(values, m) for m in monos])
    assert oracles.fraction_rank(rows) == len(monos)


def test_ix_parity_gap(records):
    r = rec(records, "ix")
    assert check_ix_parity_gap(r, 6)
    assert check_ix_parity_gap(r, 8)
    # control: with the Euler operator adjoined the charge itself is linear
    assert verify.function_in_span(r, ("C_Gt", "C_G", "E_K"), lambda t: t[1], 6, 1)
    # control: the charge squared is expressible in the two Casimirs alone
    assert verify.function_in_span(r, ("C_Gt", "C_G"), lambda t: t[1] ** 2, 6, 1)


def test_ix_parity_gap_is_inconclusive_until_the_box_can_refute(capsys):
    # ix's longest theta[1] run at bound b is 2b + 1 points; refuting degree
    # 4 in quadratic Casimirs takes 10, so bounds 0..4 cannot decide
    from branchlab import cli

    ix = next(r for r in catalog.build_records(2) if r.id.tag == "ix")
    for bound in range(9):
        runs = verify._longest_run(ix.theta.walk(bound), 1)
        assert runs == 2 * bound + 1, bound
        entries = verify.run_case(ix, bound, 2)
        (entry,) = [e for e in entries if e["name"] == "dl-only-subalgebra-index-2"]
        if bound <= 4:
            assert entry["failed"] == 0 and "needs 10" in entry["inconclusive"], entry
        else:
            assert entry == {"name": "dl-only-subalgebra-index-2", "run": 1, "failed": 0}
        assert cli.main(["verify", "--cases", "ix", "--bound", str(bound)]) == 0, bound
        assert "index-2" in capsys.readouterr().out


def test_ix_parity_gap_fails_when_a_refuting_segment_fits(monkeypatch, records):
    # a span routine that claims the parity fits is refuted on bound 5's
    # 11-point line: FAIL, not inconclusive
    r = rec(records, "ix")
    monkeypatch.setattr(verify, "function_in_span", lambda *args: True)
    assert check_ix_parity_gap(r, 5) is False
    with pytest.raises(InsufficientSampleError):
        check_ix_parity_gap(r, 4)


def test_pi_side_consistency_all(records):
    for r in records.values():
        rep = verify.check_pi_side_consistency(r, 4)
        assert not rep.failures, (r.id, rep.failures[:2])


def _scaled_numerators(scale):
    """``reps.casimir_numerators`` with every Casimir times scale: numerators
    times its numerator over denominators times its denominator."""

    def scaled(group, w2):
        nums, dens = casimir_numerators(group, w2)
        return (
            tuple(n * scale.numerator for n in nums),
            tuple(d * scale.denominator for d in dens),
        )

    return scaled


@pytest.mark.parametrize("scale", [Fraction(4, 3), Fraction(1, 8), Fraction(3)])
def test_pi_side_compares_exact_values(records, monkeypatch, scale):
    # C_Gt of i[n=2] has denominator 4; a claimed Casimir c·scale is a failure
    # wherever c != 0, also when its denominator (3, 8) does not divide 4.
    # The claim is planted in the integer route pi-side reads: numerators
    # times scale's numerator over denominators times its denominator.
    r = rec(records, "i", 2)
    monkeypatch.setattr(verify, "casimir_numerators", _scaled_numerators(scale))
    rep = verify.check_pi_side_consistency(r, 3)
    thetas = r.theta.enumerate(3)
    assert rep.checks_run == len(thetas)
    expected = [
        ("pi-side:C_Gt", theta, got * scale, got)
        for theta in thetas
        for got in [evaluate_generator(r, "C_Gt", theta)]
        if got != 0
    ]
    assert expected and rep.failures == expected


@pytest.mark.parametrize("scale, max_n", [(Fraction(1), 6), (Fraction(4, 3), 3)])
def test_pi_side_targets_match_the_fraction_route(monkeypatch, scale, max_n):
    # at every pi(theta) of build_records(max_n) at bound 4, halved from the
    # doubled rows the theta kernel reads, the integer route's values N/D and
    # targets are the Fraction route's, from casimir_eigenvalue of the
    # record's own pi label (11,870 pi at max_n 6, 937 at 3); scaled by 4/3,
    # 611 targets are None
    monkeypatch.setattr(verify, "casimir_numerators", _scaled_numerators(scale))
    seen = nones = 0
    for r in catalog.build_records(max_n):
        symbols, _, pi_label = verify._pi_side_plan(r, verify._Stack(r))
        targets = verify._pi_side_targets(r, symbols, pi_label)
        image = nest.affine_kernel(tuple(verify._map_rows(r, "pi_of_theta")))
        for pi_params in sorted({tuple([v >> 1 for v in image(t)]) for t in r.theta.walk(4)}):
            value = casimir_eigenvalue(r.pi_label(pi_params))
            value = tuple(v * scale for v in value) if isinstance(value, tuple) else value * scale
            want = oracles.pi_side_targets(value, symbols)
            got = [(Fraction(n, d), target) for n, d, target in targets(pi_params)]
            assert got == want, (r.id, pi_params)
            seen += bool(symbols)
            nones += sum(target is None for _, target in want)
    assert seen > 900 and (nones > 600) == (scale != 1)


def test_clean_pi_side_and_cross_evaluation_build_no_fraction(records, monkeypatch):
    # a Fraction is built only for a failure entry
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(verify, "Fraction", no_fraction)
    monkeypatch.setattr(reps, "Fraction", no_fraction)
    for r in records.values():
        assert not verify.check_pi_side_consistency(r, 4).failures, r.id
    entries = {e["name"]: e for e in verify.run_case(rec(records, "star"), 6, 2)}
    assert entries["dgx-cross-evaluation"] == {"name": "dgx-cross-evaluation", "run": 1, "failed": 0}


def test_cross_evaluation_of_a_missing_symbol_raises_evaluate_generators_error(records):
    import dataclasses

    r = rec(records, "star")
    broken = dataclasses.replace(r, symbols={k: v for k, v in r.symbols.items() if k != "C_K"})
    with pytest.raises(KeyError) as raised:
        evaluate_generator(broken, "C_K", (0, 0, 0))
    entries = {e["name"]: e for e in verify.run_case(broken, 3, 2)}
    assert entries["dgx-cross-evaluation"]["first_failure"] == "error: KeyError: %s" % raised.value


def test_dimension_conservation_and_strong_mult_freeness(records):
    for r in records.values():
        rep = verify.check_dimension_conservation(r, 5)
        assert not rep.failures, (r.id, rep.failures[:2])
        rep = verify.check_strong_multiplicity_freeness(r, 5)
        assert not rep.failures, (r.id, rep.failures[:2])


def test_case_report_failure_shape(records):
    # tamper with a relation to confirm failures carry theta and both sides
    import dataclasses

    r = rec(records, "vi")
    broken = dataclasses.replace(
        r,
        relations=(catalog.Relation("broken", ((Fraction(1), "C_Gt"),)),),
    )
    report = check_relations(broken, 2)
    assert report.failures
    name, theta, expected, got = report.failures[0]
    assert name == "relation:broken" and expected == 0 and got != 0


def test_tampered_transfer_fails(records):
    # the canonical-form comparison must not be vacuous
    import dataclasses

    r = rec(records, "star")
    off = list(r.transfer_offset)
    off[0] += 1
    broken = dataclasses.replace(r, transfer_offset=tuple(off))
    report = check_transfer(broken, 3)
    assert report.failures
    # and the compiled integer route agrees with the slow exact route
    name, theta, expected, got = report.failures[0]
    smap = broken.transfer(broken.tau_params_of(theta))
    image = smap.apply(broken.lam_rhoa_map.apply(theta))
    assert oracles.canonical_char(broken, image) != oracles.canonical_char(
        broken, oracles.nu_plus_rho(broken, theta)
    )


def test_tampered_nu_label_breaks_relations(records):
    # the Casimir relation ties three separately stored maps together; a
    # transcription error in any one of them must surface
    import dataclasses

    r = rec(records, "vi")
    rows = [list(row) for row in r.nu_label_map.matrix]
    rows[1][1] += 1  # nu = (j/2, 3k/2, k/2, k/2) instead of (j/2, k/2, k/2, k/2)
    broken = dataclasses.replace(r, nu_label_map=_rebuilt(r.nu_label_map, matrix=rows))
    report = check_relations(broken, 4)
    assert report.failures
    report = check_transfer(broken, 4)
    assert report.failures


def test_tampered_branch_rule_detected(records):
    import dataclasses

    r = rec(records, "vi")
    # dropping the parity constraint makes the fibers produce invalid labels
    broken = dataclasses.replace(r, branch_rule=("tail_le",))
    report = verify.check_strong_multiplicity_freeness(broken, 4)
    assert report.failures
    assert any(name == "branch-valid" for name, *_ in report.failures)
    report = verify.check_dimension_conservation(broken, 4)
    assert report.failures


def test_frozen_casimir_tables_v_and_ii_even(records):
    r = rec(records, "v", 2)
    k, l = 4, 1
    n = 2
    assert evaluate_generator(r, "C_Gt", (k, l)) == (k + l) * (k + l + 4 * n + 2)
    assert evaluate_generator(r, "C_G1", (k, l)) == k * k + l * l + 2 * (k + l) * n + 2 * k
    assert evaluate_generator(r, "C_G2", (k, l)) == (k - l) * (k - l + 2)
    assert evaluate_generator(r, "C_K", (k, l)) == (k - l) * (k - l + 2)

    r = rec(records, "ii_even", 2)  # m = 1: X = SO(6)/U(3) ~ SO(5)/U(2)
    j, k = 3, 1
    assert evaluate_generator(r, "C_Gt", (j, k)) == 2 * (j * j + 3 * j)
    assert evaluate_generator(r, "C_G", (j, k)) == j * j + 3 * j + k * k + k
    assert evaluate_generator(r, "C_K", (j, k)) == 2 * (k * k + k)

    r = rec(records, "iv", 1)
    theta = (3, 1, 0)  # chain (j1, k1, j2), n = 1
    # C_Gtilde on U(4) label (3,3,0,0): 2*sum(j_i^2 + 2(n+2-2i) j_i)
    assert evaluate_generator(r, "C_Gt", theta) == 2 * (9 + 2 * 1 * 3 + 0)
    # C_K1 on U(2) label (1,1): 2*sum(k^2 + 2(n+1-2i) k)
    assert evaluate_generator(r, "C_K1", theta) == 2 * (1 + 0)
    # C_K2 on the U(1) charge a = sum(j) - sum(k) = 2
    assert evaluate_generator(r, "C_K2", theta) == 4


def test_canonical2_matches_weights_canonicalization(records):
    # the doubled-integer canonical form must agree with the exact route
    import random

    rng = random.Random(424242)
    for r in records.values():
        weyl = r.nu_group.weyl
        n = weyl.ncoords
        # mod-trace records scale by the coordinate count to stay integral;
        # the scaling is shared by both sides of the transfer comparison
        scale = n if r.mod_trace else 1
        for _ in range(25):
            values2 = [rng.randint(-19, 19) for _ in range(n)]
            got = weights._canonical_kernel(weyl, r.mod_trace)(values2)
            assert all(type(x) is int for x in got), (r.id, got)
            reference = oracles.canonical_char(
                r, tuple(Fraction(v, 2) for v in values2)
            )
            assert tuple(Fraction(x, 2) for x in got) == tuple(
                scale * x for x in reference
            ), (r.id, values2)


def test_frozen_casimir_table_ii_odd(records):
    # 2*h_m(j) with h_m(j) = sum j_i^2 + sum (4m-4i+1) j_i, at m=2
    r = rec(records, "ii_odd", 3)
    theta = (2, 1, 1)  # chain (j1, k1, j2)
    j1, k1, j2 = theta
    h2 = j1 * j1 + j2 * j2 + 5 * j1 + 1 * j2
    hp1 = k1 * k1 + 3 * k1
    assert evaluate_generator(r, "C_Gt", theta) == 2 * h2
    assert evaluate_generator(r, "C_G", theta) == h2 + hp1
    assert evaluate_generator(r, "C_K", theta) == 2 * hp1


def _source_dim(r, key):
    """The dimension of the space the map reads: pi_label_map reads the pi
    parameters, every other map and each Euler form theta."""
    return len((r.pi_space if key == "pi_label_map" else r.theta).names)


def _map_keys(r):
    # a and b exist where power sums read them
    keys = [k for k in verify._MAPS if k not in ("a", "b") or getattr(r, k + "_map")]
    return keys + [s.form for s in r.symbols.values() if s.kind == "euler"]


def test_every_map_is_half_integral():
    # the compiled route is the only route: every symbol compiles and every
    # map the checks read has a doubled-integer form, with no fallback behind
    for r in catalog.build_records(6):
        for name in r.symbols:
            fn, den = verify._int_eval(r, name)
            assert isinstance(den, int), (r.id, name)
        for key in _map_keys(r):
            rows = verify._map_rows(r, key)
            # b is empty in ii_odd[n=1]
            assert rows or key == "b", (r.id, key)
            n = _source_dim(r, key)
            assert all(i < n for coeffs, _ in rows for i, _ in coeffs), (r.id, key)


def test_each_symbol_has_one_evaluator_per_record():
    # evaluate_generator reads the (fn, den) _int_eval keeps in the record's
    # cache, an xyz_poly's as well as a compiled form's; a symbol the record
    # lacks raises and leaves no entry.
    star = next(r for r in catalog.build_records(1) if r.id.tag == "star")
    theta = star.theta.enumerate(2)[0]
    first = {name: verify._int_eval(star, name) for name in star.symbols}
    kinds = {star.symbols[name].kind for name in first}
    assert "xyz_poly" in kinds and len(kinds) > 1
    for name, (fn, den) in first.items():
        assert verify.evaluate_generator(star, name, theta) == Fraction(fn(theta), den)
        assert verify._int_eval(star, name) is first[name]
    assert verify._symbol_cache(star)["evals"] == first
    with pytest.raises(KeyError, match="no generator"):
        verify.evaluate_generator(star, "no such symbol", theta)
    assert verify._symbol_cache(star)["evals"] == first


def test_rows2_rejects_non_half_integral():
    for amap in (
        AffineMap.of([[Fraction(1, 3)]], [0], 1),
        AffineMap.of([[Fraction(1, 4)]], [0], 1),
        AffineMap.of([[1]], [Fraction(1, 4)], 1),
    ):
        with pytest.raises(ValueError, match="affine map is not half-integral"):
            oracles._rows2(amap)
    assert oracles._rows2(AffineMap.of([[Fraction(1, 2)]], [Fraction(3, 2)], 1)) == [
        (((0, 1),), 3)
    ]
    assert oracles._rows2(AffineMap.of([[0, -2]], [-1], 2)) == [(((1, -4),), -2)]


def test_doubled_rows_match_fraction_composition():
    # the integer route against the Fraction composition it replaced, on
    # every map key and every Euler form of all 80 records
    seen = 0
    for r in catalog.build_records(10):
        maps = oracles.fraction_maps(r)
        maps.update((s.form, s.form) for s in r.symbols.values() if s.kind == "euler")
        assert set(maps) == set(_map_keys(r)), r.id
        for key, amap in maps.items():
            assert verify._map_rows(r, key) == oracles._rows2(amap), (r.id, key)
            seen += 1
    assert seen > 600


def test_map_rows_do_no_fraction_arithmetic(monkeypatch):
    # the rows are the stored integer rows, and the transfer fields' are read
    # from each entry's numerator and denominator: with Fraction's arithmetic
    # made to raise, every key of fresh records builds
    records = catalog.build_records(3)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the map build")

    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__neg__"):
        monkeypatch.setattr(Fraction, op, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    built = 0
    for r in records:
        for key in _map_keys(r):
            verify._map_rows(r, key)
            built += 1
    assert built > 200


def test_transfer_accepts_quarter_integral_parts(records):
    # the two parts of the transfer image, (transfer_matrix, transfer_offset)
    # ∘ lam_rhoa_map and transfer_tau ∘ tau_of_theta, are composed and added
    # before the one halving: a quarter added to the first column of each
    # makes both parts quarter-integral, and their sum stays half-integral
    import dataclasses

    r = rec(records, "v", 2)
    quarter = Fraction(1, 4)

    def bumped(matrix):
        rows = [list(row) for row in matrix]
        rows[0][0] += quarter
        return tuple(map(tuple, rows))

    r = dataclasses.replace(
        r, transfer_matrix=bumped(r.transfer_matrix), transfer_tau=bumped(r.transfer_tau)
    )
    lam = oracles._compose_affine(r.transfer_matrix, r.transfer_offset, r.lam_rhoa_map)
    tau = oracles._compose_affine(r.transfer_tau, (0,) * len(r.transfer_offset), r.tau_of_theta)
    for part in (lam, tau):
        assert any(x.denominator == 4 for x in part.matrix[0] + part.offset[:1]), part
    rows = verify._map_rows(r, "transfer")
    assert rows == oracles._rows2(oracles._transfer_image_map(r))
    assert rows != verify._map_rows(rec(records, "v", 2), "transfer")


def test_quarter_integral_composite_is_an_error_entry(records):
    # a quarter in pi_label_map makes the composite theta ↦ pi label
    # quarter-integral: each check that reads it reports a ValueError that
    # names the case and the map, the checks that read the pi label map
    # itself report that map's own error, and the rest still run clean
    import dataclasses

    r = rec(records, "vi")
    rows = [list(row) for row in r.pi_label_map.matrix]
    rows[0][0] += Fraction(1, 4)
    bad = dataclasses.replace(r, pi_label_map=_rebuilt(r.pi_label_map, matrix=rows))
    entries = {e["name"]: e for e in verify.run_case(bad, 3, 2)}
    composite = "error: ValueError: case vi: map pi is not half-integral"
    for name in ("relations", "independence", "pi-side-consistency"):
        assert entries[name]["first_failure"] == composite, entries[name]
    dimension = entries["dimension-conservation"]["first_failure"]
    assert dimension == "error: ValueError: case vi: map pi_label_map is not half-integral"
    assert not any("Traceback" in e.get("first_failure", "") for e in entries.values())
    clean = {name for name, e in entries.items() if not e["failed"]}
    assert clean == {
        "transfer",
        "rank-identity",
        "degree-counts",
        "strong-multiplicity-freeness",
        "generator-degrees",
    }
    assert all(entries[name]["run"] > 1 for name in ("transfer", "strong-multiplicity-freeness"))


def test_stored_map_error_names_the_case_and_the_map(records):
    # a quarter in a stored map, nu_label_map or an Euler form, is an error
    # entry that names the case and the map, as a composite's is, and not
    # the map's repr
    import dataclasses

    r = rec(records, "vi")
    rows = [list(row) for row in r.nu_label_map.matrix]
    rows[0][0] += Fraction(1, 4)
    bad = dataclasses.replace(r, nu_label_map=_rebuilt(r.nu_label_map, matrix=rows))
    entries = {e["name"]: e for e in verify.run_case(bad, 3, 2)}
    message = "error: ValueError: case vi: map nu is not half-integral"
    for name in ("relations", "transfer", "dimension-conservation"):
        assert entries[name]["first_failure"] == message, entries[name]
    assert not any("AffineMap(" in e.get("first_failure", "") for e in entries.values())
    ix = rec(records, "ix")
    name, spec = next((n, s) for n, s in sorted(ix.symbols.items()) if s.kind == "euler")
    form = _rebuilt(spec.form, offset=(spec.form.offset[0] + Fraction(1, 4),))
    bad = dataclasses.replace(
        ix, symbols={**ix.symbols, name: dataclasses.replace(spec, form=form)}
    )
    with pytest.raises(ValueError) as raised:
        evaluate_generator(bad, name, ix.theta.enumerate(1)[0])
    assert str(raised.value) == "case ix: map Euler form of %s is not half-integral" % name


def test_run_case_small_box_is_inconclusive(records):
    entries = verify.run_case(rec(records, "vi"), 2, 2)
    independence = next(e for e in entries if e["name"] == "independence")
    assert independence["run"] == independence["failed"] == 0
    assert "cannot certify" in independence["inconclusive"]
    assert all(e["failed"] == 0 for e in entries)
    # the key appears only on inconclusive entries
    assert sum("inconclusive" in e for e in entries) == 1


def test_run_case_check_error_is_that_checks_failure(records):
    # a non-dominant pi label makes check_pi_side_consistency raise; the
    # other checks still run, and those that read the map fail cleanly
    import dataclasses

    r = rec(records, "i", 1)
    offset = list(r.pi_label_map.offset)
    offset[1] += 1
    broken = dataclasses.replace(r, pi_label_map=_rebuilt(r.pi_label_map, offset=offset))
    entries = verify.run_case(broken, 4, 2)
    assert [e["name"] for e in entries] == [e["name"] for e in verify.run_case(r, 4, 2)]
    errored = [e for e in entries if e.get("first_failure", "").startswith("error: ")]
    assert [e["name"] for e in errored] == ["pi-side-consistency"]
    assert errored[0]["first_failure"].startswith("error: ValueError: ")
    assert errored[0]["run"] == errored[0]["failed"] == 1
    assert {e["name"] for e in entries if e["failed"]} == {
        "relations",
        "dimension-conservation",
        "pi-side-consistency",
    }


def test_run_case_memory_does_not_grow_with_the_box(records):
    # nothing is kept per theta: after a warm-up call has compiled what is
    # cached per record, the traced peak of a 6,435-theta case stays under
    # 1 MB (about 0.16 MB; a map from theta to pi(theta) takes 1.5 MB, and
    # memoising the walk's sums per prefix of theta 1.2 MB)
    import tracemalloc

    r = rec(records, "iv", 3)
    assert len(r.theta.enumerate(4)) == 6435
    verify.run_case(r, 4, 2)
    tracemalloc.start()
    try:
        entries = verify.run_case(r, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(e["failed"] == 0 for e in entries)
    assert peak < 1 << 20, peak


def test_run_case_never_raises_on_small_boxes():
    # on a correct catalog no check raises and none fails, whatever the
    # bound: a box too small for a certificate is inconclusive
    for bound in range(9):
        for r in catalog.build_records(2):
            for e in verify.run_case(r, bound, 2):
                assert not e.get("first_failure", "").startswith("error: "), (bound, r.id, e)
                assert e["failed"] == 0, (bound, r.id, e)


def test_rank_deficient_box_with_a_full_rank_jacobian_is_inconclusive(records):
    # iii[n=1] at bound 3: the box's moment matrix is rank-deficient, but
    # the Jacobian of the generators' compiled forms has full rank at the
    # point seeded by the case id, so the generators are independent and the
    # box was too small
    r = rec(records, "iii", 1)
    assert verify.independence_certificate(r, r.indep_gens, 3, 2)[0] is False
    with pytest.raises(InsufficientSampleError) as raised:
        verify.check_independence(r, 3, 2)
    reason = str(raised.value)
    assert reason.startswith("box too small: ") and "has full rank" in reason
    point = tuple(int(x) for x in reason.split("theta = (")[1].split(")")[0].split(", "))
    assert len(point) == len(r.theta.names) and all(3 <= x <= 10**6 for x in point)
    entry = next(e for e in verify.run_case(r, 3, 2) if e["name"] == "independence")
    assert entry == {"name": "independence", "run": 0, "failed": 0, "inconclusive": reason}
    assert verify.check_independence(r, 8, 2) is True


def test_dependent_or_uncompiled_generators_keep_the_fail(records):
    # the Jacobian decides only for generators it can read: a generator
    # listed twice has a rank-deficient Jacobian, and an xyz_poly has no
    # compiled form, so the box's FAIL stands in both
    import dataclasses

    r = rec(records, "iii", 1)
    twice = dataclasses.replace(r, indep_gens=(r.indep_gens[0],) * 2)
    star = rec(records, "star")
    uncompiled = dataclasses.replace(star, indep_gens=("R_1", "R_1"))
    with pytest.raises(ValueError, match="no compiled form"):
        verify._compiled(star, "R_1")
    for bad, bound in ((twice, 3), (uncompiled, 2)):
        assert verify.check_independence(bad, bound, 2) is False
        entry = next(e for e in verify.run_case(bad, bound, 2) if e["name"] == "independence")
        assert entry["failed"] == 1
        assert entry["first_failure"] == "moment matrix is rank-deficient"


def _outcome(check):
    """(checks_run, failures) of a box check, or the exception that stopped it."""
    try:
        report = check()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return report.checks_run, report.failures


def _tampered_records():
    import dataclasses

    by_id = {str(r.id): r for r in catalog.build_records(2)}
    vi, star, i1, iv2 = by_id["vi"], by_id["star"], by_id["i[n=1]"], by_id["iv[n=2]"]
    vii, viii = by_id["vii"], by_id["viii"]
    rows = [list(row) for row in vi.nu_label_map.matrix]
    rows[1][1] += 1
    offset = list(star.transfer_offset)
    offset[0] += 1
    pi_offset = list(i1.pi_label_map.offset)
    pi_offset[1] += 1
    rel = iv2.relations[0]
    terms = ((rel.terms[0][0] + 1, rel.terms[0][1]),) + rel.terms[1:]
    pi_of_theta = vi.pi_of_theta
    zeroed = [[0 if j == 1 else x for j, x in enumerate(row)] for row in vii.nu_label_map.matrix]
    return [
        dataclasses.replace(vi, branch_rule=("tail_le",)),
        dataclasses.replace(vi, nu_label_map=_rebuilt(vi.nu_label_map, matrix=rows)),
        dataclasses.replace(star, transfer_offset=tuple(offset)),
        dataclasses.replace(i1, pi_label_map=_rebuilt(i1.pi_label_map, offset=pi_offset)),
        dataclasses.replace(
            iv2, relations=(dataclasses.replace(rel, terms=terms),) + iv2.relations[1:]
        ),
        # fibers of two coordinates in a three-coordinate theta space: the nu
        # label raises IndexError inside dimension conservation
        dataclasses.replace(viii, branch_rule=("tail_le",)),
        # aimed at strong multiplicity-freeness: pi(theta) one too high, a
        # branch rule that drops every other theta, and a nu label that
        # forgets k
        dataclasses.replace(
            vi,
            pi_of_theta=_rebuilt(
                pi_of_theta, offset=(pi_of_theta.offset[0] + 1,) + pi_of_theta.offset[1:]
            ),
        ),
        dataclasses.replace(vii, branch_rule=("parity_tail",)),
        dataclasses.replace(vii, nu_label_map=_rebuilt(vii.nu_label_map, matrix=zeroed)),
        # fibers of three coordinates in a two-coordinate theta space: the nu
        # label reads their prefix, and no fiber is a valid theta
        dataclasses.replace(vii, branch_rule=("tail_le_charge",)),
    ]


def test_box_pass_matches_separate_loops():
    # the one pass run_case calls against the five per-check loops it
    # replaced (tests/oracles.py), failure order included, on the max_n=2
    # catalog and on tampered records that fail or stop each check, and at
    # bound 1 on every record the catalog builds: iv[n=10] has 21 theta
    # coordinates, past the nesting CPython compiles in one function
    loops = {
        "relations": oracles.check_relations,
        "transfer": oracles.check_transfer,
        "dimension-conservation": oracles.check_dimension_conservation,
        "strong-multiplicity-freeness": oracles.check_strong_multiplicity_freeness,
        "pi-side-consistency": oracles.check_pi_side_consistency,
    }
    assert tuple(loops) == verify.BOX_CHECKS
    tampered = _tampered_records()
    every = catalog.build_records(10)
    assert max(len(r.theta.names) for r in every) == 21 > nest.CHUNK
    cases = [(r, bound) for r in catalog.build_records(2) + tampered for bound in range(5)]
    # a pi of the box with a valid fiber theta outside it (star's a reaches
    # j + j'), so SMF's per-theta box test behind the fiber list's runs
    assert any(
        max(map(abs, theta)) > bound and r.theta.contains(theta)
        for r, bound in cases
        for pi in r.pi_space.enumerate(bound)
        for theta in fibers._branch_fibers(r.branch_rule, pi)
    )
    seen_failure = seen_error = 0
    for r, bound in cases + [(r, 1) for r in every]:
        box = verify._box_pass(r, bound)
        for name, loop in loops.items():
            expected = _outcome(lambda: loop(r, bound))
            assert _outcome(lambda: verify._report(box[name])) == expected, (r.id, bound, name)
            if r in tampered:
                seen_error += expected[0] == "error"
                seen_failure += expected[0] != "error" and bool(expected[1])
    assert seen_failure and seen_error


def test_chunked_kernel_visits_the_walk_in_order():
    # a 25-coordinate chain x0 >= x1 >= ... >= x24 with a congruence, whose
    # one relation, on an Euler form with a term on every coordinate, fails
    # at every point: the failures are the walk's points, in its order, with
    # the relation's value at each, although the kernel is a chain of
    # functions whose sums and leaf test cross the split
    import dataclasses

    from branchlab.catalog import Constraint, ParamSpace, Relation, SymbolSpec

    n = 25
    assert n > 20 > nest.CHUNK
    chain = tuple(
        Constraint(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n)))
        for i in range(n - 1)
    )
    parity = Constraint((1,) + (0,) * (n - 2) + (1,), 0, 2)
    space = ParamSpace(tuple("x%d" % i for i in range(n)), ("int",) * n, chain + (parity,))
    form = AffineMap.of([[i % 3 - 1 or 2 for i in range(n)]], [Fraction(1, 2)], n)
    synthetic = dataclasses.replace(
        next(r for r in catalog.build_records(1) if str(r.id) == "vi"),
        id=catalog.CaseId("iv", n),
        theta=space,
        symbols={"e": SymbolSpec("euler", form=form)},
        relations=(Relation("tampered", ((Fraction(1), "e"),)),),
    )
    stack = verify._Stack(synthetic)
    sums = verify._walk_sums(verify._compile_relations(synthetic), stack)
    for bound in (1, 2):
        walked = []
        for p in space.walk(bound):
            image = oracles._apply2(stack.rows, p)
            (total,) = map(sum, zip(*[memo[image[r]] for r, memo in sums]))
            assert total == 2 * evaluate_generator(synthetic, "e", p), p
            walked.append(("relation:tampered", p, 0, total))
        report = verify.check_relations(synthetic, bound)
        assert report.checks_run == len(walked) > 100
        assert report.failures == walked


def test_tampered_reports_are_pinned():
    # the relation totals among these failures are scaled by the compiled
    # denominators, which the loops above read too; the digest sees them
    out = catalog.to_json([[str(r.id), verify.run_case(r, 4, 2)] for r in _tampered_records()])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e0da391d8bef49081b273572a3df7f783e1c60518615324406367a6b5e16e73f"
    )


def test_each_symbol_and_map_is_compiled_once_per_record(monkeypatch):
    # over two run_case calls per record and evaluate_generator on every
    # symbol, each (record, symbol) goes through _separable at most once and
    # each (record, map) is converted at most once: a key of _MAPS by its
    # builder, an Euler form by _stored_rows outside any builder.  The box
    # pass, the independence certificate and the point evaluator share one
    # compile
    compiles, conversions = collections.Counter(), collections.Counter()
    separable, stored = verify._separable, verify._stored_rows
    current = None
    building = []

    def counted_separable(record, name):
        compiles[record.id, name] += 1
        return separable(record, name)

    def counted_stored(record, key, amap):
        if not building:
            conversions[current, key] += 1
        return stored(record, key, amap)

    def counted_builder(key, build):
        def counted(record):
            conversions[current, key] += 1
            building.append(key)
            try:
                return build(record)
            finally:
                building.pop()

        return counted

    monkeypatch.setattr(verify, "_separable", counted_separable)
    monkeypatch.setattr(verify, "_stored_rows", counted_stored)
    for key, build in list(verify._MAPS.items()):
        monkeypatch.setitem(verify._MAPS, key, counted_builder(key, build))
    for r in catalog.build_records(3):
        current = r.id
        for _ in range(2):
            verify.run_case(r, 4, 2)
        theta = r.theta.enumerate(0)[0]
        for name in r.symbols:
            evaluate_generator(r, name, theta)
    assert len(compiles) > 100 and max(compiles.values()) == 1, compiles.most_common(3)
    assert len(conversions) > 100 and max(conversions.values()) == 1, conversions.most_common(3)
    # every composite went through its builder
    assert all((r, "transfer") in conversions for r, _ in compiles)


def test_affine_kernel_matches_apply2_on_every_stacked_map():
    # the compiled image of each map the box pass stacks against the row
    # loop it replaced, on random integer points given as tuples and as
    # lists, and the same IndexError on a point one coordinate short
    rng = random.Random(31)
    seen = 0
    for r in catalog.build_records(3):
        for key in _map_keys(r):
            rows = verify._map_rows(r, key)
            kernel = nest.affine_kernel(tuple(rows))
            n = _source_dim(r, key)
            for _ in range(12):
                p = tuple(rng.randint(-9, 9) for _ in range(n))
                assert kernel(p) == kernel(list(p)) == tuple(oracles._apply2(rows, p)), (r.id, key, p)
                seen += 1
            short = (0,) * (n - 1) if n else ()
            assert _raised(lambda: kernel(short)) == _raised(lambda: tuple(oracles._apply2(rows, short)))
    assert seen > 1000


def _raised(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def test_second_run_case_builds_no_kernel():
    # each kernel is compiled once per Weyl type, row tuple or source and
    # kept for the process: a second run_case over the same records
    # compiles none
    builders = (
        weights._dimension_kernel,
        weights._canonical_kernel,
        nest.affine_kernel,
        catalog._membership_kernel,
        nest.kernel,
    )
    # a clean record builds no dimension kernel; vi with vii's branch rule
    # takes the slow path, which builds one
    records = catalog.build_records(3) + [_tampered_records()[0]]
    for r in records:
        verify.run_case(r, 3, 2)
    before = [b.cache_info() for b in builders]
    for r in records:
        verify.run_case(r, 3, 2)
    after = [b.cache_info() for b in builders]
    assert [i.misses for i in after] == [i.misses for i in before]
    assert all(i.currsize for i in after)
    assert all(a.hits > b.hits for a, b in zip(after[:3], before[:3]))


def test_theta_kernel_is_filed_under_its_case(monkeypatch):
    # a profile lists each case's kernels on their own: every function of
    # the chains that iv[n=10]'s box pass runs, its theta kernel's and its
    # pi kernel's, is compiled under its case's name
    kernels = []
    build = nest.kernel

    def kept(source, name, names=()):
        fn = build(source, name, names)
        if name.startswith(("theta kernel", "pi kernel")):
            kernels.append(fn)
        return fn

    monkeypatch.setattr(nest, "kernel", kept)
    r = next(r for r in catalog.build_records(10) if str(r.id) == "iv[n=10]")
    verify._box_pass(r, 1)
    chains = []
    for fn in kernels:
        files = []
        while fn is not None:  # each function holds the next as its last default
            files.append(fn.__code__.co_filename)
            fn = fn.__defaults__[-1] if fn.__defaults__ else None
        chains.append(files)
    assert sorted(chains) == [["<pi kernel iv[n=10]>"] * 2, ["<theta kernel iv[n=10]>"] * 2]


def test_profile_keeps_every_generated_kernel_apart():
    # pstats files a profile's entries by (file, line, name) and keeps one
    # per label, so two generated code objects under one label would hide
    # each other's cost: every kernel that run_case runs, on every record of
    # build_records(2) and on iv[n=3], has a label of its own, and none is
    # an anonymous <string> or <lambda>.  vi with vii's branch rule stands
    # in for vi, since a record and its tampered copy file their kernels
    # under one case's labels: its fiber theta take the slow path, which
    # runs the dimension kernel
    slow = _tampered_records()[0]
    records = [r for r in catalog.build_records(2) if r.id != slow.id] + [slow]
    records.append(next(r for r in catalog.build_records(3) if str(r.id) == "iv[n=3]"))
    profile = cProfile.Profile()
    profile.enable()
    try:
        for r in records:
            verify.run_case(r, 2, 2)
    finally:
        profile.disable()
    codes = [e.code for e in profile.getstats() if not isinstance(e.code, str)]
    kernels = [c for c in codes if " kernel " in c.co_filename]
    labels = collections.Counter((c.co_filename, c.co_firstlineno, c.co_name) for c in kernels)
    assert labels.most_common(1)[0][1] == 1, labels.most_common(3)
    assert not [c for c in codes if (c.co_filename, c.co_name) == ("<string>", "<lambda>")]
    kinds = {file.split(" kernel ")[0] for file, _, _ in labels}
    assert kinds == {"<theta", "<pi", "<affine", "<membership", "<dimension", "<dominance", "<canonical"}, kinds


def test_smf_count_fails_wherever_the_maps_fail():
    # the streamed check against the route with a map per theta: equal on
    # the catalog, and a failure wherever the reference fails
    clean = catalog.build_records(2)
    tampered = _tampered_records()
    for r in clean:
        for bound in range(5):
            got = _outcome(lambda: verify.check_strong_multiplicity_freeness(r, bound))
            ref = _outcome(
                lambda: oracles.check_strong_multiplicity_freeness_by_maps(r, bound)
            )
            assert got == ref and got[1] == [], (r.id, bound)
    caught = set()
    for i, r in enumerate(tampered):
        for bound in range(5):
            got = _outcome(lambda: verify.check_strong_multiplicity_freeness(r, bound))
            ref = _outcome(
                lambda: oracles.check_strong_multiplicity_freeness_by_maps(r, bound)
            )
            if ref[0] == "error" or ref[1]:
                assert got[0] == "error" or got[1], (r.id, bound, ref)
                caught.add(i)
            if got[0] != "error":
                caught.update((i, name) for name, *_ in got[1])
    # the three records aimed at this check fail it, each by its own item
    assert {(6, "recovers-pi"), (7, "exhausts"), (8, "nu-injective")} <= caught
    assert {6, 7, 8} <= caught


def _use_fibers(monkeypatch, description):
    """Make ``description`` the fiber description of every branch rule, for
    the pi kernel and for the SMF search alike."""
    monkeypatch.setattr(verify, "fiber_polytope", lambda rule, npi: description)
    monkeypatch.setattr(fibers, "fiber_polytope", lambda rule, npi: description)


def _smf_against_reference(record, bound, description):
    """(report, reference report) of strong multiplicity-freeness with the
    fiber description in use: the reference walks the same fibers."""
    report = verify.check_strong_multiplicity_freeness(record, bound)
    reference = oracles.check_strong_multiplicity_freeness(
        record, bound, fibers_of=lambda pi: list(description.walk(pi))
    )
    return (report.checks_run, report.failures), (reference.checks_run, reference.failures)


def test_smf_repeated_fiber_is_not_counted_twice(monkeypatch):
    # a theta row that drops k lists (j, 0) j + 1 times and drops every
    # other theta, which leaves the counts equal if a repeat is counted; the
    # repeats must fail, and the dropped theta then show in the count
    import dataclasses

    vii = next(r for r in catalog.build_records(2) if str(r.id) == "vii")
    real = fibers.fiber_polytope(vii.branch_rule, 1)
    repeats = dataclasses.replace(real, theta=real.theta[:1] + (((), 0),))
    _use_fibers(monkeypatch, repeats)
    got, expected = _smf_against_reference(vii, 3, repeats)
    assert got == expected
    assert {name for name, *_ in got[1]} == {"disjoint", "exhausts"}


def test_smf_counts_only_fiber_theta_in_the_box(monkeypatch):
    # star's fibers leave the box (a reaches j + j'): were those counted, a
    # limit that drops one theta of the box, a + j + j' >= 1, would still
    # fill the count
    import dataclasses

    from branchlab.catalog import Constraint

    star = next(r for r in catalog.build_records(2) if str(r.id) == "star")
    real = fibers.fiber_polytope(star.branch_rule, 2)
    cut = real.space.constraints + (Constraint((1, 1, 1), -1),)
    drops = dataclasses.replace(real, space=dataclasses.replace(real.space, constraints=cut))
    _use_fibers(monkeypatch, drops)
    got, expected = _smf_against_reference(star, 2, drops)
    assert got == expected
    assert got[1] == [("exhausts", (0, 0, 0), True, False)]


def _pi_walk_cases():
    """(clean, tampered): the records of build_records(3), and (record,
    fiber description or None for the rule's own) pairs that fail the pi
    walk's tests: +1 bumps of nu_label_map, pi_of_theta and pi_label_map, a
    nu that is not dominant, a theta row that repeats theta, a limit that
    drops a theta of the box, and a pi label that is not dominant, so that
    pi's folded dimension fails its test (the last pair)."""
    import dataclasses

    records = catalog.build_records(3)
    by_id = {str(r.id): r for r in records}
    vi, vii, star, i1, iv2 = (by_id[k] for k in ("vi", "vii", "star", "i[n=1]", "iv[n=2]"))

    def bumped(amap, rows=None):
        if rows is None:
            return _rebuilt(amap, offset=(amap.offset[0] + 1,) + amap.offset[1:])
        return _rebuilt(amap, matrix=rows)

    nu = [list(row) for row in iv2.nu_label_map.matrix]
    nu[0][0] += 1
    flipped = [[-x for x in row] if i == 0 else list(row) for i, row in enumerate(vi.nu_label_map.matrix)]
    negated = [[-x for x in row] for row in i1.pi_label_map.matrix]
    repeats = fibers.fiber_polytope(vii.branch_rule, 1)
    repeats = dataclasses.replace(repeats, theta=repeats.theta[:1] + (((), 0),))
    drops = fibers.fiber_polytope(star.branch_rule, 2)
    cut = drops.space.constraints + (catalog.Constraint((1, 1, 1), -1),)
    drops = dataclasses.replace(drops, space=dataclasses.replace(drops.space, constraints=cut))
    return records, [
        (dataclasses.replace(iv2, nu_label_map=bumped(iv2.nu_label_map, nu)), None),
        (dataclasses.replace(vii, pi_of_theta=bumped(vii.pi_of_theta)), None),
        (dataclasses.replace(i1, pi_label_map=bumped(i1.pi_label_map)), None),
        (dataclasses.replace(vi, nu_label_map=bumped(vi.nu_label_map, flipped)), None),
        (vii, repeats),
        (star, drops),
        (dataclasses.replace(i1, pi_label_map=bumped(i1.pi_label_map, negated)), None),
    ]


def test_pi_kernel_matches_the_reference_walk(monkeypatch):
    # the compiled pi kernel against the interpreted pi walk it replaced
    # (tests/oracles.py), dimension and SMF alone and together: the runs,
    # the failure lists in order and the covered count, on every record of
    # build_records(3) at bounds 0..6 and on records that fail each test,
    # among them a pi label whose folded dimension fails, which the slow
    # path turns into the computable entries of the weights kernel
    clean, tampered = _pi_walk_cases()
    kinds = set()
    pi_computable = []
    for r, description, is_clean in [(r, None, True) for r in clean] + [
        (r, description, False) for r, description in tampered
    ]:
        fibers_of = None
        with monkeypatch.context() as patch:
            if description is not None:
                patch.setattr(verify, "fiber_polytope", lambda rule, npi: description)
                fibers_of = lambda pi: list(description.walk(pi))  # noqa: E731
            for bound in range(7):
                for dim, smf in ((True, True), (True, False), (False, True)):
                    got = _outcome_of(lambda: verify._pi_walk(r, bound, dim, smf))
                    expected = _outcome_of(
                        lambda: oracles.pi_walk(r, bound, dim, smf, fibers_of)
                    )
                    assert got == expected, (r.id, bound, dim, smf)
                    if is_clean:
                        assert got[1] == got[3] == [], (r.id, bound)
                    else:
                        kinds.update(e[2] if e[2] == "computable" else e[0] for e in got[1] + got[3])
                    if r is tampered[-1][0] and dim:
                        pi_computable += [e for e in got[1] if e[2] == "computable"]
    assert {"dimension", "computable", "recovers-pi", "disjoint"} <= kinds, kinds
    # i[n=1]'s pi label (-j, 0) is dominant for D(2) at j = 0 only
    assert pi_computable and all("not dominant for D" in e[3] and e[1] != (0,) for e in pi_computable)


def _outcome_of(fn):
    """fn()'s value, or ("error", type name, message) of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


def test_smf_search_never_walks_the_catalogs_theta_box(monkeypatch, records):
    # every covered theta is counted, so on the catalog covered reaches
    # expected and the search for a missing theta never walks the theta box;
    # a count that drops a theta (star's fibers leave the box) would run the
    # search on every pass and report nothing
    walked = []
    real = catalog.ParamSpace.walk

    def counting(space, bound):
        walked.append(space)
        return real(space, bound)

    monkeypatch.setattr(catalog.ParamSpace, "walk", counting)
    for r in records.values():
        for bound in range(6 if r.id.tag == "iv" else 9):
            walked.clear()
            got = verify._box_pass(r, bound, ("strong-multiplicity-freeness",))
            assert got["strong-multiplicity-freeness"].failures == [], (r.id, bound)
            assert not any(space is r.theta for space in walked), (r.id, bound)
    # the pi kernel walks the pi box itself; a fiber description that drops
    # a theta of the box shows that the search's walk is seen
    import dataclasses

    star = rec(records, "star")
    real = fibers.fiber_polytope(star.branch_rule, 2)
    cut = real.space.constraints + (catalog.Constraint((1, 1, 1), -1),)
    _use_fibers(
        monkeypatch,
        dataclasses.replace(real, space=dataclasses.replace(real.space, constraints=cut)),
    )
    walked.clear()
    verify._box_pass(star, 2, ("strong-multiplicity-freeness",))
    assert any(space is star.theta for space in walked)


def test_negative_bound_is_a_value_error(records):
    # alone and together, each box check gets the walk's error, not a report
    for r in (rec(records, "vi"), rec(records, "star"), rec(records, "iv", 2)):
        for names in [(name,) for name in verify.BOX_CHECKS] + [verify.BOX_CHECKS]:
            got = verify._box_pass(r, -1, names)
            assert list(got) == list(names)
            for name, result in got.items():
                assert type(result) is ValueError, (r.id, name, result)
                assert str(result) == "bound must be >= 0"


def test_box_check_error_stops_only_that_check(monkeypatch):
    # each transfer kernel raises at its own k-th call, in the pass and when
    # transfer runs alone: transfer alone gets the error entry, and every
    # other box check runs the whole box.  (The relation totals are carried
    # by the walk, so relations has no per-theta code of its own left to
    # fail.)  i_prime's transfer image differs from its nu+rho, so its
    # kernel calls the canonical forms at every theta.
    import dataclasses
    import itertools

    clean = next(r for r in catalog.build_records(2) if str(r.id) == "i_prime[n=2]")
    k = 7
    expected = verify.run_case(clean, 4, 2)
    real = weights._canonical_kernel

    def fails_once(weyl, mod_trace):
        canonical = real(weyl, mod_trace)
        calls = itertools.count(1)

        def kernel(values2):
            if next(calls) == k:
                raise RuntimeError("planted at call %d" % k)
            return canonical(values2)

        return kernel

    monkeypatch.setattr(weights, "_canonical_kernel", fails_once)
    entries = verify.run_case(dataclasses.replace(clean), 4, 2)
    assert entries[1] == {
        "name": "transfer",
        "run": 1,
        "failed": 1,
        "first_failure": "error: RuntimeError: planted at call 7",
    }
    assert entries[:1] + entries[2:] == expected[:1] + expected[2:]
    box = {e["name"]: e for e in entries}
    for other in verify.BOX_CHECKS:
        if other != "transfer":
            assert box[other]["run"] > 0 and box[other]["failed"] == 0, box[other]


def _box_entries(entries):
    """The entries of a run_case report that the box pass gives, by name."""
    return {e["name"]: e for e in entries if e["name"] in verify.BOX_CHECKS}


def test_error_raised_only_by_checks_together_goes_to_every_box_check(monkeypatch):
    # the walk's sums fail only when they carry relation totals and P-side
    # numerators at once: each check runs clean alone, so none can be told
    # apart from the fault, and every box check gets the pass's error
    clean = next(r for r in catalog.build_records(2) if str(r.id) == "i[n=2]")
    expected = verify.run_case(clean, 4, 2)
    relation_names = {rel.name for rel in clean.relations}
    p_side = {n for n, s in clean.symbols.items() if s.kind == "casimir" and s.label == "pi"}
    assert relation_names and p_side and not relation_names & p_side
    real = verify._walk_sums

    def fails_together(slots, stack):
        carried = {name for name, _ in slots}
        if carried & relation_names and carried & p_side:
            raise RuntimeError("relation and P-side sums together")
        return real(slots, stack)

    monkeypatch.setattr(verify, "_walk_sums", fails_together)
    entries = verify.run_case(clean, 4, 2)
    assert [e["name"] for e in entries] == [e["name"] for e in expected]
    error = {
        "run": 1,
        "failed": 1,
        "first_failure": "error: RuntimeError: relation and P-side sums together",
    }
    assert _box_entries(entries) == {
        name: {"name": name, **error} for name in verify.BOX_CHECKS
    }
    others = [e for e in entries if e["name"] not in verify.BOX_CHECKS]
    assert others == [e for e in expected if e["name"] not in verify.BOX_CHECKS]


def test_fault_that_fires_once_reaches_every_box_check(monkeypatch):
    # the first branching of the process raises, and the checks re-run alone
    # raise nothing: no box check may come back with a clean report
    clean = next(r for r in catalog.build_records(2) if str(r.id) == "vi")
    real = verify.fiber_polytope
    fired = []

    def fails_once(rule, npi):
        if not fired:
            fired.append(rule)
            raise RuntimeError("planted once")
        return real(rule, npi)

    monkeypatch.setattr(verify, "fiber_polytope", fails_once)
    box = verify._box_pass(clean, 3)
    assert len(fired) == 1
    assert list(box) == list(verify.BOX_CHECKS)
    assert all(isinstance(result, RuntimeError) for result in box.values()), box
    fired.clear()
    entries = _box_entries(verify.run_case(clean, 3, 2))
    assert all(
        e["first_failure"] == "error: RuntimeError: planted once" for e in entries.values()
    ), entries


def test_check_transfer_raises_the_planted_error(monkeypatch, records):
    # on i_prime, whose transfer image differs from its nu+rho, so that the
    # kernel calls the canonical forms
    planted = RuntimeError("planted in transfer")

    def kernel(values2):
        raise planted

    monkeypatch.setattr(weights, "_canonical_kernel", lambda weyl, mod_trace: kernel)
    with pytest.raises(RuntimeError) as raised:
        check_transfer(rec(records, "i_prime", 2), 3)
    assert raised.value is planted
    assert check_relations(rec(records, "i_prime", 2), 3).failures == []


def _counting_canonical(monkeypatch) -> list:
    """Patch ``weights._canonical_kernel`` so that each form it returns
    appends its argument to the list returned."""
    calls = []
    real = weights._canonical_kernel

    def counting(weyl, mod_trace):
        canonical = real(weyl, mod_trace)

        def kernel(values2):
            calls.append(values2)
            return canonical(values2)

        return kernel

    monkeypatch.setattr(weights, "_canonical_kernel", counting)
    return calls


def test_transfer_of_rows_equal_to_nu_rho_calls_no_canonical_form(monkeypatch, records):
    # i's transfer image has nu+rho's rows, one per coordinate of A(1): the
    # comparison of two forms of one tuple is decided when the kernel is
    # written, and run still counts every theta
    r = rec(records, "i", 2)
    assert verify._map_rows(r, "transfer") == verify._map_rows(r, "nurho")
    calls = _counting_canonical(monkeypatch)
    report = check_transfer(r, 4)
    assert calls == []
    assert report.checks_run == len(r.theta.enumerate(4)) > 0
    assert report.failures == []


def test_transfer_offset_bumped_on_equal_rows_calls_the_forms_again(monkeypatch, records):
    # one more in the transfer offset makes the rows differ: the forms are
    # compared at every theta again, and the first failure is the oracle's
    import dataclasses

    r = rec(records, "i", 2)
    offset = list(r.transfer_offset)
    offset[0] += 1
    broken = dataclasses.replace(r, transfer_offset=tuple(offset))
    calls = _counting_canonical(monkeypatch)
    report = check_transfer(broken, 4)
    expected = oracles.check_transfer(broken, 4)
    assert len(calls) == 2 * len(r.theta.enumerate(4))
    assert report.checks_run == expected.checks_run
    assert report.failures and report.failures[0] == expected.failures[0]


def test_clean_run_builds_no_dimension_kernel_and_only_the_canonical_kernels_it_calls(monkeypatch):
    # every pi and nu dimension of the catalog passes its folded test, so no
    # clean case takes the slow path that builds a dimension kernel; and a
    # canonical kernel is built only where the transfer rows differ from
    # nu+rho's, so that the theta kernel compares forms
    built = {"dimension": set(), "canonical": set()}
    current = [None]

    def spy(kind, real):
        def build(*args):
            built[kind].add(str(current[0]))
            return real(*args)

        return build

    monkeypatch.setattr(weights, "_dimension_kernel", spy("dimension", weights._dimension_kernel))
    monkeypatch.setattr(weights, "_canonical_kernel", spy("canonical", weights._canonical_kernel))
    for r in catalog.build_records(6):
        current[0] = r.id
        verify.run_case(r, 2, 2)
    assert built["dimension"] == set()
    assert built["canonical"] == {"i_prime[n=%d]" % n for n in range(2, 7)} | {"xiii_prime"}


def test_type_no_canonical_kernel_takes_is_a_setup_error_where_no_form_is_compared(monkeypatch, records):
    # i[n=2]'s transfer rows are nu+rho's, so its theta kernel compares no
    # forms and builds no canonical kernel; a nu type that the canonical
    # kernel would reject is still transfer's setup error, and only transfer's
    r = rec(records, "i", 2)
    stack = verify._Stack(r)
    transfer = (stack.add("transfer"), stack.add("nurho"), r.nu_group.weyl.ncoords)
    assert not verify._compares_forms(stack.rows, transfer)
    assert r.nu_group.weyl.family == "A"
    monkeypatch.delitem(weights._CANONICAL_SOURCE, "A")
    with pytest.raises(ValueError, match="cannot canonicalize type A"):
        check_transfer(r, 2)
    box = verify._box_pass(r, 2)
    assert isinstance(box["transfer"], ValueError)
    assert all(isinstance(box[name], verify.CaseReport) for name in verify.BOX_CHECKS if name != "transfer")


def _ix_with_uncompiled_c_k():
    """ix whose C_K, which its relation reads, is a "theta_poly" j·k: a
    symbol kind that neither the compiled form nor the reference route
    takes."""
    import dataclasses

    from branchlab.catalog import SymbolSpec

    ix = next(r for r in catalog.build_records(1) if r.id.tag == "ix")
    mixed = SymbolSpec("theta_poly", side="Q", poly=(((1, 1), Fraction(1)),))
    return dataclasses.replace(ix, symbols={**ix.symbols, "C_K": mixed})


def test_relation_on_a_kind_the_compiled_form_refuses_is_a_setup_error(monkeypatch, capsys):
    tampered = _ix_with_uncompiled_c_k()
    with pytest.raises(ValueError, match="C_K"):
        evaluate_generator(tampered, "C_K", (3, -2))  # no route evaluates it
    entries = verify.run_case(tampered, 6, 2)
    relations = entries[0]
    assert relations["name"] == "relations" and relations["failed"] == 1
    assert relations["first_failure"].startswith("error: ValueError: ")
    assert "C_K" in relations["first_failure"]
    assert [e["name"] for e in entries if e["failed"]] == ["relations"]
    from branchlab import cli

    monkeypatch.setattr(catalog, "load_default", lambda max_n=2: [tampered])
    assert cli.main(["verify", "--cases", "ix", "--bound", "6"]) == 1
    assert "relations" in capsys.readouterr().out


def _proved_tests(monkeypatch, record) -> dict:
    """{"theta": [...], "pi": [...]}: each (coords, row, mod, k) that
    ``nest.always`` proves while ``_box_pass`` writes the record's theta
    kernel and its pi kernel, by the kernel it leaves the test out of."""
    proved: dict = {"theta": [], "pi": []}
    writer = ["theta"]
    real_always, real_pi_source = nest.always, verify._pi_source

    def always(coords):
        decide, kind = real_always(coords), writer[-1]

        def spy(row, mod=0, k=0):
            holds = decide(row, mod, k)
            if holds:
                proved[kind].append((coords, row, mod, k))
            return holds

        return spy

    def pi_source(*args):
        writer.append("pi")
        try:
            return real_pi_source(*args)
        finally:
            writer.pop()

    with monkeypatch.context() as patch:
        patch.setattr(nest, "always", always)
        patch.setattr(verify, "_pi_source", pi_source)
        verify._box_pass(record, 0)
    return proved


def _fiber_points(record, pi) -> list:
    """The points (pi, free coordinates) of the pi kernel's fiber loops over
    pi, read off the fiber theta of ``oracles.branch_fibers``: each free
    coordinate of the rule is a coordinate of theta."""
    polytope = fibers.fiber_polytope(record.branch_rule, len(pi))
    free = range(polytope.npi, len(polytope.space.names))
    at = [polytope.theta.index((((f, 1),), 0)) for f in free]
    return [tuple(pi) + tuple(theta[t] for t in at) for theta in oracles.branch_fibers(record.branch_rule, pi)]


def _assert_holds(proved, points, bound, where) -> None:
    for coords, row, mod, k in proved:
        for point in points:
            (value,) = oracles._apply2([row], point)
            assert value % mod == 0 if mod else value + k * bound >= 0, (where, bound, point, row, mod, k)


def test_every_test_left_out_of_a_kernel_holds_at_every_point(monkeypatch):
    # the write-time rule against a brute-force walk: at every theta of
    # ParamSpace.walk, and at every point over the fibers of
    # oracles.branch_fibers, each test that nest.always proves (and so that
    # the writer leaves out) holds; on every record of build_records(3) at
    # bounds 0..6, and the star at bound 12
    records = catalog.build_records(3)
    left_out = collections.Counter()
    for r in records:
        proved = _proved_tests(monkeypatch, r)
        for coords, _, _, _ in proved["theta"]:
            assert coords == verify._box_coords(r.theta)
        left_out.update({kind: len(tests) for kind, tests in proved.items()})
        for bound in [*range(7), 12] if r.id.tag == "star" else range(7):
            _assert_holds(proved["theta"], list(r.theta.walk(bound)), bound, (r.id, "theta"))
            points = [p for pi in r.pi_space.walk(bound) for p in _fiber_points(r, pi)]
            _assert_holds(proved["pi"], points, bound, (r.id, "pi"))
    assert left_out["theta"] and left_out["pi"], left_out


def test_kernel_tests_that_can_fail_stay(monkeypatch):
    # the star's fibers leave the box, a up to j + j', so its pi kernel
    # keeps the box test; and a fiber polytope whose limit k0 <= j0 is
    # shifted to k0 <= j0 + 1 keeps the tests that limit decided
    import dataclasses

    by_id = {str(r.id): r for r in catalog.build_records(3)}
    star, iv = by_id["star"], by_id["iv[n=2]"]
    star_fibers = fibers.fiber_polytope(star.branch_rule, 2)
    source = verify._pi_source(star, star_fibers, True, True)
    assert "v2) <= bound" in source
    assert max(p[2] for p in _fiber_points(star, (12, 12))) > 12

    real = fibers.fiber_polytope(iv.branch_rule, len(iv.pi_space.names))
    assert real.space.names == ("j0", "j1", "j2", "k0", "k1")
    upper = catalog.Constraint((1, 0, 0, -1, 0), 0)  # j0 - k0 >= 0
    assert upper in real.space.constraints
    shifted = tuple(dataclasses.replace(c, const=1) if c == upper else c for c in real.space.constraints)
    tampered = dataclasses.replace(real, space=dataclasses.replace(real.space, constraints=shifted))
    clean, source = verify._pi_source(iv, real, True, True), verify._pi_source(iv, tampered, True, True)
    assert "<= bound" not in clean and ">= 0" not in clean
    # k0 = v3 reaches j0 + 1, above the box and above nu's dominance
    assert "(v3) <= bound" in source and "(v0 - v3) >= 0" in source


def test_star_pi_kernel_tests_its_fiber_congruence_once():
    # a + j + j' even is a leaf condition of the star's fiber polytope, and
    # the theta space's branch-valid congruence composes to the same row:
    # the kernel tests it around the leaf and folds no second copy
    star = next(r for r in catalog.build_records(2) if str(r.id) == "star")
    polytope = fibers.fiber_polytope(star.branch_rule, 2)
    assert (((0, 1), (1, 1), (2, 1)), 0, 2) in polytope.space.leaf_rows
    source = verify._pi_source(star, polytope, True, True)
    assert source.count("(v0 + v1 + v2) % 2 == 0") == 1


def test_pi_kernel_keeps_no_set_where_theta_is_injective_in_the_fiber():
    # on every record of the catalog theta is injective in the free
    # coordinates at a fixed pi, so no fiber theta repeats and the kernel
    # keeps no set of them; a theta row that drops k repeats theta, and
    # keeps the disjoint test
    import dataclasses

    for r in catalog.build_records(10):
        polytope = fibers.fiber_polytope(r.branch_rule, len(r.pi_space.names))
        source = verify._pi_source(r, polytope, True, True)
        assert "_m" not in source and "s += 1" in source, r.id
    vii = next(r for r in catalog.build_records(2) if str(r.id) == "vii")
    real = fibers.fiber_polytope(vii.branch_rule, 1)
    repeats = dataclasses.replace(real, theta=real.theta[:1] + (((), 0),))
    assert "_h not in _m" in verify._pi_source(vii, repeats, True, True)


def test_kernel_sources_leave_out_the_tests_decided_when_written(monkeypatch):
    # iv[n=3]'s theta kernel calls no canonical form and tests no parity or
    # box, and its pi kernel keeps no dominance, branch-valid or box term;
    # i_prime[n=2]'s theta kernel, whose transfer rows differ from nu+rho's,
    # keeps both canonical calls
    sources = {}
    build = nest.kernel

    def kept(source, name, names=()):
        sources[name] = source
        return build(source, name, names)

    monkeypatch.setattr(nest, "kernel", kept)
    by_id = {str(r.id): r for r in catalog.build_records(3)}
    for case in ("iv[n=3]", "i_prime[n=2]"):
        verify._box_pass(by_id[case], 0)
    theta, pi = sources["theta kernel iv[n=3]"], sources["pi kernel iv[n=3]"]
    assert "canonical(" not in theta and "& 1" not in theta and "<= b2" not in theta
    assert "<= bound" not in pi and ">= 0" not in pi
    assert sources["theta kernel i_prime[n=2]"].count("canonical(") == 2
