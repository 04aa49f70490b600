"""Relation identities, transfer maps, independence certificates."""

import collections
import hashlib
import random
from fractions import Fraction

import pytest

from branchlab import catalog, verify, weights
from branchlab.reps import casimir_eigenvalue
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
    the walk's (theta, image) pairs at bound 3 on that stack."""
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
    return names, dens, sums, list(record.theta.walk(3, stack.rows))


def test_compiled_values_do_not_depend_on_image_order(records):
    # the walk's sums keep memos across calls; fed in walk order, in reverse,
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
    assert image == r.nu_plus_rho(theta)

    r = rec(records, "xi")
    theta = (3,)
    image = r.transfer(()).apply(r.lam_rhoa_map.apply(theta))
    assert image == r.nu_plus_rho(theta) == (Fraction(11, 2), Fraction(9, 2), Fraction(7, 2))


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


def test_independence_degree_zero_trivial(records):
    ok, witness = independence_certificate(rec(records, "vi"), ("C_Gt",), 3, 0)
    assert ok and witness == []


def test_independence_insufficient_sample(records):
    with pytest.raises(InsufficientSampleError):
        independence_certificate(rec(records, "x"), ("C_Gt",), 1, 4)


def test_independence_witness_is_invertible_minor(records):
    from branchlab import linalg

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
        rows.append([verify._prod(values, m) for m in monos])
    assert linalg.rank(linalg.mat(rows)) == len(monos)


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
        runs = verify._longest_run((t for t, _ in ix.theta.walk(bound)), 1)
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


@pytest.mark.parametrize("scale", [Fraction(4, 3), Fraction(1, 8), Fraction(3)])
def test_pi_side_compares_exact_values(records, monkeypatch, scale):
    # C_Gt of i[n=2] has denominator 4; a claimed Casimir c·scale is a failure
    # wherever c != 0, also when its denominator (3, 8) does not divide 4
    r = rec(records, "i", 2)
    monkeypatch.setattr(verify, "casimir_eigenvalue", lambda label: casimir_eigenvalue(label) * scale)
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
        broken, broken.nu_plus_rho(theta)
    )


def test_tampered_nu_label_breaks_relations(records):
    # the Casimir relation ties three separately stored maps together; a
    # transcription error in any one of them must surface
    import dataclasses

    r = rec(records, "vi")
    rows = [list(row) for row in r.nu_label_map.matrix]
    rows[1][1] += 1  # nu = (j/2, 3k/2, k/2, k/2) instead of (j/2, k/2, k/2, k/2)
    from branchlab.linalg import mat

    broken = dataclasses.replace(
        r,
        nu_label_map=dataclasses.replace(r.nu_label_map, matrix=mat(rows)),
    )
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

    from branchlab.linalg import vec

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
                r, vec([Fraction(v, 2) for v in values2])
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


def test_every_map_is_half_integral():
    # the compiled route is the only route: every symbol compiles and every
    # map the checks read has a doubled-integer form, with no fallback behind
    for r in catalog.build_records(6):
        for name in r.symbols:
            fn, den = verify._int_eval(r, name)
            assert isinstance(den, int), (r.id, name)
        for key, make in verify._MAPS.items():
            # a and b exist where power sums read them; b is empty in ii_odd[n=1]
            if make(r) is not None:
                assert verify._map_rows(r, key) or key == "b", (r.id, key)


def test_rows2_rejects_non_half_integral():
    from branchlab.linalg import AffineMap, mat, vec

    with pytest.raises(ValueError):
        verify._rows2(AffineMap(mat([[Fraction(1, 3)]]), vec([0]), source=1))
    assert verify._rows2(AffineMap(mat([[Fraction(1, 2)]]), vec([Fraction(3, 2)]), source=1)) == [
        (((0, 1),), 3)
    ]


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
    broken = dataclasses.replace(
        r, pi_label_map=dataclasses.replace(r.pi_label_map, offset=tuple(offset))
    )
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
    for bound in range(5):
        for r in catalog.build_records(2):
            for e in verify.run_case(r, bound, 2):
                assert not e.get("first_failure", "").startswith("error: "), (bound, r.id, e)


def _outcome(check):
    """(checks_run, failures) of a box check, or the exception that stopped it."""
    try:
        report = check()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return report.checks_run, report.failures


def _tampered_records():
    import dataclasses

    from branchlab.linalg import mat

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
        dataclasses.replace(
            vi, nu_label_map=dataclasses.replace(vi.nu_label_map, matrix=mat(rows))
        ),
        dataclasses.replace(star, transfer_offset=tuple(offset)),
        dataclasses.replace(
            i1, pi_label_map=dataclasses.replace(i1.pi_label_map, offset=tuple(pi_offset))
        ),
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
            pi_of_theta=dataclasses.replace(
                pi_of_theta, offset=(pi_of_theta.offset[0] + 1,) + pi_of_theta.offset[1:]
            ),
        ),
        dataclasses.replace(vii, branch_rule=("parity_tail",)),
        dataclasses.replace(
            vii, nu_label_map=dataclasses.replace(vii.nu_label_map, matrix=mat(zeroed))
        ),
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
    assert max(len(r.theta.names) for r in every) == 21 > verify._CHUNK
    cases = [(r, bound) for r in catalog.build_records(2) + tampered for bound in range(5)]
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
    from branchlab.linalg import AffineMap, mat, vec

    n = 25
    assert n > 20 > verify._CHUNK
    chain = tuple(
        Constraint(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n)))
        for i in range(n - 1)
    )
    parity = Constraint((1,) + (0,) * (n - 2) + (1,), 0, 2)
    space = ParamSpace(tuple("x%d" % i for i in range(n)), ("int",) * n, chain + (parity,))
    form = AffineMap(mat([[i % 3 - 1 or 2 for i in range(n)]]), vec([Fraction(1, 2)]), source=n)
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
        walked = list(space.walk(bound, stack.rows, [(r, m.__getitem__) for r, m in sums]))
        assert [total for _, (*_, total) in walked] == [
            2 * evaluate_generator(synthetic, "e", p) for p, _ in walked
        ]
        report = verify.check_relations(synthetic, bound)
        assert report.checks_run == len(walked) > 100
        assert report.failures == [("relation:tampered", p, 0, image[-1]) for p, image in walked]


def test_tampered_reports_are_pinned():
    # the relation totals among these failures are scaled by the compiled
    # denominators, which the loops above read too; the digest sees them
    out = catalog.to_json([[str(r.id), verify.run_case(r, 4, 2)] for r in _tampered_records()])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c11b50fd8a35ffe961c490946bd7fdcc667f66d4e218487a7f95b3787557c59d"
    )


def test_each_symbol_and_map_is_compiled_once_per_record(monkeypatch):
    # over two run_case calls per record and evaluate_generator on every
    # symbol, each (record, symbol) goes through _separable at most once and
    # each (record, map) through _rows2 at most once: the box pass, the
    # independence certificate and the point evaluator share one compile
    compiles, conversions = collections.Counter(), collections.Counter()
    separable, rows2 = verify._separable, verify._rows2
    current = None

    def counted_separable(record, name):
        compiles[record.id, name] += 1
        return separable(record, name)

    def counted_rows2(amap):
        conversions[current, amap] += 1
        return rows2(amap)

    monkeypatch.setattr(verify, "_separable", counted_separable)
    monkeypatch.setattr(verify, "_rows2", counted_rows2)
    for r in catalog.build_records(3):
        current = r.id
        for _ in range(2):
            verify.run_case(r, 4, 2)
        theta = r.theta.enumerate(0)[0]
        for name in r.symbols:
            evaluate_generator(r, name, theta)
    assert len(compiles) > 100 and max(compiles.values()) == 1, compiles.most_common(3)
    assert len(conversions) > 100 and max(conversions.values()) == 1


def test_affine_kernel_matches_apply2_on_every_stacked_map():
    # the compiled image of each map the box pass stacks against the row
    # loop it replaced, on random integer points given as tuples and as
    # lists, and the same IndexError on a point one coordinate short
    rng = random.Random(31)
    seen = 0
    for r in catalog.build_records(3):
        keys = [k for k in verify._MAPS if k not in ("a", "b") or getattr(r, k + "_map")]
        keys += [s.form for s in r.symbols.values() if s.kind == "euler"]
        for key in keys:
            rows = verify._map_rows(r, key)
            kernel = verify._affine_kernel(tuple(rows))
            n = (verify._MAPS[key](r) if isinstance(key, str) else key).source_dim
            for _ in range(12):
                p = tuple(rng.randint(-9, 9) for _ in range(n))
                assert kernel(p) == kernel(list(p)) == oracles._apply2(rows, p), (r.id, key, p)
                seen += 1
            short = (0,) * (n - 1) if n else ()
            assert _raised(lambda: kernel(short)) == _raised(lambda: oracles._apply2(rows, short))
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
        verify._affine_kernel,
        catalog._membership_kernel,
        verify._theta_kernel,
    )
    records = catalog.build_records(3)
    for r in records:
        verify.run_case(r, 3, 2)
    before = [b.cache_info() for b in builders]
    for r in records:
        verify.run_case(r, 3, 2)
    after = [b.cache_info() for b in builders]
    assert [i.misses for i in after] == [i.misses for i in before]
    assert all(i.currsize for i in after)
    assert all(a.hits > b.hits for a, b in zip(after[:3], before[:3]))


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


def test_smf_repeated_fiber_is_not_counted_twice(monkeypatch):
    # a rule that lists one theta twice and drops another leaves the counts
    # equal if a repeat is counted; the repeat must fail, and the dropped
    # theta then shows in the count
    vii = next(r for r in catalog.build_records(2) if str(r.id) == "vii")
    real = verify._branch_fibers

    def repeats(rule, pi):
        fibers = real(rule, pi)
        return fibers[:-1] + fibers[:1] if len(fibers) > 1 else fibers

    monkeypatch.setattr(verify, "_branch_fibers", repeats)
    report = verify.check_strong_multiplicity_freeness(vii, 3)
    assert {name for name, *_ in report.failures} == {"disjoint", "exhausts"}


def test_box_check_error_stops_only_that_check(monkeypatch):
    # each transfer kernel raises at its own k-th call, in the pass and when
    # transfer runs alone: transfer alone gets the error entry, and every
    # other box check runs the whole box.  (The relation totals are carried
    # by the walk, so relations has no per-theta code of its own left to
    # fail.)
    import dataclasses
    import itertools

    clean = next(r for r in catalog.build_records(2) if str(r.id) == "i[n=2]")
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
    real = verify._branch_fibers
    fired = []

    def fails_once(rule, pi):
        if not fired:
            fired.append(pi)
            raise RuntimeError("planted once")
        return real(rule, pi)

    monkeypatch.setattr(verify, "_branch_fibers", fails_once)
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
    planted = RuntimeError("planted in transfer")

    def kernel(values2):
        raise planted

    monkeypatch.setattr(weights, "_canonical_kernel", lambda weyl, mod_trace: kernel)
    with pytest.raises(RuntimeError) as raised:
        check_transfer(rec(records, "i", 2), 3)
    assert raised.value is planted
    assert check_relations(rec(records, "i", 2), 3).failures == []


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
