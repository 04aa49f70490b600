"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity is exact (tolerance 0, rational arithmetic); boxes follow the
stated bounds: size parameters n <= 3 where applicable, discrete-series
parameters <= 8, with the SO(16) overgroup branchings capped at 6.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import time

import pytest

from branchlab import catalog, dgx, hilbert, verify

MAX_N = 3
BOUND = 8


@pytest.fixture(scope="module")
def records():
    # the same records the CLI checks: load_default builds them from the
    # case builders in catalog.py
    return catalog.load_default(max_n=MAX_N)


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print("criterion %d (%s): %s%s" % (num, name, status, " " + extra if extra else ""))
    return ok


def test_criterion_1_relation_suite(records):
    t0 = time.time()
    failures = []
    checks = 0
    for r in records:
        report = verify.check_relations(r, BOUND)
        checks += report.checks_run
        failures.extend((str(r.id), f) for f in report.failures)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    assert _line(
        1,
        "relation suite",
        ok,
        "%d identities over %d cases in %.1fs" % (checks, len(records), elapsed),
    ), failures[:3]


def test_criterion_2_transfer_suite(records):
    failures = []
    checks = 0
    for r in records:
        report = verify.check_transfer(r, BOUND)
        checks += report.checks_run
        failures.extend((str(r.id), f) for f in report.failures)
    assert _line(2, "transfer suite", not failures, "%d points" % checks), failures[:3]


def test_criterion_3_rank_identity(records):
    bad = [str(r.id) for r in records if not verify.check_rank_identity(r)]
    star_present = any(r.id.tag == "star" for r in records)
    ok = not bad and star_present
    assert _line(3, "rank identity", ok, "%d rows" % len(records)), bad


def test_criterion_4_dimension_conservation(records):
    failures = []
    checks = 0
    for r in records:
        bound = 6 if r.pi_group.name in ("SO(16)",) else BOUND
        report = verify.check_dimension_conservation(r, bound)
        checks += report.checks_run
        failures.extend((str(r.id), f) for f in report.failures)
    # the SO(16)/Spin(9) instance must be among them, up to j = 6
    vi = next(r for r in records if r.id.tag == "vi")
    assert vi.pi_group.name == "SO(16)"
    assert _line(4, "dimension conservation", not failures, "%d branchings" % checks), failures[:3]


def test_criterion_5_strong_multiplicity_freeness(records):
    failures = []
    for r in records:
        report = verify.check_strong_multiplicity_freeness(r, BOUND)
        failures.extend((str(r.id), f) for f in report.failures)
    assert _line(5, "strong multiplicity-freeness", not failures), failures[:3]


def test_criterion_6_generator_degrees(records):
    minimum_tags = {"i", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "star"}
    covered = set()
    bad = []
    for r in records:
        if r.hilbert_model is None:
            continue
        covered.add(r.id.tag)
        if not hilbert.check_generator_degrees(r, 12):
            bad.append(str(r.id))
    ok = not bad and minimum_tags <= covered
    assert _line(6, "Hilbert/degree suite", ok, "Nmax=12, cases: %s" % sorted(covered)), bad


def test_criterion_7_polynomial_suite(records):
    gens = dgx.subalgebra_generators()
    memberships_ok = all(dgx.membership(f, gens, 4) is not None for f in dgx.R_MEMBERS)
    witness_ok = dgx.x_not_in_R_witness().passed
    decomposition_ok = True
    for ex, ey, ez in itertools.product(range(9), repeat=3):
        if ex + ey + ez > 8:
            continue
        f = dgx.X ** ex * dgx.Y ** ey * dgx.Z ** ez
        try:
            g, h = dgx.decompose_R_plus_Rx(f, 8)
        except (ValueError, AssertionError):
            decomposition_ok = False
            break
        if g + h * dgx.X != f:
            decomposition_ok = False
            break
    star = next(r for r in records if r.id.tag == "star")
    table = dgx.dgx_generators()
    cross_ok = all(
        table[g].evaluate((t[0] + 3) ** 2, (t[1] + 3) ** 2, (t[2] + 3) ** 2)
        == verify.evaluate_generator(star, s, t)
        for t in star.theta.enumerate(6)
        for g, s in dgx.SYMBOL_PAIRS
    )
    ok = memberships_ok and witness_ok and decomposition_ok and cross_ok
    assert _line(
        7,
        "polynomial model suite",
        ok,
        "membership=%s witness=%s R+Rx=%s cross=%s"
        % (memberships_ok, witness_ok, decomposition_ok, cross_ok),
    )


def test_criterion_8_independence_certificates(records):
    bad = []
    for r in records:
        ok, _ = verify.independence_certificate(r, r.indep_gens, BOUND, 2)
        if not ok:
            bad.append(str(r.id))
    ix = next(r for r in records if r.id.tag == "ix")
    parity_witnessed = verify.check_ix_parity_gap(ix, BOUND, degree=4)
    ok = not bad and parity_witnessed
    assert _line(
        8,
        "independence certificates",
        ok,
        "degree 2 full rank everywhere; case (ix) parity gap witnessed=%s" % parity_witnessed,
    ), bad


def test_criterion_9_cross_module_consistency(records):
    failures = []
    checks = 0
    for r in records:
        report = verify.check_pi_side_consistency(r, BOUND)
        checks += report.checks_run
        failures.extend((str(r.id), f) for f in report.failures)
    assert _line(
        9, "cross-module consistency", not failures, "%d Casimir comparisons" % checks
    ), failures[:3]
