"""The case-specific branching enumerators, cross-checked against the
classical SO(N) down SO(N-1) interlacing law."""

import itertools
from fractions import Fraction

import pytest

from branchlab import catalog, fibers, weights
import oracles
from oracles import vec


def F(*args):
    return tuple(Fraction(a) for a in args)


def _steps(lo, hi):
    """Values lo, lo+1, ..., hi (same integrality class as the endpoints)."""
    if hi < lo:
        return []
    count = hi - lo
    if count.denominator != 1:
        raise ValueError("interval endpoints %s, %s differ by a non-integer" % (lo, hi))
    return [lo + i for i in range(int(count) + 1)]


def branch_SO_step(N, lam):
    """SO(N) down SO(N-1) interlacing; multiplicity one each, sorted output.

    Half-integral (spin) weights are allowed; the branched weights stay in the
    same integrality class.
    """
    lam = vec(lam)
    if N < 4:
        raise ValueError("need N >= 4")
    r = N // 2
    if N % 2 == 1:
        # B_r down to D_r: lam_1 >= mu_1 >= lam_2 >= ... >= lam_r >= |mu_r|
        if len(lam) != r:
            raise ValueError("SO(%d) weight needs %d coordinates" % (N, r))
        if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
            raise ValueError("weight %s not dominant for SO(%d)" % (lam, N))
        ranges = [_steps(lam[i + 1], lam[i]) for i in range(r - 1)]
        ranges.append(_steps(-lam[r - 1], lam[r - 1]))
    else:
        # D_r down to B_{r-1}: lam_1 >= mu_1 >= ... >= mu_{r-1} >= |lam_r|
        if len(lam) != r:
            raise ValueError("SO(%d) weight needs %d coordinates" % (N, r))
        if any(a < b for a, b in zip(lam, lam[1:-1] + (abs(lam[-1]),))):
            raise ValueError("weight %s not dominant for SO(%d)" % (lam, N))
        ranges = [_steps(lam[i + 1], lam[i]) for i in range(r - 2)]
        ranges.append(_steps(abs(lam[r - 1]), lam[r - 2]))
    return sorted((tuple(mu) for mu in itertools.product(*ranges)), reverse=True)


def test_branch_SO_step_examples():
    assert set(branch_SO_step(5, F(1, 0))) == {F(1, 0), F(0, 0)}
    k = 3
    assert branch_SO_step(8, F(k, k, k, k)) == [F(k, k, k)]
    j = 2
    assert set(branch_SO_step(7, F(j, j, j))) == {F(j, j, c) for c in range(-j, j + 1)}


def test_branch_SO_step_spin_class_preserved():
    h = Fraction(1, 2)
    out = branch_SO_step(9, (3 * h, h, h, h))
    assert out
    for mu in out:
        assert all(x % 1 == h for x in map(abs, mu)) or all(x % 1 == 0 for x in mu)


def _brute_SO(N, lam):
    r = N // 2
    lam = F(*lam)
    top = max(abs(x) for x in lam) if lam else Fraction(0)
    span = [Fraction(v, 2) for v in range(-2 * int(top) - 1, 2 * int(top) + 2)]
    out = []
    if N % 2 == 1:
        for mu in itertools.product(span, repeat=r):
            ok = all(lam[i] >= mu[i] >= lam[i + 1] for i in range(r - 1))
            ok = ok and lam[r - 1] >= mu[r - 1] >= -lam[r - 1]
            ok = ok and all((a - b) % 1 == 0 for a, b in zip(mu, lam))
            if ok:
                out.append(tuple(mu))
    else:
        for mu in itertools.product(span, repeat=r - 1):
            ok = all(lam[i] >= mu[i] >= lam[i + 1] for i in range(r - 2))
            ok = ok and lam[r - 2] >= mu[r - 2] >= abs(lam[r - 1])
            ok = ok and all((a - b) % 1 == 0 for a, b in zip(mu, lam))
            if ok:
                out.append(tuple(mu))
    return sorted(out, reverse=True)


@pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
def test_branch_SO_step_matches_bruteforce(N):
    r = N // 2
    weight_pool = [w for w in itertools.product(range(4, -1, -1), repeat=r)]
    tested = 0
    for lam in weight_pool:
        lam = F(*lam)
        ok_dom = all(a >= b for a, b in zip(lam, lam[1:]))
        if N % 2 == 0:
            ok_dom = all(a >= b for a, b in zip(lam, lam[1:-1] + (abs(lam[-1]),)))
        if not ok_dom:
            continue
        assert branch_SO_step(N, lam) == _brute_SO(N, lam)
        tested += 1
        if tested > 40:
            break


@pytest.mark.parametrize(
    "N,lam",
    [
        (10, (4, 3, 2, 1, 0)),
        (10, (3, 3, 2, 2, -1)),
        (11, (4, 2, 2, 1, 0)),
        (11, (4, 4, 4, 4, 4)),
    ],
)
def test_branch_SO_step_matches_bruteforce_rank5(N, lam):
    assert branch_SO_step(N, F(*lam)) == _brute_SO(N, F(*lam))


def _record(tag, n=None, max_n=3):
    return next(r for r in catalog.build_records(max_n) if r.id.tag == tag and r.id.n == n)


def test_branch_case_i():
    rec = _record("i", 2)
    out = oracles.branch(rec, (3,))
    assert [theta for theta, _ in out] == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_branch_case_vi_parity():
    rec = _record("vi")
    out = oracles.branch(rec, (4,))
    assert [theta for theta, _ in out] == [(4, 0), (4, 2), (4, 4)]
    half = Fraction(1, 2)
    assert oracles.highest_weight(out[1][1]) == (4 * half, 2 * half, 2 * half, 2 * half)


def test_branch_case_star():
    rec = _record("star")
    out = oracles.branch(rec, (1, 1))
    assert [theta for theta, _ in out] == [(1, 1, 0), (1, 1, 2)]
    labels = [oracles.highest_weight(lbl) for _, lbl in out]
    h = Fraction(1, 2)
    assert labels[0] == (h, h, h, h)
    assert labels[1] == (3 * h, h, h, -h)


def test_branch_case_rejects_bad_pi():
    rec = _record("vi")
    with pytest.raises(ValueError):
        oracles.branch(rec, (-1,))


def test_case_rules_match_classical_interlacing_ii():
    # case (ii) branching is the classical SO(4m) down SO(4m-1) interlacing
    rec = _record("ii_odd", 3)
    for j in [(2, 1), (3, 0), (4, 4)]:
        pi_label = rec.pi_label_map.apply(j)
        classical = set(branch_SO_step(8, pi_label))
        from_rule = {oracles.highest_weight(lbl) for _, lbl in oracles.branch(rec, j)}
        assert from_rule <= classical
        # the rule keeps exactly the constituents with a U(3)-fixed vector,
        # which here is everything (Disc(G/H) is all of (N^3)_>=)
        assert from_rule == classical


def test_case_rule_v_matches_quaternionic_split():
    rec = _record("v", 1)
    out = oracles.branch(rec, (3,))
    assert [theta for theta, _ in out] == [(2, 1), (3, 0)]
    dims = [weights.weyl_dimension(lbl.group.weyl, oracles.highest_weight(lbl)) for _, lbl in out]
    assert sum(dims) == weights.weyl_dimension(rec.pi_group.weyl, rec.pi_label_map.apply((3,)))


def test_case_rule_ix_matches_classical_SO7_step():
    rec = _record("ix")
    for j in range(5):
        classical = set(branch_SO_step(7, F(j, j, j)))
        from_rule = {oracles.highest_weight(lbl) for _, lbl in oracles.branch(rec, (j,))}
        assert from_rule == classical


def test_case_rule_xi_matches_classical_SO8_step():
    rec = _record("xi")
    for k in range(5):
        classical = set(branch_SO_step(8, F(k, k, k, k)))
        from_rule = {oracles.highest_weight(lbl) for _, lbl in oracles.branch(rec, (k,))}
        assert from_rule == classical


def _brute_chains(j, closed):
    """Every chain (j1,k1,...,jm) with j_(i+1) <= k_i <= j_i, ending in one
    more k_m with 0 <= k_m <= j_m when closed, in lexicographic order."""
    lows = list(j[1:]) + [0]
    out = []
    for ks in itertools.product(range(j[0] + 1), repeat=len(j) if closed else len(j) - 1):
        if all(lows[i] <= k <= j[i] for i, k in enumerate(ks)):
            chain = [x for pair in zip(j, ks) for x in pair]
            out.append(tuple(chain if closed else chain + [j[-1]]))
    return out


def test_interlace_rules_match_brute_force():
    # (ii) odd at m and (iv) at n = m - 1 are one rule; (ii) even closes the
    # chain; a j that is not dominant has no chain by either route
    for m in range(1, 5):
        for j in itertools.product(range(5), repeat=m):
            chains = _brute_chains(j, closed=False)
            if list(j) != sorted(j, reverse=True):
                assert chains == _brute_chains(j, closed=True) == []
            assert fibers._branch_fibers(("interlace_ii_odd", m), j) == chains
            if m > 1:
                assert fibers._branch_fibers(("interlace_iv", m - 1), j) == chains
            assert fibers._branch_fibers(("interlace_ii_even", m), j) == _brute_chains(
                j, closed=True
            )


def test_fiber_walks_match_the_closed_forms():
    # the walk of each rule's fiber polytope against the lemmas' closed
    # forms, theta by theta in order: every rule of build_records(6) over
    # every pi of its box at bounds 0..8, the boxes nesting, except that a
    # rule stops at the first bound whose pi box passes 2,000 points (iv at
    # n >= 3, whose fibers then run to millions of theta); and the
    # synthetic chains above, dominant or not
    seen = {}
    for r in catalog.build_records(6):
        key = (r.branch_rule, len(r.pi_space.names))
        if key in seen:
            continue
        for bound in range(9):
            pis = r.pi_space.enumerate(bound)
            if len(pis) > 2000:
                break
            seen[key] = bound
        for pi in r.pi_space.enumerate(seen[key]):
            assert fibers._branch_fibers(r.branch_rule, pi) == oracles.branch_fibers(
                r.branch_rule, pi
            ), (r.id, pi)
    names = {rule[0] for rule, _ in seen}
    assert len(names) == 13 and min(seen.values()) >= 3
    assert sum(bound == 8 for bound in seen.values()) >= len(seen) - 4
    for m in range(1, 5):
        for j in itertools.product(range(5), repeat=m):
            rules = [("interlace_ii_odd", m), ("interlace_ii_even", m)]
            rules += [("interlace_iv", m - 1)] if m > 1 else []
            for rule in rules:
                assert fibers._branch_fibers(rule, j) == oracles.branch_fibers(rule, j), (rule, j)


def test_fiber_polytope_rejects_what_it_cannot_walk():
    # an unknown rule, a pi of the wrong length and an unbounded free
    # coordinate are ValueErrors, before any walk
    import dataclasses

    with pytest.raises(ValueError, match="unknown branch rule"):
        fibers.fiber_polytope(("no_such_rule",), 1)
    with pytest.raises(ValueError, match="takes 2 pi coordinates, not 1"):
        fibers.fiber_polytope(("triangle",), 1)
    real = fibers.fiber_polytope(("tail_le",), 1)
    lower_only = dataclasses.replace(real.space, constraints=real.space.constraints[:1])
    with pytest.raises(ValueError, match="unbounded"):
        dataclasses.replace(real, space=lower_only)
