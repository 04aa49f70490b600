"""The v_m(N) sequence and the graded invariant-dimension models."""

import itertools
import types

import pytest

from branchlab import catalog
from branchlab.hilbert import (
    check_generator_degrees,
    claimed_degrees,
    graded_invariant_dims,
    v_sequence,
)
import oracles


def v_sequence_naive(degrees, N):
    """Exhaustive-enumeration oracle for v_sequence (small inputs only)."""
    degrees = tuple(degrees)
    count = 0
    for combo in itertools.product(*(range(N // d + 1) for d in degrees)):
        if sum(a * d for a, d in zip(combo, degrees)) == N:
            count += 1
    return count


def distinguishing_multisets(degrees, Nmax, max_part, max_parts):
    """All other degree multisets (parts <= max_part, <= max_parts parts) whose
    v-sequence agrees with ``degrees`` up to Nmax.  Empty list certifies that
    the sequence pins the multiset down within that search space."""
    degrees = tuple(sorted(degrees))
    target = [v_sequence(degrees, N) for N in range(Nmax + 1)]
    clashes = []
    for k in range(1, max_parts + 1):
        for combo in itertools.combinations_with_replacement(range(1, max_part + 1), k):
            if tuple(sorted(combo)) == degrees:
                continue
            if all(v_sequence(combo, N) == target[N] for N in range(Nmax + 1)):
                clashes.append(combo)
    return clashes


def test_v_sequence_examples():
    assert v_sequence((1, 2), 4) == 3
    assert v_sequence((2, 2, 2), 4) == 6
    for m in [(1,), (2, 3), (1, 1, 5), (2, 2)]:
        assert v_sequence(m, 0) == 1


def test_v_sequence_matches_naive():
    pools = [
        m
        for parts in range(1, 5)
        for m in itertools.combinations_with_replacement(range(1, 6), parts)
    ]
    for m in pools:
        for N in range(21):
            assert v_sequence(m, N) == v_sequence_naive(m, N), (m, N)


def test_v_sequence_input_validation():
    with pytest.raises(ValueError):
        v_sequence((1, 0), 3)
    with pytest.raises(ValueError):
        v_sequence((2,), -1)


@pytest.fixture(scope="module")
def records():
    return {(r.id.tag, r.id.n): r for r in catalog.build_records(3)}


def test_graded_invariant_dim_examples(records):
    assert graded_invariant_dims(records[("i", 1)], 4)[4] == 3
    assert graded_invariant_dims(records[("star", None)], 2)[2] == 3
    # case (iv) n=1 model at N=2 includes the trace direction: the traceless
    # interlaced count is 2 and the full model gives 4 = v_{(1,1,2)}(2)
    assert graded_invariant_dims(records[("iv", 1)], 2)[2] == 4
    assert v_sequence((1, 1, 2), 2) == 4


def test_model_absent_for_case_ii(records):
    with pytest.raises(ValueError):
        graded_invariant_dims(records[("ii_odd", 3)], 2)
    assert records[("ii_odd", 3)].hilbert_model is None
    assert records[("xiv", None)].hilbert_model is None


def _weighted(weights):
    """A stand-in record whose Hilbert model is the weighted one of ``weights``."""
    model = {"kind": "weighted", "weights": list(weights)}
    return types.SimpleNamespace(id="weights %s" % (weights,), hilbert_model=model)


def test_graded_invariant_dims_match_the_per_degree_brute_force():
    # the one pass against the per-N product of ranges it replaced, for N
    # up to 16, on every model of the catalog and on weight tuples with a
    # repeated weight and with a weight above Nmax
    models = [r for r in catalog.build_records(10) if r.hilbert_model is not None]
    synthetic = [(1,), (3,), (1, 1), (2, 2, 2), (1, 2, 2, 3), (5, 1, 5), (17,), (2, 17), (1, 1, 20, 3)]
    assert {r.hilbert_model["kind"] for r in models} == {"weighted", "interlaced_iv"}
    for r in models + [_weighted(w) for w in synthetic]:
        for Nmax in (0, 1, 5, 16):
            got = graded_invariant_dims(r, Nmax)
            assert got == [oracles.graded_invariant_dim(r, N) for N in range(Nmax + 1)], (r.id, Nmax)
    with pytest.raises(ValueError):
        graded_invariant_dims(_weighted((1, 2)), -1)


def test_check_generator_degrees_minimum_cases(records):
    minimum = [
        ("i", 1),
        ("i", 2),
        ("iii", 1),
        ("iii", 2),
        ("iv", 1),
        ("iv", 2),
        ("v", 1),
        ("v_prime", 1),
        ("vi", None),
        ("vii", None),
        ("viii", None),
        ("ix", None),
        ("x", None),
        ("xi", None),
        ("star", None),
    ]
    for key in minimum:
        assert check_generator_degrees(records[key], 12), key


def test_check_generator_degrees_case_iv_degree_list(records):
    # degrees 1,1,2,2,...,n,n,n+1
    r = records[("iv", 2)]
    assert claimed_degrees(r) == (1, 1, 2, 2, 3)
    assert check_generator_degrees(r, 12)


def test_nmax_must_cover_degrees(records):
    with pytest.raises(ValueError):
        check_generator_degrees(records[("vi", None)], 1)


def test_v_sequence_distinguishes_stored_multisets(records):
    seen = set()
    for r in records.values():
        if r.hilbert_model is None:
            continue
        degrees = claimed_degrees(r)
        if degrees in seen or len(degrees) > 7 or max(degrees) > 6:
            continue
        seen.add(degrees)
        assert distinguishing_multisets(degrees, 12, 6, 7) == [], degrees
