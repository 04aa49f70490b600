"""Workload definitions and the known answers the correctness gate checks
against.  The reference data is written out here, not computed by branchlab,
so that a change to the program cannot change what counts as correct.
"""

from __future__ import annotations

# Every tag of the catalog except ``iv``: its boxes at n >= 4 are out of reach
# for box evaluation (iv[n=4] already has 293,930 theta at bound 6).
WIDE_TAGS = (
    "i,i_prime,ii_odd,ii_even,iii,v,v_prime,vi,vii,viii,ix,x,xi,xii,xiii,xiii_prime,xiv,star"
)

CLI_ARGV = {
    # Bound 5, not the whole-run bound 8: one bound-8 run takes over a minute,
    # longer than a single benchmark run may last.  iv[n=3] still holds 82% of
    # the theta points, so the per-theta loops still dominate.
    "deep-box": ["verify", "--max-n", "3", "--bound", "5", "--format", "json"],
    "wide-shallow": [
        "verify", "--max-n", "6", "--bound", "8", "--format", "json", "--cases", WIDE_TAGS,
    ],
}

# max_n handed to catalog.load_default, and the box bound the checks use.
MAX_N = {"deep-box": 3, "wide-shallow": 6, "poly-model": 1}
BOUND = {"deep-box": 5, "wide-shallow": 8, "poly-model": 6}

WORKLOADS = ("deep-box", "wide-shallow", "poly-model")

BASE_CHECKS = (
    "relations",
    "transfer",
    "rank-identity",
    "degree-counts",
    "dimension-conservation",
    "strong-multiplicity-freeness",
    "independence",
    "pi-side-consistency",
)
# Tags whose records store no Hilbert model, so they get no generator-degrees check.
NO_HILBERT_TAGS = {"ii_odd", "ii_even", "xiv"}
EXTRA_CHECKS = {
    "ix": ("dl-only-subalgebra-index-2",),
    "star": ("dgx-membership", "x-not-in-R", "dgx-module-decomposition", "dgx-cross-evaluation"),
}

# case id -> number of theta in its box, which is also the run count the
# transfer check must report.  Recorded from the seed's report and checked by
# brute-force counting of the box through ParamSpace.contains where the box
# has at most three million candidate tuples.
THETA_BOX = {
    "deep-box": {
        "i[n=1]": 36, "i[n=2]": 36, "i[n=3]": 36, "i_prime[n=2]": 36, "i_prime[n=3]": 36,
        "ii_odd[n=1]": 6, "ii_odd[n=3]": 56, "ii_even[n=2]": 21,
        "iii[n=1]": 12, "iii[n=2]": 12, "iii[n=3]": 12,
        "iv[n=1]": 286, "iv[n=2]": 3003, "iv[n=3]": 19448,
        "v[n=1]": 21, "v[n=2]": 21, "v[n=3]": 21,
        "v_prime[n=1]": 56, "v_prime[n=2]": 56, "v_prime[n=3]": 56,
        "vi": 12, "vii": 21, "viii": 91, "ix": 36, "x": 6, "xi": 6, "xii": 6,
        "xiii": 36, "xiii_prime": 36, "xiv": 56, "star": 69,
    },
    "wide-shallow": {
        "i[n=1]": 81, "i[n=2]": 81, "i[n=3]": 81, "i[n=4]": 81, "i[n=5]": 81, "i[n=6]": 81,
        "i_prime[n=2]": 81, "i_prime[n=3]": 81, "i_prime[n=4]": 81, "i_prime[n=5]": 81,
        "i_prime[n=6]": 81,
        "ii_odd[n=1]": 9, "ii_odd[n=3]": 165, "ii_odd[n=5]": 1287,
        "ii_even[n=2]": 45, "ii_even[n=4]": 495, "ii_even[n=6]": 3003,
        "iii[n=1]": 25, "iii[n=2]": 25, "iii[n=3]": 25, "iii[n=4]": 25, "iii[n=5]": 25,
        "iii[n=6]": 25,
        "v[n=1]": 45, "v[n=2]": 45, "v[n=3]": 45, "v[n=4]": 45, "v[n=5]": 45, "v[n=6]": 45,
        "v_prime[n=1]": 165, "v_prime[n=2]": 165, "v_prime[n=3]": 165, "v_prime[n=4]": 165,
        "v_prime[n=5]": 165, "v_prime[n=6]": 165,
        "vi": 25, "vii": 45, "viii": 285, "ix": 81, "x": 9, "xi": 9, "xii": 9,
        "xiii": 81, "xiii_prime": 81, "xiv": 165, "star": 215,
    },
}

# The product-overgroup suite.  Members of R at degree 4, and the known
# non-member x.
MEMBERS = ("z", "x+y", "xz+y", "xy")
DECOMPOSE_DEGREE = 8
# dgx generator name -> the star record's symbol it must agree with.
CROSS_PAIRS = (
    ("r1", "R_1"),
    ("r2", "R_2"),
    ("r3", "R_3"),
    ("r4", "R_4"),
    ("q", "C_K"),
    ("p1", "C_Gt1"),
    ("p2", "C_Gt2"),
)


def case_tag(case_id: str) -> str:
    return case_id.split("[", 1)[0]


def expected_checks(case_id: str) -> tuple[str, ...]:
    tag = case_tag(case_id)
    checks = BASE_CHECKS
    if tag not in NO_HILBERT_TAGS:
        checks += ("generator-degrees",)
    return checks + EXTRA_CHECKS.get(tag, ())


def decompose_monomials() -> list[tuple[int, int, int]]:
    """All exponent triples of x^a y^b z^c with a + b + c <= DECOMPOSE_DEGREE (165)."""
    d = DECOMPOSE_DEGREE
    return [
        (a, b, c)
        for a in range(d + 1)
        for b in range(d + 1 - a)
        for c in range(d + 1 - a - b)
    ]


def operation_count(workload: str) -> int:
    """Operations one run of the workload attempts: one check on one case, or
    one poly-model item."""
    if workload == "poly-model":
        return len(MEMBERS) + 1 + 1 + len(decompose_monomials()) + len(CROSS_PAIRS)
    return sum(len(expected_checks(c)) for c in THETA_BOX[workload])
