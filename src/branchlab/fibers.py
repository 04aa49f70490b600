"""The branch rules as data: the fiber of pi under a rule is theta at the
lattice points of a polytope over pi.

A rule's ``FiberPolytope`` has pi's coordinates, then free ones.  Each free
coordinate is bounded below and above by affine forms in pi and in the free
coordinates before it, a parity rule adds a congruence, and theta is one
integer affine row per coordinate in (pi, free).  ``walk`` lists a fiber in
the order of the lemmas' closed forms, which the tests keep as the
reference; ``verify`` compiles the same description into each case's pi
kernel, and an exact summation over a fiber can read it too.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Sequence

from . import nest
from .catalog import Constraint, ParamSpace, _limit_walk


@dataclass(frozen=True)
class FiberPolytope:
    """The fiber of a rule over pi, as data.  ``space`` has the npi
    coordinates of pi, then the free ones, every coordinate "int"; each of
    its inequalities has its last non-zero coefficient at a free coordinate,
    so its ``limits`` bound each free coordinate affinely in pi and in the
    free coordinates before it, below and above, and its congruences are the
    parity rules'.  ``theta`` holds one integer affine row (((index,
    coefficient), ...), const) in (pi, free) per coordinate of theta.  The
    fiber of pi is theta at each lattice point over pi, in the lex order of
    the free coordinates."""

    npi: int
    space: ParamSpace
    theta: tuple

    def __post_init__(self):
        limits = self.space.limits
        if any(limits[: self.npi]):
            raise ValueError("a fiber constraint ends at a pi coordinate")
        for t in range(self.npi, len(limits)):
            if {a > 0 for a, _, _ in limits[t]} != {True, False}:
                raise ValueError("free coordinate %s is unbounded" % self.space.names[t])

    def walk(self, pi: Sequence[int]):
        """Yield the fiber of pi, theta by theta."""
        free = len(self.space.names) - self.npi
        lows = list(pi) + [-math.inf] * free
        highs = list(pi) + [math.inf] * free
        points = _limit_walk(lows, highs, self.space.limits, self.space.leaf_rows)
        return map(nest.affine_kernel(self.theta), points)


def _affine(names: Sequence[str], text: str) -> tuple:
    """(coefficient per coordinate of ``names``, const) of a sum of terms
    such as "2k - j + 1"."""
    coeffs, const = [0] * len(names), 0
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sign, num, name = re.fullmatch(r"([+-]?)(\d*)([a-z]\w*)?", term).groups()
        c = int(sign + (num or "1"))
        if name:
            coeffs[names.index(name)] += c
        else:
            const += c
    return tuple(coeffs), const


# The rules of a pi of one coordinate, or of two for the triangle: (pi's
# coordinates, the free ones, the forms that are >= 0, the forms that are
# even, the coordinates of theta).
_RULES = {
    # (i), (i)': H^j -> {(k, j-k)}
    "charge_split": ("j", "k", ("k", "j - k"), (), ("k", "j - k")),
    # (iii): H^{j,j} -> {(k, 2j-k) : j<=k<=2j}
    "quaternion_split": ("j", "k", ("k - j", "2j - k"), (), ("k", "2j - k")),
    # (v): H^j -> {(k, j-k) : j/2 <= k <= j}
    "sphere_sp1": ("j", "k", ("2k - j", "j - k"), (), ("k", "j - k")),
    # (v)': and |b| <= 2k - j, b = 2k - j mod 2
    "sphere_sp1_u1": (
        "j",
        "k b",
        ("2k - j", "j - k", "b + 2k - j", "2k - j - b"),
        ("b - j",),
        ("k", "j - k", "b"),
    ),
    # (vi): k = j, j-2, ..., >= 0
    "parity_tail": ("j", "k", ("k", "j - k"), ("k - j",), ("j", "k")),
    # (vii): 0 <= k <= j
    "tail_le": ("j", "k", ("k", "j - k"), (), ("j", "k")),
    # (viii): 0 <= k <= j, |a| <= k
    "tail_le_charge": ("j", "k a", ("k", "j - k", "a + k", "k - a"), (), ("j", "k", "a")),
    # (ix): |k| <= j
    "charge_pm": ("j", "k", ("k + j", "j - k"), (), ("j", "k")),
    # (*): |j-j'| <= a <= j+j', a = j+j' mod 2
    "triangle": (
        "j jp",
        "a",
        ("a - j + jp", "a + j - jp", "j + jp - a"),
        ("a + j + jp",),
        ("j", "jp", "a"),
    ),
}


def _rule(rule: tuple, npi: int) -> tuple:
    """The ``_RULES`` entry of a rule, built for npi where it depends on it:
    the identity of (x) and (xi), and the chains (j1,k1,j2,...,jm) with
    j_(i+1) <= k_i <= j_i of (ii) odd and (iv), closed in (ii) even by one
    more k_m with 0 <= k_m <= j_m."""
    name = rule[0]
    if name == "identity":
        pi = ["p%d" % i for i in range(npi)]
        return " ".join(pi), "", (), (), pi
    if name in ("interlace_ii_odd", "interlace_iv", "interlace_ii_even") and npi:
        js = ["j%d" % i for i in range(npi)]
        ks = ["k%d" % i for i in range(npi if name == "interlace_ii_even" else npi - 1)]
        lows = js[1:] + ["0"]
        forms = [f for k, hi, lo in zip(ks, js, lows) for f in (k + " - " + lo, hi + " - " + k)]
        chain = [x for pair in itertools.zip_longest(js, ks) for x in pair if x]
        return " ".join(js), " ".join(ks), forms, (), chain
    if name not in _RULES:
        raise ValueError("unknown branch rule %r" % (rule,))
    return _RULES[name]


@functools.cache
def fiber_polytope(rule: tuple, npi: int) -> FiberPolytope:
    """The FiberPolytope of a branch rule for a pi of npi coordinates, built
    on first use; ValueError for an unknown rule or a wrong npi."""
    pi, free, forms, even, theta = _rule(rule, npi)
    if len(pi.split()) != npi:
        raise ValueError("branch rule %r takes %d pi coordinates, not %d" % (rule, len(pi.split()), npi))
    names = tuple(pi.split() + free.split())
    constraints = [Constraint(*_affine(names, f)) for f in forms]
    constraints += [Constraint(*_affine(names, f), 2) for f in even]
    rows = []
    for f in theta:
        coeffs, const = _affine(names, f)
        rows.append((tuple((i, c) for i, c in enumerate(coeffs) if c), const))
    space = ParamSpace(names, ("int",) * len(names), tuple(constraints))
    return FiberPolytope(npi, space, tuple(rows))


def _branch_fibers(rule: tuple, pi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The fiber of pi under the rule: the walk of its ``fiber_polytope``."""
    return list(fiber_polytope(rule, len(pi)).walk(pi))
