"""Group descriptors, Casimir scalars, infinitesimal characters, Cartan-Helgason."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchlab import catalog, weights
from branchlab.reps import (
    SO,
    SU,
    Sp,
    Spin,
    U,
    G2Group,
    IrrepLabel,
    ProductGroup,
    casimir_eigenvalue,
    casimir_numerators,
)
import oracles
from oracles import dot, random_weyl_image, vec


def F(*args):
    return tuple(Fraction(a) for a in args)


def dominant_weights(group, bound):
    """Every valid highest weight of the group with |coordinate| <= bound.

    Spin groups contribute both integrality classes; almost products are
    filtered by the covering parity.  Exponential in the rank; meant for
    finite cross-checks.
    """

    def simple(g):
        t = g.weyl
        n = t.ncoords
        out = []
        if g.kind == "G2":
            return [
                (Fraction(a), Fraction(b))
                for a in range(bound + 1)
                for b in range(bound + 1)
            ]
        classes = [0]
        if g.kind == "Spin":
            classes.append(Fraction(1, 2))
        for cls in classes:
            values = [Fraction(v) + cls for v in range(-bound, bound + 1)]
            values = [v for v in values if abs(v) <= bound]
            for w in itertools.combinations_with_replacement(sorted(values, reverse=True), n):
                vv = tuple(w)
                try:
                    IrrepLabel(g, vv)
                except ValueError:
                    continue
                out.append(vv)
                if t.family == "D" and vv[-1] > 0:
                    flipped = vv[:-1] + (-vv[-1],)
                    try:
                        IrrepLabel(g, flipped)
                    except ValueError:
                        continue
                    out.append(flipped)
        return sorted(set(out))

    if group.kind != "Product":
        return simple(group)
    parts = [simple(f) for f, _ in group.factor_slices]
    out = []
    for combo in itertools.product(*parts):
        flat = sum(combo, ())
        try:
            IrrepLabel(group, flat)
        except ValueError:
            continue
        out.append(flat)
    return sorted(out)


def cartan_helgason_admissible(lam, restricted_positive, t_kill):
    """Cartan–Helgason test: lam kills t_C and <lam, a>/<a, a> in N for all a."""
    lam = vec(lam)
    if not t_kill(lam):
        return False
    for a in restricted_positive:
        a = vec(a)
        ratio = dot(lam, a) / dot(a, a)
        if ratio.denominator != 1 or ratio < 0:
            return False
    return True


def infinitesimal_character(label):
    """The W-dominant representative of highest weight + rho, the form in
    which the transfer check compares infinitesimal characters."""
    t = label.group.weyl
    shifted = tuple(a + b for a, b in zip(oracles.highest_weight(label), weights.rho(t)))
    return weights.dominant_representative(t, shifted)


def natural(group):
    return IrrepLabel(group, F(*([1] + [0] * (group.rank - 1))))


@pytest.mark.parametrize("n", [3, 5, 7, 8, 16])
def test_casimir_natural_SO(n):
    assert casimir_eigenvalue(natural(SO(n))) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_casimir_natural_Sp(n):
    assert casimir_eigenvalue(natural(Sp(n))) == 2 * n + 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_casimir_natural_U(n):
    assert casimir_eigenvalue(natural(U(n))) == n


def test_casimir_spin8_half_spin_square():
    h = Fraction(1, 2)
    lam = (2 * h, 2 * h, 2 * h, 2 * h)
    assert casimir_eigenvalue(IrrepLabel(Spin(8), lam)) == 16


def test_casimir_trivial_rep_is_zero():
    for g in (U(3), SO(7), Spin(9), Sp(2), G2Group(), ProductGroup(SO(5), SO(3))):
        zero = tuple(Fraction(0) for _ in range(g.rank))
        value = casimir_eigenvalue(IrrepLabel(g, zero))
        if isinstance(value, tuple):
            assert all(v == 0 for v in value)
        else:
            assert value == 0


def test_casimir_product_returns_per_factor_values():
    # SO(5) block (2,1): j^2+3j+k^2+k = 12; SO(3) block (1): k^2+k = 2
    g = ProductGroup(SO(5), SO(3))
    lam = F(2, 1, 1)
    assert casimir_eigenvalue(IrrepLabel(g, lam)) == (Fraction(12), Fraction(2))


def test_casimir_G2_normalization():
    # short root of length one: Rep(G2, k*omega2) gets k^2 + 5k
    for k in range(6):
        lam = (Fraction(0), Fraction(k))
        assert casimir_eigenvalue(IrrepLabel(G2Group(), lam)) == k * k + 5 * k


def test_casimir_weyl_orbit_well_defined():
    g = SO(7)
    lam = F(4, 2, 1)
    base = casimir_eigenvalue(IrrepLabel(g, lam))
    rng = random.Random(3)
    for _ in range(15):
        moved = random_weyl_image(g.weyl, lam, rng)
        canon = weights.dominant_representative(g.weyl, moved)
        assert casimir_eigenvalue(IrrepLabel(g, canon)) == base


def test_infinitesimal_character_examples():
    ic = infinitesimal_character(IrrepLabel(SO(5), F(2, 1)))
    assert ic == (Fraction(7, 2), Fraction(3, 2))
    ic = infinitesimal_character(IrrepLabel(U(3), F(0, 0, 0)))
    assert ic == F(1, 0, -1)
    for g in (SO(7), Sp(2), U(4)):
        zero = tuple(Fraction(0) for _ in range(g.rank))
        assert infinitesimal_character(IrrepLabel(g, zero)) == g.rho


@pytest.mark.parametrize("g", [SO(5), SO(7), Sp(2), U(3), SO(8)])
def test_infinitesimal_character_separates_dominant_weights(g):
    seen = {}
    for lam in dominant_weights(g, 6):
        if any(x % 1 for x in lam):
            continue
        ic = infinitesimal_character(IrrepLabel(g, lam))
        assert ic not in seen, (lam, seen[ic])
        seen[ic] = lam


def test_label_validation():
    with pytest.raises(ValueError):
        IrrepLabel(SO(5), F(1, 2))  # not dominant
    with pytest.raises(ValueError):
        IrrepLabel(SO(5), (Fraction(1, 2), Fraction(1, 2)))  # SO is integral
    with pytest.raises(ValueError):
        IrrepLabel(Spin(7), (Fraction(1, 2), Fraction(1, 2), Fraction(0)))  # mixed classes
    IrrepLabel(Spin(7), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        # almost product: sum of coordinates must be even
        IrrepLabel(ProductGroup(Sp(1), Sp(1), almost=True), F(1, 0))
    IrrepLabel(ProductGroup(Sp(1), Sp(1), almost=True), F(1, 1))
    with pytest.raises(ValueError, match="not half-integral"):
        IrrepLabel(SO(5), (Fraction(1, 3), Fraction(0)))


GRID = tuple(Fraction(x, 2) for x in range(-2, 5))  # -1, -1/2, 0, ..., 2

GRID_GROUPS = (
    U(3),
    SU(3),
    SO(5),
    SO(6),
    Spin(7),
    Sp(2),
    G2Group(),
    ProductGroup(Spin(5), SU(2)),
    ProductGroup(Sp(2), U(1), almost=True),
)


def _outcome(route, w):
    """route(w), or the type and message of the exception it raised."""
    try:
        return route(w)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "group", GRID_GROUPS, ids=lambda g: g.name.replace("×", "x").replace("·", ".")
)
def test_labels_and_casimirs_match_fraction_oracle(group):
    """On doubled integers, label validation and the Casimir value agree with
    the Fraction routes of tests/oracles.py, error messages included."""

    def fraction_route(w):
        oracles.validate_weight(group, w)
        return oracles.casimir(group, w)

    errors = values = 0
    for w in itertools.product(GRID, repeat=group.rank):
        expected = _outcome(fraction_route, w)
        got = _outcome(lambda w: casimir_eigenvalue(IrrepLabel(group, w)), w)
        assert got == expected and type(got) is type(expected), (w, got, expected)
        # pi-side validates a doubled label without building one
        doubled = tuple(int(2 * x) for x in w)
        checked = _outcome(group._validate2, doubled)
        label = _outcome(lambda w: IrrepLabel(group, w), w)
        if isinstance(label, IrrepLabel):
            assert checked is None and label.doubled == doubled
            assert oracles.highest_weight(label) == w
            values += 1
        else:
            assert checked == label
            errors += 1
    assert errors and values


def test_cartan_helgason_sphere():
    e1 = F(1, 0, 0, 0)
    kill = lambda lam: all(x == 0 for x in lam[1:])
    for j in range(9):
        assert cartan_helgason_admissible(F(j, 0, 0, 0), [e1], kill)
    assert not cartan_helgason_admissible(
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)), [e1], kill
    )
    assert not cartan_helgason_admissible(F(1, 1, 0, 0), [e1], kill)


def _ch_filter(record, bound):
    roots = record.ch["restricted_pos"]
    kill_rows = record.ch["kill"]

    def t_kill(lam):
        return all(sum(r * x for r, x in zip(row, lam)) == 0 for row in kill_rows)

    return [
        lam
        for lam in dominant_weights(record.pi_group, bound)
        if cartan_helgason_admissible(lam, roots, t_kill)
    ]


@pytest.mark.parametrize(
    "tag,n",
    [
        ("i", 1),
        ("i", 2),
        ("i_prime", 2),
        ("ii_odd", 1),
        ("ii_odd", 3),
        ("ii_even", 2),
        ("iii", 1),
        ("iv", 1),
        ("iv", 2),
        ("v", 1),
        ("v_prime", 1),
        ("vi", None),
        ("x", None),
        ("star", None),
    ],
)
def test_cartan_helgason_matches_disc_enumerators(tag, n):
    records = {(r.id.tag, r.id.n): r for r in catalog.build_records(3)}
    record = records[(tag, n)]
    # Keep the ambient enumeration tractable on rank >= 6 lattices.
    bound = 8 if record.pi_group.rank <= 4 else 4
    admissible = set(_ch_filter(record, bound))
    from_lemma = set()
    for pi_params in record.pi_space.enumerate(bound):
        lam = record.pi_label_map.apply(pi_params)
        if all(abs(x) <= bound for x in lam):
            from_lemma.add(lam)
    assert admissible == from_lemma


def test_descriptor_builds_its_weyl_data_once():
    # a label's validation and Casimir read the Weyl type, the factor slices
    # and the Casimir plan of its group: each is built once per descriptor
    from branchlab.reps import IrrepLabel, ProductGroup, SO, U

    g = ProductGroup(SO(5), U(3))
    assert g.weyl is g.weyl and g.factor_slices is g.factor_slices
    assert g.casimir_plan is g.casimir_plan
    assert [sl for _, sl in g.factor_slices] == [slice(0, 2), slice(2, 5)]
    label = IrrepLabel(g, (2, 1, 1, 0, -1))
    assert casimir_eigenvalue(label) == casimir_eigenvalue(IrrepLabel(g, (2, 1, 1, 0, -1)))


CASIMIR_GROUPS = (
    U(1),
    U(4),
    SU(2),
    SU(5),
    SO(2),
    SO(3),
    SO(7),
    SO(8),
    Spin(5),
    Spin(8),
    Sp(3),
    G2Group(),
    ProductGroup(Spin(7), SU(3)),
    ProductGroup(Sp(2), U(1), almost=True),
    ProductGroup(G2Group(), Spin(6), U(2)),
)


@st.composite
def highest_weights(draw, group):
    """A highest weight of group: per factor, random coordinates moved to
    the dominant chamber by the oracle's Weyl action, half-integral at
    times for a Spin factor; an almost product's covering parity is left to
    the caller."""
    w = ()
    for f, _ in group.factor_slices:
        half = f.kind == "Spin" and draw(st.booleans())
        coords = draw(st.lists(st.integers(-9, 9), min_size=f.rank, max_size=f.rank))
        w += oracles.dominant_representative(f.weyl, [Fraction(2 * x + half, 2) for x in coords])
    return w


@given(st.sampled_from(CASIMIR_GROUPS).flatmap(lambda g: st.tuples(st.just(g), highest_weights(g))))
@settings(max_examples=300, deadline=None)
def test_casimir_numerators_match_the_fraction_oracle(group_and_weight):
    # each factor's integer numerator over its fixed denominator (4, 4n for
    # SU(n), 8 for G2) is the oracle's Fraction <lam, lam + 2 rho>
    group, w = group_and_weight
    try:
        oracles.validate_weight(group, w)
    except ValueError:
        assume(False)
    nums, dens = casimir_numerators(group, tuple(int(2 * x) for x in w))
    want = oracles.casimir(group, w)
    want = want if group.kind == "Product" else (want,)
    kinds = [(f.kind, f.rank) for f, _ in group.factor_slices]
    assert dens == tuple(8 if k == "G2" else 4 * n if k == "SU" else 4 for k, n in kinds)
    assert [v * d for v, d in zip(want, dens)] == list(nums)
