"""Folner overlaps and defects, and the Cesaro grid norm, against the
enumerations they replace.

``folner_overlap`` is a closed form and ``folner_defects`` counts every
radius's symmetric difference over one enumeration of the largest box;
both must equal the set-based counts over ``folner_set`` as exact
Fractions, for radii in any order, repeated or not.  ``sup_norm_grid``
reads shared exponential rows, and sums a table of polynomials in blocks
of rows; each value must equal the per-point evaluation of both
polynomials bit for bit.
"""

import cmath
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedprod import summation
from crossedprod.errors import SpecMismatchError, UndersampledGridError
from crossedprod.groups import Cyclic, IntegerLattice, Integers, parse_group
from crossedprod.posdef import (
    folner_defects,
    folner_overlap,
    folner_set,
    folner_size,
)
from crossedprod.summation import TrigPolynomial, cesaro_mean, sup_norm_grid


def ref_overlap(spec, n, t):
    """|F_n meet tF_n| / |F_n| counted element by element."""
    F = folner_set(spec, n)
    members = set(F)
    count = sum(1 for h in F if spec.multiply(t, h) in members)
    return Fraction(count, len(F))


def ref_defect(spec, n, t):
    """|tF_n symdiff F_n| / |F_n| from the two sets of elements."""
    F = folner_set(spec, n)
    moved = {spec.multiply(t, h) for h in F}
    return Fraction(len(moved.symmetric_difference(F)), len(F))


def ref_sup_norm_grid(f, g, grid_points):
    """The per-point loop: both polynomials evaluated at every grid point."""
    step = 2.0 * cmath.pi / grid_points
    return max(abs(f(i * step) - g(i * step)) for i in range(grid_points))


# (group, shifts): zero, unit, negative and wider-than-the-box shifts; C1
# and C2xC3 have no Z axis
FOLNER_CASES = [
    ("Z", [0, 1, -1, 3, -7, 12]),
    ("Z^1", [(0,), (2,), (-5,)]),
    ("Z^2", [(0, 0), (1, -1), (3, -2), (-4, 0), (9, 9)]),
    ("Z^3", [(0, 0, 0), (0, 1, 0), (0, 0, -1), (2, -3, 5), (-1, 1, -1)]),
    ("C1", [0]),
    ("C5", [0, 1, 2, 3, 4]),
    ("C2xC3", [(0, 0), (1, 2), (0, 1)]),
    ("ZxC3", [(0, 0), (-1, 2), (1, 1), (5, 0), (-6, 2)]),
    ("Z^2xC2", [((0, 0), 0), ((1, -1), 1), ((3, -2), 1), ((0, 8), 0)]),
    ("C4xZ", [(0, 0), (3, -2), (1, 5), (2, -9)]),
]

# unordered, repeated, with 0, a single radius, and none
RADII_LISTS = [[5, 0, 3, 3, 1], [2, 2], [0], [4], [3, 0], []]


@pytest.mark.parametrize("group, shifts", FOLNER_CASES, ids=[g for g, _ in FOLNER_CASES])
def test_folner_closed_forms_match_the_set_counts(group, shifts):
    spec = parse_group(group)
    top = 7 if group != "Z^3" else 5
    for t in shifts:
        for n in range(0, top):
            assert folner_overlap(spec, n, t) == ref_overlap(spec, n, t), (t, n)
        for radii in [range(0, top)] + RADII_LISTS:
            want = [ref_defect(spec, n, t) for n in radii]
            assert folner_defects(spec, t, radii) == want, (t, radii)
        assert folner_size(spec, 3) == len(folner_set(spec, 3))


def test_an_empty_radius_list_has_no_defects():
    assert folner_defects(Integers(), 1, []) == []
    assert folner_defects(parse_group("C2xC3"), (1, 2), range(0)) == []


def test_radii_past_the_cap_on_a_group_without_a_z_factor():
    # F_n is the whole group at every n, so the counts stop at level 0
    for group, t in [("C5", 1), ("C2xC3", (1, 2))]:
        assert folner_defects(parse_group(group), t, [10**20, 0, 10**8]) == [0, 0, 0]


def test_wide_shifts_leave_disjoint_boxes():
    Z2 = IntegerLattice(2)
    for t in [(3, 0), (0, -3), (10**30, 0), (-(10**30), 5)]:
        assert folner_overlap(Z2, 2, t) == 0
        assert folner_defects(Z2, t, [2]) == [2]
        # wider than F_0..F_2, narrower than F_3 and F_4 for the first two
        radii = [4, 0, 2, 3, 1]
        assert folner_defects(Z2, t, radii) == [ref_defect(Z2, n, t) for n in radii]
    for t in [2**70, -(2**70)]:
        radii = [4, 0, 2]
        assert folner_defects(Integers(), t, radii) == [ref_defect(Integers(), n, t) for n in radii]
        assert folner_defects(Integers(), t, radii) == [2, 2, 2]
    Z2C2 = parse_group("Z^2xC2")
    t = ((6, -1), 1)
    assert folner_defects(Z2C2, t, range(8)) == [ref_defect(Z2C2, n, t) for n in range(8)]


@pytest.mark.parametrize("group", ["F2", "ZxF2"])
def test_free_factors_have_no_averaging_sequence(group):
    spec = parse_group(group)
    t = spec.identity()
    for fn in (folner_overlap, ref_overlap, ref_defect):
        with pytest.raises(SpecMismatchError, match="no averaging sequence for F2"):
            fn(spec, 2, t)
    for radii in ([2], [0, 3], []):
        with pytest.raises(SpecMismatchError, match="no averaging sequence for F2"):
            folner_defects(spec, t, radii)
    with pytest.raises(SpecMismatchError, match="no averaging sequence for F2"):
        folner_size(spec, 2)


@pytest.mark.parametrize("group", ["Z", "Z^2", "C5", "ZxC3", "F2"])
def test_negative_radius_is_rejected(group):
    spec = parse_group(group)
    t = spec.identity()
    for fn in (folner_overlap, ref_overlap, ref_defect):
        with pytest.raises(ValueError, match="index must be >= 0"):
            fn(spec, -1, t)
    for radii in ([-1], [3, 0, -2], [-5, 4], [2, 2, -1]):
        with pytest.raises(ValueError, match="index must be >= 0"):
            folner_defects(spec, t, radii)
    with pytest.raises(ValueError, match="index must be >= 0"):
        folner_size(spec, -1)


@pytest.mark.parametrize(
    "spec, t", [(Cyclic(5), 7), (IntegerLattice(2), (1,)), (parse_group("ZxC3"), (1, 3))]
)
def test_shift_outside_the_group_is_rejected(spec, t):
    for fn in (folner_overlap, ref_overlap, ref_defect):
        with pytest.raises(SpecMismatchError):
            fn(spec, 2, t)
    for radii in ([2], [0, 4], []):
        with pytest.raises(SpecMismatchError):
            folner_defects(spec, t, radii)


def _shifts(spec):
    if isinstance(spec, Integers):
        return st.integers(-9, 9)
    if isinstance(spec, IntegerLattice):
        return st.tuples(*[st.integers(-9, 9)] * spec.d)
    if isinstance(spec, Cyclic):
        return st.integers(0, spec.n - 1)
    return st.tuples(*map(_shifts, spec.factors))


FOLNER_GROUPS = ["Z", "Z^1", "Z^2", "Z^3", "C1", "C2", "C5", "ZxC3", "Z^2xC2", "C4xZ", "C2xC3"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(FOLNER_GROUPS)
    .map(parse_group)
    .flatmap(lambda spec: st.tuples(st.just(spec), _shifts(spec))),
    radii=st.lists(st.integers(0, 4), max_size=6),
)
def test_folner_property(case, radii):
    spec, t = case
    defects = folner_defects(spec, t, radii)
    assert len(defects) == len(radii)
    for n, defect in zip(radii, defects):
        overlap = folner_overlap(spec, n, t)
        assert overlap == ref_overlap(spec, n, t)
        assert defect == ref_defect(spec, n, t)
        assert overlap == 1 - defect / 2


def test_folner_study_rows_match_the_references():
    spec = parse_group("ZxC3")
    t = (-1, 2)
    for radii in (range(0, 8), [6, 0, 2, 2, 7]):
        rows = summation.folner_study(spec, t, radii)
        assert [row.radius for row in rows] == list(radii)
        for row in rows:
            assert row.defect == ref_defect(spec, row.radius, t)
            assert row.value == ref_overlap(spec, row.radius, t)


def _same_float(a, b):
    return type(a) is float and a.hex() == float(b).hex()


CESARO_CASES = [
    ({0: 1.0, 1: 0.5, -1: 0.5}, [0, 1, 5, 40], [5, 9, 2001]),
    ({0: 1, 2: 0.5j, -3: -0.25}, [0, 2, 3, 7], [13, 25, 101]),
    ({0: 1, 1: Fraction(1, 3), -2: 2.5 - 1j, 5: -1e-9 + 3j}, [0, 4, 5, 9], [21, 41]),
    ({3: 1j, -3: -1j}, [0, 2, 3, 30], [13, 97]),
]


@pytest.mark.parametrize("coeffs, orders, grids", CESARO_CASES)
def test_sup_norm_grid_is_bitwise_the_per_point_loop(coeffs, orders, grids):
    f = TrigPolynomial(coeffs)
    for grid in grids:
        if grid < 4 * f.degree() + 1:
            continue
        for n in orders:
            mean = cesaro_mean(f, n)
            assert _same_float(sup_norm_grid(f, mean, grid), ref_sup_norm_grid(f, mean, grid))


def test_sup_norm_grid_of_unrelated_polynomials():
    f = TrigPolynomial({0: 0.25, 4: 1 - 2j, -1: 3})
    g = TrigPolynomial({1: 0.5j, -4: 2.0, 0: -0.125})
    for grid in (17, 18, 64):
        assert _same_float(sup_norm_grid(f, g, grid), ref_sup_norm_grid(f, g, grid))
        assert _same_float(sup_norm_grid(g, f, grid), ref_sup_norm_grid(g, f, grid))


@pytest.mark.parametrize("coeffs, orders, grids", CESARO_CASES)
@pytest.mark.parametrize("block", [1, 3, None], ids=["rows-1", "rows-3", "default"])
def test_a_table_of_orders_is_bitwise_the_per_point_loop(monkeypatch, coeffs, orders, grids, block):
    """One call on the means of every order, across the degree, repeated
    and out of order, in blocks of one row, of three rows with a partial
    last block, and at the default bound."""
    f = TrigPolynomial(coeffs)
    orders = orders[::-1] + orders[:2]
    for grid in grids:
        if grid < 4 * f.degree() + 1:
            continue
        if block is not None:
            monkeypatch.setattr(summation, "GRID_TERMS", block * grid)
        means = [cesaro_mean(f, n) for n in orders]
        got = sup_norm_grid(f, means, grid)
        assert isinstance(got, list) and len(got) == len(means)
        for err, mean in zip(got, means):
            assert _same_float(err, ref_sup_norm_grid(f, mean, grid))


def test_a_table_of_unrelated_polynomials_is_bitwise_the_per_point_loop(monkeypatch):
    """Rows whose keys come in different orders and numbers, the empty
    polynomial among them, in blocks of two rows."""
    f = TrigPolynomial({0: 0.25, 4: 1 - 2j, -1: 3})
    gs = [
        TrigPolynomial({1: 0.5j, -4: 2.0, 0: -0.125}),
        TrigPolynomial({-4: 2.0, 1: 0.5j}),
        TrigPolynomial({}),
        TrigPolynomial({0: -0.125, 3: 1e-3 - 4j, 1: 0.5j, -2: 7, 4: -1}),
        f,
    ]
    for grid in (17, 18, 64):
        monkeypatch.setattr(summation, "GRID_TERMS", 2 * grid)
        got = sup_norm_grid(f, gs, grid)
        assert all(_same_float(e, ref_sup_norm_grid(f, g, grid)) for e, g in zip(got, gs))
        assert got == [sup_norm_grid(f, g, grid) for g in gs]
    assert sup_norm_grid(f, [], 17) == []


def test_a_table_checks_the_grid_against_every_degree():
    f = TrigPolynomial({0: 1.0})
    with pytest.raises(UndersampledGridError):
        sup_norm_grid(f, [f, TrigPolynomial({3: 1.0}), f], 12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    coeffs=st.dictionaries(
        st.integers(-12, 12),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    orders=st.lists(st.integers(0, 15), min_size=1, max_size=12),
    extra=st.integers(0, 40),
    block=st.integers(1, 5),
)
def test_sup_norm_grid_table_property(coeffs, orders, extra, block):
    f = TrigPolynomial(coeffs)
    grid = 4 * f.degree() + 1 + extra
    means = [cesaro_mean(f, n) for n in orders]
    old, summation.GRID_TERMS = summation.GRID_TERMS, block * grid
    try:
        got = sup_norm_grid(f, means, grid)
    finally:
        summation.GRID_TERMS = old
    for err, mean in zip(got, means):
        assert _same_float(err, ref_sup_norm_grid(f, mean, grid))


def test_exponential_rows_are_shared_across_orders(monkeypatch):
    calls = []

    def counted_exp(z):
        calls.append(z)
        return cmath.exp(z)

    f = TrigPolynomial({0: 1.0, 1: 0.5, -1: 0.5})
    summation._exp_table.cache_clear()
    monkeypatch.setattr(summation, "cmath", SimpleNamespace(pi=cmath.pi, exp=counted_exp))
    for n in range(5, 40):
        sup_norm_grid(f, cesaro_mean(f, n), 2001)
    assert len(calls) == 3 * 2001
    assert sorted(summation._exp_table(2001)) == [-1, 0, 1]
    summation._exp_table.cache_clear()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    coeffs=st.dictionaries(
        st.integers(-12, 12),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    n=st.integers(0, 15),
    extra=st.integers(0, 40),
)
def test_sup_norm_grid_property(coeffs, n, extra):
    f = TrigPolynomial(coeffs)
    grid = 4 * f.degree() + 1 + extra
    mean = cesaro_mean(f, n)
    assert _same_float(sup_norm_grid(f, mean, grid), ref_sup_norm_grid(f, mean, grid))
