"""Quotient-length tables and the length-table Gram against the loops they
replace.

``GroupSpec.quotient_lengths`` must equal the table of
``word_length(multiply(g, inverse(h)))`` over a window, and the Gram of a
radial function, filled from that table, must equal the per-entry loop
bit for bit.  Functions that are not provably length-determined must stay
on the per-entry loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedprod import posdef
from crossedprod.errors import ResourceCapError, SpecMismatchError
from crossedprod.groups import (
    Ball,
    Cyclic,
    FreeGroup,
    IntegerLattice,
    Integers,
    ProductGroup,
    ball,
    parse_group,
)
from crossedprod.posdef import (
    PdFunction,
    chi_from_set,
    convex_combination,
    gram_matrix,
    haagerup,
    pointwise_product,
)


def ref_lengths(spec, elements):
    return np.array(
        [
            [spec.word_length(spec.multiply(g, spec.inverse(h))) for h in elements]
            for g in elements
        ],
        dtype=np.int64,
    ).reshape(len(elements), len(elements))


def ref_gram(f, window):
    """The per-entry loop: one evaluation of f per entry, column by column."""
    spec = window.spec
    n = len(window)
    out = np.empty((n, n), dtype=complex)
    for j, h in enumerate(window):
        hinv = spec.inverse(h)
        for i, g in enumerate(window):
            out[i, j] = f(spec.multiply(g, hinv))
    return out


CASES = [
    ("Z", 3),
    ("Z^1", 3),
    ("Z^2", 2),
    ("Z^3", 2),
    ("C1", 0),
    ("C2", 1),
    ("C5", 2),
    ("C6", 3),
    ("F1", 3),
    ("F2", 3),
    ("F3", 2),
    ("ZxC3", 2),
    ("ZxF2", 2),
    ("C4xC6", 5),
]


@pytest.mark.parametrize("label, radius", CASES, ids=[c[0] for c in CASES])
def test_quotient_lengths_match_the_loop(label, radius):
    spec = parse_group(label)
    window = ball(spec, radius)
    got = spec.quotient_lengths(window.elements)
    assert got.dtype.kind == "u" and got.dtype.itemsize == 1
    assert np.array_equal(got, ref_lengths(spec, window.elements))


def test_quotient_lengths_of_an_unordered_list():
    # repeats, as a product's factor parts have: a word and its repeat are at
    # distance 0, whether it is the longest word or shorter than some suffix
    spec = FreeGroup(2)
    words = [(1, 2), (), (-2,), (2, 1, 2), (1,), (-1, 2), (2, 1, 2), (1,)]
    assert np.array_equal(spec.quotient_lengths(words), ref_lengths(spec, words))


def test_quotient_lengths_widen_past_radius_127_on_f1():
    # a^m is the word of m on F1, so |g h^-1| = |m_g - m_h|; past radius 127,
    # 2 * 128 = 256 no longer fits in uint8
    spec = FreeGroup(1)
    window = ball(spec, 128)
    got = spec.quotient_lengths(window.elements)
    m = np.array([sum(w) for w in window], dtype=np.int64)
    assert got.dtype == np.uint16
    assert np.array_equal(got, np.abs(np.subtract.outer(m, m)))


def test_quotient_lengths_validate_payloads():
    with pytest.raises(SpecMismatchError):
        FreeGroup(2).quotient_lengths([(), (1, -1)])
    with pytest.raises(SpecMismatchError):
        Cyclic(4).quotient_lengths([0, 5])


def _factor_specs():
    return st.one_of(
        st.just(Integers()),
        st.integers(1, 3).map(IntegerLattice),
        st.integers(1, 12).map(Cyclic),
        st.integers(1, 3).map(FreeGroup),
    )


GROUP_SPECS = st.one_of(
    _factor_specs(),
    st.lists(_factor_specs(), min_size=2, max_size=3).map(
        lambda fs: ProductGroup(tuple(fs))
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=GROUP_SPECS, radius=st.integers(0, 3))
def test_quotient_lengths_property(spec, radius):
    # large product balls shrink to the largest radius under the cap
    while True:
        try:
            window = ball(spec, radius, cap=200)
            break
        except ResourceCapError:
            radius -= 1
    got = spec.quotient_lengths(window.elements)
    assert np.array_equal(got, ref_lengths(spec, window.elements))
    # the invariants a radial Gram rests on to skip its symmetrizing
    assert np.array_equal(got, got.T)
    assert not got.diagonal().any()


def _ball_chi(label, radius):
    spec = parse_group(label)
    return chi_from_set(spec, ball(spec, radius).elements)


def radial_functions():
    f2, f3 = FreeGroup(2), FreeGroup(3)
    h2 = haagerup(f2, 0.549306)
    b2 = _ball_chi("F2", 2)
    b3 = _ball_chi("F3", 1)
    return [
        ("haagerup-F2", h2),
        ("haagerup-F3", haagerup(f3, 0.4)),
        ("haagerup-ZxC3", haagerup(parse_group("ZxC3"), 0.5)),
        ("haagerup-Z^2", haagerup(IntegerLattice(2), 0.3)),
        ("ball-chi-F2", b2),
        ("ball-chi-F3", b3),
        ("ball-chi-F1", _ball_chi("F1", 2)),
        ("chi-identity-F2", chi_from_set(f2, [()])),
        ("ball-chi-squared-F2", pointwise_product(b2, b2)),
        ("haagerup-times-ball-chi-F2", pointwise_product(h2, b2)),
        ("convex-F2", convex_combination([(0.25, h2), (0.75, b2)])),
        (
            "convex-of-products-F3",
            convex_combination(
                [(0.5, pointwise_product(b3, b3)), (0.5, haagerup(f3, 0.7))]
            ),
        ),
    ]


RADIAL = radial_functions()


@pytest.mark.parametrize("name, f", RADIAL, ids=[name for name, _ in RADIAL])
def test_radial_gram_matches_the_loop(name, f):
    assert f.radial
    window = ball(f.spec, 3)
    assert np.array_equal(gram_matrix(f, window), ref_gram(f, window))


@pytest.mark.parametrize("name, f", RADIAL, ids=[name for name, _ in RADIAL])
def test_radial_flag_is_sound(name, f):
    """A radial function is constant on each sphere of ball(2R)."""
    radius = 2 if isinstance(f.spec, FreeGroup) and f.spec.k == 3 else 3
    spheres = {}
    for g in ball(f.spec, 2 * radius):
        spheres.setdefault(f.spec.word_length(g), set()).add(f(g))
    assert all(len(values) == 1 for values in spheres.values()), spheres


def test_radial_gram_calls_f_once_per_length(monkeypatch):
    calls = []
    real = PdFunction.__call__

    def spy(self, g):
        calls.append(g)
        return real(self, g)

    monkeypatch.setattr(PdFunction, "__call__", spy)
    f = haagerup(FreeGroup(3), 0.55)
    gram_matrix(f, ball(FreeGroup(3), 2))
    assert [len(g) for g in calls] == [0, 1, 2, 3, 4]


def test_radial_gram_on_a_window_that_is_not_a_ball():
    # the column of aaa holds lengths 0, 4 and 5 and reaches 1 first; the
    # first column holding 1 is that of b, at bb
    spec = FreeGroup(2)
    window = Ball(spec, 3, ((1, 1, 1), (2,), (2, 2), (-1,)))
    f = haagerup(spec, 0.549306)
    assert np.array_equal(gram_matrix(f, window), ref_gram(f, window))


@pytest.fixture
def table_passes(monkeypatch):
    """The ufunc calls, comparisons and reductions among them, and the
    numpy functions that read a whole length table of Z; a 2-D slice of it
    counts as whole.  Results are plain arrays, so what is computed from
    the table is not counted again."""
    passes = []

    def plain(x):
        return x.view(np.ndarray) if isinstance(x, CountingTable) else x

    def count(args):
        if any(isinstance(x, CountingTable) and x.ndim == 2 for x in args):
            passes.append(1)

    class CountingTable(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            count(inputs)
            if "out" in kwargs:
                kwargs["out"] = tuple(map(plain, kwargs["out"]))
            return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            count(args)
            return func(*map(plain, args), **kwargs)

    real = Integers.quotient_lengths
    monkeypatch.setattr(
        Integers,
        "quotient_lengths",
        lambda self, elements: real(self, elements).view(CountingTable),
    )
    return passes


def test_radial_gram_reads_its_table_a_fixed_number_of_times(table_passes):
    # B_R(Z) has 2R + 1 distinct quotient lengths; one scan per length reads
    # the table 2R + 1 times
    f = haagerup(Integers(), 0.5)
    counts = []
    for radius in (50, 200):
        window = ball(Integers(), radius)
        got = gram_matrix(f, window)
        counts.append(len(table_passes))
        table_passes.clear()
        if radius == 50:
            assert np.array_equal(got, ref_gram(f, window))
    assert counts[0] == counts[1] <= 2, counts


def test_flags_follow_the_constructors():
    f2 = FreeGroup(2)
    h = haagerup(f2, 0.5)
    off_ball = chi_from_set(f2, [(), (1,), (2,)])
    assert not off_ball.radial
    assert not _ball_chi("Z^2", 1).radial
    assert not _ball_chi("Z", 1).radial
    assert not pointwise_product(h, off_ball).radial
    assert not convex_combination([(0.5, h), (0.5, off_ball)]).radial
    xi = posdef.L2Vector.indicator(ball(f2, 1).elements)
    assert not posdef.chi_from_vector(f2, xi).radial
    assert not PdFunction(f2, lambda g: 1.0).radial


@pytest.mark.parametrize(
    "f, radius",
    [
        (chi_from_set(FreeGroup(2), [(), (1,), (2,), (1, 2)]), 2),
        (_ball_chi("Z^2", 1), 2),
    ],
    ids=["non-ball-chi-F2", "ball-chi-Z^2"],
)
def test_other_functions_stay_on_the_loop(monkeypatch, f, radius):
    calls = []
    real = PdFunction.__call__

    def spy(self, g):
        calls.append(g)
        return real(self, g)

    def no_table(self, elements):
        raise AssertionError("length table used for a non-radial function")

    monkeypatch.setattr(PdFunction, "__call__", spy)
    monkeypatch.setattr(FreeGroup, "quotient_lengths", no_table)
    monkeypatch.setattr(IntegerLattice, "quotient_lengths", no_table)
    window = ball(f.spec, radius)
    got = gram_matrix(f, window)
    assert len(calls) == len(window) ** 2
    assert np.array_equal(got, ref_gram(f, window))
