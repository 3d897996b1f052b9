import math
from fractions import Fraction

import numpy as np
import pytest

from crossedprod.errors import SpecMismatchError, UndersampledGridError
from crossedprod.groups import Cyclic, IntegerLattice, Integers
from crossedprod.posdef import chi_from_set
from crossedprod.summation import (
    FolnerRow,
    TrigPolynomial,
    cesaro_mean,
    cesaro_weight,
    folner_study,
    sup_norm_grid,
)


def test_cesaro_weight_values():
    assert cesaro_weight(2, 1) == Fraction(2, 3)
    assert cesaro_weight(2, -1) == Fraction(2, 3)
    assert cesaro_weight(2, 0) == 1
    assert cesaro_weight(5, 5) == Fraction(1, 6)
    assert cesaro_weight(3, 4) == 0
    with pytest.raises(ValueError):
        cesaro_weight(-1, 0)


def test_cesaro_weight_is_interval_overlap():
    # triangular weights are the overlap function of the interval {0..n}
    Z = Integers()
    for n in range(6):
        S = set(range(n + 1))
        for j in range(-n - 1, n + 2):
            assert cesaro_weight(n, j) == chi_from_set(Z, S).evaluator(j)


def test_trig_polynomial_basics():
    f = TrigPolynomial({0: 1.0, 1: 2.0, -3: 0.5j})
    assert f.degree() == 3
    assert f.coefficient(1) == 2.0
    assert f.coefficient(7) == 0
    assert f(0.0) == pytest.approx(1.0 + 2.0 + 0.5j)
    g = TrigPolynomial({0: 1.0, 5: 0.0})
    assert g.degree() == 0
    with pytest.raises(SpecMismatchError):
        TrigPolynomial({0.5: 1.0})


def test_cesaro_mean_damps_coefficients():
    f = TrigPolynomial({0: 1.0, 1: 1.0, 2: 1.0})
    m = cesaro_mean(f, 2)
    assert m.coefficient(0) == 1.0
    assert m.coefficient(1) == pytest.approx(2 / 3)
    assert m.coefficient(2) == pytest.approx(1 / 3)
    high = cesaro_mean(TrigPolynomial({5: 1.0}), 2)
    assert high.coefficient(5) == 0
    assert high.degree() == 0


def test_cesaro_mean_fixes_constants():
    f = TrigPolynomial({0: 3.0 - 1.0j})
    for n in range(4):
        assert cesaro_mean(f, n).coefficient(0) == f.coefficient(0)


def test_grid_error_equals_coefficient_sum_for_nonnegative():
    # for nonnegative real coefficients the worst grid point is theta = 0,
    # where the damping defect telescopes to sum |k| c_k / (n+1)
    coeffs = {0: 0.3, 1: 1.0, -1: 1.0, 2: 0.25, 3: 0.1, -5: 0.6, 5: 0.6}
    f = TrigPolynomial(coeffs)
    for n in range(5, 51):
        fn = cesaro_mean(f, n)
        err = sup_norm_grid(f, fn, 4 * f.degree() + 1)
        predicted = sum(abs(k) * c for k, c in coeffs.items()) / (n + 1)
        assert abs(err - predicted) <= 1e-10


def test_grid_error_decreases_in_order():
    f = TrigPolynomial({1: 1.0, -1: 1.0, 4: 0.5, -4: 0.5})
    errs = [
        sup_norm_grid(f, cesaro_mean(f, n), 64) for n in range(4, 40, 5)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_grid_error_big_oh_one_over_n():
    f = TrigPolynomial({2: 1.0, -2: 1.0})
    const = sum(abs(k) * abs(c) for k, c in f.coefficients.items())
    for n in (10, 100, 1000):
        err = sup_norm_grid(f, cesaro_mean(f, n), 9)
        assert err <= const / (n + 1) + 1e-12


def test_sup_norm_grid_requires_oversampling():
    f = TrigPolynomial({3: 1.0})
    zero = TrigPolynomial({})
    with pytest.raises(UndersampledGridError):
        sup_norm_grid(f, zero, 12)
    assert sup_norm_grid(f, zero, 13) == pytest.approx(1.0)
    assert sup_norm_grid(f, f, 13) == 0.0


def test_folner_study_integers():
    rows = folner_study(Integers(), 1, range(1, 8))
    for row, n in zip(rows, range(1, 8)):
        assert row.chi == Fraction(n, n + 1)
        assert row.defect == Fraction(2, n + 1)
        assert row.chi == 1 - row.defect / 2


def test_folner_study_identity_element():
    for spec in (Integers(), IntegerLattice(2), Cyclic(5)):
        for row in folner_study(spec, spec.identity(), [1, 2, 3]):
            assert row.chi == 1
            assert row.defect == 0


def test_folner_study_lattice():
    rows = folner_study(IntegerLattice(2), (1, 1), [1, 2, 3, 4])
    for row, n in zip(rows, [1, 2, 3, 4]):
        assert row.chi == Fraction(n, n + 1) ** 2
    values = [r.chi for r in rows]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_folner_row_is_plain_record():
    row = FolnerRow(3, Fraction(1, 2), Fraction(3, 4))
    assert (row.radius, row.defect, row.chi) == (3, Fraction(1, 2), Fraction(3, 4))


def test_cesaro_matches_block_multiplier():
    # the interval-vector averaged map on the integer window damps the
    # translate coefficients by exactly the triangular weights
    from crossedprod.crossed import make_context, phi_hom
    from crossedprod.posdef import L2Vector
    from crossedprod.sigma import sigma_xi

    n = 2
    ctx = make_context(Integers(), radius=n)
    xi = L2Vector.indicator(list(range(n + 1)))
    rng = np.random.default_rng(33)
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    coeffs = {g: np.array([[c[i]]]) for i, g in enumerate(ctx.window)}
    from crossedprod.crossed import theta_embed

    x = theta_embed(ctx, coeffs)
    out = phi_hom(ctx, sigma_xi(ctx, xi, x))
    for i, g in enumerate(ctx.window):
        want = complex(coeffs[g][0, 0]) * float(cesaro_weight(n, g))
        assert out[i, 0, 0] == pytest.approx(want, abs=1e-13)


def test_cesaro_operator_distance_bound():
    # operator-norm distance of the damped element obeys the
    # coefficient-sum bound sum |k| |c_k| / (n+1)
    from crossedprod.crossed import make_context, op_norm, theta_embed
    from crossedprod.posdef import L2Vector
    from crossedprod.sigma import sigma_xi

    n = 3
    ctx = make_context(Integers(), radius=n)
    xi = L2Vector.indicator(list(range(n + 1)))
    rng = np.random.default_rng(34)
    c = rng.standard_normal(2 * n + 1)
    coeffs = {g: np.array([[c[i]]]) for i, g in enumerate(ctx.window)}
    x = theta_embed(ctx, coeffs)
    dist = op_norm(sigma_xi(ctx, xi, x) - x)
    bound = sum(
        abs(g) * abs(complex(r[0, 0])) for g, r in coeffs.items()
    ) / (n + 1)
    assert dist <= bound + 1e-12
