"""The Gram of a real-valued function is float64 and goes to the real
symmetric eigensolver; every other Gram stays complex128.

The reference throughout is the complex Gram: the per-entry loop in
complex128, symmetrized as (G + G^*) / 2 and passed to the Hermitian
eigensolver, as check_positive_definite did for every function.
"""

import math

import numpy as np
import pytest

from crossedprod.crossed import (
    BlockMatrix,
    CoeffAlgebra,
    hadamard_multiplier,
    make_context,
    translation_action,
)
from crossedprod.groups import Cyclic, FreeGroup, Integers, ball, parse_group
from crossedprod.posdef import (
    L2Vector,
    PdFunction,
    check_positive_definite,
    chi_from_set,
    chi_from_vector,
    convex_combination,
    gram_matrix,
    haagerup,
    pointwise_product,
)


def complex_gram(f, window):
    spec = window.spec
    n = len(window)
    out = np.empty((n, n), dtype=complex)
    for j, h in enumerate(window):
        hinv = spec.inverse(h)
        for i, g in enumerate(window):
            out[i, j] = f(spec.multiply(g, hinv))
    return out


def hermitian_eigs(gram):
    herm = np.asarray(gram, dtype=complex).copy()
    herm += herm.conj().T
    herm /= 2.0
    return np.linalg.eigvalsh(herm)


def ball_chi(label, radius):
    spec = parse_group(label)
    return chi_from_set(spec, ball(spec, radius).elements)


def real_cases():
    f2, f3 = FreeGroup(2), FreeGroup(3)
    h2, h3 = haagerup(f2, 0.549306), haagerup(f3, 0.55)
    b2, b3 = ball_chi("F2", 2), ball_chi("F3", 1)
    cases = [(f"F2-haagerup-R{r}", h2, r) for r in range(6)]
    cases += [(f"F3-haagerup-R{r}", h3, r) for r in range(5)]
    cases += [
        ("F2-ball-chi-R3", b2, 3),
        ("F3-ball-chi-R3", b3, 3),
        ("F2-product-R4", pointwise_product(h2, b2), 4),
        ("F3-product-R3", pointwise_product(b3, b3), 3),
        ("F2-convex-R4", convex_combination([(0.25, h2), (0.75, b2)]), 4),
        (
            "F3-convex-of-products-R3",
            convex_combination(
                [(0.5, pointwise_product(b3, b3)), (0.5, haagerup(f3, 0.7))]
            ),
            3,
        ),
        ("Z^2-haagerup-R4", haagerup(parse_group("Z^2"), 0.5), 4),
        ("ZxC3-haagerup-R2", haagerup(parse_group("ZxC3"), 0.5), 2),
        ("C7-haagerup", haagerup(Cyclic(7), 0.4), 3),
        ("C12-chi", chi_from_set(Cyclic(12), [0, 1, 5]), 6),
        ("Z-chi-per-entry", chi_from_set(Integers(), [0, 1, 3]), 5),
        ("Z^2-ball-chi-per-entry", ball_chi("Z^2", 1), 2),
    ]
    return cases


REAL = real_cases()


@pytest.mark.parametrize("name, f, radius", REAL, ids=[c[0] for c in REAL])
def test_real_gram_spectrum_matches_the_complex_solver(name, f, radius):
    window = ball(f.spec, radius)
    gram = gram_matrix(f, window)
    assert gram.dtype == np.float64
    if len(window) <= 200:
        assert np.array_equal(gram, complex_gram(f, window))
    # past 200 rows the loop is slow; the entries are the loop's (pinned
    # above and in test_quotient_lengths), so the complex Gram is a cast
    want = hermitian_eigs(gram.astype(complex))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(want))))
    report = check_positive_definite(f, window)
    assert abs(report.min_eigenvalue - want[0]) <= tol
    assert abs(report.tolerance - 1e-8 * max(1.0, float(np.max(np.abs(want))))) <= tol
    real_eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    assert abs(real_eigs[-1] - want[-1]) <= tol
    assert report.verdict == "Pass"


def non_real_chi():
    Z = Integers()
    xi = L2Vector.normalized({0: 1.0, 1: 0.5j, 2: -0.25 + 0.5j})
    return chi_from_vector(Z, xi)


def test_a_non_real_function_keeps_the_complex_gram_and_its_bits():
    f = non_real_chi()
    window = ball(f.spec, 4)
    gram = gram_matrix(f, window)
    assert gram.dtype == np.complex128
    assert gram.imag.any()
    reference = complex_gram(f, window)
    assert np.array_equal(gram, reference)
    want = hermitian_eigs(reference)
    report = check_positive_definite(f, window)
    assert report.min_eigenvalue == float(want[0])
    assert report.tolerance == 1e-8 * max(1.0, float(np.max(np.abs(want))))


def test_a_radial_non_real_value_keeps_the_complex_table():
    """The dtype follows the values, not the radial flag."""
    f2 = FreeGroup(2)
    twisted = PdFunction(
        f2, lambda g: 1.0 if not g else 0.5j * (-1) ** len(g), radial=True
    )
    gram = gram_matrix(twisted, ball(f2, 2))
    assert gram.dtype == np.complex128
    assert np.array_equal(gram, complex_gram(twisted, ball(f2, 2)))


def test_the_one_minus_root_two_minor_still_fails():
    Z = Integers()
    bad = PdFunction(Z, lambda g: 1.0 if g == 0 else (-1.0 if g in (1, -1) else 0.0))
    assert gram_matrix(bad, ball(Z, 1)).dtype == np.float64
    report = check_positive_definite(bad, ball(Z, 1))
    assert report.verdict == "Fail"
    assert abs(report.min_eigenvalue - (1 - math.sqrt(2))) <= 1e-12


@pytest.mark.parametrize(
    "chi",
    [
        haagerup(Cyclic(6), 0.3),
        chi_from_set(Cyclic(6), [0, 1, 2]),
        chi_from_vector(Cyclic(6), L2Vector.indicator([0, 2, 3])),
        chi_from_vector(Cyclic(6), L2Vector.normalized({0: 1.0, 1: 0.5j})),
    ],
    ids=["haagerup", "chi-set", "chi-vector-real", "chi-vector-complex"],
)
def test_hadamard_multiplier_output_is_bitwise_unchanged(chi):
    group = Cyclic(6)
    ctx = make_context(
        group, algebra=CoeffAlgebra.diagonal(6), action=translation_action(group)
    )
    rng = np.random.default_rng(11)
    size = ctx.nwin * ctx.d
    data = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    x = BlockMatrix(ctx.window, ctx.d, data)
    got = hadamard_multiplier(ctx, chi, x).data
    full = np.kron(complex_gram(chi, ctx.window), np.ones((ctx.d, ctx.d)))
    want = x.data * full
    assert got.dtype == want.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
