import math
from fractions import Fraction

import numpy as np
import pytest

from crossedprod import posdef
from crossedprod.errors import SpecMismatchError
from crossedprod.groups import Cyclic, FreeGroup, IntegerLattice, Integers, ball
from crossedprod.posdef import (
    L2Vector,
    chi_from_set,
    chi_from_vector,
    check_positive_definite,
    convex_combination,
    folner_defects,
    folner_overlap,
    folner_set,
    gram_matrix,
    haagerup,
    pointwise_product,
)


def test_chi_singleton_is_delta():
    f = chi_from_set(Integers(), {0})
    assert f(0) == 1
    assert f(3) == 0
    assert f(-1) == 0


def test_chi_interval_on_integers():
    f = chi_from_set(Integers(), set(range(4)))
    # overlap of {0..3} with t+{0..3}
    assert f.evaluator(1) == Fraction(3, 4)
    assert f.evaluator(3) == Fraction(1, 4)
    assert f.evaluator(4) == 0
    assert f(2) == pytest.approx(0.5)


def test_chi_ball_free_group():
    F2 = FreeGroup(2)
    S = set(ball(F2, 2))
    f = chi_from_set(F2, S)
    assert f.evaluator((1,)) == Fraction(8, 17)
    assert f.evaluator(()) == 1


def test_chi_from_set_support():
    F2 = FreeGroup(2)
    S = set(ball(F2, 1))
    f = chi_from_set(F2, S)
    prods = {F2.multiply(s, F2.inverse(t)) for s in S for t in S}
    for g in ball(F2, 4):
        if g not in prods:
            assert f(g) == 0


def test_chi_identity_normalization():
    F2 = FreeGroup(2)
    f = chi_from_set(F2, set(ball(F2, 2)))
    assert f(()) == 1
    v = L2Vector.normalized({0: 1.0, 1: 2.0})
    g = chi_from_vector(Integers(), v)
    assert g(0) == pytest.approx(1.0)


def test_chi_hermitian_symmetry():
    spec = IntegerLattice(2)
    v = L2Vector.normalized({(0, 0): 1.0, (1, 0): 0.5 + 0.25j, (0, 1): -0.3j})
    f = chi_from_vector(spec, v)
    for g in ball(spec, 3):
        assert f(spec.inverse(g)) == pytest.approx(np.conj(f(g)))


def test_chi_vector_indicator_matches_set():
    cases = [
        (Integers(), set(range(4))),
        (FreeGroup(2), set(ball(FreeGroup(2), 2))),
        (IntegerLattice(2), set(ball(IntegerLattice(2), 1))),
    ]
    for spec, S in cases:
        f_set = chi_from_set(spec, S)
        f_vec = chi_from_vector(spec, L2Vector.indicator(list(S)))
        for t in ball(spec, 6, cap=10**5):
            assert abs(f_set(t) - f_vec(t)) <= 1e-12


def test_vector_normalization_enforced():
    with pytest.raises(ValueError):
        L2Vector({0: 1.0, 1: 1.0})
    v = L2Vector.normalized({0: 3.0, 1: 4.0})
    assert math.isclose(sum(abs(c) ** 2 for c in v.entries.values()), 1.0)


def test_haagerup_values():
    F2 = FreeGroup(2)
    f = haagerup(F2, 0.5 * math.log(3))
    assert f(()) == 1
    assert f((1,)) == pytest.approx(3 ** -0.5)
    assert f((1, 2)) == pytest.approx(1 / 3)
    g = haagerup(F2, 1.0)
    assert g((1, -2, 1)) == pytest.approx(math.exp(-3))


def test_haagerup_matches_chi_limit_parity():
    # with decay rate log(2k-1)/2 the even-length values equal the
    # radial limits, odd lengths overshoot by exactly k/sqrt(2k-1)
    from crossedprod.freecomb import chi_limit_free

    for k in (2, 3):
        F = FreeGroup(k)
        f = haagerup(F, 0.5 * math.log(2 * k - 1))
        for m in (1, 2):
            t_even = tuple([1, 2] * m)[: 2 * m]
            assert f(t_even) == pytest.approx(float(chi_limit_free(k, 2 * m)))
            t_odd = tuple(([1, 2] * (m + 1))[: 2 * m + 1])
            ratio = f(t_odd) / float(chi_limit_free(k, 2 * m + 1))
            assert ratio == pytest.approx(k / math.sqrt(2 * k - 1))


def test_gram_matrix_examples():
    Z = Integers()
    f = chi_from_set(Z, {0, 1})
    G = gram_matrix(f, ball(Z, 1))
    want = np.array(
        [[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
    )
    assert np.allclose(G, want)

    delta = chi_from_set(Z, {0})
    assert np.allclose(gram_matrix(delta, ball(Z, 2)), np.eye(5))


def test_gram_constant_function():
    C3 = Cyclic(3)
    one = posdef.PdFunction(C3, lambda g: 1.0)
    G = gram_matrix(one, ball(C3, 1))
    eig = sorted(np.linalg.eigvalsh(G))
    assert eig == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)


def test_check_positive_definite_passes():
    F2 = FreeGroup(2)
    rep = check_positive_definite(chi_from_set(F2, set(ball(F2, 2))), ball(F2, 3))
    assert rep.verdict == "Pass"
    assert rep.gram_dimension == 53
    assert rep.min_eigenvalue >= -1e-8

    rep2 = check_positive_definite(haagerup(F2, 0.3), ball(F2, 3))
    assert rep2.passed()


def test_check_positive_definite_fails():
    # f(+-1) = -1 is not positive definite: the {e, g, g^-1} minor
    # has least eigenvalue 1 - sqrt(2)
    Z = Integers()
    bad = posdef.PdFunction(Z, lambda g: 1.0 if g == 0 else (-1.0 if g in (1, -1) else 0.0))
    rep = check_positive_definite(bad, ball(Z, 1))
    assert rep.verdict == "Fail"
    assert rep.min_eigenvalue == pytest.approx(1 - math.sqrt(2), abs=1e-12)


def test_report_json_fields():
    Z = Integers()
    rep = check_positive_definite(chi_from_set(Z, {0, 1}), ball(Z, 2))
    d = rep.to_json()
    assert d["verdict"] == "Pass"
    assert d["gram_dimension"] == 5
    assert d["ball_radius"] == 2
    assert isinstance(d["min_eigenvalue"], float)


def test_product_of_positive_definite_is_positive_definite():
    F2 = FreeGroup(2)
    f = chi_from_set(F2, set(ball(F2, 1)))
    g = haagerup(F2, 0.7)
    h = pointwise_product(f, g)
    assert h(()) == 1
    rep = check_positive_definite(h, ball(F2, 3))
    assert rep.passed()


def test_convex_combination():
    F2 = FreeGroup(2)
    f = chi_from_set(F2, set(ball(F2, 1)))
    g = haagerup(F2, 1.0)
    h = convex_combination([(0.25, f), (0.75, g)])
    assert h(()) == pytest.approx(1.0)
    assert h((1,)) == pytest.approx(0.25 * f((1,)) + 0.75 * g((1,)))
    assert check_positive_definite(h, ball(F2, 2)).passed()
    with pytest.raises(ValueError):
        convex_combination([(0.5, f), (0.1, g)])


def test_folner_sets():
    assert set(folner_set(Integers(), 3)) == {0, 1, 2, 3}
    assert set(folner_set(IntegerLattice(2), 1)) == {
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    }
    assert set(folner_set(Cyclic(4), 7)) == {0, 1, 2, 3}
    with pytest.raises(SpecMismatchError):
        folner_set(FreeGroup(2), 2)


def test_folner_overlap_values():
    Z = Integers()
    for n in range(1, 12):
        assert folner_overlap(Z, n, 1) == Fraction(n, n + 1)
        assert folner_overlap(Z, n, 2) == Fraction(max(n - 1, 0), n + 1)
    assert folner_overlap(Z, 4, 0) == 1
    assert folner_overlap(Z, 3, 0) == 1
    for t in ball(Z, 3):
        assert 0 <= folner_overlap(Z, 4, t) <= 1
        assert folner_overlap(Z, 4, t) == folner_overlap(Z, 4, -t)
    L = IntegerLattice(2)
    for n in range(1, 6):
        assert folner_overlap(L, n, (1, 0)) == Fraction(n, n + 1)
        assert folner_overlap(L, n, (1, 1)) == Fraction(n, n + 1) ** 2


def test_folner_defect_identity():
    Z = Integers()
    for n, d in zip(range(1, 8), folner_defects(Z, 1, range(1, 8))):
        assert folner_overlap(Z, n, 1) == 1 - Fraction(d, 2)


def test_folner_overlap_monotone():
    L = IntegerLattice(2)
    vals = [folner_overlap(L, n, (1, 1)) for n in range(1, 20)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1 - Fraction(1, 10)


def test_cyclic_folner_is_whole_group():
    C6 = Cyclic(6)
    for t in range(6):
        assert folner_overlap(C6, 1, t) == 1
