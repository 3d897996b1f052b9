"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line; run with `pytest -s` to see
them.  Tolerances and runtime budgets are part of the contract and are
asserted, not just reported.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from crossedprod import freecomb, posdef, summation
from crossedprod.crossed import (
    CoeffAlgebra,
    left_translation,
    make_context,
    op_norm,
    psi,
    schur_product,
    swap_action,
    translation_action,
)
from crossedprod.groups import (
    Cyclic,
    FreeGroup,
    IntegerLattice,
    Integers,
    ball,
)
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    check_condition_ii,
    chi_of,
    cp_check,
    make_pair,
    phi_t,
    pi_projection,
    random_crossed_element,
    random_window_operator,
    sigma_xi,
    tau_u,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def bfs_ball_sizes(spec, max_n):
    seen = {spec.identity()}
    frontier = [spec.identity()]
    sizes = [1]
    for _ in range(max_n):
        nxt = []
        for g in frontier:
            for s in spec.generating_set():
                h = spec.multiply(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def test_acceptance_01_free_group_counting():
    start = time.perf_counter()
    with criterion(1, "closed-form free-group counts match brute force"):
        for k in (2, 3):
            spec = FreeGroup(k)
            sizes = bfs_ball_sizes(spec, 7)
            for n in range(8):
                assert freecomb.ball_size(k, n) == sizes[n]
                assert freecomb.ball_size(k, n) == len(ball(spec, n))
                if n:
                    assert (
                        freecomb.sphere_size(k, n) == sizes[n] - sizes[n - 1]
                    )
            for ell in range(4):
                t = freecomb.representative_word(ell)
                for n in range(2 * ell, min(2 * ell + 2, 7) + 1):
                    closed = freecomb.t_count_closed(k, ell, n)
                    brute = freecomb.t_count_bruteforce(k, [t], [n])[0][0]
                    assert closed == brute
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"counting took {elapsed:.1f}s"


def test_acceptance_02_limit_eigenvalues():
    with criterion(2, "ball eigenvalues converge to the radial limits"):
        targets = [((1,), Fraction(1, 2)), ((1, 1), Fraction(1, 3)),
                   ((1, 2, 1), Fraction(1, 6))]
        for t, limit in targets:
            ell = len(t)
            assert freecomb.chi_limit_free(2, ell) == limit
            errors = [
                abs(freecomb.chi_ratio(2, t, n) - limit)
                for n in range(2 * ell, 8)
            ]
            assert all(a > b for a, b in zip(errors, errors[1:]))
        final = abs(freecomb.chi_ratio(2, (1,), 7) - Fraction(1, 2))
        assert final < Fraction(1, 100)


def test_acceptance_03_reconstruction():
    start = time.perf_counter()
    with criterion(3, "translate resummation reproduces finite operators"):
        from crossedprod.crossed import reconstruct

        worst = 0.0
        for n in range(2, 9):
            for d in (1, 2, 3):
                algebra = (
                    CoeffAlgebra.scalars() if d == 1 else CoeffAlgebra.full(d)
                )
                ctx = make_context(Cyclic(n), algebra=algebra)
                rng = np.random.default_rng(1000 * n + d)
                size = ctx.dim
                for _ in range(50):
                    m = rng.standard_normal((size, size)) + 1j * (
                        rng.standard_normal((size, size))
                    )
                    x = ctx.wrap(m)
                    dev = float(np.max(np.abs((reconstruct(ctx, x) - x).data)))
                    worst = max(worst, dev)
        assert worst <= 1e-12, f"max deviation {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"reconstruction took {elapsed:.1f}s"


def acceptance_contexts():
    out = []
    for n in range(2, 7):
        out.append((f"C{n}/scalars", make_context(Cyclic(n))))
    for n in (2, 4, 6):
        out.append(
            (
                f"C{n}/diagonal2-swap",
                make_context(
                    Cyclic(n),
                    algebra=CoeffAlgebra.diagonal(2),
                    action=swap_action(Cyclic(n)),
                ),
            )
        )
    out.append(
        (
            "C2/diagonal2-translation",
            make_context(
                Cyclic(2),
                algebra=CoeffAlgebra.diagonal(2),
                action=translation_action(Cyclic(2)),
            ),
        )
    )
    return out


def seeded_xi(ctx, seed):
    rng = np.random.default_rng(seed)
    return L2Vector.normalized({g: 0.25 + rng.random() for g in ctx.window})


def test_acceptance_04_sigma_property_suite():
    start = time.perf_counter()
    with criterion(4, "averaged-map property suite on finite groups"):
        for idx, (label, ctx) in enumerate(acceptance_contexts()):
            xi = seeded_xi(ctx, 500 + idx)
            pair = make_pair(ctx, xi)
            ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
            assert op_norm(pair.sigma(ident) - ident) <= 1e-12, label

            rng = np.random.default_rng(600 + idx)
            for g in ctx.window:
                r = ctx.algebra.random_member(rng)
                x = left_translation(ctx, g) @ psi(ctx, r)
                defect = op_norm(pair.sigma(x) - complex(pair.chi(g)) * x)
                assert defect <= 1e-12, label

            for m in (1, 2, 3):
                rep = cp_check(
                    ctx,
                    pair.sigma,
                    chi_values=pair.chi_values,
                    amplification=m,
                    trials=100,
                    seed=700 + idx + m,
                )
                assert rep.min_eigenvalue_seen >= -1e-10, label
                assert rep.max_bimodular_defect <= 1e-12, label
                assert rep.max_eigenrelation_defect <= 1e-12, label

            x = random_window_operator(ctx, np.random.default_rng(800 + idx))
            total = ctx.zero()
            for u in ctx.window:
                total = total + tau_u(ctx, xi, u, x)
            assert op_norm(total - pair.sigma(x)) <= 1e-12, label
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def test_acceptance_05_expectation_pair_definition(window_samples):
    with criterion(5, "expectation-pair bound, idempotent, and reassembly"):
        cases = [
            ("C5/scalars", make_context(Cyclic(5))),
            (
                "C4/diagonal2-swap",
                make_context(
                    Cyclic(4),
                    algebra=CoeffAlgebra.diagonal(2),
                    action=swap_action(Cyclic(4)),
                ),
            ),
        ]
        for idx, (label, ctx) in enumerate(cases):
            pair = make_pair(ctx, seeded_xi(ctx, 900 + idx))
            rep = check_condition_ii(pair, window_samples(ctx, 100, seed=910 + idx))
            assert rep.condition_ii_margin >= -1e-10, label

            rng = np.random.default_rng(920 + idx)
            chi = pair.chi
            for _ in range(25):
                x = random_window_operator(ctx, rng)
                p1 = pi_projection(pair, x)
                assert op_norm(pi_projection(pair, p1) - p1) <= 1e-10, label
                y = random_crossed_element(ctx, rng)
                assert op_norm(pi_projection(pair, y) - y) <= 1e-12, label

                xn = op_norm(x)
                total = ctx.zero()
                for t in ctx.window:
                    block = phi_t(ctx, pair.xi, t, x, chi=chi)
                    assert np.linalg.norm(block, 2) <= xn + 1e-10, label
                    total = total + complex(chi(t)) * (
                        left_translation(ctx, t) @ psi(ctx, block)
                    )
                reassembly = op_norm(total - pair.sigma(x))
                assert reassembly <= 1e-12, label


def test_acceptance_06_positive_definiteness_witnesses():
    start = time.perf_counter()
    with criterion(6, "Gram spectra certify the shipped function classes"):
        passing = {}
        for spec, label in ((FreeGroup(2), "F2"), (IntegerLattice(2), "Z^2")):
            window = ball(spec, 3)
            for m in (1, 2):
                f = posdef.chi_from_set(spec, list(ball(spec, m)))
                rep = posdef.check_positive_definite(f, window, tolerance=1e-8)
                assert rep.min_eigenvalue >= -1e-8, (label, m)
                assert rep.passed(), (label, m)
                passing[(label, m)] = f

        F2 = FreeGroup(2)
        window4 = ball(F2, 4)
        assert len(window4) == 161
        haagerups = []
        for eps in (0.3, 0.5 * np.log(3.0), 1.0):
            f = posdef.haagerup(F2, float(eps))
            rep = posdef.check_positive_definite(f, window4)
            assert rep.passed(), eps
            haagerups.append(f)

        window3 = ball(F2, 3)
        combos = [
            posdef.pointwise_product(passing[("F2", 1)], passing[("F2", 2)]),
            posdef.pointwise_product(passing[("F2", 1)], haagerups[0]),
            posdef.pointwise_product(haagerups[1], haagerups[2]),
        ]
        for f in combos:
            assert posdef.check_positive_definite(f, window3).passed()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"witness suite took {elapsed:.1f}s"


def _structured_psd(ctx, p, q, side, rng):
    n = ctx.nwin
    d = p * q
    data = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            if side == "left":
                m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                blk = np.kron(m, np.eye(q))
            else:
                m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
                blk = np.kron(np.eye(p), m)
            data[i * d : (i + 1) * d, j * d : (j + 1) * d] = blk
    x = ctx.wrap(data)
    return x.adjoint() @ x


def test_acceptance_07_schur_positivity():
    with criterion(7, "block Schur products of commuting PSD pairs stay PSD"):
        rng = np.random.default_rng(2026)
        shapes = [(p, q, n) for p in (1, 2, 3) for q in (1, 2, 3)
                  for n in (2, 4, 6)]
        contexts = {
            (p, q, n): make_context(
                Cyclic(n),
                algebra=(
                    CoeffAlgebra.scalars()
                    if p * q == 1
                    else CoeffAlgebra.full(p * q)
                ),
            )
            for (p, q, n) in shapes
        }
        worst = 0.0
        for trial in range(200):
            p, q, n = shapes[trial % len(shapes)]
            ctx = contexts[(p, q, n)]
            a = _structured_psd(ctx, p, q, "left", rng)
            b = _structured_psd(ctx, p, q, "right", rng)
            s = schur_product(a, b).data
            min_eig = float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0])
            worst = min(worst, min_eig)
        assert worst >= -1e-10, f"worst eigenvalue {worst:.3e}"


def test_acceptance_08_cesaro_convergence():
    with criterion(8, "triangular damping obeys the exact error formula"):
        assert summation.cesaro_weight(2, 1) == Fraction(2, 3)
        coeffs = {
            0: 0.4,
            1: 0.3, -1: 0.3,
            2: 0.2, -2: 0.2,
            3: 0.15, -3: 0.15,
            4: 0.1, -4: 0.1,
            5: 0.05, -5: 0.05,
        }
        f = summation.TrigPolynomial(coeffs)
        assert f.degree() == 5
        total = sum(abs(k) * c for k, c in coeffs.items())
        for n in range(5, 51):
            mean = summation.cesaro_mean(f, n)
            err = summation.sup_norm_grid(f, mean, 4 * f.degree() + 1)
            assert abs(err - total / (n + 1)) <= 1e-10, n


def test_acceptance_09_folner_tables():
    with criterion(9, "averaging-set overlap tables are exactly rational"):
        for row, n in zip(
            summation.folner_study(Integers(), 1, range(1, 31)), range(1, 31)
        ):
            assert row.value == Fraction(n, n + 1)
            assert row.value == 1 - row.defect / 2
        for row, n in zip(
            summation.folner_study(IntegerLattice(2), (1, 0), range(1, 21)),
            range(1, 21),
        ):
            assert row.value == 1 - Fraction(1, n + 1)
            assert row.value == 1 - row.defect / 2


def test_acceptance_10_overlap_lower_bound():
    with criterion(10, "ball overlaps dominate the generating-set bound"):
        K = 4  # both groups have four generators counting inverses
        for spec in (FreeGroup(2), IntegerLattice(2)):
            for g in ball(spec, 3):
                ell = spec.word_length(g)
                bound = freecomb.fin_gen_lower_bound(K, ell)
                for n in range(ell, 7):
                    ratio = freecomb.ball_overlap_ratio(spec, g, n)
                    assert isinstance(ratio, Fraction)
                    assert ratio >= bound, (spec.label, g, n)
