"""Norms and spectra of span elements from their dual-group blocks.

The dense references below are the computations the sweeps made before:
op_norm of the dense operator (the top eigenvalue of x* x) and eigvalsh of
the Hermitian part of the dense m-amplification.  The block path sums the
same quantities in another order, so the two agree to a tolerance set from
the float64 epsilon, not bit for bit.
"""

import json

import numpy as np
import pytest

from crossedprod import sigma
from crossedprod.crossed import (
    BlockMatrix,
    CoeffAlgebra,
    dual_blocks,
    grid_blocks,
    left_translation,
    make_context,
    op_norm,
    phi_hom,
    psi,
    span_min_eigenvalues,
    span_norms,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.cli import main
from crossedprod.errors import NotInCrossedProductError, SpecMismatchError
from crossedprod.groups import Cyclic, Integers, ProductGroup
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    cp_check,
    make_pair,
    random_crossed_element,
    random_psd,
    random_window_operator,
)

# relative to the operator's norm; the largest seen is about 12 eps
REL_TOL = 256 * np.finfo(float).eps

CONTEXTS = [
    ("C5/scalars", make_context(Cyclic(5))),
    (
        "C4/swap",
        make_context(
            Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4))
        ),
    ),
    (
        "C12/translation",
        make_context(
            Cyclic(12),
            algebra=CoeffAlgebra.diagonal(12),
            action=translation_action(Cyclic(12)),
        ),
    ),
    ("C6/full6", make_context(Cyclic(6), algebra=CoeffAlgebra.full(6))),
    ("C2xC3/scalars", make_context(ProductGroup((Cyclic(2), Cyclic(3))))),
    (
        "C4xC6/full3",
        make_context(ProductGroup((Cyclic(4), Cyclic(6))), algebra=CoeffAlgebra.full(3)),
    ),
]
IDS = [label for label, _ in CONTEXTS]


def dense_grid(grid):
    return np.block([[x.data for x in row] for row in grid])


def dense_norm(data):
    # a plain BlockMatrix always takes op_norm's dense (nd)^2 path
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(data.conj().T @ data)[-1])))


def dense_min_eigenvalue(data):
    return float(np.linalg.eigvalsh((data + data.conj().T) / 2.0)[0])


def random_grid(ctx, rng, m):
    return [[random_crossed_element(ctx, rng) for _ in range(m)] for _ in range(m)]


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_span_norm_and_min_eigenvalue_match_the_dense_ones(label, ctx, m):
    rng = np.random.default_rng(m)
    grids = [random_grid(ctx, rng, m) for _ in range(3)]
    # a Hermitian amplification too: the grid of the adjoints, transposed
    grids.append([[grids[0][p][q] + grids[0][q][p].adjoint() for q in range(m)] for p in range(m)])
    # the grids' coefficient stacks stacked, as cp_check keeps them
    coeffs = [[[phi_hom(ctx, x) for x in row] for row in grid] for grid in grids]
    blocks = grid_blocks(ctx, np.array(coeffs))
    residuals = np.zeros(len(grids))
    norms = span_norms(blocks, residuals)
    lows = span_min_eigenvalues(blocks, residuals)
    for grid, norm, low in zip(grids, norms, lows):
        data = dense_grid(grid)
        scale = dense_norm(data)
        assert abs(norm - scale) <= REL_TOL * scale
        assert abs(low - dense_min_eigenvalue(data)) <= REL_TOL * scale


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_a_single_element_is_a_one_by_one_grid(label, ctx):
    x = random_crossed_element(ctx, np.random.default_rng(5))
    blocks, res = dual_blocks(ctx, x)
    assert np.array_equal(blocks, grid_blocks(ctx, x.coeffs[None, None])) and res == 0.0
    norm = span_norms(blocks[None], np.array([res]))[0]
    assert abs(norm - op_norm(BlockMatrix(x.window, x.block_dim, x.data))) <= REL_TOL * norm


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_off_span_residual_keeps_the_bounds_on_the_safe_side(label, ctx):
    rng = np.random.default_rng(11)
    y = random_crossed_element(ctx, rng)
    y = y + y.adjoint()
    noise = random_window_operator(ctx, rng)
    x = y + noise * (1e-11 / op_norm(noise))
    blocks, res = dual_blocks(ctx, x)
    assert 0.0 < res < 1e-9
    assert span_norms(blocks[None], np.array([res]))[0] >= dense_norm(x.data)
    assert span_min_eigenvalues(blocks[None], np.array([res]))[0] <= dense_min_eigenvalue(x.data)


def test_the_residual_is_the_frobenius_norm_of_what_theta_phi_drops():
    _, ctx = CONTEXTS[1]
    n, d = ctx.nwin, ctx.d
    rng = np.random.default_rng(12)
    # small integers and power-of-two bumps keep every sum exact
    stack = rng.integers(-4, 5, size=(n, d, d)) * np.eye(d)
    y = theta_embed(ctx, stack)
    a, b = 2.0**-38, 2.0**-37
    bump = np.zeros_like(y.data)
    bump[0, d] = a  # block (0, 1), off column 0
    bump[d + 1, 1] = b  # block (1, 0): moves the coefficient read at slot 1
    x = y + ctx.wrap(bump)
    _, res = dual_blocks(ctx, x)
    # theta(phi(x)) repeats the moved coefficient in the other n - 1 blocks
    # of its translate diagonal and drops the entry off column 0
    assert res == pytest.approx(np.sqrt(a * a + (n - 1) * b * b), rel=1e-15)
    drop = (x - theta_embed(ctx, phi_hom(ctx, x))).data
    assert res == pytest.approx(np.linalg.norm(drop), rel=1e-15)


def test_an_element_off_the_span_raises():
    _, ctx = CONTEXTS[1]
    rng = np.random.default_rng(13)
    y = random_crossed_element(ctx, rng)
    x = random_window_operator(ctx, rng)
    with pytest.raises(NotInCrossedProductError, match="inconsistent across the diagonal"):
        dual_blocks(ctx, x)
    # the first bad element of a stack is the one reported, whichever it is
    with pytest.raises(NotInCrossedProductError, match="inconsistent across the diagonal"):
        dual_blocks(ctx, ctx.wrap(np.stack([y.data, y.data, x.data, y.data])))
    off = np.zeros((ctx.nwin, 2, 2), dtype=complex)
    off[2, 0, 1] = 1.0
    z = theta_embed(make_context(Cyclic(4), algebra=CoeffAlgebra.full(2),
                                 action=swap_action(Cyclic(4))), off)
    leaving = ctx.wrap(z.data)
    with pytest.raises(NotInCrossedProductError, match="slot 2 leaves the diagonal algebra"):
        dual_blocks(ctx, ctx.wrap(np.stack([y.data, leaving.data, y.data])))
    with pytest.raises(NotInCrossedProductError, match="slot 2 leaves the diagonal algebra"):
        phi_hom(ctx, leaving)


def test_real_data_reads_as_complex():
    _, ctx = CONTEXTS[0]
    x = random_crossed_element(ctx, np.random.default_rng(16))
    real = BlockMatrix(x.window, x.block_dim, x.data.real.copy())
    assert np.array_equal(phi_hom(ctx, real), phi_hom(ctx, x).real)
    assert dual_blocks(ctx, real)[1] == 0.0


def test_infinite_windows_have_no_dual_blocks():
    ctx = make_context(Integers(), radius=3)
    x = theta_embed(ctx, {1: 2.0})
    with pytest.raises(SpecMismatchError, match="need a finite group"):
        dual_blocks(ctx, x)


def test_the_dual_table_holds_the_characters():
    for _, ctx in CONTEXTS:
        table = ctx.dual_table
        n = ctx.nwin
        # rows are distinct characters: conj gamma(s) conj gamma(t) = conj gamma(st)
        mul = ctx.mul_table
        assert np.allclose(table[:, :, None] * table[:, None, :], table[:, mul])
        assert np.allclose(table @ table.conj().T, n * np.eye(n))


def test_eigenrelation_inputs_are_the_embedded_translates():
    n = 16
    ctx = make_context(
        Cyclic(n), algebra=CoeffAlgebra.diagonal(n), action=translation_action(Cyclic(n))
    )
    rng = np.random.default_rng(14)
    for g in ctx.window:
        r = ctx.algebra.random_member(rng)
        assert np.array_equal(
            theta_embed(ctx, {g: r}).data, (left_translation(ctx, g) @ psi(ctx, r)).data
        )


def pair_of(ctx, seed):
    rng = np.random.default_rng(seed)
    return make_pair(ctx, L2Vector.normalized({g: 0.2 + rng.random() for g in ctx.window}))


def test_cp_check_rejects_an_off_span_map():
    _, ctx = CONTEXTS[1]
    with pytest.raises(NotInCrossedProductError):
        cp_check(ctx, lambda x: x, trials=3)


def test_an_off_span_map_exits_4_through_the_cli(tmp_path, monkeypatch, capsys):
    # the identity is unital, so make_pair accepts it and cp_check must not
    monkeypatch.setattr(sigma, "sigma_xi", lambda ctx, xi, x: x)
    code = main(["sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
                 "--trials", "2", "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "check failed: positivity trial 0: coefficient at window slot" in err


def dense_trial_minima(ctx, apply, m, trials, seed):
    """The positivity sweep of cp_check, one dense eigensolve per trial."""
    rng = np.random.default_rng(seed)
    n = ctx.dim
    out = []
    for _ in range(trials):
        z = random_psd(rng, m * n)
        amp = np.block([
            [apply(ctx.wrap(z[p * n:(p + 1) * n, q * n:(q + 1) * n])).data for q in range(m)]
            for p in range(m)
        ])
        out.append(dense_min_eigenvalue(amp))
    return np.array(out)


def test_a_failing_cp_check_names_its_worst_trial():
    _, ctx = CONTEXTS[1]
    pair = pair_of(ctx, 15)

    def negated(x):
        return -1.0 * pair.sigma(x)

    rep = cp_check(ctx, negated, chi_values=pair.chi_values, amplification=2, trials=12, seed=4)
    lows = dense_trial_minima(ctx, negated, 2, 12, 4)
    worst = int(np.argmin(lows))
    assert rep.verdict == f"Fail(trial={worst}, min_eigenvalue={rep.min_eigenvalue_seen:.3e})"
    assert abs(rep.min_eigenvalue_seen - lows[worst]) <= REL_TOL * abs(lows[worst])
    passing = cp_check(
        ctx, pair.sigma, chi_values=pair.chi_values, amplification=2, trials=12, seed=4
    )
    assert passing.verdict == "Pass"


def test_a_failing_cp_check_exits_4_through_the_cli(tmp_path, monkeypatch):
    real = sigma.make_pair

    class NegatedPair(sigma.ExpectationPair):
        def sigma(self, x):
            return -1.0 * super().sigma(x)

    def negated_pair(ctx, xi):
        pair = real(ctx, xi)
        return NegatedPair(pair.ctx, pair.chi, pair.xi)

    monkeypatch.setattr(sigma, "make_pair", negated_pair)
    code = main(["sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
                 "--trials", "4", "--out", str(tmp_path)])
    assert code == 4
    doc = json.loads((tmp_path / "sigma.json").read_text())
    assert doc["verdict"] == "Fail"
    assert doc["checks"]["cp"]["verdict"].startswith("Fail(trial=")
    assert "min_eigenvalue=-" in doc["checks"]["cp"]["verdict"]


def test_half_of_sigma_fails_the_eigenrelation_at_its_worst_g():
    """0.5 sigma is completely positive and bimodular, but sends the
    translate theta({g: r}) to 0.5 chi(g) theta({g: r}): the verdict names
    the g of the largest defect, found here from the dense operators."""
    _, ctx = CONTEXTS[2]
    pair = pair_of(ctx, 19)
    seen = []

    def halved(x):
        seen.append(x)
        return 0.5 * pair.sigma(x)

    rep = cp_check(ctx, halved, chi_values=pair.chi_values, amplification=1, trials=4, seed=5)
    translates = seen[-1]
    assert translates.lead == (ctx.nwin,)
    defects = [
        dense_norm(0.5 * pair.sigma(x).data - complex(pair.chi(g)) * x.data)
        for g, x in zip(ctx.window, (translates[t] for t in range(ctx.nwin)))
    ]
    worst = int(np.argmax(defects))
    g = ctx.group.format_element(ctx.window[worst])
    assert rep.verdict == f"Fail(eigenrelation g={g}, defect={rep.max_eigenrelation_defect:.3e})"
    assert abs(rep.max_eigenrelation_defect - defects[worst]) <= REL_TOL * defects[worst]
    assert rep.min_eigenvalue_seen >= 0 and rep.max_bimodular_defect <= 1e-12


def test_a_map_that_is_not_bimodular_names_its_worst_trial():
    """sigma + theta({e: 1}) is completely positive, but its bimodular
    defect at trial t is ||1 - r_t s_t||; the draws are replayed in
    cp_check's order to find the worst t."""
    _, ctx = CONTEXTS[3]
    pair = pair_of(ctx, 20)
    unit = theta_embed(ctx, {ctx.group.identity(): ctx.algebra.identity()})
    trials, seed = 12, 6
    rep = cp_check(ctx, lambda x: pair.sigma(x) + unit, chi_values=pair.chi_values,
                   amplification=1, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        random_psd(rng, ctx.dim)
    defects = []
    for _ in range(trials // 4):
        r, s = ctx.algebra.random_member(rng), ctx.algebra.random_member(rng)
        random_window_operator(ctx, rng)
        defects.append(np.linalg.norm(np.eye(ctx.d) - r @ s, 2))
    worst = int(np.argmax(defects))
    assert rep.verdict == (
        f"Fail(bimodularity trial={worst}, defect={rep.max_bimodular_defect:.3e})"
    )
    assert abs(rep.max_bimodular_defect - defects[worst]) <= REL_TOL * defects[worst]


def test_a_failing_eigenrelation_exits_4_through_the_cli(tmp_path, monkeypatch):
    real = sigma.make_pair

    class HalvedPair(sigma.ExpectationPair):
        def sigma(self, x):
            return 0.5 * super().sigma(x)

    def halved_pair(ctx, xi):
        pair = real(ctx, xi)
        return HalvedPair(pair.ctx, pair.chi, pair.xi)

    monkeypatch.setattr(sigma, "make_pair", halved_pair)
    code = main(["sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
                 "--trials", "4", "--out", str(tmp_path)])
    assert code == 4
    doc = json.loads((tmp_path / "sigma.json").read_text())
    assert doc["verdict"] == "Fail"
    assert doc["checks"]["cp"]["verdict"].startswith("Fail(eigenrelation g=")


def test_the_sigma_report_carries_make_pairs_unital_defect(tmp_path):
    argv = ["--group", "C6", "--algebra", "full:6", "--xi", "geometric:0.5"]
    assert main(["sigma", *argv, "--trials", "2", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "sigma.json").read_text())
    ctx = make_context(Cyclic(6), algebra=CoeffAlgebra.full(6))
    weights = {g: 0.5 ** ctx.group.word_length(g) for g in ctx.window}
    pair = make_pair(ctx, L2Vector.normalized(weights))
    ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    assert doc["checks"]["unital_defect"] == pair.unital_defect
    assert pair.unital_defect == op_norm(pair.sigma(ident) - ident)


# (size, classes) whose kept entries equal the full Gram's bit for bit:
# k = size / classes columns per class, a multiple of 4, as in every sweep
# the benchmark and the golden reports run
BITWISE_DRAWS = [(16, 2), (32, 2), (72, 6), (288, 12), (512, 16)]
# k = 6 and 18, where the product's edge tiles round in another order
EDGE_DRAWS = [(36, 6), (72, 4)]


def kept_entries(size, classes):
    r = np.arange(size)
    return r[:, None] % classes == r[None, :] % classes


@pytest.mark.parametrize("size, classes", BITWISE_DRAWS + EDGE_DRAWS)
def test_a_pinched_draw_keeps_the_full_grams_entries(size, classes):
    full_rng, rng = np.random.default_rng(size), np.random.default_rng(size)
    full = random_psd(full_rng, size)
    z = random_psd(rng, size, classes)
    keep = kept_entries(size, classes)
    if (size, classes) in BITWISE_DRAWS:
        assert np.array_equal(z[keep], full[keep])
    else:
        tol = 4 * np.finfo(float).eps * np.max(np.abs(full))
        assert np.max(np.abs(z[keep] - full[keep])) <= tol
    assert np.all(z[~keep] == 0)
    assert np.linalg.eigvalsh(z)[0] > 0
    # the same draws, so the sweep's later inputs do not move
    assert rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("size", [8, 36, 288])
def test_one_class_is_the_full_gram(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    assert np.array_equal(random_psd(np.random.default_rng(size), size), a.conj().T @ a)


@pytest.mark.parametrize("size, classes", [(36, 5), (16, 0), (16, -2)])
def test_columns_that_do_not_split_into_the_classes_raise(size, classes):
    with pytest.raises(SpecMismatchError):
        random_psd(np.random.default_rng(0), size, classes)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pinched_inputs_sweep_as_the_full_grams_do(m):
    """cp_check draws pinched inputs and dense_trial_minima full Grams;
    sigma reads the same entries of both."""
    _, ctx = CONTEXTS[2]
    pair = pair_of(ctx, 18)

    def negated(x):
        return -1.0 * pair.sigma(x)

    for apply in (pair.sigma, negated):
        rep = cp_check(ctx, apply, amplification=m, trials=4, seed=9)
        lows = dense_trial_minima(ctx, apply, m, 4, 9)
        worst = int(np.argmin(lows))
        assert abs(rep.min_eigenvalue_seen - lows[worst]) <= REL_TOL * abs(lows[worst])
        if apply is negated:
            assert rep.verdict == (
                f"Fail(trial={worst}, min_eigenvalue={rep.min_eigenvalue_seen:.3e})"
            )
        else:
            assert rep.verdict == "Pass"
