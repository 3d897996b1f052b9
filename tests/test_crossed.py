import numpy as np
import pytest

from crossedprod.crossed import (
    ActionSpec,
    CoeffAlgebra,
    ExpectationSpec,
    fourier_coefficient,
    hadamard_multiplier,
    hadamard_product,
    left_translation,
    make_context,
    op_norm,
    p_seminorm,
    phi_hom,
    psi,
    reconstruct,
    schur_product,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.errors import NotInCrossedProductError, SpecMismatchError
from crossedprod.groups import Cyclic, FreeGroup, Integers, ball
from crossedprod.posdef import chi_from_set


def ref_diag(x):
    """The dense x with its off-diagonal blocks zeroed, one block at a time."""
    d = x.block_dim
    out = np.zeros_like(x.data)
    for i in range(len(x.window)):
        s = slice(i * d, (i + 1) * d)
        out[s, s] = x.data[s, s]
    return out


def block_diagonal(ctx, blocks):
    """The dense operator with the (n, d, d) blocks on its diagonal."""
    out = ctx.zero()
    slots = np.arange(ctx.nwin)
    out.blocks()[slots, slots] = blocks
    return out


def ctx_scalars(n):
    return make_context(Cyclic(n))


def ctx_swap(n):
    return make_context(
        Cyclic(n), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(n))
    )


def ctx_translation(n):
    return make_context(
        Cyclic(n),
        algebra=CoeffAlgebra.diagonal(n),
        action=translation_action(Cyclic(n)),
    )


def ctx_full(n, d):
    return make_context(Cyclic(n), algebra=CoeffAlgebra.full(d))


def random_operator(ctx, rng):
    n = ctx.nwin * ctx.d
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ctx.wrap(m)


def test_left_translation_identity():
    ctx = ctx_scalars(4)
    assert np.array_equal(left_translation(ctx, 0).data, np.eye(4, dtype=complex))


def test_left_translation_cyclic_shift():
    ctx = ctx_scalars(3)
    L = left_translation(ctx, 1).data.real
    # window order (0, 1, 2); multiplication sends column b to row 1+b
    want = np.zeros((3, 3))
    for j, b in enumerate(ctx.window):
        want[ctx.window.index((1 + b) % 3), j] = 1.0
    assert np.array_equal(L, want)


def test_left_translation_group_law_finite():
    ctx = ctx_swap(4)
    for g in range(4):
        for h in range(4):
            lhs = left_translation(ctx, g) @ left_translation(ctx, h)
            rhs = left_translation(ctx, (g + h) % 4)
            assert np.allclose(lhs.data, rhs.data)


def test_left_translation_unitary_finite():
    ctx = ctx_translation(5)
    eye = np.eye(ctx.dim)
    for g in range(5):
        L = left_translation(ctx, g)
        assert np.allclose((L @ L.adjoint()).data, eye)
        assert np.allclose((L.adjoint() @ L).data, eye)


def test_left_translation_truncated_columns():
    # on a radius-2 window of the free group, multiplying by a kills
    # exactly the columns whose product leaves the window
    spec = FreeGroup(2)
    ctx = make_context(spec, radius=2)
    L = left_translation(ctx, (1,))
    zero_cols = 0
    for j, b in enumerate(ctx.window):
        col = L.data[:, j]
        prod = spec.multiply((1,), b)
        if spec.word_length(prod) <= 2:
            assert col[ctx.window.index(prod)] == 1
            assert np.count_nonzero(col) == 1
        else:
            zero_cols += 1
            assert np.count_nonzero(col) == 0
    assert zero_cols == 9


def test_psi_identity_and_multiplicativity():
    ctx = ctx_swap(4)
    rng = np.random.default_rng(7)
    assert np.array_equal(psi(ctx, np.eye(2)).data, np.eye(8, dtype=complex))
    r = ctx.algebra.random_member(rng)
    s = ctx.algebra.random_member(rng)
    assert np.allclose((psi(ctx, r) @ psi(ctx, s)).data, psi(ctx, r @ s).data)
    assert np.allclose(psi(ctx, r).adjoint().data, psi(ctx, r.conj().T).data)


@pytest.mark.parametrize(
    "ctx", [ctx_swap(4), ctx_translation(4), ctx_full(3, 2)],
    ids=["swap", "translation", "full-trivial"],
)
def test_covariance(ctx):
    rng = np.random.default_rng(11)
    for g in ctx.window:
        r = ctx.algebra.random_member(rng)
        L = left_translation(ctx, g)
        lhs = L @ psi(ctx, r) @ L.adjoint()
        rhs = psi(ctx, ctx.alpha(g, r))
        assert np.allclose(lhs.data, rhs.data, atol=1e-13)


def test_diag_properties():
    ctx = ctx_full(4, 2)
    rng = np.random.default_rng(3)
    x = random_operator(ctx, rng)
    e = ctx.group.identity()
    blocks = fourier_coefficient(ctx, x, e)
    assert blocks.shape == (ctx.nwin, ctx.d, ctx.d)
    dx = block_diagonal(ctx, blocks)
    assert np.array_equal(dx.data, ref_diag(x))
    assert np.allclose(fourier_coefficient(ctx, dx, e), blocks)
    ident = fourier_coefficient(ctx, ctx.wrap(np.eye(ctx.dim, dtype=complex)), e)
    assert np.array_equal(block_diagonal(ctx, ident).data, np.eye(8, dtype=complex))
    # positivity: the diagonal part of x*x stays positive semidefinite
    pos = block_diagonal(ctx, fourier_coefficient(ctx, x.adjoint() @ x, e)).data
    eigs = np.linalg.eigvalsh((pos + pos.conj().T) / 2)
    assert eigs[0] >= -1e-10
    assert abs(op_norm(blocks) - op_norm(dx)) <= 1e-12
    assert op_norm(blocks) <= op_norm(x) + 1e-12


def test_fourier_coefficient_of_translate():
    ctx = ctx_swap(6)
    rng = np.random.default_rng(5)
    r = ctx.algebra.random_member(rng)
    x = left_translation(ctx, 2) @ psi(ctx, r)
    for g in ctx.window:
        c = fourier_coefficient(ctx, x, g)
        if g == 2:
            assert np.allclose(block_diagonal(ctx, c).data, psi(ctx, r).data)
        else:
            assert np.count_nonzero(c) == 0


def test_fourier_coefficient_identity_slot():
    ctx = ctx_scalars(5)
    rng = np.random.default_rng(9)
    x = random_operator(ctx, rng)
    c = fourier_coefficient(ctx, x, 0)
    assert np.allclose(block_diagonal(ctx, c).data, ref_diag(x))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reconstruction_exact_finite(n, d):
    ctx = ctx_full(n, d) if d > 1 else ctx_scalars(n)
    rng = np.random.default_rng(100 * n + d)
    for _ in range(5):
        x = random_operator(ctx, rng)
        y = reconstruct(ctx, x)
        assert np.max(np.abs((y - x).data)) <= 1e-12


def test_reconstruction_window_masks_far_entries():
    # on a window, resummation reproduces exactly the entries whose
    # relative position stays inside the window and zeroes the rest
    spec = FreeGroup(2)
    ctx = make_context(spec, radius=2)
    rng = np.random.default_rng(21)
    x = random_operator(ctx, rng)
    y = reconstruct(ctx, x, approximate=True)
    idx = ctx.window.index_of
    for i, a in enumerate(ctx.window):
        for j, b in enumerate(ctx.window):
            rel = spec.multiply(a, spec.inverse(b))
            want = x.data[i, j] if rel in idx else 0.0
            assert y.data[i, j] == pytest.approx(want, abs=1e-14)


def test_reconstruction_window_exact_on_span():
    spec = FreeGroup(2)
    ctx = make_context(spec, radius=3)
    coeffs = {(): 0.7, (1,): 0.3j, (-2,): -0.2, (1, 2): 0.1}
    x = theta_embed(ctx, {g: np.array([[c]]) for g, c in coeffs.items()})
    y = reconstruct(ctx, x, approximate=True)
    assert np.max(np.abs((y - x).data)) <= 1e-14


def test_reconstruction_requires_approximate_flag():
    ctx = make_context(Integers(), radius=3)
    x = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    with pytest.raises(SpecMismatchError):
        reconstruct(ctx, x)
    y = reconstruct(ctx, x, approximate=True)
    assert np.allclose(y.data, x.data)


def test_schur_product_blockwise():
    ctx = ctx_full(3, 2)
    rng = np.random.default_rng(17)
    a = random_operator(ctx, rng)
    b = random_operator(ctx, rng)
    c = schur_product(a, b)
    for i in range(3):
        for j in range(3):
            assert np.allclose(c.block(i, j), a.block(i, j) @ b.block(i, j))


def _psd_with_block_structure(ctx, p, q, side, rng):
    """Random PSD operator whose blocks all lie in M_p x I_q or I_p x M_q."""
    n = ctx.nwin
    data = np.zeros((n * p * q, n * p * q), dtype=complex)
    for i in range(n):
        for j in range(n):
            if side == "left":
                m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                blk = np.kron(m, np.eye(q))
            else:
                m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
                blk = np.kron(np.eye(p), m)
            data[i * p * q : (i + 1) * p * q, j * p * q : (j + 1) * p * q] = blk
    x = ctx.wrap(data)
    return x.adjoint() @ x


def test_schur_product_of_commuting_psd_pairs():
    rng = np.random.default_rng(23)
    for p, q, n in [(2, 2, 3), (2, 3, 2), (3, 2, 4)]:
        ctx = ctx_full(n, p * q)
        for _ in range(10):
            a = _psd_with_block_structure(ctx, p, q, "left", rng)
            b = _psd_with_block_structure(ctx, p, q, "right", rng)
            s = schur_product(a, b)
            eigs = np.linalg.eigvalsh((s.data + s.data.conj().T) / 2)
            assert eigs[0] >= -1e-10


def test_multiplier_constant_one_is_identity():
    ctx = ctx_scalars(5)
    rng = np.random.default_rng(29)
    x = random_operator(ctx, rng)
    one = chi_from_set(Cyclic(5), set(range(5)))
    y = hadamard_multiplier(ctx, one, x)
    assert np.array_equal(y.data, x.data)


def test_multiplier_delta_recovers_diagonal():
    ctx = ctx_swap(4)
    rng = np.random.default_rng(31)
    x = random_operator(ctx, rng)
    delta = chi_from_set(Cyclic(4), {0})
    y = hadamard_multiplier(ctx, delta, x)
    assert np.allclose(y.data, ref_diag(x))


def test_multiplier_eigenrelation():
    ctx = ctx_translation(4)
    rng = np.random.default_rng(37)
    chi = chi_from_set(Cyclic(4), {0, 1})
    for t in ctx.window:
        r = ctx.algebra.random_member(rng)
        x = left_translation(ctx, t) @ psi(ctx, r)
        y = hadamard_multiplier(ctx, chi, x)
        assert np.allclose(y.data, complex(chi(t)) * x.data, atol=1e-14)


def test_p_seminorm_values():
    ctx = ctx_scalars(6)
    rng = np.random.default_rng(41)
    xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    norm = float(np.linalg.norm(xi))
    assert p_seminorm(ctx.wrap(np.eye(ctx.dim, dtype=complex)), xi) == pytest.approx(norm)
    for g in (1, 3):
        assert p_seminorm(left_translation(ctx, g), xi) == pytest.approx(norm)


def test_p_seminorm_triangle_and_homogeneity():
    ctx = ctx_full(3, 2)
    rng = np.random.default_rng(43)
    for _ in range(50):
        x = random_operator(ctx, rng)
        y = random_operator(ctx, rng)
        xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        px = p_seminorm(x, xi)
        assert p_seminorm(x + y, xi) <= px + p_seminorm(y, xi) + 1e-10
        assert p_seminorm(x * 2.5j, xi) == pytest.approx(2.5 * px)
        assert px <= op_norm(x) * np.linalg.norm(xi) + 1e-10


def test_phi_theta_round_trip():
    ctx = ctx_translation(5)
    rng = np.random.default_rng(47)
    coeffs = np.stack([ctx.algebra.random_member(rng) for _ in range(5)])
    x = theta_embed(ctx, coeffs)
    back = phi_hom(ctx, x)
    assert np.max(np.abs(back - coeffs)) <= 1e-13
    again = theta_embed(ctx, back)
    assert np.max(np.abs((again - x).data)) <= 1e-13


def test_phi_rejects_outsiders():
    ctx = ctx_scalars(4)
    rng = np.random.default_rng(53)
    x = random_operator(ctx, rng)
    with pytest.raises(NotInCrossedProductError):
        phi_hom(ctx, x)
    # translate-consistent but outside the coefficient algebra
    ctx2 = ctx_swap(4)
    r = np.array([[1.0, 5.0], [0.0, 1.0]], dtype=complex)
    stack = np.stack([r] + [np.eye(2, dtype=complex)] * 3)
    bad = theta_embed(ctx2, stack)
    with pytest.raises(NotInCrossedProductError):
        phi_hom(ctx2, bad)


def test_hadamard_product_matches_slotwise_multiplication():
    ctx = ctx_swap(6)
    rng = np.random.default_rng(59)
    cx = np.stack([ctx.algebra.random_member(rng) for _ in range(6)])
    cy = np.stack([ctx.algebra.random_member(rng) for _ in range(6)])
    x = theta_embed(ctx, cx)
    y = theta_embed(ctx, cy)
    z = hadamard_product(ctx, x, y)
    want = theta_embed(ctx, np.einsum("tab,tbc->tac", cx, cy))
    assert np.max(np.abs((z - want).data)) <= 1e-12


def test_hadamard_product_unit():
    # slotwise multiplication is unital for the all-ones coefficient series
    ctx = ctx_scalars(5)
    rng = np.random.default_rng(61)
    c = rng.standard_normal((5, 1, 1)) + 1j * rng.standard_normal((5, 1, 1))
    x = theta_embed(ctx, c)
    unit = theta_embed(ctx, np.ones((5, 1, 1), dtype=complex))
    assert np.allclose(hadamard_product(ctx, unit, x).data, x.data)
    assert np.allclose(hadamard_product(ctx, x, unit).data, x.data)
    # the crossed-product identity instead acts as the delta series
    y = hadamard_product(ctx, ctx.wrap(np.eye(ctx.dim, dtype=complex)), x)
    want = theta_embed(ctx, np.concatenate([c[:1], np.zeros((4, 1, 1))]))
    assert np.allclose(y.data, want.data)


def test_op_norm_examples():
    ctx = ctx_scalars(4)
    assert op_norm(ctx.wrap(np.eye(ctx.dim, dtype=complex))) == pytest.approx(1.0)
    assert op_norm(left_translation(ctx, 1)) == pytest.approx(1.0)
    x = ctx.wrap(np.eye(ctx.dim, dtype=complex)) * (-2.0 + 0j)
    assert op_norm(x) == pytest.approx(2.0)


def test_expectation_properties():
    rng = np.random.default_rng(71)
    for algebra in (CoeffAlgebra.diagonal(3), CoeffAlgebra.full(2)):
        e, d = ExpectationSpec(algebra), algebra.internal_dim
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.allclose(e.apply(e.apply(a)), e.apply(a))
        assert np.allclose(e.apply(np.eye(d)), np.eye(d))
        pos = e.apply(a.conj().T @ a)
        assert np.linalg.eigvalsh((pos + pos.conj().T) / 2)[0] >= -1e-12


def test_expectation_bimodular_over_target():
    rng = np.random.default_rng(73)
    d = 3
    e = ExpectationSpec(CoeffAlgebra.diagonal(d))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    r = np.diag(rng.standard_normal(d))
    s = np.diag(rng.standard_normal(d))
    assert np.allclose(e.apply(r @ a @ s), r @ e.apply(a) @ s)


def test_expectation_commutes_with_action():
    ctx = ctx_translation(5)
    rng = np.random.default_rng(79)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    for g in ctx.window:
        p = ctx.perms[ctx.window.index(g)]
        lhs = ctx.alpha_by_perm(p, ctx.expectation.apply(a))
        rhs = ctx.expectation.apply(ctx.alpha_by_perm(p, a))
        assert np.allclose(lhs, rhs)


def test_algebra_validation():
    alg = CoeffAlgebra.diagonal(3)
    assert alg.contains(np.diag([1.0, 2.0, 3.0]))
    assert not alg.contains(np.ones((3, 3)))
    with pytest.raises(SpecMismatchError):
        alg.validate_member(np.ones((3, 3)))
    with pytest.raises(SpecMismatchError):
        CoeffAlgebra("scalars", 1)
    assert CoeffAlgebra.scalars().identity().shape == (1, 1)


@pytest.mark.parametrize(
    "algebra",
    [CoeffAlgebra.scalars(), CoeffAlgebra.diagonal(3), CoeffAlgebra.full(3)],
    ids=["scalars", "diagonal3", "full3"],
)
def test_the_algebra_names_the_entries_it_keeps(algebra):
    d, diagonal = algebra.internal_dim, algebra.kind == "diagonal"
    rows, cols = algebra.kept
    assert algebra.kept is algebra.kept and not rows.flags.writeable
    if diagonal:
        assert rows.tolist() == cols.tolist() == list(range(d))
    else:
        assert list(zip(rows, cols)) == [(a, b) for a in range(d) for b in range(d)]
    assert algebra.classes == (d if diagonal else 1)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((2, 4, d, d)) + 1j * rng.standard_normal((2, 4, d, d))
    got = algebra.compress(stack)
    if diagonal:
        for i, j in np.ndindex(2, 4):
            assert np.array_equal(got[i, j], np.diag(np.diag(stack[i, j])))
    else:
        assert got is stack
    # random members draw as before: the normals, then their compression
    m = algebra.random_member(np.random.default_rng(5))
    draw = np.random.default_rng(5)
    want = draw.standard_normal((d, d)) + 1j * draw.standard_normal((d, d))
    assert np.array_equal(m, np.diag(np.diag(want)) if diagonal else want)
    # membership looks only at the entries outside kept, which a full
    # algebra has none of, so a non-finite entry is a member of it
    r = np.diag(np.arange(1.0, d + 1)).astype(complex)
    assert algebra.contains(r)
    r[0, -1] = np.nan
    assert algebra.contains(r) == (not diagonal)
    assert not algebra.contains(np.eye(d + 1))


def old_expectation_apply(algebra, x):
    """ExpectationSpec.apply as it read its own kind, "diagonal" for a
    diagonal algebra and "identity" for a full one, before it read the
    algebra's."""
    kind = {"diagonal": "diagonal", "full": "identity"}[algebra.kind]
    x = np.asarray(x, dtype=complex)
    if kind == "diagonal":
        return CoeffAlgebra.diagonal(x.shape[-1]).compress(x)
    return x.copy()


@pytest.mark.parametrize(
    "algebra",
    [CoeffAlgebra.scalars(), CoeffAlgebra.diagonal(3), CoeffAlgebra.full(3)],
    ids=["scalars", "diagonal3", "full3"],
)
def test_the_expectation_is_the_old_kind_based_one(algebra):
    d = algebra.internal_dim
    rng = np.random.default_rng(11)
    one = rng.standard_normal((d, d))
    one[0, 0] = -0.0
    stack = rng.standard_normal((2, 4, d, d)) + 1j * rng.standard_normal((2, 4, d, d))
    stack[..., -1, 0] = -0.0 - 0.0j
    expectation = ExpectationSpec(algebra)
    for x in (one, stack):
        want = old_expectation_apply(algebra, x)
        got = expectation.apply(x)
        assert got.dtype == want.dtype == complex and got.shape == x.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # a fresh array: writing into it leaves the input as it was
        before = x.copy()
        got[...] = 7.0
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


def test_scalars_are_the_full_one_by_one_matrices():
    assert CoeffAlgebra._KINDS == ("diagonal", "full")
    assert CoeffAlgebra.scalars() == CoeffAlgebra.full(1)


@pytest.mark.parametrize("d", [1, 3])
def test_a_trivial_action_is_the_identity_permutation(d):
    algebra = CoeffAlgebra.full(d)
    trivial = make_context(Cyclic(4), algebra=algebra, action=ActionSpec.trivial())
    identity = make_context(
        Cyclic(4), algebra=algebra, action=ActionSpec.permutation(lambda g: tuple(range(d)))
    )
    assert ActionSpec.trivial() == ActionSpec()
    assert np.array_equal(trivial.perm_index, identity.perm_index)
    assert np.array_equal(trivial.inv_perm_index, identity.inv_perm_index)


def test_action_validation():
    with pytest.raises(SpecMismatchError):
        swap_action(Cyclic(3))
    act = ActionSpec.permutation(lambda g: (0, 0))
    with pytest.raises(SpecMismatchError):
        act.perm(0, 2)
    with pytest.raises(SpecMismatchError):
        make_context(
            Cyclic(4),
            algebra=CoeffAlgebra.diagonal(2),
            action=translation_action(Cyclic(4)),
        )


def test_context_validation():
    with pytest.raises(SpecMismatchError):
        make_context(Integers())


@pytest.mark.parametrize(
    "algebra, kind",
    [
        (CoeffAlgebra.scalars(), "identity"),
        (CoeffAlgebra.diagonal(2), "diagonal"),
        (CoeffAlgebra.full(2), "identity"),
    ],
)
def test_context_expectation_follows_the_algebra(algebra, kind):
    expectation = make_context(Cyclic(4), algebra=algebra).expectation
    assert expectation == ExpectationSpec(algebra)
    d = algebra.internal_dim
    a = np.arange(d * d, dtype=complex).reshape(d, d) + 1j
    assert np.array_equal(expectation.apply(a), np.diag(np.diag(a)) if kind == "diagonal" else a)


def test_alpha_identity_and_composition():
    ctx = ctx_translation(6)
    rng = np.random.default_rng(83)
    r = ctx.algebra.random_member(rng)
    assert np.allclose(ctx.alpha(0, r), r)
    for g in (1, 2, 5):
        for h in (1, 3):
            lhs = ctx.alpha(g, ctx.alpha(h, r))
            rhs = ctx.alpha((g + h) % 6, r)
            assert np.allclose(lhs, rhs)


def test_cached_rows_serve_window_elements_without_multiplying(monkeypatch):
    ctx = ctx_swap(6)
    x = random_operator(ctx, np.random.default_rng(5))
    before = {g: fourier_coefficient(ctx, x, g) for g in ctx.window}
    ctx.mul_table
    calls = []
    real = Cyclic.multiply

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(Cyclic, "multiply", counted)
    for g in ctx.window:
        assert np.array_equal(fourier_coefficient(ctx, x, g), before[g])
        assert np.array_equal(ctx.left_index(g), ctx.mul_table[ctx.window.index(g)])
    assert calls == []
    # the returned row is a copy: writing to it leaves the cache alone
    ctx.left_index(1)[:] = -1
    assert (ctx.mul_table[1] >= 0).all()
