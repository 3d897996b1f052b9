"""The stack kernels against per-block reference loops.

Each reference below applies the automorphism, the expectation and the
block gathers one d x d block at a time, the way the operator formulas
read; the library kernels act on whole (..., d, d) stacks at once.
"""

import numpy as np
import pytest

from crossedprod.crossed import (
    ActionSpec,
    BlockMatrix,
    CoeffAlgebra,
    ExpectationSpec,
    fourier_coefficient,
    make_context,
    op_norm,
    phi_hom,
    psi,
    SpanElement,
    swap_action,
    theta_embed,
    translation_action,
    _permute,
    _phi_batch,
    _raise_outside_span,
    _theta_gather,
    DEFAULT_TOL,
)
from crossedprod.errors import (
    NotInCrossedProductError,
    NotInDomainError,
    SpecMismatchError,
)
from crossedprod.groups import Cyclic, FreeGroup, Integers, ball
from crossedprod.posdef import L2Vector
from crossedprod.sigma import _support, chi_of, phi_t, sigma_coefficients, tau_u

TOL = 1e-13


def ref_alpha(p, r):
    pinv = [0] * len(p)
    for i, pi in enumerate(p):
        pinv[pi] = i
    return np.asarray(r, dtype=complex)[np.ix_(pinv, pinv)]


def ref_inv_perm(ctx, j):
    """The permutation of alpha_{g^-1} for window slot j, from the action."""
    return ctx.action.perm(ctx.group.inverse(ctx.window[j]), ctx.d)


def ref_expectation(algebra, x):
    x = np.asarray(x, dtype=complex)
    if algebra.kind == "diagonal":
        return np.diag(np.diag(x))
    return x.copy()


def ref_theta_embed(ctx, stack):
    out = ctx.zero()
    oblocks = out.blocks()
    rel = ctx.rel_table
    for j in range(ctx.nwin):
        pj = ref_inv_perm(ctx, j)
        for i in range(ctx.nwin):
            t = rel[i, j]
            if t >= 0:
                oblocks[i, j] = ref_alpha(pj, stack[t])
    return out


def ref_phi_hom(ctx, x, tol=1e-10):
    n, d = ctx.nwin, ctx.d
    xblocks = x.blocks()
    mul = ctx.mul_table
    coeffs = np.zeros((n, d, d), dtype=complex)
    for ti in range(n):
        r = xblocks[ti, 0].copy()
        for j in range(1, n):
            i = mul[ti, j]
            if i < 0:
                continue
            cand = ref_alpha(ctx.perms[j], xblocks[i, j])
            defect = float(np.max(np.abs(cand - r)))
            if defect > tol:
                raise NotInCrossedProductError(
                    f"coefficient at window slot {ti} inconsistent across the "
                    f"diagonal (defect {defect:.3e})"
                )
        if not ctx.algebra.contains(r, tol):
            raise NotInCrossedProductError(
                f"coefficient at window slot {ti} leaves the "
                f"{ctx.algebra.kind} algebra"
            )
        if ctx.algebra.kind == "diagonal":
            r = np.diag(np.diag(r))
        coeffs[ti] = r
    return coeffs


def ref_support(ctx, xi):
    idx = ctx.window.index_of
    return [(idx[g], complex(v)) for g, v in xi.entries.items() if v != 0]


def ref_sigma_coefficients(ctx, xi, x):
    rel = ctx.rel_table
    xblocks = x.blocks()
    coeffs = np.zeros((ctx.nwin, ctx.d, ctx.d), dtype=complex)
    supp = ref_support(ctx, xi)
    for i, ki in supp:
        for j, kj in supp:
            t = rel[i, j]
            assert t >= 0
            coeffs[t] += ki.conjugate() * kj * ref_alpha(
                ctx.perms[j], ref_expectation(ctx.algebra, xblocks[i, j])
            )
    return coeffs


def ref_tau_u(ctx, xi, u, x):
    idx = ctx.window.index_of
    uinv = ctx.group.inverse(u)
    pu = ctx.action.perm(u, ctx.d)
    xblocks = x.blocks()
    out = ctx.zero()
    oblocks = out.blocks()
    supp = ref_support(ctx, xi)
    for i, ki in supp:
        a = idx[ctx.group.multiply(ctx.window[i], uinv)]
        for j, kj in supp:
            b = idx[ctx.group.multiply(ctx.window[j], uinv)]
            oblocks[a, b] += ki.conjugate() * kj * ref_alpha(
                pu, ref_expectation(ctx.algebra, xblocks[i, j])
            )
    return out


def ref_psi(ctx, r):
    out = ctx.zero()
    blocks = out.blocks()
    for i in range(ctx.nwin):
        blocks[i, i] = ref_alpha(ref_inv_perm(ctx, i), r)
    return out


def parity_action():
    return ActionSpec.permutation(lambda g: (1, 0) if g % 2 else (0, 1))


def word_parity_action():
    return ActionSpec.permutation(lambda w: (1, 0) if len(w) % 2 else (0, 1))


def finite_case(name):
    if name == "C4-swap":
        return make_context(
            Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4))
        )
    if name == "C6-full6":
        return make_context(Cyclic(6), algebra=CoeffAlgebra.full(6))
    if name == "C5-scalars":
        return make_context(Cyclic(5))
    return make_context(
        Cyclic(12),
        algebra=CoeffAlgebra.diagonal(12),
        action=translation_action(Cyclic(12)),
    )


def window_case(name):
    """Windows of infinite groups with a margin-mode vector: support
    products stay in the window, yet the tables hold -1 elsewhere."""
    if name == "Z-r3":
        ctx = make_context(
            Integers(), radius=3, algebra=CoeffAlgebra.diagonal(2),
            action=parity_action(),
        )
        xi = L2Vector.normalized({-1: 0.5, 0: 1.0, 1: 0.25})
    else:
        spec = FreeGroup(2)
        ctx = make_context(
            spec, radius=2, algebra=CoeffAlgebra.full(2), action=word_parity_action()
        )
        xi = L2Vector.normalized({(): 1.0, (1,): 0.5, (-2,): 0.75})
    assert (ctx.rel_table < 0).any() and (ctx.mul_table < 0).any()
    return ctx, xi


FINITE = ["C4-swap", "C6-full6", "C12-translation", "C5-scalars"]
WINDOWS = ["Z-r3", "F2-r2"]


def random_stack(ctx, rng):
    return np.stack([ctx.algebra.random_member(rng) for _ in range(ctx.nwin)])


def random_operator(ctx, rng):
    n = ctx.dim
    return ctx.wrap(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def all_cases():
    for name in FINITE:
        ctx = finite_case(name)
        weights = {g: 1.0 + 0.3 * i for i, g in enumerate(ctx.window)}
        yield name, ctx, L2Vector.normalized(weights)
    for name in WINDOWS:
        ctx, xi = window_case(name)
        yield name, ctx, xi


CASES = list(all_cases())
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_theta_embed_matches_block_loop(name, ctx, xi):
    rng = np.random.default_rng(1)
    stack = random_stack(ctx, rng)
    got = theta_embed(ctx, stack)
    assert np.max(np.abs(got.data - ref_theta_embed(ctx, stack).data)) <= TOL


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_phi_hom_matches_block_loop(name, ctx, xi):
    rng = np.random.default_rng(2)
    x = ref_theta_embed(ctx, random_stack(ctx, rng))
    got = phi_hom(ctx, x)
    assert np.max(np.abs(got - ref_phi_hom(ctx, x))) <= TOL


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_sigma_coefficients_match_block_loop(name, ctx, xi):
    rng = np.random.default_rng(3)
    x = random_operator(ctx, rng)
    got = sigma_coefficients(ctx, xi, x)
    assert np.max(np.abs(got - ref_sigma_coefficients(ctx, xi, x))) <= TOL


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_psi_matches_block_loop(name, ctx, xi):
    rng = np.random.default_rng(4)
    r = ctx.algebra.random_member(rng)
    assert np.max(np.abs(psi(ctx, r).data - ref_psi(ctx, r).data)) <= TOL


@pytest.mark.parametrize("name, ctx, xi", CASES[: len(FINITE)], ids=FINITE)
def test_tau_u_matches_block_loop(name, ctx, xi):
    rng = np.random.default_rng(5)
    x = random_operator(ctx, rng)
    for u in ctx.window:
        got = tau_u(ctx, xi, u, x)
        assert np.max(np.abs(got.data - ref_tau_u(ctx, xi, u, x).data)) <= TOL


def full_stack_support(ctx, xi):
    idx = ctx.window.index_of
    pairs = [(idx[g], complex(v)) for g, v in xi.entries.items() if complex(v) != 0]
    slots = np.array([i for i, _ in pairs], dtype=np.int64)
    k = np.array([v for _, v in pairs], dtype=complex)
    return slots, (k.conj()[:, None] * k[None, :])[:, :, None, None]


def full_stack_sigma_coefficients(ctx, xi, x):
    """The full-block stack formula: gather every (i, j) block, compress
    it, permute it and sum it in (i, j) order, off-diagonal zeros too."""
    slots, weights = full_stack_support(ctx, xi)
    rows, cols = slots[:, None], slots[None, :]
    terms = weights * ctx.alpha_by_perm(
        ctx.perm_index[slots], ctx.expectation.apply(x.blocks()[rows, cols])
    )
    d = ctx.d
    coeffs = np.zeros((ctx.nwin, d, d), dtype=complex)
    np.add.at(coeffs, ctx.rel_table[rows, cols].ravel(), terms.reshape(-1, d, d))
    return coeffs


def full_stack_tau_u(ctx, xi, u, x):
    if not ctx.group.is_finite():
        raise SpecMismatchError("the translation decomposition needs a finite group")
    slots, weights = full_stack_support(ctx, xi)
    moved = ctx.rel_table[slots, ctx.window.index(u)]
    out = ctx.zero()
    out.blocks()[moved[:, None], moved[None, :]] = weights * ctx.alpha_by_perm(
        ctx.action.perm(u, ctx.d),
        ctx.expectation.apply(x.blocks()[slots[:, None], slots[None, :]]),
    )
    return out


def full_stack_phi_t(ctx, xi, t, x):
    chival = complex(chi_of(ctx, xi)(t))
    if abs(chival) <= 1e-14:
        raise NotInDomainError("eigenvalue vanishes")
    slots, weights = full_stack_support(ctx, xi)
    b, a = np.nonzero(slots[None, :] == ctx.left_index(t)[slots][:, None])
    i, j = slots[a], slots[b]
    terms = weights[a, b] * ctx.alpha_by_perm(
        ctx.perm_index[j], ctx.expectation.apply(x.blocks()[i, j])
    )
    acc = np.zeros((1, ctx.d, ctx.d), dtype=complex)
    np.add.at(acc, np.zeros(len(terms), dtype=np.int64), terms)
    return acc[0] / chival


def strided_operator(ctx, rng):
    """A window operator whose data is a non-contiguous view, as the
    amplified sweep of cp_check passes them."""
    n = ctx.dim
    z = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    x = ctx.wrap(z[n:, :n])
    assert not x.data.flags.c_contiguous
    return x


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_sigma_coefficients_equal_the_full_stack_formula(name, ctx, xi):
    rng = np.random.default_rng(15)
    for x in (random_operator(ctx, rng), strided_operator(ctx, rng)):
        got = sigma_coefficients(ctx, xi, x)
        assert np.array_equal(got, full_stack_sigma_coefficients(ctx, xi, x))


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_tau_u_equals_the_full_stack_formula(name, ctx, xi):
    rng = np.random.default_rng(16)
    for x in (random_operator(ctx, rng), strided_operator(ctx, rng)):
        for u in ctx.window:
            if not ctx.group.is_finite():
                with pytest.raises(SpecMismatchError):
                    full_stack_tau_u(ctx, xi, u, x)
                with pytest.raises(SpecMismatchError):
                    tau_u(ctx, xi, u, x)
                continue
            got = tau_u(ctx, xi, u, x)
            assert np.array_equal(got.data, full_stack_tau_u(ctx, xi, u, x).data)


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_phi_t_equals_the_full_stack_formula(name, ctx, xi):
    rng = np.random.default_rng(17)
    chi = chi_of(ctx, xi)
    reached = 0
    for x in (random_operator(ctx, rng), strided_operator(ctx, rng)):
        for t in ctx.window:
            try:
                want = full_stack_phi_t(ctx, xi, t, x)
            except NotInDomainError:
                with pytest.raises(NotInDomainError):
                    phi_t(ctx, xi, t, x, chi)
                continue
            assert np.array_equal(phi_t(ctx, xi, t, x, chi), want)
            reached += 1
    assert reached >= 2


@pytest.mark.parametrize("kind", ["diagonal", "identity"])
def test_expectation_acts_on_the_last_two_axes(kind):
    rng = np.random.default_rng(6)
    d = 3
    stack = rng.standard_normal((4, 5, d, d)) + 1j * rng.standard_normal((4, 5, d, d))
    algebra = {"diagonal": CoeffAlgebra.diagonal(d), "identity": CoeffAlgebra.full(d)}[kind]
    got = ExpectationSpec(algebra).apply(stack)
    for i in range(4):
        for j in range(5):
            assert np.array_equal(got[i, j], ref_expectation(algebra, stack[i, j]))


def test_alpha_by_perm_slot_by_slot():
    ctx = finite_case("C12-translation")
    rng = np.random.default_rng(7)
    stack = random_stack(ctx, rng) + rng.standard_normal((ctx.nwin, ctx.d, ctx.d))
    got = ctx.alpha_by_perm(ctx.perm_index, stack)
    inv = ctx.alpha_by_perm(ctx.inv_perm_index, stack)
    for t in range(ctx.nwin):
        assert np.array_equal(got[t], ref_alpha(ctx.perms[t], stack[t]))
        assert np.array_equal(inv[t], ref_alpha(ref_inv_perm(ctx, t), stack[t]))
        single = ctx.alpha_by_perm(ctx.perms[t], stack)
        assert np.array_equal(single[t], got[t])


@pytest.mark.parametrize("name", FINITE + WINDOWS)
def test_phi_hom_raises_at_the_same_first_slot(name):
    ctx = finite_case(name) if name in FINITE else window_case(name)[0]
    rng = np.random.default_rng(8)
    x = ref_theta_embed(ctx, random_stack(ctx, rng))
    blocks = x.blocks()
    mul = ctx.mul_table
    # break slots 3 and 1 off the identity column; slot 1 comes first
    for ti in (3, 1):
        j = int(np.flatnonzero((mul[ti] >= 0) & (np.arange(ctx.nwin) > 0))[-1])
        blocks[mul[ti, j], j] += 0.5
    with pytest.raises(NotInCrossedProductError) as want:
        ref_phi_hom(ctx, x)
    with pytest.raises(NotInCrossedProductError) as got:
        phi_hom(ctx, x)
    assert "window slot 1 inconsistent" in str(want.value)
    assert str(got.value) == str(want.value)


def old_phi_index(ctx):
    """(n, n, d, d) flat indices into a window operator's data: entry
    (t, j) reads block (g_t g_j, g_j) through alpha_{g_j}, and block (0, j)
    where g_t g_j leaves the window."""
    n, d = ctx.nwin, ctx.d
    rows = np.maximum(ctx.mul_table, 0)[..., None] * d + ctx.perm_index
    cols = np.arange(n)[:, None] * d + ctx.perm_index
    return rows[..., :, None] * (n * d) + cols[:, None, :]


def old_phi_batch(ctx, data):
    """The span check reading its candidates through old_phi_index, one
    dense gather per operator, instead of the Fourier batch."""
    n, d = ctx.nwin, ctx.d
    coeffs = np.empty((len(data), n, d, d), dtype=complex)
    squares = np.empty(len(data))
    index = old_phi_index(ctx)
    for k, x in enumerate(data):
        cand = np.take(x.astype(complex, copy=False), index)
        coeffs[k] = cand[:, 0]
        cand -= coeffs[k][:, None]
        gap = np.abs(cand)[None]
        if not ctx.group.is_finite():
            gap[:, ctx.mul_table < 0] = 0.0
        off = np.zeros(n)
        if ctx.algebra.kind == "diagonal":
            off = np.max(np.abs(coeffs[k] * (1.0 - np.eye(d))), axis=(-2, -1))
        if np.max(gap) > DEFAULT_TOL or not np.max(off) <= DEFAULT_TOL:
            _raise_outside_span(ctx, np.max(gap[0], axis=(-2, -1)), off, k)
        squares[k] = np.einsum("ktjab,ktjab->k", gap, gap)[0]
    return coeffs, squares


@pytest.mark.parametrize("name", ["C4-swap", "C6-full6", "Z-r3"])
def test_phi_batch_reads_the_fourier_batch_as_the_old_gather(name):
    ctx = finite_case(name) if name in FINITE else window_case(name)[0]
    rng = np.random.default_rng(10)
    # span elements with rounding-level noise: in the span, residuals > 0
    near = np.stack([
        ref_theta_embed(ctx, random_stack(ctx, rng)).data
        + 1e-13 * random_operator(ctx, rng).data
        for _ in range(3)
    ])
    got, want = _phi_batch(ctx, near), old_phi_batch(ctx, near)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert (got[1] > 0).all()
    # a stand-in operator off the span, after the three that pass
    off = np.concatenate([near, random_operator(ctx, rng).data[None], near[:1]])
    with pytest.raises(NotInCrossedProductError) as want:
        old_phi_batch(ctx, off)
    with pytest.raises(NotInCrossedProductError) as got:
        _phi_batch(ctx, off)
    assert got.value.index == want.value.index == 3
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("coefficient at window slot 0 ")
    # a NaN in a kept entry fails the span check: at the identity slot's
    # own block it makes coefficient 0 NaN, so every column disagrees
    # with it
    kept = [(0, 0)] + ([(0, ctx.d - 1)] if ctx.algebra.kind == "full" else [])
    for a, b in kept:
        nan = near[:1].copy()
        nan[0, a, b] = np.nan
        with pytest.raises(NotInCrossedProductError) as got:
            _phi_batch(ctx, nan)
        assert got.value.index == 0
        assert str(got.value) == (
            "coefficient at window slot 0 inconsistent across the diagonal (defect nan)"
        )


@pytest.mark.parametrize("name", ["C4-swap", "C6-full6", "Z-r3"])
def test_a_nan_stand_in_is_outside_the_span(name):
    ctx = finite_case(name) if name in FINITE else window_case(name)[0]
    x = ref_theta_embed(ctx, random_stack(ctx, np.random.default_rng(11))).data.copy()
    x[0, 0] = np.nan
    with pytest.raises(NotInCrossedProductError, match=r"slot 0 .*\(defect nan\)"):
        phi_hom(ctx, ctx.wrap(x))


def old_theta_index(ctx):
    """(nd, nd) flat indices into a coefficient stack with one zero
    appended: entry (i d + a, j d + b) of theta(c) is entry (a, b) of
    alpha_{g_j^-1}(c at g_i g_j^-1), or the zero where g_i g_j^-1 leaves
    the window."""
    n, d = ctx.nwin, ctx.d
    q = ctx.inv_perm_index
    inner = (q[:, :, None] * d + q[:, None, :])[None]
    idx = np.where(
        (ctx.rel_table < 0)[..., None, None],
        n * d * d,
        ctx.rel_table[..., None, None] * (d * d) + inner,
    )
    return idx.swapaxes(1, 2).reshape(n * d, n * d)


def old_theta_entries(ctx, stack, rows, cols):
    """theta(c) at rows and cols through old_theta_index, reading a copy
    of each stack flattened with one zero appended."""
    lead = stack.shape[:-3]
    flat = np.zeros(lead + (int(np.prod(stack.shape[-3:])) + 1,), dtype=complex)
    flat[..., :-1] = stack.reshape(lead + (-1,))
    return flat[..., old_theta_index(ctx)[rows, cols]]


def same_bits(a, b):
    """Equal shapes and raw float64 words, so that 0.0 and -0.0 differ."""
    bits = [np.ascontiguousarray(x, dtype=complex).view(np.uint64) for x in (a, b)]
    return a.shape == b.shape and np.array_equal(*bits)


@pytest.mark.parametrize("name", ["C4-swap", "C6-full6", "Z-r3"])
def test_theta_reads_its_entries_straight_from_the_stack_as_the_old_index(name):
    ctx = finite_case(name) if name in FINITE else window_case(name)[0]
    assert ctx.group.is_finite() or (ctx.rel_table < 0).any()
    rng = np.random.default_rng(11)
    stack = np.stack([random_stack(ctx, rng) for _ in range(2)])
    stack[0, 1] *= -0.0
    k = np.arange(ctx.dim)
    assert same_bits(_theta_gather(ctx, stack), old_theta_entries(ctx, stack, k[:, None], k))
    assert same_bits(_theta_gather(ctx, stack[1]), old_theta_entries(ctx, stack[1], k[:, None], k))
    x = SpanElement(ctx, stack)
    assert same_bits(x.data, _theta_gather(ctx, stack))
    rows = rng.integers(0, ctx.dim, size=(3, 1, 4))
    cols = rng.integers(0, ctx.dim, size=(5, 1))
    got = x.entries(rows, cols)
    assert got.shape == (2, 3, 5, 4)
    assert same_bits(got, old_theta_entries(ctx, stack, rows, cols))
    assert same_bits(x[1].entries(rows, cols), got[1])
    # the broadcast gather of the Fourier batch, with g h off the window
    rows = np.maximum(ctx.mul_table, 0)[..., None, None] * ctx.d + np.arange(ctx.d)[:, None]
    cols = np.arange(ctx.nwin)[:, None, None] * ctx.d + np.arange(ctx.d)
    assert same_bits(x.entries(rows, cols), old_theta_entries(ctx, stack, rows, cols))


def test_phi_hom_reports_the_first_slot_outside_the_algebra():
    ctx = finite_case("C12-translation")
    rng = np.random.default_rng(9)
    stack = random_stack(ctx, rng)
    for t in (4, 2):
        stack[t, 0, 1] = 0.25
    x = ref_theta_embed(ctx, stack)
    with pytest.raises(NotInCrossedProductError) as want:
        ref_phi_hom(ctx, x)
    with pytest.raises(NotInCrossedProductError) as got:
        phi_hom(ctx, x)
    assert str(want.value) == "coefficient at window slot 2 leaves the diagonal algebra"
    assert str(got.value) == str(want.value)


def dense_norm(x):
    m = x.data
    return float(np.sqrt(max(0.0, float(np.linalg.eigvalsh(m.conj().T @ m)[-1]))))


def eigvalsh_arg_ndims(monkeypatch):
    seen = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.ndim(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


def block_diagonal(window, d, blocks):
    """The dense operator with the (n, d, d) blocks on its diagonal."""
    n = len(window)
    out = BlockMatrix(window, d, np.zeros((n * d, n * d), dtype=complex))
    out.blocks()[np.arange(n), np.arange(n)] = blocks
    return out


@pytest.mark.parametrize("d", [1, 2, 6])
def test_op_norm_block_diagonal_matches_dense(monkeypatch, d):
    rng = np.random.default_rng(d)
    window = ball(FreeGroup(2), 1)
    n = len(window)
    for _ in range(5):
        m = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
        slots = np.arange(n)
        blocks = BlockMatrix(window, d, m).blocks()[slots, slots]
        want = dense_norm(block_diagonal(window, d, blocks))
        seen = eigvalsh_arg_ndims(monkeypatch)
        assert abs(op_norm(blocks) - want) <= 1e-12
        assert seen == [3]
        monkeypatch.undo()


def test_op_norm_fourier_coefficient_with_empty_blocks(monkeypatch):
    ctx, _ = window_case("F2-r2")
    rng = np.random.default_rng(12)
    x = random_operator(ctx, rng)
    for g in [(1,), (1, 2), (-2, -1)]:
        coeff = fourier_coefficient(ctx, x, g)
        empty = [j for j in range(ctx.nwin) if not coeff[j].any()]
        assert empty  # g h leaves the window for some h
        want = dense_norm(block_diagonal(ctx.window, ctx.d, coeff))
        seen = eigvalsh_arg_ndims(monkeypatch)
        assert abs(op_norm(coeff) - want) <= 1e-12
        assert seen == [3]
        monkeypatch.undo()


def test_op_norm_path_follows_construction_not_values(monkeypatch):
    """A difference of two psi images is a span element, exactly zero or
    not depending on its values; on a finite group it is normed off its
    dual blocks either way, so the eigensolve sizes of a sweep do not
    depend on its seed.  The same operator as a plain BlockMatrix takes
    the dense path."""
    ctx = finite_case("C4-swap")
    r = ctx.algebra.random_member(np.random.default_rng(13))
    for x in (psi(ctx, r) - psi(ctx, 2 * r), psi(ctx, r) - psi(ctx, r)):
        assert isinstance(x, SpanElement)
        for y, ndims in ((x, [3]), (ctx.wrap(x.data), [2])):
            seen = eigvalsh_arg_ndims(monkeypatch)
            got = op_norm(y)
            assert seen == ndims
            monkeypatch.undo()
            assert abs(got - dense_norm(x)) <= 1e-12


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_psi_is_exactly_the_block_loop_and_blockwise(monkeypatch, name, ctx, xi):
    r = ctx.algebra.random_member(np.random.default_rng(14))
    got = psi(ctx, r)
    assert isinstance(got, SpanElement)
    assert np.array_equal(got.data, ref_psi(ctx, r).data)
    seen = eigvalsh_arg_ndims(monkeypatch)
    norm = op_norm(got)
    monkeypatch.undo()
    # dual blocks on a finite group, the dense data on a window
    assert seen == ([3] if ctx.group.is_finite() else [2])
    want = dense_norm(got)
    assert abs(norm - want) <= 1e-12 * max(1.0, want)


def ix_permute(r, pinv):
    """The gather as _permute wrote it with np.ix_ on every call."""
    lead = tuple(k[..., None, None] for k in np.ix_(*map(range, r.shape[:-2])))
    return r[lead + (pinv[..., :, None], pinv[..., None, :])]


@pytest.mark.parametrize(
    "lead, pinv_lead",
    [((), ()), ((4, 4), ()), ((5,), (5,)), ((3, 5), (5,)), ((3, 5), (3, 5)), ((2, 3, 5), (3, 5))],
)
def test_permute_is_the_ix_gather(lead, pinv_lead):
    """pinv of shape (d,), (m, d) and (n, m, d), as alpha_by_perm's callers
    pass them, against stacks with as many or more leading axes."""
    d = 4
    rng = np.random.default_rng(len(lead) + 3 * len(pinv_lead))
    r = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
    pinv = np.argsort(rng.random(pinv_lead + (d,)), axis=-1)
    for _ in range(2):  # the second call reads the cached leading index
        assert np.array_equal(_permute(r, pinv), ix_permute(r, pinv))


@pytest.mark.parametrize("name, ctx, xi", CASES, ids=IDS)
def test_a_support_gives_the_vectors_stacks(name, ctx, xi):
    """sigma_coefficients and tau_u read a precomputed Support as they
    read the vector it came from."""
    support = _support(ctx, xi)
    rng = np.random.default_rng(19)
    for x in (random_operator(ctx, rng), strided_operator(ctx, rng)):
        want = sigma_coefficients(ctx, xi, x)
        assert np.array_equal(sigma_coefficients(ctx, support, x), want)
        if ctx.group.is_finite():
            for u in ctx.window:
                assert np.array_equal(
                    tau_u(ctx, support, u, x).data, tau_u(ctx, xi, u, x).data
                )
