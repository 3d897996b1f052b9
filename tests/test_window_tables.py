"""The window-table gathers against the group-arithmetic loops they replace.

Each reference below is a loop that multiplies group elements and looks
the product up in the window, slot by slot, the way the operator formulas
read.  The library reads the same indices off ``CrossedContext.left_index``,
``mul_table`` and ``rel_table``, derives ``inv_table`` from ``mul_table``
and ``inv_perm_index`` from ``perms``, and must agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from crossedprod.crossed import (
    ActionSpec,
    BlockMatrix,
    CoeffAlgebra,
    fourier_coefficient,
    hadamard_multiplier,
    left_translation,
    make_context,
    phi_hom,
    psi,
    reconstruct,
    SpanElement,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.errors import NotInDomainError
from crossedprod.groups import Cyclic, FreeGroup, Integers, ProductGroup
from crossedprod.posdef import L2Vector, chi_from_vector, haagerup
from crossedprod.sigma import make_pair, phi_t, pi_amplification, pi_projection, tau_u


def ref_mul_table(ctx):
    n = ctx.nwin
    out = np.full((n, n), -1, dtype=np.int64)
    idx = ctx.window.index_of
    for i, a in enumerate(ctx.window):
        for j, b in enumerate(ctx.window):
            out[i, j] = idx.get(ctx.group.multiply(a, b), -1)
    return out


def ref_rel_table(ctx):
    n = ctx.nwin
    out = np.full((n, n), -1, dtype=np.int64)
    idx = ctx.window.index_of
    for j, b in enumerate(ctx.window):
        binv = ctx.group.inverse(b)
        for i, a in enumerate(ctx.window):
            out[i, j] = idx.get(ctx.group.multiply(a, binv), -1)
    return out


def ref_inv_table(ctx):
    idx = ctx.window.index_of
    return np.array(
        [idx.get(ctx.group.inverse(a), -1) for a in ctx.window], dtype=np.int64
    )


def ref_inv_perm_index(ctx):
    """The gather indices of alpha_{g^-1}: the inverse of the permutation
    of g^-1, one row per window slot g."""
    inv_perms = [ctx.action.perm(ctx.group.inverse(g), ctx.d) for g in ctx.window]
    return np.argsort(np.asarray(inv_perms, dtype=np.int64), axis=-1)


def ref_left_translation(ctx, g):
    out = ctx.zero()
    blocks = out.blocks()
    eye = np.eye(ctx.d, dtype=complex)
    idx = ctx.window.index_of
    for j, b in enumerate(ctx.window):
        i = idx.get(ctx.group.multiply(g, b))
        if i is not None:
            blocks[i, j] = eye
    return out


def ref_fourier_coefficient(ctx, x, g):
    """The (n, d, d) diagonal blocks of Diag(L_g^* x), one at a time."""
    out = np.zeros((ctx.nwin, ctx.d, ctx.d), dtype=complex)
    xblocks = x.blocks()
    idx = ctx.window.index_of
    for j, b in enumerate(ctx.window):
        i = idx.get(ctx.group.multiply(g, b))
        if i is not None:
            out[j] = xblocks[i, j]
    return out


def block_diagonal(ctx, blocks):
    """The dense operator with the (n, d, d) blocks on its diagonal."""
    out = ctx.zero()
    slots = np.arange(ctx.nwin)
    out.blocks()[slots, slots] = blocks
    return out


def ref_reconstruct(ctx, x):
    out = ctx.zero()
    oblocks = out.blocks()
    idx = ctx.window.index_of
    for g in ctx.window:
        coeff = ref_fourier_coefficient(ctx, x, g)
        for j, b in enumerate(ctx.window):
            i = idx.get(ctx.group.multiply(g, b))
            if i is not None:
                oblocks[i, j] += coeff[j]
    return out


def ref_theta_embed_dict(ctx, coeffs):
    out = ctx.zero()
    oblocks = out.blocks()
    idx = ctx.window.index_of
    for t, r in coeffs.items():
        r = ctx.algebra.validate_member(r)
        for j, b in enumerate(ctx.window):
            i = idx.get(ctx.group.multiply(t, b))
            if i is not None:
                oblocks[i, j] += ctx.alpha_by_perm(
                    ctx.action.perm(ctx.group.inverse(b), ctx.d), r
                )
    return out


def ref_pi_amplification(pair, x):
    coeffs = phi_hom(pair.ctx, pair.sigma(x))
    worst = 0.0
    for coeff, val in zip(coeffs, pair.chi_values):
        worst = max(worst, float(np.linalg.norm(coeff, 2)) / abs(complex(val)))
    return worst


def ref_hadamard_multiplier(ctx, chi, x):
    n = ctx.nwin
    scale = np.empty((n, n), dtype=complex)
    rel = ctx.rel_table
    cache = {}
    for i in range(n):
        for j in range(n):
            t = rel[i, j]
            if t >= 0:
                val = cache.get(t)
                if val is None:
                    val = chi(ctx.window[t])
                    cache[t] = val
            else:
                val = chi(
                    ctx.group.multiply(
                        ctx.window[i], ctx.group.inverse(ctx.window[j])
                    )
                )
            scale[i, j] = val
    full = np.kron(scale, np.ones((ctx.d, ctx.d)))
    return BlockMatrix(ctx.window, ctx.d, x.data * full)


def ref_diag(x):
    n = len(x.window)
    d = x.block_dim
    out = np.zeros_like(x.data)
    for i in range(n):
        s = slice(i * d, (i + 1) * d)
        out[s, s] = x.data[s, s]
    return out


def ref_tau_u(ctx, xi, u, x):
    idx = ctx.window.index_of
    uinv = ctx.group.inverse(u)
    slots = np.array([idx[g] for g, v in xi.entries.items() if v != 0])
    k = np.array([complex(v) for v in xi.entries.values() if v != 0])
    moved = np.array([idx[ctx.group.multiply(ctx.window[i], uinv)] for i in slots])
    out = ctx.zero()
    out.blocks()[moved[:, None], moved[None, :]] = (
        k.conj()[:, None, None, None] * k[None, :, None, None]
    ) * ctx.alpha_by_perm(
        ctx.action.perm(u, ctx.d),
        ctx.expectation.apply(x.blocks()[slots[:, None], slots[None, :]]),
    )
    return out


def ref_phi_t(ctx, xi, t, x, chi):
    chival = complex(chi(t))
    idx = ctx.window.index_of
    xblocks = x.blocks()
    acc = np.zeros((ctx.d, ctx.d), dtype=complex)
    for g, kj in xi.entries.items():
        kj = complex(kj)
        if kj == 0:
            continue
        j = idx[g]
        i = idx.get(ctx.group.multiply(t, g))
        if i is None:
            continue
        kth = xi.entries.get(ctx.window[i])
        if kth is None:
            continue
        acc += (
            complex(kth).conjugate()
            * kj
            * ctx.alpha_by_perm(
                ctx.perms[j], ctx.expectation.apply(np.asarray(xblocks[i, j]))
            )
        )
    return acc / chival


def z_c3():
    return ProductGroup((Integers(), Cyclic(3)))


def make_case(name):
    """A context and a vector whose support products stay in the window."""
    if name == "C4-swap":
        ctx = make_context(
            Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4))
        )
    elif name == "C6-full6":
        ctx = make_context(Cyclic(6), algebra=CoeffAlgebra.full(6))
    elif name == "C12-translation":
        ctx = make_context(
            Cyclic(12),
            algebra=CoeffAlgebra.diagonal(12),
            action=translation_action(Cyclic(12)),
        )
    elif name == "Z-r3":
        ctx = make_context(
            Integers(), radius=3, algebra=CoeffAlgebra.diagonal(2),
            action=ActionSpec.permutation(lambda g: (1, 0) if g % 2 else (0, 1)),
        )
        return ctx, L2Vector.normalized({-1: 0.5, 0: 1.0, 1: 0.25})
    elif name == "F2-r2":
        ctx = make_context(
            FreeGroup(2), radius=2, algebra=CoeffAlgebra.full(2),
            action=ActionSpec.permutation(lambda w: (1, 0) if len(w) % 2 else (0, 1)),
        )
        return ctx, L2Vector.normalized({(): 1.0, (1,): 0.5, (-2,): 0.75})
    else:
        ctx = make_context(
            z_c3(), radius=2, algebra=CoeffAlgebra.diagonal(3),
            action=ActionSpec.permutation(
                lambda g: tuple((i + g[1]) % 3 for i in range(3))
            ),
        )
        return ctx, L2Vector.normalized({(0, 0): 1.0, (1, 0): 0.5, (0, 2): 0.75})
    weights = {g: 1.0 + 0.3 * i for i, g in enumerate(ctx.window)}
    return ctx, L2Vector.normalized(weights)


FINITE = ["C4-swap", "C6-full6", "C12-translation"]
NAMES = FINITE + ["Z-r3", "F2-r2", "ZxC3-r2"]


def random_operator(ctx, rng):
    n = ctx.dim
    return ctx.wrap(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def same(got, want):
    got = got.data if isinstance(got, BlockMatrix) else got
    want = want.data if isinstance(want, BlockMatrix) else want
    return got.shape == want.shape and np.array_equal(got, want)


def test_product_window_has_missing_products():
    ctx, _ = make_case("ZxC3-r2")
    assert (ctx.mul_table < 0).any() and (ctx.rel_table < 0).any()


@pytest.mark.parametrize("name", NAMES)
def test_tables_match_the_loops(name):
    ctx, _ = make_case(name)
    assert ctx.mul_table.dtype == ctx.rel_table.dtype == np.int64
    assert same(ctx.mul_table, ref_mul_table(ctx))
    assert same(ctx.rel_table, ref_rel_table(ctx))
    assert ctx.inv_table.dtype == ctx.inv_perm_index.dtype == np.int64
    assert same(ctx.inv_table, ref_inv_table(ctx))
    assert same(ctx.inv_perm_index, ref_inv_perm_index(ctx))
    for i, g in enumerate(ctx.window):
        assert same(ctx.left_index(g), ctx.mul_table[i])


@pytest.mark.parametrize("name", NAMES)
def test_translations_and_coefficients_match_the_loops(name):
    ctx, _ = make_case(name)
    x = random_operator(ctx, np.random.default_rng(1))
    for g in ctx.window:
        assert same(left_translation(ctx, g), ref_left_translation(ctx, g))
        assert same(fourier_coefficient(ctx, x, g), ref_fourier_coefficient(ctx, x, g))
    want = ref_reconstruct(ctx, x)
    assert same(reconstruct(ctx, x, approximate=True), want)
    diag = fourier_coefficient(ctx, x, ctx.group.identity())
    assert same(block_diagonal(ctx, diag), ref_diag(x))


def test_left_translation_by_an_element_off_the_window():
    ctx, _ = make_case("Z-r3")
    x = random_operator(ctx, np.random.default_rng(2))
    row = ctx.left_index(5)
    assert list(row) == [ctx.window.index_of.get(5 + h, -1) for h in ctx.window]
    assert sorted(ctx.window[i] for i in row if i >= 0) == [2, 3]
    assert same(left_translation(ctx, 5), ref_left_translation(ctx, 5))
    assert same(fourier_coefficient(ctx, x, 5), ref_fourier_coefficient(ctx, x, 5))


@pytest.mark.parametrize("name", NAMES)
def test_theta_embed_dict_matches_the_loop(name):
    ctx, _ = make_case(name)
    rng = np.random.default_rng(3)
    keys = list(ctx.window)[:: max(1, ctx.nwin // 5)]
    if name == "Z-r3":
        keys += [5, 9]  # partly, and wholly, outside the window
    coeffs = {t: ctx.algebra.random_member(rng) for t in keys}
    assert same(theta_embed(ctx, coeffs), ref_theta_embed_dict(ctx, coeffs))


@pytest.mark.parametrize("name", NAMES)
def test_hadamard_multiplier_matches_the_loop(name):
    ctx, xi = make_case(name)
    x = random_operator(ctx, np.random.default_rng(4))
    for chi in (chi_from_vector(ctx.group, xi), haagerup(ctx.group, 0.3)):
        assert same(hadamard_multiplier(ctx, chi, x), ref_hadamard_multiplier(ctx, chi, x))


@pytest.mark.parametrize("name", FINITE)
def test_tau_u_matches_the_loop(name):
    ctx, xi = make_case(name)
    x = random_operator(ctx, np.random.default_rng(5))
    for u in ctx.window:
        assert same(tau_u(ctx, xi, u, x), ref_tau_u(ctx, xi, u, x))


@pytest.mark.parametrize("name", NAMES)
def test_phi_t_matches_the_loop(name):
    ctx, xi = make_case(name)
    chi = chi_from_vector(ctx.group, xi)
    x = random_operator(ctx, np.random.default_rng(6))
    seen = 0
    for t in ctx.window:
        if abs(complex(chi(t))) <= 1e-14:
            with pytest.raises(NotInDomainError):
                phi_t(ctx, xi, t, x, chi=chi)
            continue
        seen += 1
        assert same(phi_t(ctx, xi, t, x, chi=chi), ref_phi_t(ctx, xi, t, x, chi))
    assert seen > 1


def pair_case(name):
    if name == "Z-r2":
        # chi is strictly positive exactly on supp - supp = the window
        ctx = make_context(Integers(), radius=2)
        return make_pair(ctx, L2Vector.normalized({-1: 0.5, 0: 1.0, 1: 0.25}))
    return make_pair(*make_case(name))


@pytest.mark.parametrize("name", ["C12-translation", "Z-r2"])
def test_repeated_pi_projection_evaluates_chi_once_per_slot(name):
    pair = pair_case(name)
    ctx = pair.ctx
    calls = []

    def counting_chi(g):
        calls.append(g)
        return pair.chi(g)

    spy = dataclasses.replace(pair, chi=counting_chi)
    rng = np.random.default_rng(7)
    for _ in range(3):
        got = pi_projection(spy, random_operator(ctx, rng))
    assert 0 < len(calls) <= ctx.nwin
    assert same(pi_projection(pair, got), pi_projection(spy, got))


def test_pi_projection_reports_the_first_slot_below_the_floor():
    ctx, xi = make_case("C4-swap")
    pair = make_pair(ctx, xi)
    assert list(ctx.window) == [0, 1, 3, 2]
    low = dataclasses.replace(pair, chi=lambda g: 0.0 if g in (3, 2) else 1.0)
    with pytest.raises(NotInDomainError, match="^eigenvalue underflow at 3$"):
        pi_projection(low, ctx.wrap(np.eye(ctx.dim, dtype=complex)))


@pytest.mark.parametrize("name", NAMES)
def test_psi_is_theta_at_the_identity(name):
    ctx, _ = make_case(name)
    r = ctx.algebra.random_member(np.random.default_rng(8))
    got = psi(ctx, r)
    assert isinstance(got, SpanElement)
    assert same(got, ref_theta_embed_dict(ctx, {ctx.group.identity(): r}))


@pytest.mark.parametrize("name", FINITE + ["Z-r2"])
def test_pi_amplification_matches_the_slot_loop(name):
    pair = pair_case(name)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = random_operator(pair.ctx, rng)
        assert pi_amplification(pair, x) == ref_pi_amplification(pair, x)
