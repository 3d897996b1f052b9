"""Condition (ii) as one program over its samples.

check_condition_ii applies sigma once to the stack of its samples, bounds
every sample from a Krylov lower bound on ||x|| and an upper bound on each
lhs from sigma(x)'s coefficients, and norms exactly only the samples whose
bounded margin could lower the margin so far: every Fourier coefficient of
sigma(x) in one fourier_coefficient call, their norms in one op_norm, and
||x|| densely.  The references below are the per-g computations it
replaced, and the scan that norms every sample: one coefficient gathered
slot by slot from the group arithmetic, one eigensolve per g, and the
strict-< scan over (sample, g) in sample-major, g-minor order, stopping
after the first sample whose margin fails.  The skipping scan must agree
with them bit for bit: margin, witness, verdict and trials.
"""

import math
import tracemalloc

import numpy as np
import pytest

from crossedprod import sigma
from crossedprod.crossed import (
    CoeffAlgebra,
    fourier_coefficient,
    left_translation,
    make_context,
    op_norm,
    psi,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.errors import ConfigError
from crossedprod.groups import Cyclic, Integers
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    ExpectationPair,
    check_condition_ii,
    make_pair,
    random_crossed_element,
    random_window_operator,
)


def cyclic(n, algebra=None, action=None):
    spec = Cyclic(n)
    return make_context(spec, algebra=algebra, action=action and action(spec))


CONTEXTS = {
    "C4/swap/diagonal2": lambda: cyclic(4, CoeffAlgebra.diagonal(2), swap_action),
    "C6/full6": lambda: cyclic(6, CoeffAlgebra.full(6)),
    "C12/translation": lambda: cyclic(12, CoeffAlgebra.diagonal(12), translation_action),
    "C8/scalars": lambda: cyclic(8),
    # full algebras under a non-trivial action: alpha_{h^-1} moves the
    # entries of every block, so the blocks of one coefficient differ
    "C4/swap/full2": lambda: cyclic(4, CoeffAlgebra.full(2), swap_action),
    "C4/translation/full4": lambda: cyclic(4, CoeffAlgebra.full(4), translation_action),
}
FOURIER = ["C4/swap/diagonal2", "C6/full6", "Z-r3"]


def context(name):
    if name == "Z-r3":
        return make_context(Integers(), radius=3)
    return CONTEXTS[name]()


def bits(a):
    """The raw float64 words of an array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(bits(a), bits(b))


def pair_of(ctx, seed=0):
    rng = np.random.default_rng(seed)
    return make_pair(ctx, L2Vector.normalized({g: 0.2 + rng.random() for g in ctx.window}))


def ref_fourier_stack(ctx, x, g):
    """(n, d, d) blocks x_{(gh, h)} of Diag(L_g^* x), slot by slot."""
    out = np.zeros((ctx.nwin, ctx.d, ctx.d), dtype=complex)
    blocks = x.blocks()
    idx = ctx.window.index_of
    for j, h in enumerate(ctx.window):
        i = idx.get(ctx.group.multiply(g, h))
        if i is not None:
            out[j] = blocks[i, j]
    return out


def ref_block_norm(stack):
    """The norm of one block-diagonal operator from its (n, d, d) blocks."""
    gram = stack.conj().swapaxes(-1, -2) @ stack
    return float(np.sqrt(max(0.0, float(np.max(np.linalg.eigvalsh(gram)[:, -1])))))


def ref_dense_norm(x):
    m = x.data
    return float(np.sqrt(max(0.0, float(np.linalg.eigvalsh(m.conj().T @ m)[-1]))))


def ref_gaps(pair, x):
    """chi(g) ||x|| - lhs_g at every window g, g by g."""
    ctx = pair.ctx
    sx = pair.sigma(x)
    xnorm = ref_dense_norm(x)
    return [
        float(chi) * xnorm - ref_block_norm(ref_fourier_stack(ctx, sx, g))
        for g, chi in zip(ctx.window, pair.chi_values.real)
    ]


def ref_condition_ii(pair, samples, tol=1e-10):
    """The per-(sample, g) scan, which norms every sample until the first
    whose margin fails: (margin, witness, samples normed, exact).

    exact lists the samples that the skip rule norms: sample 0, and each
    later one whose bounded margin min_g chi(g) L - U_g, with the
    Frobenius norm in L's place where chi(g) < 0, lies below the margin
    of the samples before it."""
    ctx = pair.ctx
    stack = stacked(ctx, samples)
    lows = sigma._norm_lower_bounds(stack)
    highs = sigma._coefficient_upper_bounds(pair.sigma(stack).coeffs)
    chis = pair.chi_values.real
    margin, witness, normed, exact = math.inf, None, 0, []
    for si, x in enumerate(samples):
        frobenius = np.linalg.norm(x.data) * (1 + sigma.BOUND_SLACK)
        floor = np.min(chis * np.where(chis < 0, frobenius, lows[si]) - highs[si])
        if not exact or floor < margin:
            exact.append(si)
        normed += 1
        for g, gap in zip(ctx.window, ref_gaps(pair, x)):
            if gap < margin:
                margin, witness = gap, (si, g)
        if margin < -tol:
            break
    return margin, witness, normed, exact


def verdict_of(ctx, margin, witness, tol=1e-10):
    """The verdict check_condition_ii writes for a margin and its witness."""
    if margin >= -tol:
        return "Pass"
    si, g = witness
    return f"Fail(sample={si}, g={ctx.group.format_element(g)}, margin={margin:.3e})"


def sample_index(stack, x):
    """The index of the sample of stack that x views."""
    return next(i for i, s in enumerate(stack.data) if np.shares_memory(x.data, s))


def exact_samples(monkeypatch, pair, stack, tol=1e-10):
    """check_condition_ii's report, and the indices of the samples of
    stack that took the dense ||x||, in order."""
    calls = []

    def recording(x):
        if not isinstance(x, np.ndarray):
            calls.append(sample_index(stack, x))
        return op_norm(x)

    with monkeypatch.context() as patch:
        patch.setattr(sigma, "op_norm", recording)
        return check_condition_ii(pair, stack, tol), calls


def operators(ctx, rng):
    """A dense operator, a span element and sigma of a dense operator."""
    x = random_window_operator(ctx, rng)
    out = [x, random_crossed_element(ctx, rng)]
    if ctx.group.is_finite():
        out.append(pair_of(ctx).sigma(x))
    else:
        out.append(theta_embed(ctx, {0: 0.5, 2: 1.5j, -3: -2.0}))
    return out


@pytest.mark.parametrize("name", FOURIER)
def test_every_fourier_coefficient_in_one_call_is_the_per_g_stack(name):
    ctx = context(name)
    for x in operators(ctx, np.random.default_rng(1)):
        batch = fourier_coefficient(ctx, x)
        assert type(batch) is np.ndarray and batch.flags.c_contiguous
        assert batch.shape == (ctx.nwin, ctx.nwin, ctx.d, ctx.d)
        for i, g in enumerate(ctx.window):
            one = fourier_coefficient(ctx, x, g)
            assert type(one) is np.ndarray and one.flags.c_contiguous
            assert same_bits(batch[i], one)
            assert same_bits(one, ref_fourier_stack(ctx, x, g))


@pytest.mark.parametrize("name", FOURIER)
def test_op_norm_of_the_batch_is_each_per_g_norm(name):
    ctx = context(name)
    for x in operators(ctx, np.random.default_rng(2)):
        batch = fourier_coefficient(ctx, x)
        norms = op_norm(batch)
        assert norms.shape == (ctx.nwin,)
        for i, g in enumerate(ctx.window):
            one = op_norm(fourier_coefficient(ctx, x, g))
            assert type(one) is float
            assert same_bits(norms[i], one)
            assert one == ref_block_norm(fourier_coefficient(ctx, x, g))


def old_block_diagonal_norm(diagonal):
    """op_norm's branch for the deleted block-diagonal operator class,
    read off its (..., n, d, d) stack of diagonal blocks."""
    gram = diagonal.conj().swapaxes(-1, -2) @ diagonal
    top = np.max(np.linalg.eigvalsh(gram)[..., -1], axis=-1)
    norms = np.sqrt(np.maximum(top, 0.0))
    return norms if diagonal.ndim > 3 else float(norms)


@pytest.mark.parametrize("name", FOURIER)
def test_op_norm_of_blocks_is_the_old_block_diagonal_norm(name):
    ctx = context(name)
    xs = operators(ctx, np.random.default_rng(4)) + [ctx.zero()]
    # on the Z radius-3 window every coefficient but g = 0 has empty
    # blocks, where g h leaves the window; the zero operator has only those
    stack = ctx.wrap(np.stack([x.data for x in xs]))
    for blocks in [fourier_coefficient(ctx, stack)] + [fourier_coefficient(ctx, x) for x in xs]:
        norms = op_norm(blocks)
        assert same_bits(norms, old_block_diagonal_norm(blocks))
        for i in range(ctx.nwin):
            one = blocks[..., i, :, :, :]
            want = old_block_diagonal_norm(one)
            got = op_norm(one)
            assert type(got) is type(want)
            assert same_bits(got, want)


def test_a_batch_of_a_span_element_builds_no_dense_matrix():
    ctx = context("C6/full6")
    x = random_crossed_element(ctx, np.random.default_rng(3))
    op_norm(fourier_coefficient(ctx, x))
    assert "data" not in x.__dict__


def sized_samples(ctx, rng, count):
    """Random operators at random scales, so that any of them can set the
    margin, which scales with the sample."""
    return [random_window_operator(ctx, rng) * rng.uniform(0.25, 4.0) for _ in range(count)]


def check_against_the_all_samples_scan(pair, samples, monkeypatch, tol=1e-10):
    """check_condition_ii against ref_condition_ii bit for bit, its
    exact samples included; the witness of a passing scan
    is read off a second scan at the tol that its margin just fails.
    Returns the number of samples it skipped."""
    ctx, stack = pair.ctx, stacked(pair.ctx, samples)
    margin, witness, _, want = ref_condition_ii(pair, samples, tol)
    rep, exact = exact_samples(monkeypatch, pair, stack, tol)
    assert same_bits(rep.condition_ii_margin, margin)
    assert rep.verdict == verdict_of(ctx, margin, witness, tol)
    assert rep.trials == len(samples)
    assert exact == want
    skipped = exact[-1] + 1 - len(exact)
    just = -np.nextafter(margin, np.inf)
    rep = check_condition_ii(pair, stack, just)
    assert rep.verdict == verdict_of(ctx, margin, witness, just)
    assert same_bits(rep.condition_ii_margin, margin)
    return skipped


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_the_margin_is_the_per_g_scan(name, monkeypatch):
    # over 50 pairs, each with samples at random scales, so that the
    # witness falls on any of them and later ones are skipped
    ctx = context(name)
    skipped = 0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        skipped += check_against_the_all_samples_scan(
            pair_of(ctx, seed), sized_samples(ctx, rng, 6), monkeypatch
        )
    if ctx.algebra.kind != "full":
        assert skipped > 0


def stacked(ctx, samples):
    """The (T, nd, nd) stack of a list of operators."""
    return ctx.wrap(np.stack([x.data for x in samples]))


def halved(pair):
    """A stand-in pair whose eigenvalue function is half of pair's."""
    return ExpectationPair(pair.ctx, chi=lambda g: 0.5 * pair.chi(g), xi=pair.xi)


def failing_samples(ctx, rng):
    """Random samples, then tight translates L_g psi(r) with unitary r,
    which meet the bound of the true pair with equality and fail a halved
    one, then random samples again."""
    phases = np.diag(np.exp(2j * np.pi * rng.random(ctx.d)))
    if ctx.algebra.kind == "full":
        phases = np.linalg.qr(rng.standard_normal((ctx.d, ctx.d)))[0].astype(complex)
    tight = [
        ctx.wrap((left_translation(ctx, g) @ psi(ctx, phases)).data.copy())
        for g in ctx.window[1:3]
    ]
    random = [random_window_operator(ctx, rng) for _ in range(5)]
    return random[:2] + tight + random[2:]


@pytest.mark.parametrize("name", ["C4/swap/diagonal2", "C6/full6", "C8/scalars"])
def test_a_halved_chi_fails_with_the_per_g_witness(name, monkeypatch):
    ctx = context(name)
    pair = halved(pair_of(ctx, 7))
    samples = failing_samples(ctx, np.random.default_rng(8))
    margin, (si, g), normed, exact = ref_condition_ii(pair, samples)
    assert margin < 0 and si == 2 and normed == 3
    # sample 0 always, the failing sample, and nothing after it; the bound
    # of the scalars' sample 1 lies above sample 0's margin
    assert exact == ([0, 2] if name == "C8/scalars" else [0, 1, 2])

    dense, batches = [], []
    real_op_norm, real_fourier = sigma.op_norm, sigma.fourier_coefficient

    def counting_op_norm(x):
        (batches if isinstance(x, np.ndarray) else dense).append(x)
        return real_op_norm(x)

    def counting_fourier(ctx, x, *g):
        assert g == ()  # every g in one call
        return real_fourier(ctx, x)

    monkeypatch.setattr(sigma, "op_norm", counting_op_norm)
    monkeypatch.setattr(sigma, "fourier_coefficient", counting_fourier)
    stack = stacked(ctx, samples)
    rep = check_condition_ii(pair, stack)
    want = f"Fail(sample={si}, g={ctx.group.format_element(g)}, margin={margin:.3e})"
    assert rep.verdict == want
    assert same_bits(rep.condition_ii_margin, margin)
    assert rep.trials == len(samples)
    # each exact sample takes one batch norm and one dense norm, in order
    assert [sample_index(stack, x) for x in dense] == exact
    assert len(batches) == len(exact)


def test_each_exact_sample_takes_one_batch_one_norm_and_one_dense_norm(
    monkeypatch, window_samples
):
    ctx = context("C4/swap/diagonal2")
    pair = pair_of(ctx, 9)
    stack = window_samples(ctx, 7, seed=10)
    *_, exact = ref_condition_ii(pair, [stack[i] for i in range(7)])
    # diagonal blocks make the coefficient bound exact, and sample 0 sets
    # a margin that no later sample can lower
    assert exact == [0]
    calls = {"sigma": [], "fourier": 0, "op_norm": 0}
    real_sigma, real_fourier, real_op_norm = (
        sigma.sigma_xi, sigma.fourier_coefficient, sigma.op_norm
    )

    def sigma_xi(ctx, xi, x):
        calls["sigma"].append(x.lead)
        return real_sigma(ctx, xi, x)

    def fourier(ctx, x, *g):
        calls["fourier"] += 1
        return real_fourier(ctx, x, *g)

    def norm(x):
        calls["op_norm"] += 1
        return real_op_norm(x)

    monkeypatch.setattr(sigma, "sigma_xi", sigma_xi)
    monkeypatch.setattr(sigma, "fourier_coefficient", fourier)
    monkeypatch.setattr(sigma, "op_norm", norm)
    rep = check_condition_ii(pair, stack)
    assert rep.verdict == "Pass" and rep.trials == 7
    assert calls == {"sigma": [(7,)], "fourier": len(exact), "op_norm": 2 * len(exact)}


@pytest.mark.parametrize("name", ["C4/swap/diagonal2", "C6/full6"])
def test_one_operator_or_an_empty_stack_is_refused(name):
    ctx = context(name)
    pair = pair_of(ctx, 11)
    rng = np.random.default_rng(12)
    want = rf"non-empty \(T, {ctx.dim}, {ctx.dim}\) stack"
    x = random_window_operator(ctx, rng)
    y = random_crossed_element(ctx, rng)
    for one in (x, y):
        assert one.lead == ()
        with pytest.raises(ConfigError, match=want):
            check_condition_ii(pair, one)
        # a stack of one is a sweep
        rep = check_condition_ii(pair, one[None])
        assert rep.trials == 1 and rep.verdict == "Pass"
    # an empty sweep would report Pass with an infinite margin
    with pytest.raises(ConfigError, match=want):
        check_condition_ii(pair, ctx.wrap(np.empty((0, ctx.dim, ctx.dim), dtype=complex)))


@pytest.mark.parametrize("name", ["C4/swap/diagonal2", "C6/full6", "C8/scalars"])
def test_a_stand_in_whose_margin_the_last_sample_sets(name, monkeypatch):
    ctx = context(name)
    rng = np.random.default_rng(13)
    tight = failing_samples(ctx, rng)[2]
    samples = [random_window_operator(ctx, rng) for _ in range(5)] + [tight]
    for pair in (pair_of(ctx, 14), halved(pair_of(ctx, 14))):
        _, (si, _), _, _ = ref_condition_ii(pair, samples)
        assert si == len(samples) - 1
        check_against_the_all_samples_scan(pair, samples, monkeypatch)


def negated(pair):
    """A stand-in pair whose eigenvalue function is pair's, negated at
    every third window slot."""
    index = pair.ctx.window.index_of
    return ExpectationPair(
        pair.ctx,
        chi=lambda g: -pair.chi(g) if index[g] % 3 == 1 else pair.chi(g),
        xi=pair.xi,
    )


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_a_chi_with_negative_entries_bounds_by_the_frobenius_norm(name, monkeypatch):
    ctx = context(name)
    skipped = 0
    for seed in range(10):
        pair = negated(pair_of(ctx, seed))
        assert (pair.chi_values.real < 0).any()
        samples = sized_samples(ctx, np.random.default_rng(200 + seed), 6)
        # a loose tol lets the scan run on past its failing margins
        skipped += check_against_the_all_samples_scan(pair, samples, monkeypatch, tol=1e6)
        check_against_the_all_samples_scan(pair, samples, monkeypatch)
    assert skipped > 0


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_zero_and_rank_one_samples(name, monkeypatch):
    ctx = context(name)
    rng = np.random.default_rng(15)
    u = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    zero, rank_one = ctx.zero(), ctx.wrap(np.outer(u, v.conj()))
    x, y = (random_window_operator(ctx, rng) for _ in range(2))
    lows = sigma._norm_lower_bounds(stacked(ctx, [x, zero, rank_one, y]))
    assert lows[1] == 0.0
    # the first Krylov step already holds the top singular vector
    assert ref_dense_norm(rank_one) * (1 - 1e-10) <= lows[2] <= ref_dense_norm(rank_one)
    for samples in ([zero, x, rank_one, y], [x, zero, rank_one, y], [rank_one, zero, x]):
        check_against_the_all_samples_scan(pair_of(ctx, 16), samples, monkeypatch)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_the_bounds_hold_at_every_sample_and_g(name):
    ctx = context(name)
    for seed in range(5):
        pair = pair_of(ctx, seed)
        rng = np.random.default_rng(300 + seed)
        samples = sized_samples(ctx, rng, 4) + [
            random_crossed_element(ctx, rng), pair.sigma(random_window_operator(ctx, rng))
        ]
        stack = stacked(ctx, samples)
        lows = sigma._norm_lower_bounds(stack)
        sxs = pair.sigma(stack)
        highs = sigma._coefficient_upper_bounds(sxs.coeffs)
        for si, x in enumerate(samples):
            assert lows[si] <= ref_dense_norm(x)
            assert lows[si] <= op_norm(stack[si])
            for gi, g in enumerate(ctx.window):
                assert highs[si, gi] >= op_norm(fourier_coefficient(ctx, sxs[si], g))


@pytest.mark.parametrize("name", FOURIER)
def test_the_coefficient_bound_holds_for_any_span_element(name):
    # on the Z radius-3 window, blocks where g h leaves the window are 0
    ctx = context(name)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = random_crossed_element(ctx, rng)
        highs = sigma._coefficient_upper_bounds(x.coeffs)
        norms = op_norm(fourier_coefficient(ctx, x))
        assert (highs >= norms).all()
        if ctx.algebra.kind != "full":
            # exact but for the slack on diagonal blocks
            assert (highs <= norms * (1 + 1e-11)).all()


def test_the_bounds_take_no_temporary_the_size_of_the_stack(window_samples):
    # C16 diagonal:16 under translation, ten samples of 256 rows, as the
    # matrix-sweep study runs it: the samples are 10 MiB, and one sample's
    # dense norm, Fourier batch and their Grams are about 3.6 MiB
    spec = Cyclic(16)
    ctx = make_context(spec, algebra=CoeffAlgebra.diagonal(16), action=translation_action(spec))
    pair = pair_of(ctx, 18)
    stack = window_samples(ctx, 10, seed=19)
    pair.sigma(stack[:1])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rep = check_condition_ii(pair, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "Pass"
    assert peak - entry < stack.data.nbytes / 2
