"""Sweep outputs that carry their coefficient stacks.

sigma_xi, pi_projection, random_crossed_element and theta_embed's dict
branch return SpanElements: theta(c) held as c, with the dense data
gathered on first use.  Every reading of one must equal the reading of
the same dense matrix as a plain BlockMatrix, bit for bit, since theta is
a gather; and the sweeps must read the stacks without building a dense
sigma(x).
"""

import numpy as np
import pytest

from crossedprod import crossed, sigma
from crossedprod.cli import main
from crossedprod.crossed import (
    BlockMatrix,
    CoeffAlgebra,
    SpanElement,
    dual_blocks,
    fourier_coefficient,
    make_context,
    op_norm,
    phi_hom,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.groups import Cyclic, Integers
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    check_condition_ii,
    cp_check,
    make_pair,
    pi_projection,
    random_crossed_element,
)

CONTEXTS = [
    ("C5/scalars", make_context(Cyclic(5))),
    (
        "C6/diagonal6",
        make_context(
            Cyclic(6), algebra=CoeffAlgebra.diagonal(6), action=translation_action(Cyclic(6))
        ),
    ),
    ("C4/full3", make_context(Cyclic(4), algebra=CoeffAlgebra.full(3))),
]
IDS = [label for label, _ in CONTEXTS]


def bits(a):
    """The raw float64 words of an array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def dense(x):
    return x.ctx.wrap(x.data.copy())


def block_diagonal(ctx, blocks):
    """The dense operator with the (n, d, d) blocks on its diagonal."""
    out = ctx.zero()
    slots = np.arange(ctx.nwin)
    out.blocks()[slots, slots] = blocks
    return out


def pair_of(ctx, seed=0):
    rng = np.random.default_rng(seed)
    return make_pair(ctx, L2Vector.normalized({g: 0.2 + rng.random() for g in ctx.window}))


def span_elements(ctx, rng):
    """One SpanElement from each producer, and a negated one."""
    pair = pair_of(ctx)
    x = sigma.random_window_operator(ctx, rng)
    r = ctx.algebra.random_member(rng)
    out = [
        pair.sigma(x),
        pi_projection(pair, x),
        random_crossed_element(ctx, rng),
        theta_embed(ctx, {ctx.window[1]: r, ctx.window[-1]: 2 * r}),
    ]
    return out + [-1.0 * out[0]]


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_each_producer_returns_a_span_element_of_its_context(label, ctx):
    for x in span_elements(ctx, np.random.default_rng(1)):
        assert isinstance(x, SpanElement) and x.ctx is ctx
        assert x.coeffs.shape == (ctx.nwin, ctx.d, ctx.d)


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_phi_hom_and_dual_blocks_read_the_stack_as_the_dense_check_does(label, ctx):
    xs = span_elements(ctx, np.random.default_rng(2))
    for x in xs:
        assert same_bits(phi_hom(ctx, x), phi_hom(ctx, dense(x)))
        blocks, res = dual_blocks(ctx, x)
        want, want_res = dual_blocks(ctx, dense(x))
        assert same_bits(blocks, want)
        assert res == 0.0 and want_res == 0.0
    stack = SpanElement(ctx, np.stack([x.coeffs for x in xs]))
    blocks, res = dual_blocks(ctx, stack)
    want, want_res = dual_blocks(ctx, ctx.wrap(np.stack([x.data for x in xs])))
    assert same_bits(blocks, want) and not res.any() and not want_res.any()


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_arithmetic_on_stacks_is_the_dense_arithmetic(label, ctx):
    a, b, *_ = span_elements(ctx, np.random.default_rng(4))
    da, db = dense(a), dense(b)
    for z in (-1.0, 0.75, 0.3 - 1.7j, np.float64(2.5)):
        for got, want in ((a - b, da - db), (a + b, da + db), (z * a, z * da), (a * z, da * z)):
            assert isinstance(got, SpanElement)
            assert same_bits(got.data, want.data)


def test_arithmetic_with_any_other_operator_is_dense():
    _, ctx = CONTEXTS[1]
    a = random_crossed_element(ctx, np.random.default_rng(5))
    plain = sigma.random_window_operator(ctx, np.random.default_rng(6))
    # the same window and algebra under another action is another theta
    other = make_context(Cyclic(6), algebra=CoeffAlgebra.diagonal(6))
    b = random_crossed_element(other, np.random.default_rng(7))
    for got, want in (
        (a - plain, a.data - plain.data),
        (plain + a, plain.data + a.data),
        (a - b, a.data - b.data),
        (a @ a, a.data @ a.data),
    ):
        assert type(got) is BlockMatrix and np.array_equal(got.data, want)


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_the_dense_data_is_read_only(label, ctx):
    x = random_crossed_element(ctx, np.random.default_rng(8))
    with pytest.raises(ValueError, match="read-only"):
        x.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        x.blocks()[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        x.coeffs[0] = 0.0
    # copies are plain writable matrices
    y = x.adjoint()
    y.data[0, 0] = 1.0


def test_unvalidated_stacks_and_off_window_keys_stay_dense():
    ctx = make_context(Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4)))
    off = np.zeros((4, 2, 2), dtype=complex)
    off[2, 0, 1] = 1.0
    assert type(theta_embed(ctx, off)) is BlockMatrix
    window = make_context(Integers(), radius=3)
    assert isinstance(theta_embed(window, {1: 2.0}), SpanElement)
    assert type(theta_embed(window, {5: 2.0})) is BlockMatrix


def test_a_span_element_on_a_window_reads_back_its_stack():
    ctx = make_context(Integers(), radius=3)
    x = theta_embed(ctx, {0: 0.5, 2: 1.5j, -3: -2.0})
    assert same_bits(phi_hom(ctx, x), phi_hom(ctx, dense(x)))


def dense_builds(monkeypatch):
    """Record every stack whose dense theta(c) is gathered; returns the
    list of them and a test of whether an element's was."""
    built = []
    real = crossed._theta_gather

    def spy(ctx, stack):
        built.append(stack)
        return real(ctx, stack)

    monkeypatch.setattr(crossed, "_theta_gather", spy)
    return built, lambda x: any(stack is x.coeffs for stack in built)


def test_cp_check_builds_no_dense_sigma_in_positivity_or_eigenrelation(monkeypatch):
    _, ctx = CONTEXTS[1]
    pair = pair_of(ctx, 9)
    outputs = []

    def apply(x):
        outputs.append(pair.sigma(x))
        return outputs[-1]

    built, was_built = dense_builds(monkeypatch)
    trials, m = 4, 2
    rep = cp_check(ctx, apply, chi_values=pair.chi_values, amplification=m, trials=trials, seed=3)
    assert rep.verdict == "Pass" and rep.max_bimodular_defect <= 1e-12
    # the positivity grids of every trial, in stacks of trials, then the
    # stacked inputs of the one bimodular trial, whose sandwich
    # psi(r) sigma(x) psi(s) stays a stack as well, and the stack of the
    # eigenrelation translates
    leads = [x.lead for x in outputs]
    assert [lead[1:] for lead in leads[:-2]] == [(m, m)] * (len(leads) - 2)
    assert sum(lead[0] for lead in leads[:-2]) == trials
    assert leads[-2:] == [(1, 2), (ctx.nwin,)]
    assert [x for x in outputs if was_built(x)] == []
    # sigma reads the eigenrelation translates off their stacks too
    assert built == []


def test_pi_trials_build_no_dense_sigma(tmp_path, monkeypatch):
    outputs = []
    real_sigma_xi = sigma.sigma_xi

    def recording(ctx, xi, x):
        outputs.append(real_sigma_xi(ctx, xi, x))
        return outputs[-1]

    monkeypatch.setattr(sigma, "sigma_xi", recording)
    built, was_built = dense_builds(monkeypatch)
    argv = ["pi", "--group", "C6", "--algebra", "diagonal:6", "--action", "translation",
            "--xi", "geometric:0.6", "--seed", "5", "--trials", "3"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # make_pair's sigma(I), sigma of the x of each trial, in stacks of
    # trials, then of the stacks of p1 and of y
    assert outputs[0].lead == () and [x.lead for x in outputs[-2:]] == [(3,)] * 2
    assert sum(x.lead[0] for x in outputs[1:-2]) == 3
    # make_pair's unital defect reads sigma(I) - I off the stacks too
    assert [i for i, x in enumerate(outputs) if was_built(x)] == []
    # sigma reads its span inputs p1 and y off their stacks, and the
    # differences p2 - p1 and pi(y) - y stay stacks
    assert built == []


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_fourier_coefficients_of_a_span_element_read_its_stack(label, ctx, monkeypatch):
    xs = span_elements(ctx, np.random.default_rng(10))
    _, was_built = dense_builds(monkeypatch)
    got = [[fourier_coefficient(ctx, x, g) for g in ctx.window] for x in xs]
    assert not any(was_built(x) for x in xs)
    for x, row in zip(xs, got):
        for g, coeff in zip(ctx.window, row):
            assert same_bits(coeff, fourier_coefficient(ctx, dense(x), g))


def test_a_fourier_coefficient_off_the_window_of_a_span_element_is_zero():
    ctx = make_context(Integers(), radius=3)
    x = theta_embed(ctx, {0: 0.5, 2: 1.5j, -3: -2.0})
    for g in (-7, -4, 2, 4, 5):
        coeff = fourier_coefficient(ctx, x, g)
        assert same_bits(coeff, fourier_coefficient(ctx, dense(x), g))
    assert not fourier_coefficient(ctx, x, 5).any()


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_op_norm_of_a_fourier_coefficient_builds_no_dense_matrix(label, ctx):
    x = random_crossed_element(ctx, np.random.default_rng(11))
    for g in ctx.window:
        norm = op_norm(fourier_coefficient(ctx, x, g))
        assert "data" not in x.__dict__
        want = np.linalg.norm(block_diagonal(ctx, fourier_coefficient(ctx, x, g)).data, 2)
        assert abs(norm - want) <= 1e-12 * max(1.0, want)


def test_condition_ii_builds_no_dense_sigma(monkeypatch, window_samples):
    _, ctx = CONTEXTS[1]
    outputs = []
    real_sigma_xi = sigma.sigma_xi

    def recording(ctx, xi, x):
        outputs.append(real_sigma_xi(ctx, xi, x))
        return outputs[-1]

    monkeypatch.setattr(sigma, "sigma_xi", recording)
    pair = pair_of(ctx, 12)
    del outputs[:]
    _, was_built = dense_builds(monkeypatch)
    rep = check_condition_ii(pair, window_samples(ctx, 3, seed=4))
    # one sigma call, on the stack of the three samples
    assert rep.verdict == "Pass" and len(outputs) == 1 and outputs[0].lead == (3,)
    assert not any(was_built(x) for x in outputs)


SANDWICH_CONTEXTS = [
    (
        "C4/swap/diagonal2",
        make_context(Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4))),
    ),
    ("C6/full6", make_context(Cyclic(6), algebra=CoeffAlgebra.full(6))),
    (
        "C12/translation",
        make_context(
            Cyclic(12), algebra=CoeffAlgebra.diagonal(12), action=translation_action(Cyclic(12))
        ),
    ),
]


@pytest.mark.parametrize(
    "label, ctx", SANDWICH_CONTEXTS, ids=[label for label, _ in SANDWICH_CONTEXTS]
)
def test_the_stack_sandwich_is_the_dense_product(label, ctx, monkeypatch):
    """psi(r) theta(c) psi(s) on stacks against the dense product of the
    three operators, the computation cp_check made before; and the
    blockwise sandwich of a plain operator against the same product."""
    rng = np.random.default_rng(13)
    _, was_built = dense_builds(monkeypatch)
    for _ in range(3):
        r, s = ctx.algebra.random_member(rng), ctx.algebra.random_member(rng)
        pr, ps = crossed.psi(ctx, r), crossed.psi(ctx, s)
        c = random_crossed_element(ctx, rng)
        x = sigma.random_window_operator(ctx, rng)
        got = sigma._sandwich(ctx, r, c, s)
        assert isinstance(got, SpanElement) and got.ctx is ctx and not was_built(c)
        for out, operand in ((got, c), (sigma._sandwich(ctx, r, x, s), x)):
            want = pr.data @ operand.data @ ps.data
            assert np.max(np.abs(out.data - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
        assert same_bits(phi_hom(ctx, got), phi_hom(ctx, dense(got)))


def shifted_by_the_unit(pair):
    """sigma plus theta({e: 1}): span-valued and positive, but neither
    bimodular nor an eigenmap, since psi(r) 1 psi(s) is not 1."""
    ctx = pair.ctx
    unit = theta_embed(ctx, {ctx.group.identity(): ctx.algebra.identity()})
    return lambda x: pair.sigma(x) + unit


def times_a_fixed_matrix(pair):
    """c -> c w slot by slot for a w that commutes with no random s:
    linear and span-valued, but not right-bimodular over a full algebra."""
    w = np.arange(pair.ctx.d**2, dtype=complex).reshape(pair.ctx.d, pair.ctx.d)
    return lambda x: SpanElement(pair.ctx, pair.sigma(x).coeffs @ w)


@pytest.mark.parametrize(
    "label, ctx, make_map",
    [
        ("C4/swap/shifted", SANDWICH_CONTEXTS[0][1], shifted_by_the_unit),
        ("C6/full6/times-w", SANDWICH_CONTEXTS[1][1], times_a_fixed_matrix),
    ],
    ids=["C4/swap/shifted", "C6/full6/times-w"],
)
def test_a_span_valued_map_that_is_not_bimodular_fails_through_the_stacks(
    label, ctx, make_map, monkeypatch
):
    apply = make_map(pair_of(ctx, 14))
    dense_sandwiches = []
    real = sigma._sandwich

    def spy(c, r, x, s):
        out = real(c, r, x, s)
        if not isinstance(x, SpanElement):
            dense_sandwiches.append(out)
        return out

    monkeypatch.setattr(sigma, "_sandwich", spy)
    trials = 8
    rep = cp_check(ctx, apply, trials=trials, amplification=1, seed=15)
    assert rep.max_bimodular_defect > 1e-10
    # only the random inputs were sandwiched as dense operators
    assert len(dense_sandwiches) == trials // 4
