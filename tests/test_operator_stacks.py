"""Stacks of operators: one call on a (k, ...) stack gives, bit for bit,
what one call per operator gives.

The sweeps apply sigma once to the stack of a trial's inputs or of all
trials' span elements, sum the tau terms of several samples into one
stacked accumulator, and take dual blocks, span checks and norms once over
a check's stacked coefficients.  Their reports stay byte-identical only if
no operator's result depends on what else shares its stack.
"""

import numpy as np
import pytest

from crossedprod import crossed, sigma
from crossedprod.crossed import (
    CoeffAlgebra,
    SpanElement,
    dual_blocks,
    grid_blocks,
    make_context,
    span_coefficients,
    swap_action,
    translation_action,
)
from crossedprod.errors import NotInCrossedProductError
from crossedprod.groups import Cyclic, Integers
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    make_pair,
    pi_amplification,
    pi_projection,
    random_crossed_element,
    random_window_operator,
    tau_u,
)

CONTEXTS = [
    ("C5/scalars", make_context(Cyclic(5))),
    (
        "C4/swap",
        make_context(Cyclic(4), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(4))),
    ),
    (
        "C6/translation",
        make_context(
            Cyclic(6), algebra=CoeffAlgebra.diagonal(6), action=translation_action(Cyclic(6))
        ),
    ),
    ("C4/full3", make_context(Cyclic(4), algebra=CoeffAlgebra.full(3))),
]
IDS = [label for label, _ in CONTEXTS]


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def pair_of(ctx, seed=0):
    rng = np.random.default_rng(seed)
    return make_pair(ctx, L2Vector.normalized({g: 0.2 + rng.random() for g in ctx.window}))


def dense_stack(ctx, rng, lead):
    ops = [random_window_operator(ctx, rng).data for _ in range(int(np.prod(lead)))]
    return ctx.wrap(np.stack(ops).reshape(lead + (ctx.dim, ctx.dim)))


def span_stack(ctx, rng, lead):
    ops = [random_crossed_element(ctx, rng).coeffs for _ in range(int(np.prod(lead)))]
    return SpanElement(ctx, np.stack(ops).reshape(lead + (ctx.nwin, ctx.d, ctx.d)))


def each(x):
    """The operators of a stack, one at a time, in C order."""
    return [x[i] for i in np.ndindex(x.lead)]


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
@pytest.mark.parametrize("lead", [(3,), (2, 2)], ids=["trials", "grid"])
@pytest.mark.parametrize("make", [dense_stack, span_stack], ids=["dense", "span"])
def test_sigma_of_a_stack_is_sigma_of_each_operator(label, ctx, lead, make):
    pair = pair_of(ctx)
    x = make(ctx, np.random.default_rng(1), lead)
    got = pair.sigma(x)
    assert isinstance(got, SpanElement) and got.lead == lead
    for i, xi in zip(np.ndindex(lead), each(x)):
        assert same_bits(got.coeffs[i], pair.sigma(xi).coeffs)
    # a span element is read off its stack as its dense data would be read
    if make is span_stack:
        assert same_bits(got.coeffs, pair.sigma(x.ctx.wrap(x.data.copy())).coeffs)


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_a_stack_read_in_parts_gives_the_same_bits(label, ctx, monkeypatch):
    pair = pair_of(ctx)
    x = span_stack(ctx, np.random.default_rng(2), (5,))
    whole = pair.sigma(x).coeffs
    reads = []
    real = sigma._expected_terms
    monkeypatch.setattr(
        sigma, "_expected_terms", lambda c, part, *a: reads.append(part.lead) or real(c, part, *a)
    )
    # room for two operators' terms: parts of 2, 2 and 1
    kept = ctx.d if ctx.algebra.kind == "diagonal" else ctx.d**2
    monkeypatch.setattr(sigma, "STACK_TERMS", 2 * ctx.nwin**2 * kept)
    assert same_bits(pair.sigma(x).coeffs, whole)
    assert reads == [(2,), (2,), (1,)]
    # less room than one operator needs still reads one at a time
    monkeypatch.setattr(sigma, "STACK_TERMS", 1)
    del reads[:]
    assert same_bits(pair.sigma(x).coeffs, whole)
    assert reads == [(1,)] * 5


def test_a_margin_mode_stack_is_sigma_of_each_operator():
    ctx = make_context(Integers(), radius=4)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    x = dense_stack(ctx, np.random.default_rng(3), (3,))
    got = sigma.sigma_xi(ctx, xi, x)
    for i, xi_ in enumerate(each(x)):
        assert same_bits(got.coeffs[i], sigma.sigma_xi(ctx, xi, xi_).coeffs)


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_tau_terms_of_a_stack_are_those_of_each_sample(label, ctx):
    pair = pair_of(ctx)
    x = dense_stack(ctx, np.random.default_rng(4), (3,))
    total = ctx.wrap(np.zeros(x.data.shape, dtype=complex))
    for u in ctx.window:
        assert tau_u(ctx, pair.support, u, x, out=total) is total
    for i, xi in enumerate(each(x)):
        one = ctx.zero()
        for u in ctx.window:
            tau_u(ctx, pair.support, u, xi, out=one)
        assert same_bits(total.data[i], one.data)


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_dual_blocks_of_a_stack_are_those_of_each_element(label, ctx):
    rng = np.random.default_rng(5)
    pair = pair_of(ctx)
    # a stacked span element, and a dense stack just off the span
    span = span_stack(ctx, rng, (3,))
    noise = dense_stack(ctx, rng, (3,))
    near = ctx.wrap(pair.sigma(noise).data + 1e-13 * noise.data)
    for x in (span, near):
        blocks, residuals = dual_blocks(ctx, x)
        assert blocks.shape == (3, ctx.nwin, ctx.d, ctx.d) and residuals.shape == (3,)
        for i, xi in enumerate(each(x)):
            want, want_res = dual_blocks(ctx, xi)
            assert same_bits(blocks[i], want) and residuals[i] == want_res
    assert not dual_blocks(ctx, span)[1].any() and dual_blocks(ctx, near)[1].all()


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_grid_blocks_of_stacked_grids_are_those_of_each_grid(label, ctx):
    rng = np.random.default_rng(6)
    grids = span_stack(ctx, rng, (3, 2, 2))
    blocks = grid_blocks(ctx, grids.coeffs)
    for t in range(3):
        assert same_bits(blocks[t], grid_blocks(ctx, grids[t].coeffs))


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_the_span_check_of_a_stack_names_the_first_operator_off_the_span(label, ctx):
    rng = np.random.default_rng(7)
    x = span_stack(ctx, rng, (4,))
    data = x.data.copy()
    data[2, 0, -1] += 1.0
    data[3, 0, -1] += 1.0
    with pytest.raises(NotInCrossedProductError) as err:
        span_coefficients(ctx, ctx.wrap(data))
    assert err.value.index == 2
    with pytest.raises(NotInCrossedProductError, match="^sample 2: coefficient at window slot"):
        with crossed.span_check(lambda k: f"sample {k}"):
            dual_blocks(ctx, ctx.wrap(data))


@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_pi_of_a_stack_is_pi_of_each_operator(label, ctx):
    pair = pair_of(ctx)
    x = dense_stack(ctx, np.random.default_rng(8), (3,))
    p = pi_projection(pair, x)
    amps = pi_amplification(pair, x)
    assert amps.shape == (3,)
    for i, xi in enumerate(each(x)):
        assert same_bits(p.coeffs[i], pi_projection(pair, xi).coeffs)
        assert amps[i] == pi_amplification(pair, xi)
