"""Sweep trials drawn and applied in blocks.

Generator.standard_normal fills its output in order and carries no state
between calls, so one draw of shape (B, ...) must equal B trial-by-trial
draws bit for bit and leave the generator in the same state.  A sweep
applies sigma once per block of trials, and no block draws more than
BLOCK_TERMS complex entries, or more than its check keeps for all its
trials, unless one trial alone does.
"""

import math

import numpy as np
import pytest

from crossedprod import sigma
from crossedprod.cli import main
from crossedprod.crossed import (
    CoeffAlgebra,
    make_context,
    swap_action,
    translation_action,
)
from crossedprod.groups import Cyclic
from crossedprod.sigma import (
    BLOCK_TERMS,
    random_crossed_element,
    random_psd,
    random_window_operator,
    trial_blocks,
)

CONTEXTS = [
    ("C5-scalars", make_context(Cyclic(5))),
    ("C4-swap", make_context(Cyclic(4), algebra=CoeffAlgebra.diagonal(2),
                             action=swap_action(Cyclic(4)))),
    ("C3-translation", make_context(Cyclic(3), algebra=CoeffAlgebra.diagonal(3),
                                    action=translation_action(Cyclic(3)))),
    ("C3-full", make_context(Cyclic(3), algebra=CoeffAlgebra.full(2))),
]
IDS = [label for label, _ in CONTEXTS]

# one block, blocks of one, and equal blocks with a partial last one
SIZES = [[1], [1, 1, 1], [4], [3, 3, 1]]
SIZE_IDS = ["one", "ones", "four", "partial"]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_blocks_are_single_draws(block, single, sizes, seed=7):
    """block(rng, b) for each b of sizes, against single(rng) once per
    trial: the same arrays bit for bit, and the same generator state."""
    rng = np.random.default_rng(seed)
    blocks = np.concatenate([block(rng, b) for b in sizes])
    ref = np.random.default_rng(seed)
    singles = np.stack([single(ref) for _ in range(sum(sizes))])
    assert same_bits(blocks, singles)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("sizes", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_a_block_of_window_operators_is_that_many_draws(label, ctx, sizes):
    assert_blocks_are_single_draws(
        lambda rng, b: random_window_operator(ctx, rng, (b,)).data,
        lambda rng: random_window_operator(ctx, rng).data,
        sizes,
    )


@pytest.mark.parametrize("sizes", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_a_block_of_crossed_elements_is_that_many_draws(label, ctx, sizes):
    assert_blocks_are_single_draws(
        lambda rng, b: random_crossed_element(ctx, rng, (b,)).coeffs,
        lambda rng: random_crossed_element(ctx, rng).coeffs,
        sizes,
    )


@pytest.mark.parametrize("sizes", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_a_stack_of_algebra_members_is_that_many_draws(label, ctx, sizes):
    """The eigenrelation's translates and each bimodular pair r, s are
    one stack of members, drawn in one call."""
    algebra = ctx.algebra
    assert_blocks_are_single_draws(
        lambda rng, b: algebra.random_member(rng, (b, 2)),
        lambda rng: np.stack([algebra.random_member(rng) for _ in range(2)]),
        sizes,
    )


@pytest.mark.parametrize("sizes", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("size, classes", [(6, 1), (6, 3), (8, 2), (1, 1)])
def test_a_block_of_psd_inputs_is_that_many_draws(size, classes, sizes):
    """One stack of Grams serves every block, as in the positivity sweep:
    its entries off the classes stay 0 without being zeroed again."""
    z = np.zeros((max(sizes), size, size), dtype=complex)
    assert_blocks_are_single_draws(
        lambda rng, b: random_psd(rng, size, classes, out=z[:b]).copy(),
        lambda rng: random_psd(rng, size, classes),
        sizes,
    )


@pytest.mark.parametrize("sizes", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("label, ctx", CONTEXTS, ids=IDS)
def test_one_draw_of_a_pi_block_is_each_trials_x_then_y(label, ctx, sizes):
    """cmd_pi's block: one draw, split into the operators x and the span
    elements y, equals drawing x and then y trial by trial."""
    xs = 2 * ctx.dim**2
    ys = 2 * ctx.nwin * ctx.d**2

    def block(rng, b):
        draw = rng.standard_normal((b, xs + ys))
        x = random_window_operator(ctx, draw[:, :xs], (b,)).data
        y = random_crossed_element(ctx, draw[:, xs:], (b,)).coeffs
        return np.concatenate([x.reshape(b, -1), y.reshape(b, -1)], axis=1)

    def single(rng):
        x = random_window_operator(ctx, rng).data
        return np.concatenate([x.ravel(), random_crossed_element(ctx, rng).coeffs.ravel()])

    assert_blocks_are_single_draws(block, single, sizes)


@pytest.mark.parametrize(
    "trials, draws, kept",
    [(100, 30, 30), (10, 1000, 1000), (7, 25, 2), (5, BLOCK_TERMS + 1, 10**9),
     (20, 1056, 192), (1, 1, 1), (3, BLOCK_TERMS, BLOCK_TERMS)],
)
def test_trial_blocks_cover_the_trials_under_both_bounds(trials, draws, kept):
    blocks = trial_blocks(trials, draws, kept)
    assert [a for a, _ in blocks] == [sum(b for _, b in blocks[:i]) for i in range(len(blocks))]
    assert sum(b for _, b in blocks) == trials
    # every block but the last has the same size
    assert len({b for _, b in blocks[:-1]}) <= 1 and blocks[-1][1] <= blocks[0][1]
    for _, b in blocks:
        assert b == 1 or (b * draws <= BLOCK_TERMS and b * draws <= trials * kept)


def test_trial_blocks_draw_a_trial_past_a_bound_alone():
    assert trial_blocks(3, BLOCK_TERMS + 1, 10**9) == [(0, 1), (1, 1), (2, 1)]
    # one trial draws 1000 entries but keeps 10: all 30 keep 300
    assert trial_blocks(30, 1000, 10) == [(t, 1) for t in range(30)]


def test_pi_applies_sigma_to_its_operators_once_per_block(tmp_path, monkeypatch):
    """pi --group C5 --trials 100: a trial draws 25 entries of x and 5 of
    y, so blocks of BLOCK_TERMS // 30 trials (all 100 at the default)
    apply sigma to their x's in at most ceil(100 / that) calls."""
    calls = []
    real = sigma.sigma_xi

    def spy(ctx, xi, x):
        calls.append(x.lead)
        return real(ctx, xi, x)

    monkeypatch.setattr(sigma, "sigma_xi", spy)
    argv = ["pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "100"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # make_pair's unital check first, the stacks of p1 and y last
    xs = calls[1:-2]
    assert len(xs) <= math.ceil(100 / min(100, BLOCK_TERMS // 30))
    assert sum(lead[0] for lead in xs) == 100


class RecordingGenerator:
    """A Generator that records how many normals each draw asks for."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, size):
        self.draws.append(int(np.prod(size)))
        return self.rng.standard_normal(size)


def record_draws(monkeypatch):
    draws = []
    real = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RecordingGenerator(real(seed), draws)
    )
    return draws


@pytest.mark.parametrize(
    "argv, trial",
    [
        # amp 2: a positivity trial draws a 16 x 16 Gram of 256 entries
        (["sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
          "--xi", "geometric:0.5", "--trials", "100"], 256),
        (["pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "100"], 30),
        (["pi", "--group", "C32", "--trials", "20"], 32 * 32 + 32),
    ],
    ids=["sigma-C4", "pi-C5", "pi-C32"],
)
def test_no_block_draws_more_than_the_bound(tmp_path, monkeypatch, argv, trial):
    draws = record_draws(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # each draw holds a real and an imaginary part per complex entry
    assert max(draws) <= 2 * BLOCK_TERMS
    # and the sweep did draw some block of several trials at once
    assert max(draws) >= 2 * 2 * trial


def test_a_trial_past_the_bound_is_drawn_alone(tmp_path, monkeypatch):
    """sigma on C12 diagonal:12 at amp 2: a positivity trial draws a Gram
    of 288 x 288 entries, past BLOCK_TERMS, and so does a bimodular
    trial's 144 x 144 operator."""
    draws = record_draws(monkeypatch)
    argv = ["sigma", "--group", "C12", "--algebra", "diagonal:12", "--action", "translation",
            "--xi", "geometric:0.55", "--seed", "7", "--trials", "4"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    positivity = 2 * 288 * 288
    bimodular = 2 * (2 * 12 * 12 + 144 * 144)
    assert draws[:4] == [positivity] * 4
    assert draws[4] == bimodular
