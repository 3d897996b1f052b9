"""Let tests that start a fresh interpreter (``python -m crossedprod.cli``)
import the package from this checkout, as ``pythonpath`` in pyproject.toml
does for the test process itself; and draw condition (ii) samples."""

import os
from pathlib import Path

import numpy as np
import pytest

from crossedprod.sigma import random_window_operator

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def window_samples():
    """draw(ctx, trials, seed=0): a (trials, nd, nd) stack of random window
    operators from np.random.default_rng(seed), drawn in order, the samples
    that check_condition_ii once drew itself from trials and seed."""

    def draw(ctx, trials, seed=0):
        rng = np.random.default_rng(seed)
        return ctx.wrap(np.stack([random_window_operator(ctx, rng).data for _ in range(trials)]))

    return draw
