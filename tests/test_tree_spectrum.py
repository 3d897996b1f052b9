"""The spectrum of a radial Gram on a free-group ball, read off its tree
blocks, against the dense eigensolve of the same symmetrized Gram.

The dense spectrum is the reference: the blocks must give every eigenvalue
with its multiplicity.  An eigvalsh spy shows which path ran: blocks of at
most radius + 1 rows on the tree path, one n x n call on the dense one.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from crossedprod import posdef
from crossedprod.groups import Ball, FreeGroup, ball, parse_group
from crossedprod.posdef import (
    PdFunction,
    check_positive_definite,
    chi_from_set,
    convex_combination,
    gram_matrix,
    haagerup,
    pointwise_product,
)

# balls past this many elements are left out: their dense reference
# eigensolve is the slow part of the suite
CAP = 1000


def ball_size(k, radius):
    return 1 + sum(2 * k * (2 * k - 1) ** (r - 1) for r in range(1, radius + 1))


TREE_CASES = [
    (k, radius) for k in (1, 2, 3) for radius in range(6) if ball_size(k, radius) <= CAP
]


def radial_functions(spec, radius):
    h = haagerup(spec, 0.549306)
    chi = chi_from_set(spec, ball(spec, min(radius, 2)).elements)
    return {
        "haagerup": h,
        "ball-chi": chi,
        "product": pointwise_product(h, chi),
        "chi-squared": pointwise_product(chi, chi),
        "convex": convex_combination([(0.25, h), (0.75, chi)]),
        "convex-of-products": convex_combination(
            [(0.5, pointwise_product(chi, chi)), (0.5, haagerup(spec, 0.7))]
        ),
    }


def symmetrized(f, window):
    herm = gram_matrix(f, window)
    return (herm + herm.conj().T) / 2.0


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The matrix size of every np.linalg.eigvalsh call."""
    sizes = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


@pytest.mark.parametrize(
    "k, radius", TREE_CASES, ids=[f"F{k}-R{r}" for k, r in TREE_CASES]
)
def test_tree_blocks_give_the_dense_spectrum(k, radius):
    spec = FreeGroup(k)
    window = ball(spec, radius)
    for name, f in radial_functions(spec, radius).items():
        herm = symmetrized(f, window)
        want = np.linalg.eigvalsh(herm)
        got = posdef._tree_spectrum(f, window, herm)
        assert got is not None, name
        assert got.shape == want.shape, name
        top = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * top, name
        report = check_positive_definite(f, window)
        assert abs(report.min_eigenvalue - want[0]) <= 1e-12 * top, name
        assert abs(report.tolerance - 1e-8 * top) <= 1e-12 * top, name
        assert report.gram_dimension == len(window)


F2 = FreeGroup(2)
F2_BALL_CHI = chi_from_set(F2, ball(F2, 2).elements)


@pytest.mark.parametrize(
    "label, radius, f",
    [
        ("F1", 5, haagerup(FreeGroup(1), 0.4)),
        ("F2", 5, haagerup(F2, 0.6)),
        ("F3", 4, haagerup(FreeGroup(3), 0.55)),
        ("F2", 3, pointwise_product(F2_BALL_CHI, F2_BALL_CHI)),
    ],
    ids=["F1-haagerup", "F2-haagerup", "F3-haagerup", "F2-ball-chi-squared"],
)
def test_the_tree_path_solves_no_block_larger_than_the_radius(
    eigvalsh_sizes, label, radius, f
):
    report = check_positive_definite(f, ball(parse_group(label), radius))
    assert report.verdict == "Pass"
    assert eigvalsh_sizes and max(eigvalsh_sizes) <= radius + 1
    assert len(eigvalsh_sizes) <= radius + 1


def test_a_radial_psd_holds_its_gram_and_no_symmetrized_copy():
    """A real radial Gram is symmetric as built, so the check does not
    symmetrize it.  On B_4(F3), n = 937, the float64 Gram takes 8 n^2 bytes,
    the uint8 length table n^2, and the signed index sets of the largest
    tree block (312 rows) under 2 n^2; a symmetrized copy adds 8 n^2."""
    spec = FreeGroup(3)
    window = ball(spec, 4)
    n = len(window)
    f = haagerup(spec, 0.55)
    check_positive_definite(f, window)
    tracemalloc.start()
    try:
        check_positive_definite(f, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n * n, peak / n**2


def shuffled_ball(spec, radius):
    window = ball(spec, radius)
    return Ball(spec, radius, tuple(reversed(window.elements)))


Z2, ZXC3 = parse_group("Z^2"), parse_group("ZxC3")
TWISTED = PdFunction(F2, lambda g: 1.0 if not g else 0.5j * (-1) ** len(g), radial=True)
DENSE_CASES = [
    ("F2-non-ball-chi", chi_from_set(F2, [(), (1,), (1, 2)]), ball(F2, 2)),
    ("Z^2-haagerup", haagerup(Z2, 0.5), ball(Z2, 3)),
    ("ZxC3-haagerup", haagerup(ZXC3, 0.5), ball(ZXC3, 2)),
    ("F2-complex-radial", TWISTED, ball(F2, 2)),
    ("F2-window-out-of-length-order", haagerup(F2, 0.5), shuffled_ball(F2, 3)),
]


@pytest.mark.parametrize(
    "name, f, window", DENSE_CASES, ids=[c[0] for c in DENSE_CASES]
)
def test_every_other_gram_takes_one_dense_eigensolve(
    eigvalsh_sizes, name, f, window
):
    herm = symmetrized(f, window)
    assert posdef._tree_spectrum(f, window, herm) is None
    eigvalsh_sizes.clear()
    report = check_positive_definite(f, window)
    assert eigvalsh_sizes == [len(window)]
    assert report.min_eigenvalue == float(np.linalg.eigvalsh(herm)[0])


def test_a_function_wrongly_flagged_radial_fails_the_frobenius_check(
    monkeypatch, eigvalsh_sizes
):
    """The length table would make any flagged function's Gram radial, so
    the Gram here is the per-entry one of a non-radial chi_S: the blocks
    read off it miss part of its spectrum, and the dense value stands."""
    window = ball(F2, 3)
    honest = chi_from_set(F2, [(), (1,), (1, 2), (-2,)])
    flagged = dataclasses.replace(honest, radial=True)
    herm = symmetrized(honest, window)
    assert posdef._tree_spectrum(flagged, window, herm) is None
    monkeypatch.setattr(posdef, "gram_matrix", lambda f, w: gram_matrix(honest, w))
    eigvalsh_sizes.clear()
    report = check_positive_definite(flagged, window)
    assert max(eigvalsh_sizes) == len(window)
    want = np.linalg.eigvalsh(herm)
    assert report.min_eigenvalue == float(want[0])
    assert report.tolerance == 1e-8 * max(1.0, float(np.max(np.abs(want))))


FREE_WORDS_PSD = [
    ["--group", "F2", "--eps", "0.549306", "--ball", "4"],
    ["--group", "F2", "--eps", "0.6", "--ball", "5"],
    ["--group", "F2", "--set", "ball:2", "--ball", "5"],
    ["--group", "F3", "--eps", "0.55", "--ball", "4"],
]

_RUN_PSD = """
import json
import sys
from pathlib import Path
from crossedprod.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    code = main(["psd"] + argv + ["--out", str(Path(sys.argv[2]) / str(i))])
    if code:
        sys.exit(code)
"""


def test_free_group_psd_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Each block entry is a sum over index sets and each block has at most
    radius + 1 rows, so no BLAS call decides a number of these reports."""
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-c", _RUN_PSD, json.dumps(FREE_WORDS_PSD)]
        subprocess.run(argv + [str(tmp_path / threads)], env=env, check=True)
    for i in range(len(FREE_WORDS_PSD)):
        for ext in ("json", "csv"):
            one, two = (tmp_path / t / str(i) / f"psd.{ext}" for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), FREE_WORDS_PSD[i]
