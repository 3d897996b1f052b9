"""The sweep reports match reports recorded from the per-block reference
kernels: every key, verdict, integer and string exactly, every float to
FLOAT_TOL absolute.  The psd reports match reports recorded from the
per-entry Gram loop byte for byte."""

import json
from pathlib import Path

import pytest

from crossedprod.cli import main

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12

GOLDEN = [
    (
        "sigma",
        ["sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
         "--trials", "10", "--seed", "3"],
    ),
    ("pi", ["pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "10"]),
]


def assert_report_matches(got, want, path="report"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_sweep_report_matches_golden(tmp_path, name, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / f"{name}.json").read_text())
    want = json.loads((DATA / f"golden_{name}.json").read_text())
    assert_report_matches(got, want)


GOLDEN_PSD = [
    ("f2_haagerup", ["--group", "F2", "--eps", "0.549306", "--ball", "4"]),
    ("f2_ball_square", ["--group", "F2", "--set", "ball:2", "--ball", "3", "--square"]),
    ("zxc3_haagerup", ["--group", "ZxC3", "--eps", "0.5", "--ball", "2"]),
    ("z2_haagerup", ["--group", "Z^2", "--eps", "0.5", "--ball", "4"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_PSD, ids=[name for name, _ in GOLDEN_PSD])
def test_psd_report_is_byte_identical(tmp_path, name, argv):
    assert main(["psd"] + argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"psd.{ext}").read_bytes()
        assert got == (DATA / f"golden_psd_{name}.{ext}").read_bytes(), ext


def test_golden_comparison_catches_a_moved_float():
    want = json.loads((DATA / "golden_pi.json").read_text())
    moved = dict(want, max_amplification=want["max_amplification"] + 1e-9)
    with pytest.raises(AssertionError):
        assert_report_matches(moved, want)
    with pytest.raises(AssertionError):
        assert_report_matches(dict(want, verdict="Fail"), want)


GOLDEN_SCALAR = [
    ("balls_z7", ["balls", "--group", "Z^7", "--radii", "0..3"]),
    ("balls_z2xc3", ["balls", "--group", "Z^2xC3", "--radii", "0..4"]),
    ("folner_z3_neg_unit", ["folner", "--group", "Z^3", "--t", "(0,0,-1)", "--radii", "1..30"]),
    ("folner_zxc3", ["folner", "--group", "ZxC3", "--t", "(-1,2)", "--radii", "1..300"]),
    ("folner_z2_wide", ["folner", "--group", "Z^2", "--t", "(3,-2)", "--radii", "1..5"]),
    (
        "cesaro_grid2001",
        ["cesaro", "--coeffs", "0:1,1:0.5,-1:0.5", "--orders", "5..200", "--grid", "2001"],
    ),
    ("cesaro_complex", ["cesaro", "--coeffs", "0:1,2:0.5j,-3:-0.25", "--orders", "0..40"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_SCALAR, ids=[name for name, _ in GOLDEN_SCALAR])
def test_scalar_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the set-based Folner counts, the per-point
    Cesaro grid loop and the Z^d lattice that had its own group law."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"{argv[0]}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}.{ext}").read_bytes(), ext
