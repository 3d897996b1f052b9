"""The sweep reports match reports recorded from the per-block reference
kernels: every key, verdict, integer and string exactly, every float to
FLOAT_TOL absolute.  The psd reports match reports recorded from the
complex Hermitian eigensolve by the same rule, CSV cell by cell: a real
Gram goes to the real symmetric solver, whose last bits differ."""

import csv
import io
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


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def assert_csv_matches(got, want):
    """CSV cells by assert_report_matches' rule: integers and strings
    exactly, floats to FLOAT_TOL."""
    rows = [list(csv.reader(io.StringIO(text))) for text in (got, want)]
    assert_report_matches(
        [[_cell(c) for c in row] for row in rows[0]],
        [[_cell(c) for c in row] for row in rows[1]],
        "csv",
    )


GOLDEN_PSD = [
    ("f2_haagerup", ["--group", "F2", "--eps", "0.549306", "--ball", "4"]),
    ("f2_ball_square", ["--group", "F2", "--set", "ball:2", "--ball", "3", "--square"]),
    ("zxc3_haagerup", ["--group", "ZxC3", "--eps", "0.5", "--ball", "2"]),
    ("z2_haagerup", ["--group", "Z^2", "--eps", "0.5", "--ball", "4"]),
    ("f3_haagerup", ["--group", "F3", "--eps", "0.55", "--ball", "4"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_PSD, ids=[name for name, _ in GOLDEN_PSD])
def test_psd_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded when every Gram was complex128; only floats may
    move, by at most FLOAT_TOL."""
    assert main(["psd"] + argv + ["--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "psd.json").read_text())
    want = json.loads((DATA / f"golden_psd_{name}.json").read_text())
    assert_report_matches(got, want)
    assert_csv_matches(
        (tmp_path / "psd.csv").read_text(),
        (DATA / f"golden_psd_{name}.csv").read_text(),
    )


@pytest.mark.parametrize("name, argv", GOLDEN_PSD, ids=[name for name, _ in GOLDEN_PSD])
def test_psd_reruns_write_identical_bytes(tmp_path, name, argv):
    """The byte-level pin the goldens no longer give: within one process
    and one BLAS thread count, a psd report is reproducible bit for bit."""
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(["psd"] + argv + ["--out", str(out)]) == 0
    for ext in ("json", "csv"):
        assert (first / f"psd.{ext}").read_bytes() == (second / f"psd.{ext}").read_bytes()


def test_csv_comparison_catches_a_moved_float_and_a_changed_cell():
    want = (DATA / "golden_psd_f2_haagerup.csv").read_text()
    header, row = want.splitlines()
    cells = row.split(",")
    moved = ",".join(cells[:2] + [repr(float(cells[2]) + 1e-9)] + cells[3:])
    for bad in (moved, row.replace("Pass", "Fail"), row.replace("161", "162")):
        with pytest.raises(AssertionError):
            assert_csv_matches(f"{header}\n{bad}\n", want)


GOLDEN_TRANSLATION = [
    (command, [command, "--group", "C6", "--algebra", "diagonal:6", "--action",
               "translation", "--xi", "geometric:0.6", "--seed", "5", "--trials", "5"])
    for command in ("sigma", "pi")
]


@pytest.mark.parametrize(
    "name, argv", GOLDEN_TRANSLATION, ids=[name for name, _ in GOLDEN_TRANSLATION]
)
def test_translation_sweep_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the full-block sweep kernels, which gathered,
    compressed and permuted every d x d block before summing it."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"{name}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}_c6_translation.{ext}").read_bytes(), ext


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


GOLDEN_FREE = [
    ("freecount_k3_l4", ["freecount", "--k", "3", "--lmax", "4", "--radii", "0..8"]),
    ("freecount_k2_l4", ["freecount", "--k", "2", "--lmax", "4", "--radii", "0..11"]),
    ("balls_f2", ["balls", "--group", "F2", "--radii", "0..10"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_FREE, ids=[name for name, _ in GOLDEN_FREE])
def test_free_word_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the depth-first |T_n(t)| count and from sphere
    sizes read through FreeGroup.word_length."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"{argv[0]}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}.{ext}").read_bytes(), ext


def test_pinched_translation_sweep_report_is_byte_identical(tmp_path):
    """A report recorded when cp_check drew the full Gram of each input;
    it now draws them pinched onto the 12 classes the diagonal
    expectation reads, 24 columns each at the default --amp 2."""
    argv = ["sigma", "--group", "C12", "--algebra", "diagonal:12", "--action",
            "translation", "--xi", "geometric:0.55", "--seed", "7", "--trials", "3"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"sigma.{ext}").read_bytes()
        assert got == (DATA / f"golden_sigma_c12_translation.{ext}").read_bytes(), ext


def test_full_algebra_sweep_report_is_byte_identical(tmp_path):
    """A report recorded when every sigma output was written out as its
    dense theta(c) and read back through the dense span check: the
    full:d sweep, where the expectation keeps every entry of a block."""
    argv = ["sigma", "--group", "C6", "--algebra", "full:6", "--xi", "geometric:0.5",
            "--seed", "9", "--trials", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"sigma.{ext}").read_bytes()
        assert got == (DATA / f"golden_sigma_c6_full.{ext}").read_bytes(), ext
