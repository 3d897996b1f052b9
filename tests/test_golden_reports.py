"""The sweep reports match reports recorded from the per-block reference
kernels: every key, verdict, integer and string exactly, every float to
FLOAT_TOL absolute.  The psd reports match reports recorded from the
complex Hermitian eigensolve by the same rule, CSV cell by cell: a real
Gram goes to the real symmetric solver, whose last bits differ.  The
sigma reports pinned byte for byte match exactly except three
rounding-noise defects (SIGMA_NOISE), which are read off coefficient
stacks and dual-group blocks instead of the dense operators that
recorded them."""

import csv
import io
import json
import math
import os
import subprocess
import sys
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


# Rounding-noise defects of a sigma report.  The goldens recorded them from
# dense (nd)^2 products and eigensolves; they are now read off coefficient
# stacks and dual-group blocks, which round in another order.
SIGMA_NOISE = ("unital_defect", "tau_sum_defect", "max_bimodular_defect")


def split_sigma_noise(doc):
    """Pop the SIGMA_NOISE values out of a parsed sigma JSON report and
    return the rest of it with them."""
    checks = doc["checks"]
    noise = {key: checks.pop(key) for key in ("unital_defect", "tau_sum_defect")}
    noise["max_bimodular_defect"] = checks["cp"].pop("max_bimodular_defect")
    return doc, noise


def assert_noise_matches(got, want, tol):
    for key in SIGMA_NOISE:
        assert isinstance(got[key], float), f"{key}: {got[key]!r} is not a float"
        assert abs(got[key] - want[key]) <= FLOAT_TOL, f"{key}: {got[key]!r} != {want[key]!r}"
        assert got[key] <= tol, f"{key}: {got[key]!r} above --tol {tol}"


def assert_sigma_report_matches(got_json, want_json, got_csv, want_csv, tol=1e-10):
    """Every key and CSV cell of a sigma report exactly, except the
    SIGMA_NOISE values, which must lie within FLOAT_TOL of the golden and
    at or below the run's --tol."""
    got, got_noise = split_sigma_noise(json.loads(got_json))
    want, want_noise = split_sigma_noise(json.loads(want_json))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert_noise_matches(got_noise, want_noise, tol)
    rows = [list(csv.reader(io.StringIO(text))) for text in (got_csv, want_csv)]
    assert [row[0] for row in rows[0]] == [row[0] for row in rows[1]]
    noise = [{row[0]: float(row[1]) for row in r if row[0] in SIGMA_NOISE} for r in rows]
    assert_noise_matches(noise[0], noise[1], tol)
    for got_row, want_row in zip(*rows):
        if got_row[0] not in SIGMA_NOISE:
            assert got_row == want_row


def assert_sigma_outputs_match(out, golden):
    """The sigma.json and sigma.csv in out against DATA/<golden>.json/.csv."""
    texts = [
        ((out / f"sigma.{ext}").read_text(), (DATA / f"{golden}.{ext}").read_text())
        for ext in ("json", "csv")
    ]
    assert_sigma_report_matches(*texts[0], *texts[1])


@pytest.mark.parametrize(
    "name, argv", GOLDEN_TRANSLATION, ids=[name for name, _ in GOLDEN_TRANSLATION]
)
def test_translation_sweep_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the full-block sweep kernels, which gathered,
    compressed and permuted every d x d block before summing it; byte for
    byte, except a sigma report's SIGMA_NOISE values."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    if name == "sigma":
        assert_sigma_outputs_match(tmp_path, "golden_sigma_c6_translation")
        return
    for ext in ("json", "csv"):
        got = (tmp_path / f"{name}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}_c6_translation.{ext}").read_bytes(), ext


@pytest.mark.parametrize("key", ["condition_ii_margin", "min_eigenvalue_seen"])
def test_sigma_comparison_catches_a_moved_value_outside_the_noise(key):
    want_json = (DATA / "golden_sigma_c6_full.json").read_text()
    want_csv = (DATA / "golden_sigma_c6_full.csv").read_text()
    doc = json.loads(want_json)
    section = doc["checks"]["condition_ii" if key == "condition_ii_margin" else "cp"]
    old = section[key]
    section[key] = math.nextafter(old, math.inf)
    moved_csv = want_csv.replace(f"{key},{old!r}", f"{key},{section[key]!r}")
    assert moved_csv != want_csv
    with pytest.raises(AssertionError):
        assert_sigma_report_matches(json.dumps(doc), want_json, want_csv, want_csv)
    with pytest.raises(AssertionError):
        assert_sigma_report_matches(want_json, want_json, moved_csv, want_csv)


@pytest.mark.parametrize("key", SIGMA_NOISE)
def test_sigma_noise_must_stay_near_the_golden_and_under_tol(key):
    want_json = (DATA / "golden_sigma_c6_full.json").read_text()
    want_csv = (DATA / "golden_sigma_c6_full.csv").read_text()
    assert_sigma_report_matches(want_json, want_json, want_csv, want_csv)
    doc = json.loads(want_json)
    section = doc["checks"]["cp"] if key == "max_bimodular_defect" else doc["checks"]
    old = section[key]
    for moved, tol in ((old + 1e-11, 1e-10), (old, 0.5 * old)):
        section[key] = moved
        moved_csv = want_csv.replace(f"{key},{old!r}", f"{key},{moved!r}")
        with pytest.raises(AssertionError):
            assert_sigma_report_matches(json.dumps(doc), want_json, want_csv, want_csv, tol)
        with pytest.raises(AssertionError):
            assert_sigma_report_matches(want_json, want_json, moved_csv, want_csv, tol)


GOLDEN_SIGMA_RUNS = [
    ("c6_translation", GOLDEN_TRANSLATION[0][1]),
    ("c12_translation", ["sigma", "--group", "C12", "--algebra", "diagonal:12", "--action",
                         "translation", "--xi", "geometric:0.55", "--seed", "7", "--trials", "3"]),
    ("c6_full", ["sigma", "--group", "C6", "--algebra", "full:6", "--xi", "geometric:0.5",
                 "--seed", "9", "--trials", "5"]),
]


@pytest.mark.parametrize(
    "name, argv", GOLDEN_SIGMA_RUNS, ids=[name for name, _ in GOLDEN_SIGMA_RUNS]
)
def test_sigma_reruns_write_identical_bytes(tmp_path, name, argv):
    """The byte-level pin the sigma goldens no longer give: within one
    process and one BLAS thread count, a sigma report is reproducible bit
    for bit, its SIGMA_NOISE values included."""
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(argv + ["--out", str(out)]) == 0
    for ext in ("json", "csv"):
        got = (first / f"sigma.{ext}").read_bytes()
        assert got == (second / f"sigma.{ext}").read_bytes(), ext


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
    # a free factor, a finite product past its diameter 5, and a nested
    # product with an F1 and a C2 factor
    ("balls_zxf2", ["balls", "--group", "ZxF2", "--radii", "0..5"]),
    ("balls_c4xc6", ["balls", "--group", "C4xC6", "--radii", "0..9"]),
    ("balls_f1xz2xc2", ["balls", "--group", "F1xZ^2xC2", "--radii", "0..6"]),
    ("folner_z3_neg_unit", ["folner", "--group", "Z^3", "--t", "(0,0,-1)", "--radii", "1..30"]),
    ("folner_zxc3", ["folner", "--group", "ZxC3", "--t", "(-1,2)", "--radii", "1..300"]),
    ("folner_z2_wide", ["folner", "--group", "Z^2", "--t", "(3,-2)", "--radii", "1..5"]),
    ("folner_zxc3_unordered", ["folner", "--group", "ZxC3", "--t", "(1,2)", "--radii", "7,0,3,3"]),
    ("folner_c2xc3", ["folner", "--group", "C2xC3", "--t", "(1,2)", "--radii", "0..2"]),
    ("folner_z2xc2_wide", ["folner", "--group", "Z^2xC2", "--t", "((6,-1),1)", "--radii", "0..7"]),
    (
        "cesaro_grid2001",
        ["cesaro", "--coeffs", "0:1,1:0.5,-1:0.5", "--orders", "5..200", "--grid", "2001"],
    ),
    ("cesaro_complex", ["cesaro", "--coeffs", "0:1,2:0.5j,-3:-0.25", "--orders", "0..40"]),
    # unordered and repeated orders, some below the degree, complex coefficients
    (
        "cesaro_unordered",
        ["cesaro", "--coeffs", "0:1,3:0.5j,-2:-0.25", "--orders", "7,0,2,2,40", "--grid", "33"],
    ),
]


@pytest.mark.parametrize("name, argv", GOLDEN_SCALAR, ids=[name for name, _ in GOLDEN_SCALAR])
def test_scalar_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the set-based Folner counts, the per-point
    Cesaro grid loop, the Z^d lattice that had its own group law, and
    product balls counted by word length over a breadth-first search."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"{argv[0]}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}.{ext}").read_bytes(), ext


GOLDEN_FREE = [
    ("freecount_k3_l4", ["freecount", "--k", "3", "--lmax", "4", "--radii", "0..8"]),
    ("freecount_k2_l4", ["freecount", "--k", "2", "--lmax", "4", "--radii", "0..11"]),
    # unordered and repeated radii, radius 0, and a third rank
    ("freecount_k3_unordered", ["freecount", "--k", "3", "--lmax", "2", "--radii", "6,0,4,4"]),
    ("freecount_k4_l2", ["freecount", "--k", "4", "--lmax", "2", "--radii", "0..5"]),
    ("balls_f2", ["balls", "--group", "F2", "--radii", "0..10"]),
    # rank 1, whose spheres stay at two words, and a third rank
    ("balls_f1", ["balls", "--group", "F1", "--radii", "0..50"]),
    ("balls_f3", ["balls", "--group", "F3", "--radii", "0..6"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_FREE, ids=[name for name, _ in GOLDEN_FREE])
def test_free_word_report_is_byte_identical(tmp_path, name, argv):
    """Reports recorded from the depth-first |T_n(t)| count and from sphere
    sizes read through FreeGroup.word_length."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("json", "csv"):
        got = (tmp_path / f"{argv[0]}.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}.{ext}").read_bytes(), ext


# the three sigma goldens, and the largest sigma study of the benchmark
BLAS_SIGMA_RUNS = [argv for _, argv in GOLDEN_SIGMA_RUNS] + [
    ["sigma", "--group", "C16", "--algebra", "diagonal:16", "--action", "translation",
     "--xi", "geometric:0.591", "--seed", "776106", "--trials", "10"],
]

_RUN_STUDIES = """
import json
import sys
from pathlib import Path
from crossedprod.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    code = main(argv + ["--out", str(Path(sys.argv[2]) / str(i))])
    if code:
        sys.exit(code)
"""


def test_sigma_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every span-element norm of a sigma report comes from dual-group
    blocks of d x d, which no multithreaded BLAS call sums in another
    order.  Condition (ii) still takes dense norms of its samples, and
    those agree at both counts on these studies."""
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-c", _RUN_STUDIES, json.dumps(BLAS_SIGMA_RUNS)]
        subprocess.run(argv + [str(tmp_path / threads)], env=env, check=True, timeout=300)
    for i, argv in enumerate(BLAS_SIGMA_RUNS):
        for ext in ("json", "csv"):
            one, two = (tmp_path / t / str(i) / f"sigma.{ext}" for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), (argv, ext)


# pi on the three kernels of the benchmark: translation, scalars, and the
# largest diagonal study
BLAS_PI_RUNS = [
    GOLDEN_TRANSLATION[1][1],
    GOLDEN[1][1],
    ["pi", "--group", "C16", "--algebra", "diagonal:16", "--action", "translation",
     "--xi", "geometric:0.591", "--seed", "776106", "--trials", "10"],
]


def test_pi_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """pi's products are stacked over its trials (np.matmul over a leading
    axis), which must keep each trial's product, and so its bits, at any
    OpenBLAS thread count."""
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-c", _RUN_STUDIES, json.dumps(BLAS_PI_RUNS)]
        subprocess.run(argv + [str(tmp_path / threads)], env=env, check=True, timeout=300)
    for i, argv in enumerate(BLAS_PI_RUNS):
        for ext in ("json", "csv"):
            one, two = (tmp_path / t / str(i) / f"pi.{ext}" for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), (argv, ext)


# Scalar (full:1) sweeps pinned byte for byte: reports recorded from the
# per-trial kernels before the sweeps were stacked over their trials.
GOLDEN_SCALAR_SWEEPS = [
    ("pi_c5_scalar", GOLDEN[1][1]),
    ("sigma_c8_scalar", ["sigma", "--group", "C8", "--xi", "geometric:0.6", "--seed", "4",
                         "--trials", "3"]),
]


@pytest.mark.parametrize(
    "name, argv", GOLDEN_SCALAR_SWEEPS, ids=[name for name, _ in GOLDEN_SCALAR_SWEEPS]
)
def test_scalar_sweep_report_is_byte_identical(tmp_path, name, argv):
    """Byte for byte, except a sigma report's SIGMA_NOISE values."""
    assert_sweep_matches_golden(tmp_path, name, argv)


def assert_sweep_matches_golden(tmp_path, name, argv):
    """Run a sigma or pi sweep and compare it with DATA/golden_<name>: a pi
    report byte for byte, a sigma report by assert_sigma_outputs_match."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    if argv[0] == "sigma":
        assert_sigma_outputs_match(tmp_path, f"golden_{name}")
        return
    for ext in ("json", "csv"):
        got = (tmp_path / f"pi.{ext}").read_bytes()
        assert got == (DATA / f"golden_{name}.{ext}").read_bytes(), ext


def test_pinched_translation_sweep_report_is_byte_identical(tmp_path):
    """A report recorded when cp_check drew the full Gram of each input;
    it now draws them pinched onto the 12 classes the diagonal
    expectation reads, 24 columns each at the default --amp 2.  Byte for
    byte, except the SIGMA_NOISE values."""
    assert main(GOLDEN_SIGMA_RUNS[1][1] + ["--out", str(tmp_path)]) == 0
    assert_sigma_outputs_match(tmp_path, "golden_sigma_c12_translation")


def test_full_algebra_sweep_report_is_byte_identical(tmp_path):
    """A report recorded when every sigma output was written out as its
    dense theta(c) and read back through the dense span check: the
    full:d sweep, where the expectation keeps every entry of a block.
    Byte for byte, except the SIGMA_NOISE values."""
    assert main(GOLDEN_SIGMA_RUNS[2][1] + ["--out", str(tmp_path)]) == 0
    assert_sigma_outputs_match(tmp_path, "golden_sigma_c6_full")


# Sweeps recorded when every trial drew its inputs by itself and sigma was
# applied once per trial: a long scalar pi, a pi whose trial count is no
# multiple of a small block, and a sigma sweep of many trials.
GOLDEN_TRIAL_SWEEPS = [
    ("pi_c5_trials100", ["pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "100"]),
    ("pi_c12_translation", ["pi", "--group", "C12", "--algebra", "diagonal:12", "--action",
                            "translation", "--xi", "geometric:0.6", "--seed", "5",
                            "--trials", "7"]),
    ("sigma_c8_swap", ["sigma", "--group", "C8", "--algebra", "diagonal:2", "--action",
                       "swap", "--xi", "geometric:0.6", "--seed", "7", "--trials", "37"]),
]


@pytest.mark.parametrize(
    "name, argv", GOLDEN_TRIAL_SWEEPS, ids=[name for name, _ in GOLDEN_TRIAL_SWEEPS]
)
def test_trial_sweep_report_is_byte_identical(tmp_path, name, argv):
    """Byte for byte, except a sigma report's SIGMA_NOISE values."""
    assert_sweep_matches_golden(tmp_path, name, argv)
