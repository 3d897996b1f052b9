import argparse
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from crossedprod import __version__, _core, crossed, freecomb, groups, posdef, sigma, summation
from crossedprod._core import BACKEND
from crossedprod.cli import _columns, _json_text, build_parser, main
from crossedprod.groups import ORDERING_VERSION, FreeGroup, ProductGroup, ball, parse_group

DATA = Path(__file__).parent / "data"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_outputs(out, name):
    csv_text = (out / f"{name}.csv").read_text()
    doc = json.loads((out / f"{name}.json").read_text())
    return csv_text, doc


def test_balls_free_group(tmp_path):
    code, out = run(tmp_path, "balls", "--group", "F2", "--radii", "0..4")
    assert code == 0
    csv_text, doc = read_outputs(out, "balls")
    lines = csv_text.splitlines()
    assert lines[0] == "radius,ball_size,sphere_size,closed_size"
    assert lines[1] == "0,1,1,1"
    assert lines[3] == "2,17,12,17"
    assert doc["verdict"] == "Pass"
    assert doc["ordering"] == ORDERING_VERSION


def test_balls_infinite_group_table(tmp_path):
    code, out = run(tmp_path, "balls", "--group", "Z^2", "--radii", "0,1,2")
    assert code == 0
    csv_text, _ = read_outputs(out, "balls")
    assert csv_text.splitlines()[2] == "1,5,4,"


def test_balls_of_a_large_cyclic_group(tmp_path):
    # the cap counts ball elements, not the group order
    code, out = run(tmp_path, "balls", "--group", "C10000000", "--radii", "2")
    assert code == 0
    csv_text, _ = read_outputs(out, "balls")
    assert csv_text.splitlines()[1] == "2,5,2,"


def test_chi_at_prints_exact_fraction(tmp_path, capsys):
    code, _ = run(
        tmp_path, "chi", "--group", "Z", "--set", "0..2", "--at", "1"
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "2/3"


def test_chi_ball_table(tmp_path):
    code, out = run(
        tmp_path, "chi", "--group", "F2", "--set", "ball:1", "--ball", "2"
    )
    assert code == 0
    csv_text, doc = read_outputs(out, "chi")
    lines = csv_text.splitlines()
    assert lines[0] == "g,value,num,den"
    assert lines[1].startswith("e,1")
    assert doc["recipe"]["set_size"] == 5
    assert doc["points"] == 17


def test_chi_requires_recipe(tmp_path):
    code, _ = run(tmp_path, "chi", "--group", "Z", "--at", "0")
    assert code == 2


def test_chi_rejects_two_recipes(tmp_path):
    code, _ = run(
        tmp_path,
        "chi", "--group", "Z", "--set", "0..1", "--eps", "0.5", "--at", "0",
    )
    assert code == 2


def test_psd_pass_and_report(tmp_path):
    code, out = run(
        tmp_path, "psd", "--group", "F2", "--eps", "0.5", "--ball", "3"
    )
    assert code == 0
    _, doc = read_outputs(out, "psd")
    assert doc["verdict"] == "Pass"
    assert doc["report"]["gram_dimension"] == 53


def test_psd_squared_function(tmp_path):
    code, out = run(
        tmp_path,
        "psd", "--group", "Z", "--set", "0..3", "--ball", "4", "--square",
    )
    assert code == 0
    _, doc = read_outputs(out, "psd")
    assert doc["verdict"] == "Pass"


def test_freecount_table(tmp_path):
    code, out = run(tmp_path, "freecount", "--k", "2", "--lmax", "1")
    assert code == 0
    csv_text, doc = read_outputs(out, "freecount")
    lines = csv_text.splitlines()
    assert lines[0].startswith("k,ell,n,closed,brute")
    assert "2,1,2,8,8" in csv_text
    assert doc["all_equal"] is True


def test_sigma_sweep(tmp_path):
    code, out = run(
        tmp_path,
        "sigma",
        "--group", "C4",
        "--algebra", "diagonal:2",
        "--action", "swap",
        "--xi", "geometric:0.5",
        "--trials", "10",
    )
    assert code == 0
    _, doc = read_outputs(out, "sigma")
    assert doc["verdict"] == "Pass"
    assert doc["checks"]["unital_defect"] <= 1e-12
    assert doc["checks"]["cp"]["verdict"] == "Pass"


def test_sigma_rejects_mismatched_action(tmp_path):
    code, _ = run(
        tmp_path,
        "sigma",
        "--group", "C4",
        "--algebra", "diagonal:2",
        "--action", "translation",
        "--trials", "5",
    )
    assert code == 2


def test_sigma_rejects_infinite_group(tmp_path):
    code, _ = run(tmp_path, "sigma", "--group", "Z", "--trials", "5")
    assert code == 2


def test_pi_sweep(tmp_path):
    code, out = run(
        tmp_path,
        "pi",
        "--group", "C5",
        "--xi", "geometric:0.7",
        "--trials", "8",
    )
    assert code == 0
    _, doc = read_outputs(out, "pi")
    assert doc["verdict"] == "Pass"
    assert doc["max_idempotency_defect"] <= 1e-10
    assert doc["max_span_identity_defect"] <= 1e-10
    assert doc["max_amplification"] >= 1.0


def test_pi_applies_sigma_once_per_trial_and_once_per_stack(tmp_path, monkeypatch):
    calls = []
    real = sigma.sigma_xi

    def spy(ctx, xi, x):
        calls.append(x.lead)
        return real(ctx, xi, x)

    monkeypatch.setattr(sigma, "sigma_xi", spy)
    code, _ = run(tmp_path, "pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "4")
    assert code == 0
    # make_pair's unital check, the x of each trial once, in stacks of
    # trials, then the stacks of p1 and y
    assert calls[0] == () and calls[-2:] == [(4,)] * 2
    assert all(len(lead) == 1 for lead in calls[1:-2])
    assert sum(lead[0] for lead in calls[1:-2]) == 4


@pytest.mark.parametrize(
    "command, trials",
    [("sigma", "0"), ("sigma", "-3"), ("pi", "0"), ("pi", "-3")],
)
def test_sweeps_reject_fewer_than_one_trial(tmp_path, capsys, command, trials):
    code, out = run(tmp_path, command, "--group", "C4", "--trials", trials)
    assert code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


def test_reports_refuse_non_finite_values():
    with pytest.raises(ValueError):
        _json_text({"margin": float("inf")})
    with pytest.raises(ValueError):
        _json_text({"margin": float("nan")})


@pytest.mark.parametrize("eps", ["inf", "nan", "1e400"])
def test_psd_rejects_non_finite_eps(tmp_path, capsys, eps):
    code, out = run(tmp_path, "psd", "--group", "F2", "--eps", eps, "--ball", "1")
    assert code == 2
    assert "--eps must be finite" in capsys.readouterr().err
    assert not (out / "psd.json").exists()


def test_cesaro_table(tmp_path):
    code, out = run(
        tmp_path,
        "cesaro", "--coeffs", "0:1,1:0.5,-1:0.5", "--orders", "2..12",
    )
    assert code == 0
    csv_text, doc = read_outputs(out, "cesaro")
    assert doc["verdict"] == "Pass"
    assert doc["degree"] == 1
    first = csv_text.splitlines()[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == pytest.approx(1 / 3)


def test_cesaro_tolerance_failure(tmp_path):
    # an impossible tolerance turns finite rounding into a Fail verdict
    code, out = run(
        tmp_path,
        "cesaro",
        "--coeffs", "0:1,1:0.3,-1:0.3,3:0.2,-3:0.2",
        "--orders", "7..12",
        "--tol", "1e-30",
    )
    assert code == 4
    _, doc = read_outputs(out, "cesaro")
    assert doc["verdict"] == "Fail"


def test_folner_table(tmp_path):
    code, out = run(
        tmp_path, "folner", "--group", "Z", "--t", "1", "--radii", "1..6"
    )
    assert code == 0
    csv_text, doc = read_outputs(out, "folner")
    assert doc["verdict"] == "Pass"
    lines = csv_text.splitlines()
    assert lines[0] == "radius,defect_num,defect_den,chi_num,chi_den,identity"
    assert lines[1] == "1,1,1,1,2,Pass"
    assert lines[2] == "2,2,3,2,3,Pass"


F2 = FreeGroup(2)


@pytest.mark.parametrize(
    "argv, record, verdicts",
    [
        (
            ("psd", "--group", "F2", "--eps", "0.5", "--ball", "1"),
            lambda: posdef.check_positive_definite(posdef.haagerup(F2, 0.5), ball(F2, 1)),
            [],
        ),
        (("freecount", "--k", "2", "--lmax", "1"), lambda: freecomb.count_table(2, 1)[0], []),
        (
            ("folner", "--group", "Z", "--t", "1", "--radii", "1"),
            lambda: summation.folner_study(groups.Integers(), 1, [1])[0],
            ["identity"],
        ),
    ],
    ids=["psd", "freecount", "folner"],
)
def test_record_backed_headers_are_their_records_columns(tmp_path, argv, record, verdicts):
    # a header listed by hand in cli.py drifts from its record's fields
    code, out = run(tmp_path, *argv)
    assert code == 0
    csv_text, _ = read_outputs(out, argv[0])
    assert csv_text.splitlines()[0].split(",") == _columns(record())[0] + verdicts


def test_folner_lattice_element_parsing(tmp_path):
    code, out = run(
        tmp_path,
        "folner", "--group", "Z^2", "--t", "(1,0)", "--radii", "1..4",
    )
    assert code == 0
    _, doc = read_outputs(out, "folner")
    assert doc["t"] == "(1,0)"


def test_unknown_group_is_config_error(tmp_path):
    code, _ = run(tmp_path, "balls", "--group", "Q8")
    assert code == 2


def test_cap_exhaustion_is_resource_error(tmp_path):
    code, _ = run(
        tmp_path, "balls", "--group", "F3", "--radii", "0..9", "--cap", "1000"
    )
    assert code == 3


def test_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["sigma", "--group", "C4", "--algebra", "diagonal:2",
            "--action", "swap", "--trials", "10", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("sigma.csv", "sigma.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_injection(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# defaults for the counting sweep\n"
        "k = 2\n"
        "freecount.lmax = 1\n"
        "sigma.trials = 99\n"
    )
    out = tmp_path / "out"
    out.mkdir()
    code = main(["freecount", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "freecount.json").read_text())
    assert doc["k"] == 2
    assert doc["lmax"] == 1  # sigma.trials was filtered out


def test_config_flags_can_be_overridden(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("k = 2\nlmax = 0\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main(
        ["freecount", "--config", str(cfg), "--lmax", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "freecount.json").read_text())
    assert doc["lmax"] == 1


@pytest.mark.parametrize("before", [True, False], ids=["before-command", "after-command"])
def test_a_config_keeps_its_commands_keys_wherever_it_stands(tmp_path, before):
    cfg = tmp_path / "pre.cfg"
    cfg.write_text("balls.radii = 0..1\n")
    config = ["--config", str(cfg)]
    argv = config + ["balls"] if before else ["balls"] + config
    code, out = run(tmp_path, *argv, "--group", "Z")
    assert code == 0
    assert read_outputs(out, "balls")[1]["radii"] == [0, 1]


def test_missing_config_file(tmp_path):
    code = main(["freecount", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    text = capsys.readouterr().out.strip()
    assert text == (
        f"crossedprod {__version__} (ordering {ORDERING_VERSION}, "
        f"backend {BACKEND})"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["freecount", "--k", ""], "argument --k: invalid int value: ''"),
        (["pi", "--group", "C4", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["nosuchcommand"], "argument command: invalid choice: 'nosuchcommand'"),
        (["sigma"], "the following arguments are required: --group"),
    ],
    ids=["empty-int", "malformed-int", "unknown-command", "missing-group"],
)
def test_argparse_errors_return_2_in_process(tmp_path, capsys, argv, message):
    """argparse's usage errors come back from main as exit code 2, with its
    own message on stderr, as every other configuration error does; only
    --help and --version still exit through SystemExit(0)."""
    code, out = run(tmp_path, *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: crossedprod") and f"error: {message}" in err
    assert list(out.iterdir()) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: crossedprod sigma")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crossedprod.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("crossedprod ")


def test_folner_mismatch_is_reported_not_raised(tmp_path, monkeypatch):
    real = summation.folner_defects

    def off_by_one(spec, t, radii):
        return [d + Fraction(1, n + 1) for n, d in zip(radii, real(spec, t, radii))]

    monkeypatch.setattr(summation, "folner_defects", off_by_one)
    code, out = run(
        tmp_path, "folner", "--group", "Z", "--t", "1", "--radii", "1..3"
    )
    assert code == 4
    csv_text, doc = read_outputs(out, "folner")
    assert doc["verdict"] == "Fail"
    assert csv_text.splitlines()[1] == "1,3,2,1,2,Fail"


def test_a_wrong_closed_form_overlap_is_reported_not_raised(tmp_path, monkeypatch):
    """The mirror of the enumerated side: the identity column also fails
    when the closed form is off."""
    real = summation.folner_overlap

    def off_by_one(spec, n, t):
        return real(spec, n, t) + Fraction(1, n + 1)

    monkeypatch.setattr(summation, "folner_overlap", off_by_one)
    code, out = run(
        tmp_path, "folner", "--group", "Z", "--t", "1", "--radii", "1..3"
    )
    assert code == 4
    csv_text, doc = read_outputs(out, "folner")
    assert doc["verdict"] == "Fail"
    assert csv_text.splitlines()[1] == "1,1,1,1,1,Fail"


def test_one_folner_run_enumerates_one_box(tmp_path, monkeypatch):
    """Every radius's defect is read off one enumeration of the largest
    box, whatever the order or repeats of --radii."""
    real = posdef._folner_levels
    boxes, sizes = [], []

    def spy(shift, n):
        inside, need = real(shift, n)
        boxes.append(n)
        sizes.append(len(inside))
        return inside, need

    monkeypatch.setattr(posdef, "_folner_levels", spy)
    for group, t, radii, top in [
        ("Z", "1", "1..40", 40),
        ("ZxC3", "(1,2)", "7,0,3,3", 7),
        ("Z^3", "(0,0,-1)", "1..6", 6),
        ("C2xC3", "(1,2)", "0..2", 2),
    ]:
        boxes.clear()
        sizes.clear()
        code, _ = run(tmp_path, "folner", "--group", group, "--t", t, "--radii", radii)
        assert code == 0
        assert boxes == [top], (group, radii)
        assert sizes == [posdef.folner_size(parse_group(group), top)], group


def test_non_unital_map_is_a_check_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sigma, "sigma_xi", lambda ctx, xi, x: 2 * x)
    code, _ = run(
        tmp_path, "sigma", "--group", "C4", "--algebra", "diagonal:2",
        "--action", "swap", "--trials", "2",
    )
    assert code == 4
    assert "check failed: map is not unital: defect 1.000e+00" in capsys.readouterr().err


def test_non_positive_eigenvalues_are_a_check_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sigma, "CHI_FLOOR", 2.0)
    code, _ = run(tmp_path, "sigma", "--group", "C4", "--trials", "2")
    assert code == 4
    assert "check failed: eigenvalue at 0 is not strictly positive" in capsys.readouterr().err


def test_eigensolver_failure_is_a_check_failure(tmp_path, monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(posdef.np.linalg, "eigvalsh", no_convergence)
    code, _ = run(tmp_path, "psd", "--group", "F2", "--eps", "0.5", "--ball", "1")
    assert code == 4
    assert "check failed: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "group, radii",
    [
        ("F2", "0..6"),
        ("Z^2", "3,0,2"),
        ("ZxC3", "0..3"),
        ("ZxF2", "0..5"),
        ("C4xC6", "0..9"),
        ("F1xZ^2xC2", "0..6"),
        ("F2xF2", "0..3"),
        ("C1xZ", "0..4"),
        ("C2xC2xC3", "0..6"),
        ("Z^2xC3", "0..4"),
    ],
)
def test_balls_rows_match_each_radius(tmp_path, group, radii):
    code, out = run(tmp_path, "balls", "--group", group, "--radii", radii)
    assert code == 0
    csv_text, doc = read_outputs(out, "balls")
    spec = parse_group(group)
    want = []
    for n in doc["radii"]:
        b = ball(spec, n)
        sphere_size = sum(1 for g in b if spec.word_length(g) == n)
        want.append(f"{n},{len(b)},{sphere_size},")
    got = [line[: line.rindex(",") + 1] for line in csv_text.splitlines()[1:]]
    assert got == want


@pytest.mark.parametrize("radii", ["2,-1", "-1", "0,3..1"])
def test_balls_reject_negative_radii_and_reversed_ranges(tmp_path, radii):
    code, out = run(tmp_path, "balls", "--group", "Z", f"--radii={radii}")
    assert code == 2
    assert not (out / "balls.csv").exists()


@pytest.mark.parametrize(
    "argv, flag, chunk",
    [
        (("balls", "--group", "C2", "--radii", "0..1000"), "--radii", "0..1000"),
        (("freecount", "--k", "2", "--lmax", "1", "--radii", "0,3..13"), "--radii", "3..13"),
        (("cesaro", "--orders", "5..15"), "--orders", "5..15"),
        (("folner", "--group", "Z", "--t", "1", "--radii", "1..11"), "--radii", "1..11"),
        # the range is refused before the negative entry ahead of it
        (("balls", "--group", "Z", "--radii=-1,0..2000"), "--radii", "0..2000"),
    ],
    ids=["balls", "freecount", "cesaro", "folner", "negative-then-over-cap"],
)
def test_a_range_longer_than_the_cap_is_refused(tmp_path, capsys, argv, flag, chunk):
    code, out = run(tmp_path, *argv, "--cap", "10")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"resource cap: {flag} range {chunk} has ")
    assert err.rstrip().endswith("exceeds cap 10")
    assert list(out.iterdir()) == []


def test_a_range_at_the_cap_is_expanded(tmp_path):
    code, out = run(tmp_path, "balls", "--group", "C2", "--radii", "0..9", "--cap", "10")
    assert code == 0
    assert read_outputs(out, "balls")[1]["radii"] == list(range(10))


def test_capped_balls_name_the_largest_radius(tmp_path, capsys):
    code, _ = run(tmp_path, "balls", "--group", "F2", "--radii", "0..10", "--cap", "100")
    assert code == 3
    assert "at radius 10 exceeds cap 100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "group, radii, cap, message",
    [
        # infinite products: free factors, one whose own ball passes the cap
        # first, and a nested lattice factor
        ("ZxF2", "0..5", "100", "ball of ZxF2 at radius 5 exceeds cap 100"),
        ("F3xZ", "0..6", "1000", "ball of F3xZ at radius 6 exceeds cap 1000"),
        ("C2xF2", "3", "20", "ball of C2xF2 at radius 3 exceeds cap 20"),
        ("Z^2xC3", "0..4", "50", "ball of Z^2xC3 at radius 4 exceeds cap 50"),
        # a finite product past its diameter
        ("C4xC6", "0..9", "10", "ball of C4xC6 at radius 9 exceeds cap 10"),
    ],
)
def test_balls_over_the_cap_on_a_product(tmp_path, capsys, group, radii, cap, message):
    code, out = run(tmp_path, "balls", "--group", group, "--radii", radii, "--cap", cap)
    assert code == 3
    assert capsys.readouterr().err == f"resource cap: {message}\n"
    assert list(out.iterdir()) == []


def test_a_small_cap_refuses_a_lattice_ball_before_its_generators(tmp_path, capsys, monkeypatch):
    def never(self):
        raise AssertionError("every generator was built before the cap was checked")

    monkeypatch.setattr(ProductGroup, "generating_set", never)
    code, out = run(tmp_path, "balls", "--group", "Z^2000", "--radii", "1", "--cap", "10")
    assert code == 3
    assert capsys.readouterr().err == "resource cap: ball of Z^2000 at radius 1 exceeds cap 10\n"
    assert list(out.iterdir()) == []


C2_20 = "x".join(["C2"] * 20)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sigma", "--group", C2_20), f"ball of {C2_20} at radius 20 exceeds cap 1000000"),
        (("pi", "--group", C2_20), f"ball of {C2_20} at radius 20 exceeds cap 1000000"),
        (
            ("chi", "--group", "Z^2", "--set", "ball:3000", "--at", "(0,0)"),
            "ball of Z^2 at radius 3000 exceeds cap 1000000",
        ),
        (
            ("chi", "--group", "Z^3", "--ball", "200", "--eps", "0.5"),
            "ball of Z^3 at radius 200 exceeds cap 1000000",
        ),
    ],
    ids=["sigma", "pi", "chi-set", "chi-ball"],
)
def test_an_over_cap_window_is_refused_before_any_multiply(
    tmp_path, capsys, monkeypatch, argv, message
):
    # the search built a cap's worth of elements before it refused these
    def never(self, a, b):
        raise AssertionError("multiply ran before the window was refused")

    for cls in (groups.Integers, groups.Cyclic, groups.FreeGroup, groups.ProductGroup):
        monkeypatch.setattr(cls, "multiply", never)
    code, out = run(tmp_path, *argv)
    assert code == 3
    assert capsys.readouterr().err == f"resource cap: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "F2", "--set", "ball:3", "--at", "a"),
        ("--group", "Z", "--set", "0..100000", "--at", "0"),
    ],
    ids=["ball", "range"],
)
def test_cap_bounds_the_set(tmp_path, argv):
    code, _ = run(tmp_path, "chi", *argv, "--cap", "10")
    assert code == 3


def test_chi_rejects_at_with_ball(tmp_path, capsys):
    code, out = run(
        tmp_path, "chi", "--group", "Z", "--set", "0..2", "--at", "1", "--ball", "2"
    )
    assert code == 2
    assert "choose one of --at and --ball" in capsys.readouterr().err
    assert not (out / "chi.csv").exists()


@pytest.mark.parametrize("grid", ["0", "3", "4"])
def test_cesaro_rejects_an_undersampled_grid(tmp_path, capsys, grid):
    code, _ = run(
        tmp_path, "cesaro", "--coeffs", "0:1,1:0.5", "--orders", "1..3", "--grid", grid
    )
    assert code == 2
    assert f"--grid must be >= 5 for degree 1, got {grid}" in capsys.readouterr().err


def test_cesaro_accepts_the_smallest_grid(tmp_path):
    code, out = run(
        tmp_path, "cesaro", "--coeffs", "0:1,1:0.5", "--orders", "1..3", "--grid", "5"
    )
    assert code == 0
    assert read_outputs(out, "cesaro")[1]["grid_points"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--group", "C5", "--set", "0;7", "--at", "2"),
        ("chi", "--group", "C5", "--set", "0..7", "--at", "2"),
        ("folner", "--group", "ZxC3", "--t", "(1,5)"),
        ("folner", "--group", "C4", "--t", "-4"),
    ],
)
def test_out_of_range_cyclic_elements_are_config_errors(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert "out of range for C" in capsys.readouterr().err
    assert not (out / f"{argv[0]}.csv").exists()


def test_negative_cyclic_element_spells_an_inverse(tmp_path):
    code, out = run(tmp_path, "folner", "--group", "ZxC3", "--t", "(1,-1)", "--radii", "1..2")
    assert code == 0
    assert read_outputs(out, "folner")[1]["t"] == "(1,2)"


def test_cap_bounds_the_folner_sets(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the study ran past the cap")

    monkeypatch.setattr(summation, "folner_study", never)
    code, out = run(tmp_path, "folner", "--group", "Z^3", "--t", "(0,1,0)", "--radii", "1..400")
    assert code == 3
    assert "averaging set of 64481201 elements exceeds cap 1000000" in capsys.readouterr().err
    assert not (out / "folner.csv").exists()
    code, _ = run(tmp_path, "folner", "--group", "ZxC3", "--t", "(1,2)", "--radii", "1..8", "--cap", "26")
    assert code == 3


def test_cap_is_checked_once_at_the_largest_radius(tmp_path, capsys, monkeypatch):
    sizes, studies = [], []
    real_size = posdef.folner_size

    def size_spy(spec, n):
        sizes.append(n)
        return real_size(spec, n)

    def never(*args):
        studies.append(args)
        raise AssertionError("the defects ran past the cap")

    monkeypatch.setattr(posdef, "folner_size", size_spy)
    monkeypatch.setattr(summation, "folner_defects", never)
    code, out = run(tmp_path, "folner", "--group", "Z", "--t", "1", "--radii", "5,1000000")
    assert code == 3
    assert "averaging set of 1000001 elements exceeds cap 1000000" in capsys.readouterr().err
    assert sizes == [1000000]
    assert studies == []
    assert not (out / "folner.csv").exists()


def test_folner_set_at_the_cap_runs(tmp_path):
    code, out = run(
        tmp_path, "folner", "--group", "ZxC3", "--t", "(1,2)", "--radii", "8,1", "--cap", "27"
    )
    assert code == 0
    assert read_outputs(out, "folner")[1]["radii"] == [8, 1]


@pytest.mark.parametrize("command", ["sigma", "pi"])
def test_cap_bounds_the_sweep_window(tmp_path, capsys, command):
    code, out = run(tmp_path, command, "--group", "C50", "--cap", "10", "--trials", "1")
    assert code == 3
    assert "exceeds cap 10" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


OVER_BUDGET = [
    (("sigma", "--group", "C2", "--algebra", "full:100000"), "dimension 400000 (--amp 2)"),
    (("pi", "--group", "C3", "--algebra", "diagonal:1000000"), "dimension 3000000 "),
    (("sigma", "--group", "C4", "--algebra", "diagonal:4", "--amp", "4096"),
     "dimension 65536 (--amp 4096)"),
    (("pi", "--group", "C4", "--trials", "100000000"), "--trials 100000000 keep"),
]
OVER_BUDGET_IDS = ["sigma-full-d", "pi-diagonal-d", "amp", "trials"]


@pytest.mark.parametrize("argv, message", OVER_BUDGET, ids=OVER_BUDGET_IDS)
def test_dense_budget_refuses_before_allocating(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense array was allocated")

    monkeypatch.setattr(sigma, "random_psd", refuse)
    code, out = run(tmp_path, *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and "64 x --cap = 64000000" in err
    assert not (out / f"{argv[0]}.json").exists()


@pytest.mark.parametrize("argv, message", OVER_BUDGET, ids=OVER_BUDGET_IDS)
def test_dense_budget_refuses_before_building_the_context(
    tmp_path, capsys, monkeypatch, argv, message
):
    # n and d come from the group order and --algebra, so the context,
    # whose action check walks d-tuples, is never built
    def refuse(*args, **kwargs):
        raise AssertionError("a context was built")

    monkeypatch.setattr(crossed, "make_context", refuse)
    code, out = run(tmp_path, *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and "64 x --cap = 64000000" in err
    assert not (out / f"{argv[0]}.json").exists()


@pytest.mark.parametrize(
    "extra, code", [((), 3), (("--amp", "1", "--trials", "1"), 0)], ids=["over", "at"]
)
def test_a_small_cap_bounds_the_dense_work(tmp_path, capsys, extra, code):
    # (2 x 4 x 4)^2 = 1024 entries at the default --amp 2; 16^2 = 256 = 64 x 4 at --amp 1
    argv = ("sigma", "--group", "C4", "--algebra", "diagonal:4", "--cap", "4", *extra)
    assert run(tmp_path, *argv)[0] == code
    assert ("--cap = 256" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize(
    "argv, trials, need",
    [
        # six (n d^2) stacks a pi trial: 6 x 4 = 24 entries, 11 x 24 = 264
        (("pi", "--group", "C4", "--cap", "4"), 11, 264),
        # an m x m positivity grid's coefficients and dual blocks:
        # 2 x 2 x 2^2 = 16 entries a trial at --amp 2, 9 x 16 = 144
        (("sigma", "--group", "C2", "--cap", "2"), 9, 144),
    ],
    ids=["pi", "sigma"],
)
def test_the_dense_budget_counts_every_stack_a_trial_keeps(
    tmp_path, capsys, argv, trials, need
):
    code, out = run(tmp_path, *argv, "--trials", str(trials))
    assert code == 3
    err = capsys.readouterr().err
    assert f"--trials {trials} keep {need} dense entries" in err and "x --cap = " in err
    assert not (out / f"{argv[0]}.json").exists()
    # one trial fewer fits
    assert run(tmp_path, *argv, "--trials", str(trials - 1))[0] == 0


@pytest.mark.parametrize(
    "group, radius, n",
    [("Z", "20000", 40001), ("Z^2", "300", 180601)],
    ids=["Z", "Z^2"],
)
def test_psd_refuses_an_over_budget_gram_before_building_it(
    tmp_path, capsys, monkeypatch, group, radius, n
):
    # n^2 float64 entries would be 12.8 GB on Z and 261 GB on Z^2
    def refuse(*args, **kwargs):
        raise AssertionError("the Gram was built")

    monkeypatch.setattr(posdef, "gram_matrix", refuse)
    code, out = run(tmp_path, "psd", "--group", group, "--eps", "0.5", "--ball", radius)
    assert code == 3
    err = capsys.readouterr().err
    assert f"--ball {radius} window (n = {n}) has {n * n} entries" in err
    assert "64 x --cap = 64000000" in err
    assert not (out / "psd.json").exists()


@pytest.mark.parametrize(
    "radius, code", [("40", 3), ("31", 0)], ids=["over", "at"]
)
def test_a_small_cap_bounds_the_psd_gram(tmp_path, capsys, radius, code):
    # 81^2 = 6561 entries pass 64 x 81 = 5184; 63^2 = 3969 fit
    argv = ("psd", "--group", "Z", "--eps", "0.5", "--ball", radius, "--cap", "81")
    assert run(tmp_path, *argv)[0] == code
    assert ("--cap = 5184" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("balls", "--group", "F2", "--cap", "0"), "--cap must be >= 1, got 0"),
        (("sigma", "--group", "C4", "--cap", "-5"), "--cap must be >= 1, got -5"),
        (("pi", "--group", "C4", "--seed", "-1"), "--seed must be >= 0, got -1"),
        (("sigma", "--group", "C4", "--amp", "0"), "--amp must be >= 1, got 0"),
    ],
    ids=["cap-0", "cap-negative", "seed", "amp"],
)
def test_out_of_range_flags_are_config_errors(tmp_path, capsys, argv, flag):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (out / f"{argv[0]}.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "C4", "--algebra", "diagonal:0"),
        ("--group", "C4", "--algebra", "full:-2"),
        ("--group", "C5", "--action", "swap", "--algebra", "diagonal:2"),
    ],
    ids=["diagonal-0", "full-negative", "swap-odd"],
)
def test_sweep_argument_errors_are_config_errors(tmp_path, capsys, argv):
    code, out = run(tmp_path, "sigma", *argv, "--trials", "1")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (out / "sigma.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("psd", "--group", "F2", "--ball", "2", "--eps", "0.5", "--tol", "nan"), "--tol"),
        (("sigma", "--group", "C4", "--tol", "nan"), "--tol"),
        (("pi", "--group", "C4", "--trials", "1", "--tol", "inf"), "--tol"),
        (("cesaro", "--orders", "1..2", "--tol", "nan"), "--tol"),
        (("pi", "--group", "C4", "--trials", "1", "--xi", "geometric:inf"), "--xi"),
        (("pi", "--group", "C50", "--trials", "1", "--xi", "geometric:1e13"), "--xi"),
        # each weight q^|g| is finite, the sum of their squares is not
        (("sigma", "--group", "C16", "--trials", "1", "--xi", "geometric:1e20"), "--xi"),
        (("pi", "--group", "C4", "--trials", "1", "--xi", "geometric:1e100"), "--xi"),
        (("pi", "--group", "C2", "--trials", "1", "--xi", "geometric:1e155"), "--xi"),
        (("cesaro", "--coeffs", "0:nan", "--orders", "1..2"), "--coeffs"),
        (("cesaro", "--coeffs", "0:1,1:infj", "--orders", "1..2"), "--coeffs"),
    ],
    ids=[
        "psd-tol", "sigma-tol", "pi-tol", "cesaro-tol", "xi", "xi-overflow",
        "xi-squares-C16", "xi-squares-C4", "xi-squares-C2", "coeffs", "coeffs-imag",
    ],
)
def test_non_finite_floats_are_config_errors(tmp_path, capsys, argv, flag):
    code, out = run(tmp_path, *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}") and "must be finite" in err
    assert list(out.iterdir()) == []


def test_a_report_that_fails_to_serialize_writes_neither_file(tmp_path, monkeypatch):
    from crossedprod import cli

    monkeypatch.setattr(
        cli, "cmd_balls", lambda args: (("a",), [(1,)], {"margin": float("nan")}, True)
    )
    code, out = run(tmp_path, "balls", "--group", "Z")
    assert code == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [("pi", "--group", "C5", "--trials", "3"), ("sigma", "--group", "C4", "--trials", "3")],
    ids=["pi", "sigma"],
)
def test_sweep_tolerance_failure(tmp_path, argv):
    # an impossible tolerance turns every rounding-level defect into a Fail
    code, out = run(tmp_path, *argv, "--tol", "1e-30")
    assert code == 4
    _, doc = read_outputs(out, argv[0])
    assert doc["verdict"] == "Fail"


@pytest.mark.parametrize(
    "argv",
    [
        ("psd", "--group", "F2", "--ball", "2", "--eps", "0.5"),
        ("sigma", "--group", "C4", "--trials", "2"),
        ("pi", "--group", "C4", "--trials", "1"),
        ("cesaro", "--orders", "1..2"),
    ],
    ids=["psd", "sigma", "pi", "cesaro"],
)
@pytest.mark.parametrize("tol", ["-1", "-1e-30"])
def test_negative_tolerance_is_a_config_error(tmp_path, capsys, argv, tol):
    code, out = run(tmp_path, *argv, f"--tol={tol}")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --tol must be >= 0")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "coeffs, orders",
    [
        ("0:1e308,1:1e308", "1..2"),  # the grid sums overflow
        ("0:1,5:1e308", "5..6"),  # only the predicted bound overflows
        ("0:1.7e308+1.7e308j", "1..2"),  # |c_0| itself overflows
    ],
    ids=["grid", "predicted", "modulus"],
)
def test_overflowing_coefficients_are_config_errors(tmp_path, capsys, coeffs, orders):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "cesaro", "--coeffs", coeffs, "--orders", orders)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --coeffs")
    assert list(out.iterdir()) == []
    assert [str(w.message) for w in seen] == []


def test_largest_printable_coefficients_still_run(tmp_path):
    # (deg + 4) sum |c_k| is just below the float limit
    code, out = run(tmp_path, "cesaro", "--coeffs", "0:1e307,1:1e307", "--orders", "1..2")
    assert code in (0, 4)
    csv_text, _ = read_outputs(out, "cesaro")
    assert "inf" not in csv_text and "nan" not in csv_text


def test_underflowing_geometric_weights_are_named(tmp_path, capsys):
    argv = ("pi", "--group", "C50", "--xi", "geometric:1e-300", "--trials", "1")
    code, out = run(tmp_path, *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --xi geometric weights") and "underflows to 0" in err
    assert list(out.iterdir()) == []


def test_sigma_reads_its_tau_sum_and_unit_off_coefficient_stacks(tmp_path, monkeypatch):
    # the tau-sum compares coefficient stacks and the unital defect applies
    # sigma to theta({e: I}): no dense theta(sigma(x))
    calls = []
    real_gather = crossed._theta_gather

    def gather(*args):
        calls.append("_theta_gather")
        return real_gather(*args)

    monkeypatch.setattr(crossed, "_theta_gather", gather)
    for algebra, action in (("diagonal:2", "swap"), ("full:2", "trivial")):
        code, _ = run(tmp_path, "sigma", "--group", "C4", "--algebra", algebra,
                      "--action", action, "--trials", "5")
        assert code == 0
    assert calls == []


def test_a_tau_sum_missing_one_term_fails(tmp_path, monkeypatch, capsys):
    # every tau_u but the last adds its terms; what is left is no span element
    real = sigma.tau_u

    def all_but_the_last(ctx, xi, u, x, out=None):
        return out if u == ctx.window[-1] else real(ctx, xi, u, x, out=out)

    monkeypatch.setattr(sigma, "tau_u", all_but_the_last)
    argv = ("sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap",
            "--trials", "4")
    code, out = run(tmp_path, *argv)
    assert code == 4
    err = capsys.readouterr().err
    # the check and its sample come first, the span check's own words after
    assert err.startswith("check failed: tau-sum of sample 0: coefficient at window slot ")
    assert "inconsistent across the diagonal" in err
    monkeypatch.setattr(sigma, "tau_u", real)
    assert run(tmp_path, *argv)[0] == 0


@pytest.mark.parametrize(
    "call, trial, witness",
    [(1, 0, "idempotency trial 0"), (2, 1, "span-identity trial 1")],
    ids=["idempotency", "span-identity"],
)
def test_each_span_check_of_pi_names_its_trial(
    tmp_path, monkeypatch, capsys, call, trial, witness
):
    # pi_projection runs three times, each on the stack of all trials:
    # p1, p2 = pi(p1), and pi(y); one trial of one of them leaves the span
    real = sigma.pi_projection
    calls = []

    def one_off_span(pair, x=None, **kwargs):
        calls.append(x)
        out = real(pair, x, **kwargs)
        if len(calls) - 1 != call:
            return out
        bump = np.zeros_like(out.data)
        bump[trial, 0, -1] = 1.0
        return pair.ctx.wrap(out.data + bump)

    monkeypatch.setattr(sigma, "pi_projection", one_off_span)
    code, _ = run(tmp_path, "pi", "--group", "C5", "--trials", "3")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {witness}: coefficient at window slot ")


@pytest.mark.parametrize("command", ["sigma", "pi"])
def test_scalars_are_the_full_one_by_one_algebra(tmp_path, command):
    # one algebra under two names: the reports differ only where they name it
    reports = {}
    for algebra in ("scalars", "full:1"):
        code, out = run(tmp_path, command, "--group", "C5", "--algebra", algebra,
                        "--xi", "geometric:0.7", "--trials", "10")
        assert code == 0
        reports[algebra] = read_outputs(out, command)
    (csv_scalars, doc_scalars), (csv_full, doc_full) = reports.values()
    assert csv_scalars == csv_full
    assert doc_scalars.pop("algebra") == "scalars" and doc_full.pop("algebra") == "full:1"
    assert doc_scalars == doc_full


def test_sigma_draws_its_sweep_operators_once(tmp_path, monkeypatch):
    # the condition-(ii) sweep and the tau-sum check share one draw of
    # --trials operators; cp_check draws trials // 4 for bimodularity
    operators = []
    real = sigma.random_window_operator

    def counted(ctx, rng, lead=()):
        operators.append(math.prod(lead))
        return real(ctx, rng, lead)

    monkeypatch.setattr(sigma, "random_window_operator", counted)
    code, _ = run(tmp_path, "sigma", "--group", "C4", "--trials", "8")
    assert code == 0
    assert sum(operators) == 8 + 8 // 4


def test_capped_freecount_names_the_radius_and_writes_nothing(tmp_path, capsys):
    code, out = run(
        tmp_path, "freecount", "--k", "2", "--lmax", "3", "--radii", "0..9", "--cap", "1000"
    )
    assert code == 3
    assert capsys.readouterr().err == "resource cap: ball of F_2 at radius 6 exceeds cap 1000\n"
    assert list(out.iterdir()) == []


def test_capped_freecount_names_the_first_radius_it_reaches(tmp_path, capsys):
    code, _ = run(tmp_path, "freecount", "--k", "2", "--lmax", "2", "--radii", "5,3", "--cap", "200")
    assert code == 3
    assert capsys.readouterr().err == "resource cap: ball of F_2 at radius 5 exceeds cap 200\n"


def spy_levels(monkeypatch, change=lambda depth, n, last, parent: (last, parent)):
    """Route _core._levels through change(depth, n, last, parent) and return
    the log: one (n, levels yielded) entry per walk."""
    walks = []
    real = _core._levels

    def spy(k, n, cap):
        walks.append([n, 0])
        for depth, level in enumerate(real(k, n, cap), 1):
            walks[-1][1] += 1
            yield change(depth, n, *level)

    monkeypatch.setattr(_core, "_levels", spy)
    return walks


def test_freecount_walks_the_word_tree_once(tmp_path, monkeypatch):
    walks = spy_levels(monkeypatch)
    code, out = run(tmp_path, "freecount", "--k", "2", "--lmax", "4", "--radii", "0..11")
    assert code == 0
    assert walks == [[11, 11]]
    assert read_outputs(out, "freecount")[1]["rows"] == 40


@pytest.mark.parametrize("radii", ["0..3,9,2", "9,0..3", "0..3,2,9"])
def test_capped_freecount_builds_no_level(tmp_path, capsys, monkeypatch, radii):
    # |B_9(F2)| = 39365: the radius over the cap may stand anywhere
    walks = spy_levels(monkeypatch)
    code, out = run(tmp_path, "freecount", "--k", "2", "--radii", radii, "--cap", "1000")
    assert code == 3
    assert capsys.readouterr().err == "resource cap: ball of F_2 at radius 9 exceeds cap 1000\n"
    assert sum(levels for _, levels in walks) == 0
    assert list(out.iterdir()) == []


def test_freecount_fails_on_a_dropped_word(tmp_path, monkeypatch):
    # the walk loses the last word of its deepest level: every row at that
    # radius whose count includes it goes short of the closed form
    def drop(depth, n, last, parent):
        return (last[:-1], parent[:-1]) if depth == n else (last, parent)

    spy_levels(monkeypatch, drop)
    code, out = run(tmp_path, "freecount", "--k", "2", "--lmax", "2", "--radii", "0..4")
    assert code == 4
    csv_text, doc = read_outputs(out, "freecount")
    assert doc["all_equal"] is False and doc["verdict"] == "Fail"
    assert "2,0,4,161,160," in csv_text


def test_freecount_fails_on_an_off_by_one_closed_form(tmp_path, monkeypatch):
    real = freecomb.t_count_closed
    monkeypatch.setattr(freecomb, "t_count_closed", lambda k, ell, n: real(k, ell, n) + (n == 3))
    code, out = run(tmp_path, "freecount", "--k", "2", "--lmax", "1", "--radii", "0..4")
    assert code == 4
    csv_text, doc = read_outputs(out, "freecount")
    assert doc["all_equal"] is False and doc["verdict"] == "Fail"
    assert "2,1,3,27,26," in csv_text


def test_freecount_rejects_an_empty_radii_list(tmp_path, capsys):
    code, out = run(tmp_path, "freecount", "--k", "2", "--radii", "")
    assert code == 2
    assert capsys.readouterr().err == "config error: empty integer list: ''\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cap, code", [(53, 0), (52, 3)])
def test_freecount_cap_is_the_ball_size(tmp_path, capsys, cap, code):
    # |B_3(F2)| = 53
    got, _ = run(tmp_path, "freecount", "--k", "2", "--lmax", "1", "--radii", "0..3", "--cap", str(cap))
    assert got == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "resource cap: ball of F_2 at radius 3 exceeds cap 52\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--lmax", "-1"), "config error: --lmax must be >= 0, got -1\n"),
        (("--lmax", "2", "--radii=-3..-1"), "config error: --radii entries must be >= 0, got -3\n"),
        (("--lmax", "1", "--radii", "4,-2"), "config error: --radii entries must be >= 0, got -2\n"),
        # the sign is checked after the whole list parses
        (("--lmax", "1", "--radii=-1,3..2"), "config error: reversed range '3..2'\n"),
    ],
    ids=["lmax", "radii-range", "radii-list", "negative-then-reversed"],
)
def test_freecount_rejects_negative_lengths_and_radii(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "freecount", "--k", "2", *argv)
    assert code == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "exc", [MemoryError(), MemoryError("Unable to allocate 640. GiB")], ids=["bare", "numpy"]
)
def test_memory_error_is_a_resource_exit(tmp_path, capsys, monkeypatch, exc):
    from crossedprod import cli

    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sigma", exhausted)
    code, out = run(tmp_path, "sigma", "--group", "C2")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "resource cap: out of memory" + (f": {exc}" if str(exc) else "") + "\n"
    assert list(out.iterdir()) == []


def test_balls_sphere_sizes_come_from_each_words_length(tmp_path, monkeypatch):
    # file the first length-3 word, (1, 1, 1), at the end of the walk's
    # length-2 level: the F2 sphere column must count it as a length-2 word
    real = _core._levels

    def misfiled(k, n, cap):
        levels = list(real(k, n, cap))
        (last2, parent2), (last3, parent3) = levels[1:3]
        levels[1] = (np.append(last2, last3[0]), np.append(parent2, 0))
        levels[2] = (last3[1:], parent3[1:])
        return iter(levels)

    monkeypatch.setattr(_core, "_levels", misfiled)
    code, out = run(tmp_path, "balls", "--group", "F2", "--radii", "0..3")
    assert code == 4
    csv_text, doc = read_outputs(out, "balls")
    assert csv_text.splitlines()[3:] == ["2,18,13,17", "3,53,35,53"]
    assert doc["verdict"] == "Fail"


def test_balls_on_a_free_group_builds_no_word(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("balls built the words of a free-group ball")

    monkeypatch.setattr(FreeGroup, "_enumerate_ball", refuse)
    monkeypatch.setattr(_core, "free_ball_words", refuse)
    monkeypatch.setattr(groups, "free_ball_words", refuse)
    code, out = run(tmp_path, "balls", "--group", "F2", "--radii", "0..10")
    assert code == 0
    for ext in ("csv", "json"):
        assert (out / f"balls.{ext}").read_bytes() == (DATA / f"golden_balls_f2.{ext}").read_bytes()


@pytest.mark.parametrize(
    "name, group, radii",
    [
        ("zxf2", "ZxF2", "0..5"),
        ("c4xc6", "C4xC6", "0..9"),
        ("f1xz2xc2", "F1xZ^2xC2", "0..6"),
        ("z7", "Z^7", "0..3"),
        ("z2xc3", "Z^2xC3", "0..4"),
    ],
)
def test_balls_on_a_product_enumerates_no_element(tmp_path, monkeypatch, name, group, radii):
    def refuse(*args):
        raise AssertionError("balls enumerated the elements of a ball")

    monkeypatch.setattr(groups.GroupSpec, "_enumerate_ball", refuse)
    for kind in (ProductGroup, groups.Integers, groups.Cyclic, FreeGroup):
        monkeypatch.setattr(kind, "multiply", refuse)
    code, out = run(tmp_path, "balls", "--group", group, "--radii", radii)
    assert code == 0
    for ext in ("csv", "json"):
        golden = DATA / f"golden_balls_{name}.{ext}"
        assert (out / f"balls.{ext}").read_bytes() == golden.read_bytes()


_PSD_WITHOUT_A_WINDOW = """
import sys
from crossedprod import cli

def refuse(*args):
    raise AssertionError("psd enumerated its window before the Gram budget check")

cli.ball = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


def test_psd_refuses_an_over_budget_window_before_enumerating_it(tmp_path):
    # the F1 window at radius 20000 is 40,001 words of up to 20,000 letters;
    # its size comes from the sphere sizes, so no word of it is built
    proc = subprocess.run(
        [sys.executable, "-c", _PSD_WITHOUT_A_WINDOW, "psd", "--group", "F1", "--eps", "0.5",
         "--ball", "20000", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "resource cap: the Gram of the --ball 20000 window (n = 40001) has 1600080001 "
        "entries, over the dense budget 64 x --cap = 64000000\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_balls_on_f1_keep_two_words_a_sphere_at_a_long_radius(tmp_path):
    code, out = run(tmp_path, "balls", "--group", "F1", "--radii", "0..2000")
    assert code == 0
    rows = read_outputs(out, "balls")[0].splitlines()[1:]
    assert rows[0] == "0,1,1,"
    assert rows[1:] == [f"{n},{2 * n + 1},2," for n in range(1, 2001)]


@pytest.mark.parametrize(
    "group, radii, cap, message",
    [
        ("F1", "0..10", "20", "ball of F_1 at radius 10 exceeds cap 20"),
        ("F1", "3,1000000", None, "ball of F_1 at radius 1000000 exceeds cap 1000000"),
        ("F3", "0..9", None, "ball of F_3 at radius 9 exceeds cap 1000000"),
        ("F3", "4", "100", "ball of F_3 at radius 4 exceeds cap 100"),
    ],
)
def test_balls_over_the_cap_on_a_free_group(tmp_path, capsys, group, radii, cap, message):
    cap_flag = () if cap is None else ("--cap", cap)
    code, out = run(tmp_path, "balls", "--group", group, "--radii", radii, *cap_flag)
    assert code == 3
    assert capsys.readouterr().err == f"resource cap: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "group, command", [("F1", "balls"), ("F1", "psd"), ("Z^2", "balls")]
)
def test_a_ball_far_over_the_cap_is_refused_at_once(tmp_path, group, command):
    # |B_n(F1)| = 2n + 1 and |B_n(Z^2)| > n: each refusal compares its
    # radius with the cap, not one depth or one element at a time, so it
    # ends well inside the timeout
    radius, cap = 10**30, 10**29
    flags = ["--radii", str(radius)] if command == "balls" else ["--eps", "0.5", "--ball", str(radius)]
    proc = subprocess.run(
        [sys.executable, "-m", "crossedprod.cli", command, "--group", group, *flags,
         "--cap", str(cap), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    label = "F_1" if group == "F1" else group
    assert proc.stderr == f"resource cap: ball of {label} at radius {radius} exceeds cap {cap}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "F2", "--t", "a", "--radii", "1..3"),
        ("--group", "ZxF2", "--t", "(1,e)", "--radii", "1..2"),
    ],
    ids=["F2", "ZxF2"],
)
def test_folner_on_a_group_without_averaging_sets_is_a_config_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, "folner", *argv)
    assert code == 2
    assert capsys.readouterr().err == "config error: no averaging sequence for F2\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("folner", "--group", "Z", "--t", "1", "--radii=-1..2"),
            "--radii entries must be >= 0, got -1",
        ),
        (("cesaro", "--orders=-1..3"), "--orders entries must be >= 0, got -1"),
        (("cesaro", "--orders=-2,7..5"), "reversed range '7..5'"),
        (("chi", "--group", "Z", "--set", "3..1", "--at", "1"), "reversed range '3..1'"),
        (("chi", "--group", "Z", "--eps", "abc", "--at", "1"), "--eps takes a number, got 'abc'"),
    ],
    ids=["folner-radii", "cesaro-orders", "cesaro-negative-then-reversed", "chi-set", "chi-eps"],
)
def test_config_errors_name_their_flag(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("balls", "--group", "Z", "--radii=-1..2"), "--radii entries must be >= 0, got -1"),
        (("psd", "--group", "F2", "--eps", "1e400", "--ball", "1"), "--eps must be finite, got inf"),
    ],
    ids=["balls-radii", "psd-eps"],
)
def test_each_flag_kind_has_one_message(tmp_path, capsys, argv, message):
    # balls' --radii and --eps share the checks of the other flags of their kind
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


def test_a_config_path_that_cannot_be_read_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["freecount", "--config", str(tmp_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config file {tmp_path}: Is a directory\n"
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfek = 2\n")
    out = tmp_path / "out"
    code = main(["freecount", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config file {cfg}: not UTF-8 text at byte 0\n"
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    target = taken / "sub" if below else taken
    code = main(["balls", "--group", "Z", "--radii", "0..2", "--out", str(target)])
    assert code == 2
    reason = "Not a directory" if below else "File exists"
    err = capsys.readouterr().err
    assert err == f"config error: --out cannot make directory {target}: {reason}\n"
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("folner", "--group", "Z", "--t", "1", "--radii", "1..x"),
            "--radii takes integers, got 'x'",
        ),
        (
            ("cesaro", "--coeffs", "0:1,x:2"),
            "--coeffs takes k:c entries with an integer k, got 'x'",
        ),
        (
            ("chi", "--group", "F2", "--set", "a..b", "--at", "a"),
            "--set takes integers (the a..b form is for integer groups), got 'a'",
        ),
    ],
    ids=["folner-radii", "cesaro-coeffs", "chi-set"],
)
def test_integer_parse_errors_name_their_flag(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "grid, code, err",
    [("500", 0, ""), ("501", 3, "resource cap: --grid 501 times 2 coefficients exceeds cap 1000\n")],
)
def test_cap_bounds_the_cesaro_grid(tmp_path, capsys, grid, code, err):
    # 2 coefficients on 500 points are 1000 grid values, the cap
    argv = ("--coeffs", "0:1,1:0.5", "--orders", "1..3", "--grid", grid, "--cap", "1000")
    got, out = run(tmp_path, "cesaro", *argv)
    assert got == code
    assert capsys.readouterr().err == err
    assert len(list(out.iterdir())) == (2 if code == 0 else 0)


@pytest.mark.parametrize(
    "argv",
    [("--grid", "10000000000"), ("--coeffs", "100000000:1")],
    ids=["grid", "default-grid-of-a-high-degree"],
)
def test_oversized_cesaro_grids_are_never_built(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(summation, "cesaro_mean", refuse)
    monkeypatch.setattr(summation, "sup_norm_grid", refuse)
    code, out = run(tmp_path, "cesaro", *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: --grid ") and err.endswith(" exceeds cap 1000000\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("sigma", "--group", "C4", "--algebra", "diagonal:x"),
            "--algebra takes an integer dimension, got 'x'",
        ),
        (
            ("pi", "--group", "C4", "--algebra", "full:x"),
            "--algebra takes an integer dimension, got 'x'",
        ),
        (
            ("sigma", "--group", "C4", "--xi", "geometric:x"),
            "--xi geometric:q takes a number, got 'x'",
        ),
    ],
    ids=["sigma-diagonal", "pi-full", "sigma-geometric"],
)
def test_sweep_parse_errors_name_their_flag(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--group", "F2", "--set", "0..2", "--at", "a"),
        ("psd", "--group", "F2", "--set", "0..1", "--ball", "1"),
        ("chi", "--group", "ZxC3", "--set", "0..1", "--at", "(0,0)"),
    ],
    ids=["chi-F2", "psd-F2", "chi-ZxC3"],
)
def test_integer_set_ranges_need_an_integer_group(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    group, text = argv[2], argv[4]
    assert capsys.readouterr().err == (
        f"config error: --set '{text}': the a..b form is for integer groups "
        f"(Z, Cn), not {group}\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("group", ["Z", "C5"])
def test_integer_set_ranges_still_work_on_integer_groups(tmp_path, capsys, group):
    code, _ = run(tmp_path, "chi", "--group", group, "--set", "0..2", "--at", "1")
    assert code == 0
    assert capsys.readouterr().out == "2/3\n"


COMMANDS = ["balls", "chi", "psd", "freecount", "sigma", "pi", "cesaro", "folner"]
# name -> argv whose stdout, stderr and exit code tests/data/cli_texts.json holds
CLI_TEXTS = {
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "version": ["--version"],
    "unknown-command": ["nosuchcommand"],
    "no-command": [],
    "sigma-without-group": ["sigma"],
    "sigma-malformed-trials": ["sigma", "--trials", "x"],
    "folner-unknown-flag": ["folner", "--group", "Z", "--t", "1", "--bogus", "1"],
    "stray-positional": ["balls", "--group", "Z", "stray"],
    "config-key-of-another-command": [
        "balls", "--group", "Z", "--config", str(DATA / "cli_freecount_key.cfg"),
    ],
}


def cli_text(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help and --version
        code = exc.code
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("name", sorted(CLI_TEXTS))
def test_help_version_and_usage_texts_are_unchanged(name, capsys, monkeypatch):
    # argparse wraps help to COLUMNS; these texts were recorded at 80
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads((DATA / "cli_texts.json").read_text(encoding="utf-8"))[name]
    assert cli_text(CLI_TEXTS[name], capsys) == want


_NO_NUMPY_RANDOM = """
import json, sys
from crossedprod.cli import main

loaded = {}
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    loaded[argv[0]] = [code, "numpy.random" in sys.modules]
print(json.dumps(loaded))
"""


def test_studies_without_draws_do_not_import_numpy_random(tmp_path):
    # importing numpy.random costs about 10 ms a process; only sigma and pi
    # draw, so every other study must finish without it
    studies = [
        ["balls", "--group", "ZxF2", "--radii", "0..3"],
        ["chi", "--group", "Z", "--set", "0..2", "--at", "1"],
        ["psd", "--group", "F2", "--eps", "0.5", "--ball", "2"],
        ["freecount", "--k", "2", "--lmax", "1"],
        ["cesaro", "--orders", "5..8"],
        ["folner", "--group", "ZxC3", "--t", "(1,2)", "--radii", "1..3"],
    ]
    studies = [argv + ["--out", str(tmp_path / argv[0])] for argv in studies]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RANDOM, json.dumps(studies)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        argv[0]: [0, False] for argv in studies
    }


def subparser(parser, command):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def action_table(parser):
    return [
        (a.option_strings, a.dest, a.default, a.type, a.required, a.choices, a.help, a.nargs)
        for a in parser._actions
    ]


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_has_the_full_parsers_actions(command):
    alone = subparser(build_parser(command), command)
    full = subparser(build_parser(), command)
    assert action_table(alone) == action_table(full)
    assert alone._defaults == full._defaults


@pytest.mark.parametrize(
    "argv, built",
    [
        (["balls", "--group", "Z", "--radii", "0..2"], ["balls"]),
        (["sigma"], ["sigma"]),
        (["folner", "--group", "Z", "--t", "1", "--bogus", "1"], ["folner"]),
        (["nosuchcommand"], COMMANDS),
        (["--help"], COMMANDS),
        (["--version"], COMMANDS),
        ([], COMMANDS),
    ],
    ids=["balls", "sigma-usage-error", "folner-unknown-flag", "unknown", "help", "version", "none"],
)
def test_main_builds_only_the_named_subcommands_parser(tmp_path, capsys, monkeypatch, argv, built):
    added = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    monkeypatch.chdir(tmp_path)
    try:
        main(argv)
    except SystemExit:  # --help and --version
        pass
    assert added == built
