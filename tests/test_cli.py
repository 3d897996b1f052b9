import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import numpy as np

from crossedprod import __version__, posdef, sigma, summation
from crossedprod._core import BACKEND
from crossedprod.cli import _write_json, main
from crossedprod.groups import ORDERING_VERSION, FreeGroup, ball, parse_group


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


def test_pi_applies_sigma_three_times_per_trial(tmp_path, monkeypatch):
    calls = []
    real = sigma.sigma_xi

    def spy(ctx, xi, x):
        calls.append(x)
        return real(ctx, xi, x)

    monkeypatch.setattr(sigma, "sigma_xi", spy)
    code, _ = run(tmp_path, "pi", "--group", "C5", "--xi", "geometric:0.7", "--trials", "4")
    assert code == 0
    # one for make_pair's unital check, then x, p1 and y in each trial
    assert len(calls) == 1 + 3 * 4


@pytest.mark.parametrize(
    "command, trials",
    [("sigma", "0"), ("sigma", "-3"), ("pi", "0"), ("pi", "-3")],
)
def test_sweeps_reject_fewer_than_one_trial(tmp_path, capsys, command, trials):
    code, out = run(tmp_path, command, "--group", "C4", "--trials", trials)
    assert code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


def test_reports_refuse_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "r.json"), {"margin": float("inf")})
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "r.json"), {"margin": float("nan")})
    assert not (tmp_path / "r.json").exists()


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crossedprod.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("crossedprod ")


def test_folner_mismatch_is_reported_not_raised(tmp_path, monkeypatch):
    real = summation.folner_defect

    def off_by_one(spec, n, t):
        return real(spec, n, t) + Fraction(1, n + 1)

    monkeypatch.setattr(summation, "folner_defect", off_by_one)
    code, out = run(
        tmp_path, "folner", "--group", "Z", "--t", "1", "--radii", "1..3"
    )
    assert code == 4
    csv_text, doc = read_outputs(out, "folner")
    assert doc["verdict"] == "Fail"
    assert csv_text.splitlines()[1] == "1,3,2,1,2,Fail"


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
    [("F2", "0..6"), ("Z^2", "3,0,2"), ("ZxC3", "0..3")],
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


def test_capped_balls_name_the_largest_radius(tmp_path, capsys):
    code, _ = run(tmp_path, "balls", "--group", "F2", "--radii", "0..10", "--cap", "100")
    assert code == 3
    assert "at radius 10 exceeds cap 100" in capsys.readouterr().err


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
        (("cesaro", "--coeffs", "0:nan", "--orders", "1..2"), "--coeffs"),
        (("cesaro", "--coeffs", "0:1,1:infj", "--orders", "1..2"), "--coeffs"),
    ],
    ids=[
        "psd-tol", "sigma-tol", "pi-tol", "cesaro-tol", "xi", "xi-overflow", "coeffs",
        "coeffs-imag",
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


def test_sigma_draws_its_sweep_operators_once(tmp_path, monkeypatch):
    # the condition-(ii) sweep and the tau-sum check share one draw of
    # --trials operators; cp_check draws trials // 4 for bimodularity
    calls = []
    real = sigma.random_window_operator

    def counted(ctx, rng):
        calls.append(1)
        return real(ctx, rng)

    monkeypatch.setattr(sigma, "random_window_operator", counted)
    code, _ = run(tmp_path, "sigma", "--group", "C4", "--trials", "8")
    assert code == 0
    assert len(calls) == 8 + 8 // 4


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
    ],
    ids=["lmax", "radii-range", "radii-list"],
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
    # file the length-2 word (1, 1) in place of the first length-3 word:
    # the F2 sphere column must see it as a second word of length 2
    real = FreeGroup._enumerate_ball

    def misfiled(self, n, cap):
        words = real(self, n, cap)
        words[words.index((1, 1, 1))] = (1, 1)
        return words

    monkeypatch.setattr(FreeGroup, "_enumerate_ball", misfiled)
    code, out = run(tmp_path, "balls", "--group", "F2", "--radii", "0..3")
    assert code == 4
    csv_text, doc = read_outputs(out, "balls")
    assert csv_text.splitlines()[3:] == ["2,18,13,17", "3,53,35,53"]
    assert doc["verdict"] == "Fail"


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
        (("chi", "--group", "Z", "--set", "3..1", "--at", "1"), "reversed range '3..1'"),
    ],
    ids=["folner-radii", "cesaro-orders", "chi-set"],
)
def test_config_errors_name_their_flag(tmp_path, capsys, argv, message):
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
