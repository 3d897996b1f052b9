"""The benchmark's required counts stay above zero on tiny studies.

studybench/test_studybench.py requires each workload to exercise certain
traced layers, but it runs the full workloads and takes minutes, so the
tier-1 run does not collect it.  This test runs one tiny study per
required count under studybench/tracing.py, in a fresh process, and
fails when a change stops calling code that a workload count measures:
for example, scalars that stop going through ExpectationSpec.apply.
-B keeps the run from writing bytecode into studybench/, and every
report goes to tmp_path.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

SWEEP = ("--trials", "4")
STUDIES = {
    "sigma-C3-scalars": ("sigma", "--group", "C3", "--algebra", "scalars", *SWEEP),
    "sigma-C3-full2": ("sigma", "--group", "C3", "--algebra", "full:2", *SWEEP),
    "sigma-C4-swap": (
        "sigma", "--group", "C4", "--algebra", "diagonal:2", "--action", "swap", *SWEEP
    ),
    "pi-C3": ("pi", "--group", "C3", *SWEEP),
    "freecount-k2": ("freecount", "--k", "2", "--lmax", "1"),
    "psd-F2": ("psd", "--group", "F2", "--eps", "0.5", "--ball", "2"),
}

SIGMA = [
    "crossed.fourier_coefficient.calls",
    "crossed.op_norm.blockdiag",
    "sigma.tau_u.calls",
    "crossed.alpha.calls",
]
# study -> the counts that must stay above zero on it
REQUIRED = {
    "sigma-C3-scalars": ["crossed.expectation_apply.calls"] + SIGMA,
    "sigma-C3-full2": ["crossed.expectation_apply.calls"] + SIGMA,
    "sigma-C4-swap": SIGMA,
    "pi-C3": ["sigma.pi_projection.calls", "sigma.pi_amplification.calls"],
    "freecount-k2": ["core.free_t_count.calls", "freecomb.t_count_bruteforce.calls"],
    # balls on F_k only reads the walk's level sizes; psd's window is the
    # one free-group ball that is still built from words
    "psd-F2": ["core.free_ball_words.calls", "core.free_mul.calls", "posdef.gram_matrix.calls"],
}

SCRIPT = """
import json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
import crossedprod.cli as cli
out = {}
for name, argv in json.loads(sys.argv[1]).items():
    tracer.counts.clear()
    code = cli.main(argv)
    out[name] = {"exit": code, "counts": dict(tracer.counts)}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    studies = {
        name: list(argv) + ["--out", str(out / name)] for name, argv in STUDIES.items()
    }
    run = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, json.dumps(studies)],
        cwd=ROOT / "studybench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("study", sorted(REQUIRED))
def test_required_counts_stay_above_zero(traced, study):
    result = traced[study]
    assert result["exit"] == 0
    zero = [name for name in REQUIRED[study] if not result["counts"].get(name, 0) > 0]
    assert zero == [], f"{study} no longer reaches {zero}"
