"""Tests of the study benchmark itself (not collected by the package suite).

    python3 -m pytest -q studybench/test_studybench.py

The traced-workload tests run every workload traced three times and take
a few minutes.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracle
import run
import tracing
import workloads

# Counts each workload exists to exercise; a wrapper missing from a
# lookup site would leave one of them at zero.
EXERCISED = {
    "free-words": [
        "groups.ball.calls",
        "groups.multiply.calls",
        "groups.validate.calls",
        "groups.word_length.calls",
        "core.free_ball_words.calls",
        "core.free_t_count.calls",
        "core.free_mul.calls",
        "freecomb.t_count_bruteforce.calls",
        "freecomb.t_count_closed.calls",
        "posdef.gram_matrix.calls",
        "posdef.gram_matrix.entries",
        "posdef.pdfunction.calls",
        "linalg.eigvalsh.calls",
    ],
    "matrix-sweep": [
        "groups.ball.calls",
        "groups.multiply.calls",
        "crossed.op_norm.calls",
        "crossed.op_norm.blockdiag_frac",
        "linalg.eigvalsh.calls",
        "crossed.theta_embed.calls",
        "crossed.phi_hom.calls",
        "crossed.fourier_coefficient.calls",
        "crossed.alpha.calls",
        "crossed.expectation_apply.calls",
        "sigma.sigma_coefficients.calls",
        "sigma.tau_u.calls",
        "sigma.pi_projection.calls",
        "sigma.pi_amplification.calls",
    ],
    "scalar-window": [
        "groups.ball.scanned",
        "groups.multiply.calls",
        "posdef.folner_overlap.calls",
        "posdef.folner_overlap.set_elements",
        "posdef.pdfunction.calls",
        "summation.cesaro_mean.calls",
        "summation.sup_norm_grid.calls",
        "summation.sup_norm_grid.points",
        "crossed.op_norm.calls",
        "crossed.alpha.calls",
        "crossed.expectation_apply.calls",
        "sigma.tau_u.calls",
    ],
}

# Layers a workload must not touch at all.
UNTOUCHED = {
    "free-words": [
        name for name, unit, _ in run.PER_LAYER
        if name.startswith(("crossed.", "sigma.", "summation.")) and unit == "count"
    ],
    "matrix-sweep": ["core.free_t_count.calls", "posdef.gram_matrix.calls"],
    "scalar-window": ["core.free_t_count.calls", "posdef.gram_matrix.calls"],
}


def _pass(workload, seed, trace, tag):
    work = run.WORK / f"test-{workload}-{seed}-{trace}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run.run_pass(
            workloads.studies(workload, seed), work, trace, time.perf_counter() + 600
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


@functools.lru_cache(maxsize=None)
def traced(workload, seed, tag=0):
    return _pass(workload, seed, True, tag)


@functools.lru_cache(maxsize=None)
def untraced(workload, seed):
    return _pass(workload, seed, False, 0)


def exact_metrics(records, units=("count", "ratio", "bytes")):
    values = run.per_layer([], records)
    return {name: values[name] for name, unit, _ in run.PER_LAYER if unit in units}


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_oracle_closed_forms():
    assert oracle.ball_size("Z^7", 3) == 575
    assert oracle.ball_size("F2", 3) == (2 * 3**3 - 1)
    assert oracle.ball_size("F3", 4) == 937
    assert oracle.sphere_sizes("C4", 3) == [1, 2, 1, 0]
    assert oracle.ball_size("ZxC3", 1) == 3 + 2
    assert oracle.free_t_count(2, 0, 3) == oracle.ball_size("F2", 3)
    # t = a in F2, n = 1: h in {e, A, b, B} stays within length 1 after ah
    assert oracle.free_t_count(2, 1, 1) == 2
    assert oracle.free_limit(2, 3) == Fraction(1, 2 * 3)


def test_seed_sets_values_not_sizes():
    valued = {"--eps", "--xi", "--seed", "--t"}
    for workload in workloads.WHY:
        one, two = workloads.studies(workload, 1), workloads.studies(workload, 2)
        assert len({s.name for s in one}) == len(one)
        assert [s.argv for s in one] == [s.argv for s in workloads.studies(workload, 1)]
        for a, b in zip(one, two):
            assert len(a.argv) == len(b.argv)
            for i, (x, y) in enumerate(zip(a.argv, b.argv)):
                assert x == y or a.argv[i - 1] in valued, (a.name, x, y)


def test_corrupted_reference_fails(monkeypatch, tmp_path):
    studies = [
        workloads._balls("F2", 0, 3),
        workloads._psd("F2", 2, ("--eps", "0.5")),
        workloads._freecount(2, 1),
    ]
    clean = run.run_pass(studies, tmp_path / "clean", False, time.perf_counter() + 120)
    assert [r["problems"] for r in clean] == [[], [], []]

    real = oracle.sphere_sizes
    monkeypatch.setattr(
        oracle, "sphere_sizes", lambda label, n: [s + (r == 2) for r, s in enumerate(real(label, n))]
    )
    monkeypatch.setattr(oracle, "free_t_count", lambda k, ell, n: 0)
    bad = run.run_pass(studies, tmp_path / "bad", False, time.perf_counter() + 120)
    assert all(r["problems"] for r in bad)


def test_failing_invocation_counts_as_failed(tmp_path):
    broken = workloads.Study("bad-group", ("balls", "--group", "Q"), lambda out, stdout: [])
    (record,) = run.run_pass([broken], tmp_path, False, time.perf_counter() + 60)
    assert record["problems"] and record["exit"] == 2


def test_guard_rejects_a_stale_lookup_site():
    script = (
        "import sys, types, tracing, crossedprod.groups as g\n"
        "m = types.ModuleType('crossedprod.stale')\n"
        "m.TABLE = {'ball': g.ball}\n"
        "sys.modules['crossedprod.stale'] = m\n"
        "tracing.install(tracing.Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=run.BENCH,
        env=run.study_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "untraced lookup sites: crossedprod.stale.TABLE[...]" in proc.stderr


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "studybench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "studybench/run.py", "--workload", "free-words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_named_counts_nonzero_where_exercised(workload):
    records = traced(workload, 1)
    assert [r["problems"] for r in records] == [[]] * len(records)
    values = exact_metrics(records)
    assert [n for n in EXERCISED[workload] if not values[n] > 0] == []
    assert [n for n in UNTOUCHED[workload] if values[n] != 0] == []


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_counts_repeat_across_traced_runs_and_seeds(workload):
    assert exact_metrics(traced(workload, 1, tag=1)) == exact_metrics(traced(workload, 1))
    # report sizes follow the printed digits of seeded values; counts do not
    counts = ("count", "ratio")
    assert exact_metrics(traced(workload, 2), counts) == exact_metrics(traced(workload, 1), counts)


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_traced_reports_equal_untraced(workload):
    for plain, with_trace in zip(untraced(workload, 1), traced(workload, 1)):
        assert plain["problems"] == []
        assert plain["reports"] and plain["reports"] == with_trace["reports"], plain["study"]


def test_span_self_time_excludes_children():
    names = ["outer", "inner"]
    spans = [(0, 0.0, 10.0, -1), (1, 2.0, 5.0, 0), (1, 6.0, 7.0, 0)]
    times = tracing.span_times(names, spans)
    assert times["outer.s"] == 10.0 and times["outer.self_s"] == 6.0
    assert times["inner.s"] == 4.0 and times["inner.self_s"] == 4.0
