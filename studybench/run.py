"""Time crossedprod CLI studies end to end, or trace them layer by layer.

    python3 studybench/run.py --workload free-words --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each study runs through ``crossedprod.cli.main`` in a fresh interpreter
(``study.py``), one at a time, with BLAS and OpenMP pinned to one thread.
Every study's reports are checked against ``oracle`` reference values and
against the reports of the same study earlier in the run.

``--trace 0`` repeats whole passes over the workload for as long as they
fit in ``--seconds`` (at least one) and prints the end-to-end
metrics: per study the median over passes of the time inside
``cli.main``, summed over studies.  Each time is divided by the host speed
that ``study.Probe`` measures in the same process before, during and after
``cli.main``, so it reads in seconds of a reference host.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with raw spans when traced, is written under ``studybench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
BLAS_THREADS = 1  # steadier than 2 on a 2-core box; never above nproc
RUN_BUDGET_S = 170.0
# About the time of one study.Probe kernel on a quiet 2-core Xeon; wall_s and
# setup_s are reported in seconds of that reference host
PROBE_REFERENCE_S = 0.00045

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# (name, unit, better); the same list is in BENCHMARK.json
PER_LAYER = [
    ("groups.ball.calls", "count", "lower"),
    ("groups.ball.self_s", "s", "lower"),
    ("groups.ball.elements", "count", "lower"),
    ("groups.ball.scanned", "count", "lower"),
    ("groups.ball.kept_ratio", "ratio", "higher"),
    ("groups.multiply.calls", "count", "lower"),
    ("groups.validate.calls", "count", "lower"),
    ("groups.word_length.calls", "count", "lower"),
    ("core.free_ball_words.calls", "count", "lower"),
    ("core.free_ball_words.self_s", "s", "lower"),
    ("core.free_t_count.calls", "count", "lower"),
    ("core.free_t_count.self_s", "s", "lower"),
    ("core.free_mul.calls", "count", "lower"),
    ("freecomb.count_table.self_s", "s", "lower"),
    ("freecomb.t_count_bruteforce.calls", "count", "lower"),
    ("freecomb.t_count_closed.calls", "count", "lower"),
    ("posdef.gram_matrix.calls", "count", "lower"),
    ("posdef.gram_matrix.self_s", "s", "lower"),
    ("posdef.gram_matrix.entries", "count", "lower"),
    ("posdef.pdfunction.calls", "count", "lower"),
    ("posdef.check_positive_definite.self_s", "s", "lower"),
    ("posdef.folner_overlap.calls", "count", "lower"),
    ("posdef.folner_overlap.self_s", "s", "lower"),
    ("posdef.folner_overlap.set_elements", "count", "lower"),
    ("summation.folner_study.self_s", "s", "lower"),
    ("summation.cesaro_mean.calls", "count", "lower"),
    ("summation.sup_norm_grid.calls", "count", "lower"),
    ("summation.sup_norm_grid.self_s", "s", "lower"),
    ("summation.sup_norm_grid.points", "count", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eigvalsh.s", "s", "lower"),
    ("linalg.eigvalsh.dim_max", "count", "lower"),
    ("linalg.eigvalsh.n3", "count", "lower"),
    ("crossed.make_context.self_s", "s", "lower"),
    ("crossed.mul_table.s", "s", "lower"),
    ("crossed.rel_table.s", "s", "lower"),
    ("crossed.theta_embed.calls", "count", "lower"),
    ("crossed.theta_embed.self_s", "s", "lower"),
    ("crossed.phi_hom.calls", "count", "lower"),
    ("crossed.phi_hom.self_s", "s", "lower"),
    ("crossed.fourier_coefficient.calls", "count", "lower"),
    ("crossed.fourier_coefficient.self_s", "s", "lower"),
    ("crossed.alpha.calls", "count", "lower"),
    ("crossed.expectation_apply.calls", "count", "lower"),
    ("crossed.op_norm.calls", "count", "lower"),
    ("crossed.op_norm.self_s", "s", "lower"),
    ("crossed.op_norm.dim_max", "count", "lower"),
    ("crossed.op_norm.n3", "count", "lower"),
    ("crossed.op_norm.blockdiag_frac", "ratio", "lower"),
    ("sigma.make_pair.s", "s", "lower"),
    ("sigma.sigma_coefficients.calls", "count", "lower"),
    ("sigma.sigma_coefficients.self_s", "s", "lower"),
    ("sigma.tau_u.calls", "count", "lower"),
    ("sigma.tau_u.self_s", "s", "lower"),
    ("sigma.cp_check.self_s", "s", "lower"),
    ("sigma.check_condition_ii.self_s", "s", "lower"),
    ("sigma.pi_projection.calls", "count", "lower"),
    ("sigma.pi_projection.self_s", "s", "lower"),
    ("sigma.pi_amplification.calls", "count", "lower"),
    ("sigma.pi_amplification.self_s", "s", "lower"),
    ("sigma.random_inputs.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def study_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_study(study, out: Path, trace: bool, deadline: float) -> dict:
    """Run one study in a fresh interpreter; return its record plus problems."""
    out.mkdir(parents=True)
    result_path = out.parent / (out.name + ".result.json")
    cmd = [sys.executable, str(BENCH / "study.py"), str(result_path), str(int(trace)), "--"]
    cmd += [*study.argv, "--out", str(out)]
    record = {"study": study.name, "problems": []}
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        record["problems"].append("not run: run time budget spent")
        return record
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=study_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {timeout:.0f} s")
        return record
    if proc.returncode != 0 or not result_path.exists():
        record["problems"].append(f"runner exited {proc.returncode}: {proc.stderr[-400:]}")
        return record
    record.update(json.loads(result_path.read_text()))
    if record["error"]:
        record["problems"].append("raised " + record["error"].strip().splitlines()[-1])
    elif record["exit"] != 0:
        record["problems"].append(f"exit {record['exit']}: {proc.stderr.strip()[-300:]}")
    else:
        try:
            record["problems"] += study.check(out, proc.stdout)
        except (OSError, KeyError, ValueError) as exc:
            record["problems"].append(f"unreadable report: {exc!r}")
    record["reports"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    record["report_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return record


def run_pass(studies, work: Path, trace: bool, deadline: float) -> List[dict]:
    return [run_study(s, work / s.name, trace, deadline) for s in studies]


def check_repeats(passes: List[List[dict]]) -> None:
    """Identical inputs must give byte-identical reports, traced or not."""
    for later in passes[1:]:
        for first, again in zip(passes[0], later):
            if "reports" in first and "reports" in again and first["reports"] != again["reports"]:
                again["problems"].append("reports differ from the first pass")


def host_speed(record: dict) -> float:
    """How much slower than the reference host this study process ran."""
    return sum(record["probe_s"]) / (len(record["probe_s"]) * PROBE_REFERENCE_S)


def end_to_end(passes: List[List[dict]]) -> Dict[str, float]:
    records = [r for p in passes for r in p if "main_s" in r]
    per_study = defaultdict(list)
    unscaled = defaultdict(list)
    for r in records:
        per_study[r["study"]].append(r["main_s"] / host_speed(r))
        unscaled[r["study"]].append(r["main_s"])
    return {
        "wall_s": sum(median(ts) for ts in per_study.values()),
        "wall_unscaled_s": sum(median(ts) for ts in unscaled.values()),
        "setup_s": median(r["setup_s"] / host_speed(r) for r in records),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    import tracing  # loads numpy, which untraced runs do not need

    values: Dict[str, float] = defaultdict(int)
    for r in traced:
        if not r.get("trace"):
            continue
        t = r["trace"]
        for key, v in t["counts"].items():
            values[key] = max(values[key], v) if key.endswith(".dim_max") else values[key] + v
        for key, v in tracing.span_times(t["names"], t["spans"]).items():
            values[key] += v
    if values["groups.ball.scanned"]:
        values["groups.ball.kept_ratio"] = (
            values["groups.ball.elements"] / values["groups.ball.scanned"]
        )
    if values["crossed.op_norm.calls"]:
        values["crossed.op_norm.blockdiag_frac"] = (
            values["crossed.op_norm.blockdiag"] / values["crossed.op_norm.calls"]
        )
    values["cli.report_bytes"] = sum(r.get("report_bytes", 0) for r in traced)
    values["cli.cpu_s"] = sum(r.get("cpu_s", 0.0) for r in untraced)
    values["trace.overhead_s"] = sum(r.get("main_s", 0.0) for r in traced) - sum(
        r.get("main_s", 0.0) for r in untraced
    )
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def header(records: List[dict]) -> dict:
    provenance = next((r["provenance"] for r in records if "provenance" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **provenance,
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossedprod" / "cli.py").is_file():
        print(f"studybench: no crossedprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    studies = workloads.studies(args.workload, args.seed)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    passes: List[List[dict]] = []
    try:
        if args.trace:
            passes.append(run_pass(studies, work / "untraced", False, deadline))
            passes.append(run_pass(studies, work / "traced", True, deadline))
        else:
            while True:
                passes.append(run_pass(studies, work / f"pass{len(passes)}", False, deadline))
                elapsed = time.perf_counter() - start
                # stop unless a pass of the mean length still fits
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_repeats(passes)

    records = [r for p in passes for r in p]
    if not any("main_s" in r for r in records):
        print("studybench: no study produced a timing record", file=sys.stderr)
        for r in records:
            print(f"  {r['study']}: {'; '.join(r['problems'])[:300]}", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        values = per_layer(passes[0], passes[1])
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = end_to_end(passes)
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units}

    head = header(records)
    print(f"# studybench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} studies={len(studies)}")
    print("# header " + json.dumps(head, sort_keys=True))
    for r in records:
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])[:300]
        speed = f" host_speed={host_speed(r):.3f}" if r.get("probe_s") else ""
        print(f"  {r['study']:<24} main_s={r.get('main_s', float('nan')):9.4f} "
              f"setup_s={r.get('setup_s', float('nan')):.4f}{speed} {status}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    if "wall_unscaled_s" in values:
        print(f"wall_unscaled_s = {values['wall_unscaled_s']} s (not scaled by host speed)")
    print(f"failed_frac = {failed / len(records)} ratio ({failed}/{len(records)})")

    WORK.mkdir(exist_ok=True)
    record_path = WORK / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "header": head,
        "args": vars(args),
        "metrics": metrics,
        "studies": [[{k: v for k, v in r.items() if k != "trace"} for r in p] for p in passes],
        "spans": [
            {"study": r["study"], **r["trace"]} for p in passes for r in p if r.get("trace")
        ],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
