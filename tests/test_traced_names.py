"""The benchmark's tracer still finds every name it traces.

studybench/tracing.py wraps package functions, methods and cached
properties by name and refuses lookup sites it cannot rebind.  Installing
it in a fresh process fails when a change deletes or rebinds a traced
name, so the tier-1 run, which does not collect studybench's own tests,
catches it.  -B keeps the run from writing bytecode into studybench/.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_installs_on_the_package():
    run = subprocess.run(
        [sys.executable, "-B", "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "studybench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
