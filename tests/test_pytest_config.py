"""The repository's pytest configuration reports a failing property test.

Under ``filterwarnings = error`` a warning raised while Hypothesis writes its
failure report would end the session as an INTERNALERROR, hiding the failure
and every test after it.
"""

import pathlib
import subprocess
import sys
import textwrap

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_passes():
                pass
            """
        )
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
