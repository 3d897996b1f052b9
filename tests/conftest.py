"""Let tests that start a fresh interpreter (``python -m crossedprod.cli``)
import the package from this checkout, as ``pythonpath`` in pyproject.toml
does for the test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
