"""Reference values for study outputs, computed without importing crossedprod.

Every count here comes from a closed form or a short recurrence that
shares no code with the package under test:

* ball and sphere sizes per group kind, convolved over direct products;
* |T_n(t)| for a reduced free-group word t of length ell, summed sphere by
  sphere over how many leading letters of h cancel against the tail of t;
* Cesaro error bounds and the n/(n+1) overlap of a unit-shift Folner row.

The ``check_*`` functions read one study's CSV/JSON reports and return a
list of problems; an empty list means the study matches its references.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# Pass/fail thresholds restated from the report contract of each study.
UNITAL_TOL = 1e-12
DEFECT_TOL = 1e-10
CESARO_TOL = 1e-9


def _factor_spheres(label: str, n: int) -> List[int]:
    if label == "Z":
        return [1] + [2] * n
    if label.startswith("Z^"):
        d = int(label[2:])

        def ball(r):
            return sum(2**i * comb(d, i) * comb(r, i) for i in range(min(d, r) + 1))

        return [1] + [ball(r) - ball(r - 1) for r in range(1, n + 1)]
    if label.startswith("C"):
        m = int(label[1:])
        return [1] + [2 if 2 * r < m else 1 if 2 * r == m else 0 for r in range(1, n + 1)]
    if label.startswith("F"):
        k = int(label[1:])
        return [1] + [2 * k * (2 * k - 1) ** (r - 1) for r in range(1, n + 1)]
    raise ValueError(f"no reference for group {label!r}")


def sphere_sizes(label: str, n: int) -> List[int]:
    """Sizes of the spheres of radius 0..n; products convolve their factors."""
    out = [1] + [0] * n
    for factor in label.split("x"):
        spheres = _factor_spheres(factor, n)
        out = [sum(out[i] * spheres[r - i] for i in range(r + 1)) for r in range(n + 1)]
    return out


def ball_size(label: str, n: int) -> int:
    return sum(sphere_sizes(label, n))


def free_t_count(k: int, ell: int, n: int) -> int:
    """|{h in B_n : |t h| <= n}| for any reduced t of length ell in F_k.

    A word h of length L whose first j letters cancel against t has
    |t h| = ell + L - 2j.  Those j letters are forced; the next one must
    neither cancel (when j < ell) nor undo letter j (when j >= 1), and the
    rest only avoid undoing their predecessor.
    """
    total = 0
    for length in range(n + 1):
        for j in range(min(ell, length) + 1):
            if ell + length - 2 * j > n:
                continue
            if j == length:
                total += 1
            else:
                first = 2 * k - (1 if j >= 1 else 0) - (1 if j < ell else 0)
                total += first * (2 * k - 1) ** (length - j - 1)
    return total


def free_limit(k: int, ell: int) -> Fraction:
    """Limit of |T_n(t)| / |B_n|: 1/q^m for ell = 2m, 1/(k q^m) for ell = 2m+1."""
    q = 2 * k - 1
    m, odd = divmod(ell, 2)
    return Fraction(1, k * q**m) if odd else Fraction(1, q**m)


def cesaro_predicted(coeffs: Dict[int, float], n: int) -> float:
    """Sup-norm error of the n-th Cesaro mean for nonnegative coefficients."""
    inside = sum(abs(k) * abs(c) / (n + 1) for k, c in coeffs.items() if abs(k) <= n)
    return inside + sum(abs(c) for k, c in coeffs.items() if abs(k) > n)


# --- report readers --------------------------------------------------------


def _rows(out: Path, name: str) -> List[Dict[str, str]]:
    with open(out / f"{name}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out: Path, name: str) -> dict:
    with open(out / f"{name}.json") as fh:
        return json.load(fh)


def _frac(row: Dict[str, str], prefix: str) -> Fraction:
    return Fraction(int(row[prefix + "_num"]), int(row[prefix + "_den"]))


def _verdict(problems: List[str], summary: dict) -> List[str]:
    if summary.get("verdict") != "Pass":
        problems.append(f"verdict {summary.get('verdict')!r}")
    return problems


# --- per-command checks ------------------------------------------------------


def check_balls(out: Path, stdout: str, group: str, radii: Sequence[int]) -> List[str]:
    rows = _rows(out, "balls")
    problems = []
    if [int(r["radius"]) for r in rows] != list(radii):
        problems.append("radii column differs from the request")
    spheres = sphere_sizes(group, max(radii))
    free_rank = int(group[1:]) if group.startswith("F") else 0
    for row in rows:
        n = int(row["radius"])
        want = sum(spheres[: n + 1])
        if int(row["ball_size"]) != want:
            problems.append(f"|B_{n}| = {row['ball_size']}, reference {want}")
        if int(row["sphere_size"]) != spheres[n]:
            problems.append(f"|S_{n}| = {row['sphere_size']}, reference {spheres[n]}")
        closed = str(want) if free_rank >= 2 else ""
        if row["closed_size"] != closed:
            problems.append(f"closed_size {row['closed_size']!r} at n={n}, reference {closed!r}")
    return _verdict(problems, _summary(out, "balls"))


def check_freecount(
    out: Path, stdout: str, k: int, lmax: int, radii: Optional[Sequence[int]]
) -> List[str]:
    rows = _rows(out, "freecount")
    expected = [
        (ell, n)
        for ell in range(lmax + 1)
        for n in (
            range(2 * ell, min(2 * ell + 2, 7) + 1)
            if radii is None
            else [n for n in radii if n >= 2 * ell]
        )
    ]
    problems = []
    if [(int(r["ell"]), int(r["n"])) for r in rows] != expected:
        problems.append("(ell, n) rows differ from the request")
    for row in rows:
        ell, n = int(row["ell"]), int(row["n"])
        want = free_t_count(k, ell, n)
        if not int(row["closed"]) == int(row["brute"]) == want:
            problems.append(
                f"T_{n} at ell={ell}: closed {row['closed']}, brute {row['brute']}, "
                f"reference {want}"
            )
        if _frac(row, "ratio") != Fraction(want, ball_size(f"F{k}", n)):
            problems.append(f"ratio at ell={ell}, n={n}")
        if _frac(row, "limit") != free_limit(k, ell):
            problems.append(f"limit at ell={ell}")
    return _verdict(problems, _summary(out, "freecount"))


def check_chi_at(out: Path, stdout: str, value: Fraction) -> List[str]:
    problems = []
    shown = f"{value.numerator}/{value.denominator}"
    if stdout.strip() != shown:
        problems.append(f"printed {stdout.strip()!r}, reference {shown}")
    rows = _rows(out, "chi")
    if len(rows) != 1 or (rows[0]["num"], rows[0]["den"]) != (
        str(value.numerator),
        str(value.denominator),
    ):
        problems.append("chi.csv does not hold the reference value")
    return _verdict(problems, _summary(out, "chi"))


def check_psd(out: Path, stdout: str, group: str, radius: int) -> List[str]:
    report = _summary(out, "psd")["report"]
    problems = []
    want = ball_size(group, radius)
    if report["gram_dimension"] != want or report["ball_radius"] != radius:
        problems.append(f"gram_dimension {report['gram_dimension']}, reference {want}")
    if not report["min_eigenvalue"] >= -report["tolerance"]:
        problems.append(f"min eigenvalue {report['min_eigenvalue']} below tolerance")
    return _verdict(problems, _summary(out, "psd"))


def check_sigma(out: Path, stdout: str, trials: int) -> List[str]:
    checks = _summary(out, "sigma")["checks"]
    cp, cond = checks["cp"], checks["condition_ii"]
    problems = []
    if cp["trials"] != trials or cond["trials"] != trials:
        problems.append("trial counts differ from the request")
    if not checks["unital_defect"] <= UNITAL_TOL:
        problems.append(f"unital defect {checks['unital_defect']}")
    for name, value in (
        ("tau_sum_defect", checks["tau_sum_defect"]),
        ("bimodular defect", cp["max_bimodular_defect"]),
        ("eigenrelation defect", cp["max_eigenrelation_defect"]),
    ):
        if not value <= DEFECT_TOL:
            problems.append(f"{name} {value}")
    if not cp["min_eigenvalue_seen"] >= -DEFECT_TOL:
        problems.append(f"min eigenvalue {cp['min_eigenvalue_seen']}")
    if not cond["condition_ii_margin"] >= -DEFECT_TOL:
        problems.append(f"condition (ii) margin {cond['condition_ii_margin']}")
    return _verdict(problems, _summary(out, "sigma"))


def check_pi(out: Path, stdout: str, trials: int) -> List[str]:
    rows = _rows(out, "pi")
    problems = []
    if [int(r["trial"]) for r in rows] != list(range(trials)):
        problems.append("trial rows differ from the request")
    for row in rows:
        for col in ("idempotency_defect", "span_identity_defect"):
            if not float(row[col]) <= DEFECT_TOL:
                problems.append(f"{col} {row[col]} at trial {row['trial']}")
    return _verdict(problems, _summary(out, "pi"))


def check_cesaro(
    out: Path, stdout: str, coeffs: Dict[int, float], orders: Sequence[int], grid: int
) -> List[str]:
    rows = _rows(out, "cesaro")
    problems = []
    if [int(r["n"]) for r in rows] != list(orders):
        problems.append("orders column differs from the request")
    if _summary(out, "cesaro")["grid_points"] != grid:
        problems.append("grid size differs from the request")
    for row in rows:
        n = int(row["n"])
        want = cesaro_predicted(coeffs, n)
        for col in ("predicted", "grid_error"):
            if abs(float(row[col]) - want) > CESARO_TOL:
                problems.append(f"{col} {row[col]} at n={n}, reference {want}")
    return _verdict(problems, _summary(out, "cesaro"))


def check_folner_unit_shift(out: Path, stdout: str, radii: Sequence[int]) -> List[str]:
    rows = _rows(out, "folner")
    problems = []
    if [int(r["radius"]) for r in rows] != list(radii):
        problems.append("radii column differs from the request")
    for row in rows:
        n = int(row["radius"])
        if _frac(row, "chi") != Fraction(n, n + 1):
            problems.append(f"overlap at n={n} is {_frac(row, 'chi')}, reference {n}/{n + 1}")
        if _frac(row, "defect") != Fraction(2, n + 1):
            problems.append(f"defect at n={n} is {_frac(row, 'defect')}")
    return _verdict(problems, _summary(out, "folner"))
