"""The three study workloads, generated from a seed.

A seed sets only values (Haagerup decay rates, geometric vector ratios,
sweep seeds, and the axis and sign of Folner translates), never sizes, so
every seed does the same work.  README examples keep their README values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import oracle

# Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "free-words": "Python free-word arithmetic: Gram assembly, word kernels and "
    "dense Gram eigensolves, no crossed or sigma work",
    "matrix-sweep": "few large blocks: op_norm eigensolves at dimension nd, "
    "_permute and theta_embed/phi_hom round trips",
    "scalar-window": "box-scan balls, exact Fraction Folner overlaps, and 1x1-block "
    "sweeps whose per-block Python overhead sets the time",
}

CESARO_COEFFS = {0: 1.0, 1: 0.5, -1: 0.5}


@dataclass(frozen=True)
class Study:
    """One CLI invocation and the oracle check of its reports."""

    name: str
    argv: Tuple[str, ...]
    check: Callable[[Path, str], List[str]]


def _balls(group: str, lo: int, hi: int) -> Study:
    return Study(
        f"balls-{group}-{hi}",
        ("balls", "--group", group, "--radii", f"{lo}..{hi}"),
        partial(oracle.check_balls, group=group, radii=range(lo, hi + 1)),
    )


def _freecount(k: int, lmax: int, radii: Optional[Tuple[int, int]] = None) -> Study:
    argv = ("freecount", "--k", str(k), "--lmax", str(lmax))
    if radii is not None:
        argv += ("--radii", f"{radii[0]}..{radii[1]}")
    return Study(
        f"freecount-k{k}-l{lmax}" + (f"-r{radii[1]}" if radii else ""),
        argv,
        partial(
            oracle.check_freecount,
            k=k,
            lmax=lmax,
            radii=range(radii[0], radii[1] + 1) if radii else None,
        ),
    )


def _psd(group: str, radius: int, recipe: Tuple[str, str]) -> Study:
    return Study(
        f"psd-{group}-{recipe[0][2:]}-{radius}",
        ("psd", "--group", group, *recipe, "--ball", str(radius)),
        partial(oracle.check_psd, group=group, radius=radius),
    )


def _sweep(command: str, group: str, trials: int, *extra: str) -> Study:
    check = oracle.check_sigma if command == "sigma" else oracle.check_pi
    return Study(
        f"{command}-{group}-{trials}",
        (command, "--group", group, *extra, "--trials", str(trials)),
        partial(check, trials=trials),
    )


def _cesaro(lo: int, hi: int, grid: Optional[int] = None) -> Study:
    coeffs = ",".join(f"{k}:{c:g}" for k, c in CESARO_COEFFS.items())
    argv = ("cesaro", "--coeffs", coeffs, "--orders", f"{lo}..{hi}")
    if grid is not None:
        argv += ("--grid", str(grid))
    degree = max(abs(k) for k in CESARO_COEFFS)
    return Study(
        f"cesaro-{hi}",
        argv,
        partial(
            oracle.check_cesaro,
            coeffs=CESARO_COEFFS,
            orders=range(lo, hi + 1),
            grid=grid or 8 * degree + 1,
        ),
    )


def _folner(group: str, t: str, hi: int) -> Study:
    return Study(
        f"folner-{group}-{hi}",
        ("folner", "--group", group, "--t", t, "--radii", f"1..{hi}"),
        partial(oracle.check_folner_unit_shift, radii=range(1, hi + 1)),
    )


def _unit_shift(rng: random.Random, dim: int) -> Tuple[int, ...]:
    v = [0] * dim
    v[rng.randrange(dim)] = rng.choice((1, -1))
    return tuple(v)


def _tuple(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def studies(workload: str, seed: int) -> List[Study]:
    """The studies of one workload; raises KeyError for an unknown name."""
    rng = random.Random(f"{workload}:{seed}")

    def eps() -> Tuple[str, str]:
        return ("--eps", f"{rng.uniform(0.4, 0.7):.6f}")

    def xi_and_seed() -> Tuple[str, ...]:
        return ("--xi", f"geometric:{rng.uniform(0.4, 0.8):.3f}", "--seed", str(rng.randrange(10**6)))

    def translation(n: int) -> Tuple[str, ...]:
        return ("--algebra", f"diagonal:{n}", "--action", "translation", *xi_and_seed())

    if workload == "free-words":
        return [
            _balls("F2", 0, 7),
            _freecount(2, 3),
            _psd("F2", 4, ("--eps", "0.549306")),
            _psd("F2", 5, eps()),
            _psd("F2", 5, ("--set", "ball:2")),
            _psd("F3", 4, eps()),
            _balls("F2", 0, 10),
            _freecount(3, 4, (0, 8)),
            _freecount(2, 4, (0, 11)),
        ]
    if workload == "matrix-sweep":
        c12, c16 = translation(12), translation(16)
        return [
            _sweep("sigma", "C4", 100, "--algebra", "diagonal:2", "--action", "swap",
                   "--xi", "geometric:0.5"),
            _sweep("sigma", "C12", 20, *c12),
            _sweep("pi", "C12", 20, *c12),
            _sweep("sigma", "C16", 10, *c16),
            _sweep("pi", "C16", 10, *c16),
            _sweep("sigma", "C8", 100, "--algebra", "diagonal:2", "--action", "swap",
                   *xi_and_seed()),
            _sweep("sigma", "C6", 20, "--algebra", "full:6", *xi_and_seed()),
        ]
    if workload == "scalar-window":
        shift = _unit_shift(rng, 3)
        zc3 = (rng.choice((1, -1)), rng.randrange(3))
        c32 = xi_and_seed()
        return [
            Study(
                "chi-Z",
                ("chi", "--group", "Z", "--set", "0..2", "--at", "1"),
                partial(oracle.check_chi_at, value=Fraction(2, 3)),
            ),
            _sweep("pi", "C5", 100, "--xi", "geometric:0.7"),
            _cesaro(5, 50),
            _folner("Z^2", "(1,0)", 20),
            _folner("Z^3", _tuple(shift), 30),
            _folner("ZxC3", _tuple(zc3), 300),
            _balls("Z^7", 0, 3),
            _balls("ZxF2", 0, 5),
            _cesaro(5, 200, 2001),
            _sweep("sigma", "C32", 20, *c32),
            _sweep("pi", "C32", 20, *c32),
        ]
    raise KeyError(workload)
