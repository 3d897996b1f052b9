"""Cesaro means of trigonometric polynomials and amenable averaging studies.

The integer-group specialization of the coefficient-weighting maps: the
interval indicator {0..n} produces the triangular weights
(n+1-|k|)/(n+1), i.e. the n-th Cesaro (Fejer) mean of the Fourier series.
Uniform convergence is witnessed on a sampling grid, a table of orders
in blocks of rows; amenable groups get exact symmetric-difference tables.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import SpecMismatchError, UndersampledGridError
from .groups import Element, GroupSpec
from .posdef import folner_defects, folner_overlap

# the most grid values a block of polynomials holds in each of its arrays
GRID_TERMS = 2**13


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite Fourier data: coefficient map k -> c_k."""

    coefficients: Dict[int, complex]

    def __post_init__(self):
        for k in self.coefficients:
            if not isinstance(k, int) or isinstance(k, bool):
                raise SpecMismatchError(f"frequency {k!r} is not an integer")

    def degree(self) -> int:
        support = [abs(k) for k, c in self.coefficients.items() if c != 0]
        return max(support, default=0)

    def __call__(self, theta: float) -> complex:
        return sum(
            c * cmath.exp(1j * k * theta) for k, c in self.coefficients.items()
        )

    def coefficient(self, k: int) -> complex:
        return complex(self.coefficients.get(k, 0))


def cesaro_weight(n: int, j: int) -> Fraction:
    """Triangular weight (n+1-|j|)/(n+1) inside the band, 0 outside."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if abs(j) > n:
        return Fraction(0)
    return Fraction(n + 1 - abs(j), n + 1)


def cesaro_mean(f: TrigPolynomial, n: int) -> TrigPolynomial:
    """Coefficientwise triangular damping: the n-th Cesaro mean."""
    out = {}
    for k, c in f.coefficients.items():
        w = cesaro_weight(n, k)
        if w:
            out[k] = complex(c) * float(w)
    return TrigPolynomial(out)


def sup_norm_grid(
    f: TrigPolynomial, g: Union[TrigPolynomial, Sequence[TrigPolynomial]], grid_points: int
) -> Union[float, List[float]]:
    """Max of |f - g| over a uniform grid on the circle, or a list of them,
    one per polynomial of a sequence g.

    Requires at least 4*degree + 1 points; with that oversampling the
    grid value is within a factor 2 of the true sup norm for trig
    polynomials.  Each grid value equals |f(theta_i) - g(theta_i)| as the
    polynomials' own evaluation computes it, bit for bit.  f is put on the
    grid once, and a sequence in blocks of at most GRID_TERMS values.
    """
    gs = [g] if isinstance(g, TrigPolynomial) else list(g)
    deg = max(p.degree() for p in [f] + gs)
    if grid_points < 4 * deg + 1:
        raise UndersampledGridError(
            f"need >= {4 * deg + 1} grid points for degree {deg}, "
            f"got {grid_points}"
        )
    f_re, f_im = _on_grid([f], grid_points)
    step = max(1, GRID_TERMS // grid_points)
    errs = []
    for a in range(0, len(gs), step):
        g_re, g_im = _on_grid(gs[a : a + step], grid_points)
        errs += np.max(np.hypot(f_re - g_re, f_im - g_im), axis=-1).tolist()
    return errs[0] if isinstance(g, TrigPolynomial) else errs


def _on_grid(polys: Sequence[TrigPolynomial], grid_points: int) -> Tuple[np.ndarray, ...]:
    """Real and imaginary parts of the polynomials at the grid points, one
    row each.  A row sums its terms in its own coefficient order, the j-th
    terms of all rows at once, with the complex product written out in
    real arithmetic as CPython forms it; numpy's may round differently."""
    terms = [[(k, complex(c)) for k, c in p.coefficients.items()] for p in polys]
    re, im = np.zeros((2, len(polys), grid_points))
    for j in range(max(map(len, terms), default=0)):
        rows = [r for r, t in enumerate(terms) if j < len(t)]
        e_re, e_im = map(np.array, zip(*(_exp_row(terms[r][j][0], grid_points) for r in rows)))
        c = np.array([terms[r][j][1] for r in rows])[:, None]
        at = slice(None) if len(rows) == len(terms) else rows
        re[at] += c.real * e_re - c.imag * e_im
        im[at] += c.real * e_im + c.imag * e_re
    return re, im


def _exp_row(k: int, grid_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """exp(i k theta) at theta = i * 2pi / grid_points, as (real, imag) rows,
    computed once per frequency and grid and shared by every order."""
    table = _exp_table(grid_points)
    if k not in table:
        step = 2.0 * cmath.pi / grid_points
        values = [cmath.exp(1j * k * (i * step)) for i in range(grid_points)]
        rows = np.array([[z.real for z in values], [z.imag for z in values]])
        rows.flags.writeable = False
        table[k] = (rows[0], rows[1])
    return table[k]


@functools.lru_cache(maxsize=4)
def _exp_table(grid_points: int) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """The rows of one grid by frequency, filled on first use; the few
    most recent grids are kept."""
    return {}


@dataclass(frozen=True)
class FolnerRow:
    """One exact row of an amenable averaging study; chi is the overlap."""

    radius: int
    defect: Fraction
    chi: Fraction


def folner_study(
    spec: GroupSpec, t: Element, radii: Sequence[int]
) -> List[FolnerRow]:
    """Exact (defect, overlap) rows for the built-in averaging sequence.

    The defects of all radii are counted over one enumeration of the
    largest set, and each overlap comes from its closed form, so the
    identity chi = 1 - defect/2, which holds because tF_n and F_n have
    the same size, checks one against the other.
    """
    spec.validate(t)
    radii = list(radii)
    defects = folner_defects(spec, t, radii)
    return [
        FolnerRow(n, defect, folner_overlap(spec, n, t))
        for n, defect in zip(radii, defects)
    ]
