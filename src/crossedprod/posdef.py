"""Positive definite functions on discrete groups, with numerical witnesses.

A candidate positive definite function is wrapped as a PdFunction (an
evaluator normalized to 1 at the identity).  Positive definiteness is then
certified at finite scale: build the Gram matrix [f(g h^-1)] over a ball
and check its spectrum.  Constructors cover overlap functions chi_S,
vector states chi_xi, and exponential length decay; products and convex
combinations preserve the class.

A function whose value provably depends only on word length is flagged
``radial``.  Its Gram matrix comes from the group's table of quotient
lengths l(g h^-1) over the window: the function is evaluated once per
distinct length and the value is copied to every entry of that length.
Every other function is evaluated once per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SpecMismatchError
from .groups import (
    Ball,
    Cyclic,
    Element,
    FreeGroup,
    GroupSpec,
    Integers,
    ProductGroup,
)

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class PdFunction:
    """A function on a group, normalized to 1 at the identity.

    ``support`` is a finite frozenset when the function provably vanishes
    outside it, or None for full support.  ``radial`` is True only when
    the constructor has proved that the value depends on word length
    alone; gram_matrix then reads the Gram off a length table.  Positive
    definiteness is a *candidate* property here; check_positive_definite
    produces evidence.
    """

    spec: GroupSpec
    evaluator: Callable[[Element], complex]
    support: Optional[frozenset] = None
    label: str = ""
    radial: bool = False

    def __post_init__(self):
        e = self.spec.identity()
        val = complex(self.evaluator(e))
        if abs(val - 1.0) > IDENTITY_TOL:
            raise ValueError(f"value at identity must be 1, got {val}")

    def __call__(self, g: Element) -> complex:
        if self.support is not None and g not in self.support:
            return 0j
        return complex(self.evaluator(g))


@dataclass(frozen=True)
class L2Vector:
    """A finitely supported unit vector, entries indexed by group elements."""

    entries: Dict[Element, complex]

    def __post_init__(self):
        norm_sq = sum(abs(v) ** 2 for v in self.entries.values())
        if abs(norm_sq - 1.0) > IDENTITY_TOL:
            raise ValueError(f"vector must be unit norm, got |.|^2 = {norm_sq}")

    @staticmethod
    def normalized(weights: Dict[Element, complex]) -> "L2Vector":
        norm = math.sqrt(sum(abs(v) ** 2 for v in weights.values()))
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return L2Vector({g: v / norm for g, v in weights.items() if v != 0})

    @staticmethod
    def indicator(elements: Sequence[Element]) -> "L2Vector":
        """Normalized indicator vector of a finite set."""
        elems = list(elements)
        if not elems:
            raise ValueError("empty set")
        w = 1.0 / math.sqrt(len(elems))
        return L2Vector({g: w for g in elems})

    def support(self) -> frozenset:
        return frozenset(g for g, v in self.entries.items() if v != 0)

    def is_strictly_positive(self) -> bool:
        return all(v.imag == 0 and v.real > 0 for v in map(complex, self.entries.values()))


@dataclass(frozen=True)
class PsdReport:
    """Spectrum-based positive semidefiniteness witness for one Gram matrix."""

    ball_radius: int
    gram_dimension: int
    min_eigenvalue: float
    tolerance: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_json(self) -> dict:
        return {
            "ball_radius": self.ball_radius,
            "gram_dimension": self.gram_dimension,
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def chi_from_set(spec: GroupSpec, S: Sequence[Element]) -> PdFunction:
    """The overlap function g -> |S meet gS| / |S| for a finite nonempty S.

    Counting is exact integer arithmetic; the single division happens on
    evaluation.  The support is contained in S S^-1.  When S is a ball of
    a free group the function is radial: |S meet gS| counts the vertices
    of the Cayley tree within the radius of both e and g, and the tree's
    automorphisms fixing e act transitively on each sphere.
    """
    members = list(S)
    if not members:
        raise ValueError("S must be nonempty")
    for s in members:
        spec.validate(s)
    sset = frozenset(members)
    if len(sset) != len(members):
        raise ValueError("S has repeated elements")
    size = len(sset)
    support = frozenset(
        spec.multiply(a, spec.inverse(b)) for a in sset for b in sset
    )

    def evaluate(g):
        ginv = spec.inverse(g)
        count = sum(1 for s in sset if spec.multiply(ginv, s) in sset)
        return Fraction(count, size)

    return PdFunction(
        spec,
        evaluate,
        support=support,
        label=f"chi_S(|S|={size})",
        radial=_is_free_ball(spec, sset),
    )


def _is_free_ball(spec: GroupSpec, sset: frozenset) -> bool:
    """True iff the set of valid words is a whole ball of a free group.

    Every word is at most as long as the longest, so the set lies in that
    ball and fills it exactly when the sizes agree.
    """
    if not isinstance(spec, FreeGroup):
        return False
    radius = max(map(len, sset))
    k = spec.k
    size = 1 + sum(2 * k * (2 * k - 1) ** (r - 1) for r in range(1, radius + 1))
    return len(sset) == size


def chi_from_set_exact(spec: GroupSpec, S: Sequence[Element], g: Element) -> Fraction:
    """Exact rational value of chi_S at g."""
    val = chi_from_set(spec, S).evaluator(g)
    return val if isinstance(val, Fraction) else Fraction(val)


def chi_from_vector(spec: GroupSpec, xi: L2Vector) -> PdFunction:
    """The matrix coefficient t -> <left-translate of xi by t, xi>.

    Concretely chi(t) = sum_h conj(k_{th}) k_h over the support of xi.
    For xi the normalized indicator of S this agrees with chi_from_set(S).
    """
    entries = {g: complex(v) for g, v in xi.entries.items()}
    for g in entries:
        spec.validate(g)
    supp = list(entries)
    support = frozenset(
        spec.multiply(a, spec.inverse(b)) for a in supp for b in supp
    )

    def evaluate(t):
        total = 0j
        for h, kh in entries.items():
            th = spec.multiply(t, h)
            kth = entries.get(th)
            if kth is not None:
                total += kth.conjugate() * kh
        return total

    return PdFunction(spec, evaluate, support=support, label="chi_xi")


def haagerup(spec: GroupSpec, eps: float) -> PdFunction:
    """Exponential length decay t -> exp(-eps * l(t)), eps > 0."""
    if eps <= 0:
        raise ValueError(f"decay rate must be positive, got {eps}")
    return PdFunction(
        spec,
        lambda t: math.exp(-eps * spec.word_length(t)),
        support=None,
        label=f"exp(-{eps}*l)",
        radial=True,
    )


def pointwise_product(f: PdFunction, g: PdFunction) -> PdFunction:
    if f.spec != g.spec:
        raise SpecMismatchError("functions live on different groups")
    if f.support is not None and g.support is not None:
        support = f.support & g.support
    elif f.support is not None:
        support = f.support
    else:
        support = g.support
    return PdFunction(
        f.spec,
        lambda t: f(t) * g(t),
        support=support,
        label=f"({f.label})*({g.label})",
        radial=f.radial and g.radial,
    )


def convex_combination(terms: Sequence[Tuple[float, PdFunction]]) -> PdFunction:
    if not terms:
        raise ValueError("no terms")
    weights = [w for w, _ in terms]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > IDENTITY_TOL:
        raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")
    spec = terms[0][1].spec
    if any(f.spec != spec for _, f in terms):
        raise SpecMismatchError("functions live on different groups")
    supports = [f.support for _, f in terms]
    if all(s is not None for s in supports):
        support = frozenset().union(*supports)
    else:
        support = None
    return PdFunction(
        spec,
        lambda t: sum(w * f(t) for w, f in terms),
        support=support,
        label="convex",
        radial=all(f.radial for _, f in terms),
    )


def gram_matrix(f: PdFunction, window: Ball) -> np.ndarray:
    """The matrix [f(g h^-1)] over the window, in window order."""
    if len(window) == 0:
        raise ValueError("window must be nonempty")
    spec = window.spec
    if f.spec != spec:
        raise SpecMismatchError("function and window groups differ")
    n = len(window)
    out = np.empty((n, n), dtype=complex)
    if f.radial:
        _fill_by_length(f, window, out)
        return out
    inverses = [spec.inverse(h) for h in window]
    for j, hinv in enumerate(inverses):
        for i, g in enumerate(window):
            out[i, j] = f(spec.multiply(g, hinv))
    return out


def _fill_by_length(f: PdFunction, window: Ball, out: np.ndarray) -> None:
    """Fill the Gram of a radial f from the window's quotient-length table.

    f is called once per distinct length, at the first entry of that
    length in the per-entry loop's column-major order, so each entry holds
    the value that loop would have computed there.
    """
    spec = window.spec
    lengths = spec.quotient_lengths(window.elements)
    for ell in range(int(lengths.max()) + 1):
        mask = lengths == ell
        hit = mask.any(axis=0)
        if not hit.any():
            continue
        j = int(np.argmax(hit))
        i = int(np.argmax(mask[:, j]))
        value = f(spec.multiply(window[i], spec.inverse(window[j])))
        np.copyto(out, value, where=mask)


def check_positive_definite(
    f: PdFunction, window: Ball, tolerance: Optional[float] = None
) -> PsdReport:
    """Eigenvalue witness: Pass iff min eig of the symmetrized Gram >= -tol.

    Default tolerance is 1e-8 * max(1, spectral norm), sized for dense
    double-precision Gram matrices up to a few thousand rows.
    """
    # symmetrized in place: (G + G^*) / 2 with two n^2 arrays alive, not three
    herm = gram_matrix(f, window)
    herm += herm.conj().T
    herm /= 2.0
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs[0])
    if tolerance is None:
        tolerance = 1e-8 * max(1.0, float(np.max(np.abs(eigs))))
    verdict = "Pass" if min_eig >= -tolerance else "Fail"
    return PsdReport(
        ball_radius=window.radius,
        gram_dimension=len(window),
        min_eigenvalue=min_eig,
        tolerance=float(tolerance),
        verdict=verdict,
    )


def folner_set(spec: GroupSpec, n: int) -> List[Element]:
    """The n-th member of the built-in averaging-set sequence.

    Intervals {0..n} for the integers, boxes {0..n}^d for lattices, the
    whole group for finite cyclic groups, and componentwise products.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if isinstance(spec, Integers):
        return list(range(n + 1))
    if isinstance(spec, Cyclic):
        return list(range(spec.n))
    if isinstance(spec, ProductGroup):
        out = [()]
        for f in spec.factors:
            part = folner_set(f, n)
            out = [v + (x,) for v in out for x in part]
        return out
    raise SpecMismatchError(f"no averaging sequence for {spec.label}")


def _folner_shift(spec: GroupSpec, n: int, t: Element) -> List[Tuple[int, int]]:
    """(axis, coordinate of t) pairs for F_n and its translate tF_n: an
    axis is 0 for a Z coordinate, which runs over {0..n}, and m for a C_m
    factor, which F_n fills."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return list(zip(spec.axes(), spec.coordinates(t)))


def folner_size(spec: GroupSpec, n: int) -> int:
    """|F_n|: n + 1 per Z coordinate times the order of each cyclic factor."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return math.prod(m or n + 1 for m in spec.axes())


def folner_overlap(spec: GroupSpec, n: int, t: Element) -> Fraction:
    """Exact |F_n meet tF_n| / |F_n| for the built-in sequence.

    A box meets its translate in a box: each Z coordinate keeps
    max(0, n+1-|t_i|) of its n+1 values, and a cyclic factor, which F_n
    fills, keeps all of them.
    """
    size = overlap = 1
    for m, x in _folner_shift(spec, n, t):
        size *= m or n + 1
        overlap *= m or max(0, n + 1 - abs(x))
    return Fraction(overlap, size)


def folner_defect(spec: GroupSpec, n: int, t: Element) -> Fraction:
    """Exact |tF_n symdiff F_n| / |F_n|, counted over enumerated elements.

    Both sets are enumerated as mixed-radix int64 codes, one digit per
    coordinate: a Z coordinate in the radix n+1+|t_i| after an offset that
    makes both intervals nonnegative, a C_m coordinate as (x + t_i) mod m.
    A Z shift past the box is cut to n+1, which keeps the intervals as
    disjoint and the radices small.
    """
    moved = members = np.zeros(1, dtype=np.int64)
    for m, x in _folner_shift(spec, n, t):
        if m:
            radix, digits = m, np.arange(m)
            shifted = (digits + x) % m
        else:
            x = max(-(n + 1), min(x, n + 1))
            radix, digits = n + 1 + abs(x), np.arange(n + 1) - min(x, 0)
            shifted = digits + x
        members = np.add.outer(members * radix, digits).ravel()
        moved = np.add.outer(moved * radix, shifted).ravel()
    differ = len(np.setxor1d(members, moved, assume_unique=True))
    return Fraction(differ, len(members))


def folner_eigenvalues(
    spec: GroupSpec, ball_radii: Sequence[int], t: Element
) -> List[Fraction]:
    """Per-index overlap values chi_n(t), each an exact rational in [0,1]."""
    spec.validate(t)
    return [folner_overlap(spec, n, t) for n in ball_radii]
