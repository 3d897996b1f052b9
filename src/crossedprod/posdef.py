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
Every other function is evaluated once per entry.  Either way the Gram is
float64 when its values are real, and complex128 otherwise.

On a ball of a free group the real Gram of a radial function commutes
with the symmetries of the Cayley tree that fix the identity, so its
spectrum is that of a few blocks of size at most radius + 1, each read
off the Gram by sums over sphere and subtree index sets.  Every other
Gram, and one whose blocks fail their dimension and Frobenius checks,
goes to one dense eigensolve.

The built-in averaging sets F_n of an amenable group are boxes: {0..n}
per Z coordinate times every finite cyclic factor.  folner_overlap gives
|F_n meet tF_n| / |F_n| in closed form, and folner_defects counts the
symmetric differences of every requested radius over one enumeration of
the largest box, so the identity overlap = 1 - defect/2 checks one
against the other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
# relative gap allowed between a Gram's squared Frobenius norm and the sum
# of its squared tree-block eigenvalues
FROBENIUS_RTOL = 1e-10


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
        """The fields by name; JSON output sorts the keys."""
        return asdict(self)


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

    return PdFunction(spec, evaluate, support=support)


def haagerup(spec: GroupSpec, eps: float) -> PdFunction:
    """Exponential length decay t -> exp(-eps * l(t)), eps > 0."""
    if eps <= 0:
        raise ValueError(f"decay rate must be positive, got {eps}")
    return PdFunction(
        spec,
        lambda t: math.exp(-eps * spec.word_length(t)),
        support=None,
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
        radial=all(f.radial for _, f in terms),
    )


def gram_matrix(f: PdFunction, window: Ball) -> np.ndarray:
    """The matrix [f(g h^-1)] over the window, in window order.

    The dtype follows the values: float64 when every entry's imaginary
    part is exactly 0, as for a real-valued f, and complex128 otherwise.
    """
    if len(window) == 0:
        raise ValueError("window must be nonempty")
    spec = window.spec
    if f.spec != spec:
        raise SpecMismatchError("function and window groups differ")
    if f.radial:
        return _gram_by_length(f, window)
    n = len(window)
    out = np.empty((n, n), dtype=complex)
    inverses = [spec.inverse(h) for h in window]
    for j, hinv in enumerate(inverses):
        for i, g in enumerate(window):
            out[i, j] = f(spec.multiply(g, hinv))
    return _real_if_exact(out)


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a itself if any imaginary part is nonzero, else its real part as a
    float64 copy, so the complex array can be freed."""
    return a if a.imag.any() else a.real.copy()


def _gram_by_length(f: PdFunction, window: Ball) -> np.ndarray:
    """The Gram of a radial f, gathered from a table of its value per length.

    f is called once per distinct length, at the first entry of that
    length in the per-entry loop's column-major order, so each entry holds
    the value that loop would have computed there.  The table is real
    when every value is, and the Gram is one gather ``table[lengths]``.
    """
    spec = window.spec
    lengths = spec.quotient_lengths(window.elements)
    values = [0j] * (int(lengths.max()) + 1)
    for ell in range(len(values)):
        mask = lengths == ell
        hit = mask.any(axis=0)
        if not hit.any():
            continue
        j = int(np.argmax(hit))
        i = int(np.argmax(mask[:, j]))
        values[ell] = f(spec.multiply(window[i], spec.inverse(window[j])))
    return _real_if_exact(np.array(values, dtype=complex))[lengths]


def check_positive_definite(
    f: PdFunction, window: Ball, tolerance: Optional[float] = None
) -> PsdReport:
    """Eigenvalue witness: Pass iff min eig of the symmetrized Gram >= -tol.

    The Gram is float64 when f's values on the window are real, so the
    real symmetric eigensolver runs; otherwise it is complex128 and the
    Hermitian one runs.  A real Gram of a radial f on a free-group ball
    has its spectrum read off the tree blocks of _tree_spectrum, each of
    size at most radius + 1; every other Gram, and one whose blocks fail
    their checks, takes the dense n x n eigensolve.  Default tolerance is
    1e-8 * max(1, spectral norm), sized for dense double-precision Gram
    matrices up to a few thousand rows.
    """
    # symmetrized in place: (G + G^*) / 2 with two n^2 arrays alive, not three
    herm = gram_matrix(f, window)
    herm += herm.conj().T
    herm /= 2.0
    eigs = _tree_spectrum(f, window, herm)
    if eigs is None:
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


def _tree_spectrum(
    f: PdFunction, window: Ball, herm: np.ndarray
) -> Optional[np.ndarray]:
    """The spectrum, ascending and with multiplicities, of the real
    symmetrized Gram of a radial f on a ball B_R of F_k, read off its tree
    blocks; None when f is not radial, the Gram is complex, the window is
    not B_R in length order, or the blocks fail their checks.

    Under d(g, h) = |g h^-1| the ball is a rooted tree whose vertex w has
    as descendants the words that end in w, and a radial Gram commutes
    with the tree automorphisms that fix e (Haagerup 1979;
    Figa-Talamanca and Picardello 1983, ch. 3).  So l2(B_R) splits into
    the radial functions and, for each vertex w at depth p < R, the
    functions that depend only on the depth below each child of w, with
    child weights summing to 0.  The Gram acts on the first as an
    (R + 1)-square block, and on each of the others as one (R - p)-square
    block, repeated |S_p| (c - 1) times for the c children of a depth-p
    vertex.  Each block is the Gram compressed onto one orthonormal basis
    of its piece: the normalized sphere indicators, and for p the
    normalized differences of the depth-j descendants of two children
    of one depth-p word.  Its entries are sums of Gram entries over
    those index sets, never a BLAS product, so they do not depend on the
    BLAS thread count.

    The blocks are kept only if their sizes times multiplicities add up
    to n and the squared Frobenius norm of the Gram equals the sum of the
    squared eigenvalues, with multiplicity, to FROBENIUS_RTOL: a Gram
    that is not radial fails the second check.
    """
    spec = window.spec
    if not (f.radial and isinstance(spec, FreeGroup) and herm.dtype == np.float64):
        return None
    k, R, n = spec.k, window.radius, len(window)
    q = 2 * k - 1
    spheres = np.array([1] + [2 * k * q ** (j - 1) for j in range(1, R + 1)])
    lengths = np.array([len(w) for w in window], dtype=np.int64)
    if not np.array_equal(lengths, np.repeat(np.arange(R + 1), spheres)):
        return None
    # letters right-aligned, 0 on the left of a short word: a word ends in
    # c exactly when its last len(c) columns equal c
    letters = np.array([(0,) * (R - len(w)) + w for w in window], dtype=np.int64)
    blocks = [(_compress(herm, spheres), 1)]
    for p in range(R):
        mult = int(spheres[p]) * ((2 * k if p == 0 else q) - 1)
        if mult == 0:
            continue
        # two children of the depth-p word a^p: a^(p+1), and A (p = 0) or
        # b a^p (p > 0); each has q^(j-p-1) descendants at depth j
        tail = (1,) * p
        ends = [_ends_in(letters, (c,) + tail) for c in (1, 2 if p else -1)]
        sizes = q ** np.arange(R - p)
        for e in ends:
            below = np.bincount(lengths[e], minlength=R + 1)[p + 1 :]
            if not np.array_equal(below, sizes):
                return None
        idx = np.concatenate(ends)
        order = np.argsort(lengths[idx], kind="stable")
        signs = np.repeat([1.0, -1.0], [len(e) for e in ends])[order]
        blocks.append((_compress(herm, 2 * sizes, idx[order], signs), mult))
    spectrum = np.concatenate(
        [np.repeat(np.linalg.eigvalsh(block), mult) for block, mult in blocks]
    )
    if len(spectrum) != n:
        return None
    frob = float(np.vdot(herm, herm))
    if not abs(float(np.dot(spectrum, spectrum)) - frob) <= FROBENIUS_RTOL * frob:
        return None
    return np.sort(spectrum)


def _ends_in(letters: np.ndarray, c: Tuple[int, ...]) -> np.ndarray:
    """Window indices of the words that end in c, in window order."""
    return np.flatnonzero(np.all(letters[:, letters.shape[1] - len(c) :] == c, axis=1))


def _compress(
    herm: np.ndarray,
    sizes: np.ndarray,
    idx: Optional[np.ndarray] = None,
    signs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The Gram compressed onto the unit vectors v_u = sum of signs over
    the u-th run of sizes[u] consecutive entries of idx (all of the window
    when idx is None), over sqrt(sizes[u]): entry (u, v) is the signed sum
    of the Gram over run u times run v, added by np.add.reduceat."""
    sub = herm if idx is None else herm[np.ix_(idx, idx)] * np.outer(signs, signs)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    sums = np.add.reduceat(np.add.reduceat(sub, starts, axis=0), starts, axis=1)
    norms = np.sqrt(sizes.astype(float))
    return sums / np.outer(norms, norms)


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


def folner_defects(spec: GroupSpec, t: Element, radii: Sequence[int]) -> List[Fraction]:
    """Exact |tF_n symdiff F_n| / |F_n| for each n in radii, in their order,
    counted over one enumeration of F_N for N = max(radii).

    The boxes are nested, and v lies in F_n exactly when n >= inside(v),
    its largest Z coordinate, and in F_n meet tF_n exactly when
    n >= need(v), the larger of inside(v) and the Z coordinates of t^-1 v.
    need is N+1 (never) when t^-1 v has a negative Z coordinate; a C_m
    coordinate never limits either.  One bincount and one cumsum of each
    give |F_n| and |F_n meet tF_n| for every n <= N, and the defect is
    2(|F_n| - |F_n meet tF_n|) / |F_n|, since tF_n and F_n have one size.
    """
    radii = list(radii)
    for n in radii:
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
    top = max(radii, default=0)
    shift = _folner_shift(spec, top, t)
    if not radii:
        return []
    inside, need = _folner_levels(shift, top)
    # the counts run to the largest level an element needs: N with a Z
    # factor, 0 without one, where F_n is the whole group at every n
    sizes = np.cumsum(np.bincount(inside))
    kept = np.cumsum(np.bincount(need, minlength=len(sizes)))
    at = [min(n, len(sizes) - 1) for n in radii]
    return [Fraction(2 * int(sizes[m] - kept[m]), int(sizes[m])) for m in at]


def _folner_levels(shift: List[Tuple[int, int]], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """inside(v) and need(v) for each element v of F_n, in mixed-radix
    order, one (axis, coordinate of t) pair of shift per digit.

    need is n+1 where it is infinite, and may exceed n elsewhere.  A Z
    shift past the box is cut to n+1: t^-1 v then still leaves the box on
    that axis, and the int64 arithmetic cannot overflow.
    """
    inside = need = np.zeros(1, dtype=np.int64)
    for m, x in shift:
        if m:
            inside, need = np.repeat(inside, m), np.repeat(need, m)
            continue
        digits = np.arange(n + 1)
        back = digits - max(-(n + 1), min(x, n + 1))
        back[back < 0] = n + 1
        inside = np.maximum.outer(inside, digits).ravel()
        need = np.maximum.outer(need, np.maximum(digits, back)).ravel()
    return inside, need
