"""Vector-averaged completely positive maps and expectation pairs.

The central map sends a window operator x to

    sum over g, h of  L_{g h^-1} Psi(alpha_h(pi(x_{(g,h)}))) conj(k_g) k_h

for a unit vector xi = (k_g).  It is unital, completely positive and
bimodular over the embedded algebra, and every translate L_t Psi(r) is an
eigenvector with eigenvalue chi_xi(t) = <translate of xi by t, xi>.

A strictly positive xi yields an expectation pair (chi, sigma): the
eigenvalue function together with the map, satisfying the diagonal bound
||Diag(L_{g^-1} sigma(x))|| <= chi(g) ||x||.  Inverting the eigenvalues
gives the idempotent pi_projection onto the crossed-product span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import freecomb
from .crossed import (
    BlockMatrix,
    CrossedContext,
    dual_blocks,
    empty_blocks,
    fourier_coefficient,
    op_norm,
    phi_hom,
    psi,
    span_min_eigenvalues,
    span_norms,
    theta_embed,
)
from .errors import (
    ConfigError,
    MarginError,
    NotInDomainError,
    NotPositiveError,
    NotUnitalError,
    SpecMismatchError,
)
from .groups import Element, FreeGroup, GroupSpec
from .posdef import L2Vector, PdFunction, chi_from_vector, folner_overlap

UNITAL_TOL = 1e-12
CHI_FLOOR = 1e-14


def _support(ctx: CrossedContext, xi: L2Vector) -> Tuple[np.ndarray, np.ndarray]:
    """Window slots of the nonzero entries k_i of xi, and the (s, s, 1, 1)
    weights conj(k_i) k_j over pairs (i, j) of them."""
    idx = ctx.window.index_of
    slots, k = [], []
    for g, v in xi.entries.items():
        v = complex(v)
        if v == 0:
            continue
        i = idx.get(g)
        if i is None:
            raise MarginError(
                f"vector entry at {ctx.group.format_element(g)} lies outside "
                f"the window"
            )
        slots.append(i)
        k.append(v)
    k = np.array(k, dtype=complex)
    weights = k.conj()[:, None] * k[None, :]
    return np.array(slots, dtype=np.int64), weights[:, :, None, None]


def _check_margin(ctx: CrossedContext, slots: np.ndarray):
    if ctx.group.is_finite():
        return
    if (ctx.rel_table[np.ix_(slots, slots)] < 0).any():
        raise MarginError(
            "support products leave the window; enlarge the window "
            "or shrink the vector support"
        )


def sigma_coefficients(
    ctx: CrossedContext, xi: L2Vector, x: BlockMatrix
) -> np.ndarray:
    """Coefficient stack of the averaged map, aligned with the window."""
    slots, weights = _support(ctx, xi)
    _check_margin(ctx, slots)
    rows, cols = slots[:, None], slots[None, :]
    terms = weights * ctx.alpha_by_perm(
        ctx.perm_index[slots], ctx.expectation.apply(x.blocks()[rows, cols])
    )
    d = ctx.d
    coeffs = np.zeros((ctx.nwin, d, d), dtype=complex)
    # unbuffered and in (i, j) order, as a loop over the pairs would add
    np.add.at(coeffs, ctx.rel_table[rows, cols].ravel(), terms.reshape(-1, d, d))
    return coeffs


def sigma_xi(ctx: CrossedContext, xi: L2Vector, x: BlockMatrix) -> BlockMatrix:
    """Apply the averaged map; the result lies in the crossed-product span."""
    return theta_embed(ctx, sigma_coefficients(ctx, xi, x))


def tau_u(ctx: CrossedContext, xi: L2Vector, u: Element, x: BlockMatrix) -> BlockMatrix:
    """One term of the translation decomposition of the averaged map.

    Places conj(k_g) k_h alpha_u(pi(x_{(g,h)})) at block (g u^-1, h u^-1);
    summing over the whole group recovers sigma_xi.  Finite groups only.
    """
    if not ctx.group.is_finite():
        raise SpecMismatchError("the translation decomposition needs a finite group")
    ctx.group.validate(u)
    slots, weights = _support(ctx, xi)
    # right translation by u^-1 permutes the window, so no two pairs collide
    moved = ctx.rel_table[slots, ctx.window.index(u)]
    out = ctx.zero()
    out.blocks()[moved[:, None], moved[None, :]] = weights * ctx.alpha_by_perm(
        ctx.action.perm(u, ctx.d),
        ctx.expectation.apply(x.blocks()[slots[:, None], slots[None, :]]),
    )
    return out


def chi_of(ctx: CrossedContext, xi: L2Vector) -> PdFunction:
    """The eigenvalue function of the averaged map."""
    return chi_from_vector(ctx.group, xi)


def phi_t(
    ctx: CrossedContext,
    xi: L2Vector,
    t: Element,
    x: BlockMatrix,
    chi: Optional[PdFunction] = None,
) -> np.ndarray:
    """Normalized coefficient of the averaged map at translate t.

    Returns the algebra element chi(t)^-1 sum_h alpha_h(pi(x_{(th,h)}))
    conj(k_{th}) k_h; a contraction in the operator norm.
    """
    ctx.group.validate(t)
    if chi is None:
        chi = chi_of(ctx, xi)
    chival = complex(chi(t))
    if abs(chival) <= CHI_FLOOR:
        raise NotInDomainError(
            f"eigenvalue at {ctx.group.format_element(t)} vanishes"
        )
    slots, weights = _support(ctx, xi)
    # support-grid pairs (a, b) with g_a = t g_b, in the order of b
    b, a = np.nonzero(slots[None, :] == ctx.left_index(t)[slots][:, None])
    i, j = slots[a], slots[b]
    terms = weights[a, b] * ctx.alpha_by_perm(
        ctx.perm_index[j], ctx.expectation.apply(x.blocks()[i, j])
    )
    acc = np.zeros((1, ctx.d, ctx.d), dtype=complex)
    # unbuffered and in the order of b, as a loop over the support would add
    np.add.at(acc, np.zeros(len(terms), dtype=np.int64), terms)
    return acc[0] / chival


@dataclass(frozen=True)
class ExpectationPair:
    """A strictly positive eigenvalue function with its averaged map."""

    ctx: CrossedContext
    chi: PdFunction
    apply: Callable[[BlockMatrix], BlockMatrix]
    xi: Optional[L2Vector] = None

    def sigma(self, x: BlockMatrix) -> BlockMatrix:
        return self.apply(x)

    @cached_property
    def chi_values(self) -> np.ndarray:
        """chi at every window slot, evaluated once per pair; read-only,
        since every caller shares it."""
        vals = np.array([self.chi(g) for g in self.ctx.window], dtype=complex)
        vals.flags.writeable = False
        return vals

    @cached_property
    def unital_defect(self) -> float:
        """op_norm(sigma(I) - I), measured once per pair."""
        ident = self.ctx.identity_matrix()
        return op_norm(self.sigma(ident) - ident)


def make_pair(ctx: CrossedContext, xi: L2Vector) -> ExpectationPair:
    """Build an expectation pair from a strictly positive unit vector.

    Finite groups require the support to cover the whole group.  Infinite
    groups run in margin mode: support products must stay inside the
    window, and the eigenvalue function must be strictly positive there.
    """
    if not xi.is_strictly_positive():
        raise ValueError("vector entries must be strictly positive")
    supp = xi.support()
    if ctx.group.is_finite():
        if supp != frozenset(ctx.window.elements):
            raise ValueError(
                "support must cover the whole group for a finite-group pair"
            )
    else:
        _check_margin(ctx, _support(ctx, xi)[0])
    pair = ExpectationPair(
        ctx, chi_of(ctx, xi), lambda x: sigma_xi(ctx, xi, x), xi=xi
    )
    vals = pair.chi_values
    bad = np.flatnonzero(~(vals.real > CHI_FLOOR) | (np.abs(vals.imag) > UNITAL_TOL))
    if bad.size:
        i = int(bad[0])
        raise NotPositiveError(
            f"eigenvalue at {ctx.group.format_element(ctx.window[i])} is not "
            f"strictly positive: {complex(vals[i])}"
        )
    defect = pair.unital_defect
    if defect > UNITAL_TOL:
        raise NotUnitalError(f"map is not unital: defect {defect:.3e}")
    return pair


def pair_convex(terms: Sequence[Tuple[float, ExpectationPair]]) -> ExpectationPair:
    """Convex combination of expectation pairs over one context."""
    if not terms:
        raise ValueError("no terms")
    weights = [w for w, _ in terms]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > UNITAL_TOL:
        raise ValueError(f"weights must be nonnegative and sum to 1: {weights}")
    ctx = terms[0][1].ctx
    if any(p.ctx is not ctx for _, p in terms):
        raise SpecMismatchError("pairs live on different contexts")
    from .posdef import convex_combination

    chi = convex_combination([(w, p.chi) for w, p in terms])

    def apply(x):
        out = ctx.zero()
        for w, p in terms:
            out = out + w * p.sigma(x)
        return out

    return ExpectationPair(ctx, chi, apply, xi=None)


@dataclass(frozen=True)
class CpReport:
    """Numerical evidence record for the property suite of an averaged map."""

    amplification_level: int
    trials: int
    min_eigenvalue_seen: float
    max_bimodular_defect: float
    max_eigenrelation_defect: float
    condition_ii_margin: float
    verdict: str

    def to_json(self) -> dict:
        def clean(v):
            return None if isinstance(v, float) and v != v else v

        return {
            "amplification_level": self.amplification_level,
            "trials": self.trials,
            "min_eigenvalue_seen": clean(self.min_eigenvalue_seen),
            "max_bimodular_defect": clean(self.max_bimodular_defect),
            "max_eigenrelation_defect": clean(self.max_eigenrelation_defect),
            "condition_ii_margin": clean(self.condition_ii_margin),
            "verdict": self.verdict,
        }


def random_psd(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return a.conj().T @ a


def random_window_operator(ctx: CrossedContext, rng: np.random.Generator) -> BlockMatrix:
    n = ctx.dim
    return ctx.wrap(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_crossed_element(ctx: CrossedContext, rng: np.random.Generator) -> BlockMatrix:
    """A random element of the crossed-product span (via coefficients)."""
    coeffs = np.stack([
        ctx.algebra.random_member(rng) for _ in range(ctx.nwin)
    ])
    return theta_embed(ctx, coeffs)


def cp_check(
    ctx: CrossedContext,
    apply: Callable[[BlockMatrix], BlockMatrix],
    chi: Optional[PdFunction] = None,
    amplification: int = 1,
    trials: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> CpReport:
    """Positivity, bimodularity, and eigenrelation sweep for an averaged map.

    Applies the amplified map entrywise to random PSD inputs of the
    amplified size and records the worst eigenvalue; bimodularity is
    checked against random algebra sandwiches, and the eigenrelation
    against every window translate when chi is supplied.  Every output
    must lie in the crossed-product span (NotInCrossedProductError
    otherwise): eigenvalues and norms come from its dual-group blocks,
    one batched eigensolve per check.  A failing verdict names the trial
    of the worst eigenvalue.
    """
    if amplification < 1:
        raise ValueError("amplification must be >= 1")
    if trials < 1:
        # an empty sweep would report Pass with min_eigenvalue_seen = inf
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n = ctx.dim
    m = amplification
    blocks, residuals = empty_blocks(ctx, trials, m)
    for t in range(trials):
        z = random_psd(rng, m * n)
        grid = [
            [apply(ctx.wrap(z[p * n : (p + 1) * n, q * n : (q + 1) * n])) for q in range(m)]
            for p in range(m)
        ]
        blocks[t], residuals[t] = dual_blocks(ctx, grid)
    lows = span_min_eigenvalues(blocks, residuals)
    worst = int(np.argmin(lows))
    min_eig = float(lows[worst])

    blocks, residuals = empty_blocks(ctx, max(1, trials // 4))
    for t in range(len(blocks)):
        r = ctx.algebra.random_member(rng)
        s = ctx.algebra.random_member(rng)
        x = random_window_operator(ctx, rng)
        pr = psi(ctx, r)
        ps = psi(ctx, s)
        lhs = apply(pr @ x @ ps)
        rhs = pr @ apply(x) @ ps
        blocks[t], residuals[t] = dual_blocks(ctx, lhs - rhs)
    max_bimod = float(np.max(span_norms(blocks, residuals)))

    max_eigrel = 0.0
    if chi is not None:
        blocks, residuals = empty_blocks(ctx, ctx.nwin)
        for t, g in enumerate(ctx.window):
            r = ctx.algebra.random_member(rng)
            xg = theta_embed(ctx, {g: r})
            blocks[t], residuals[t] = dual_blocks(ctx, apply(xg) - complex(chi(g)) * xg)
        max_eigrel = float(np.max(span_norms(blocks, residuals)))

    verdict = "Pass"
    if not min_eig >= -tol:
        verdict = f"Fail(trial={worst}, min_eigenvalue={min_eig:.3e})"
    return CpReport(
        amplification_level=m,
        trials=trials,
        min_eigenvalue_seen=float(min_eig),
        max_bimodular_defect=float(max_bimod),
        max_eigenrelation_defect=float(max_eigrel),
        condition_ii_margin=float("nan"),
        verdict=verdict,
    )


def check_condition_ii(
    pair: ExpectationPair,
    samples: Optional[Sequence[BlockMatrix]] = None,
    trials: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> CpReport:
    """Diagonal-compression bound sweep.

    For every window g and each sample x, the compressed diagonal norm
    ||Diag(L_{g^-1} sigma(x))|| must stay below chi(g) ||x||; the report
    carries the worst margin (bound minus value; negative = violation).
    """
    ctx = pair.ctx
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [random_window_operator(ctx, rng) for _ in range(trials)]
    if len(samples) == 0:
        # an empty sweep would report Pass with an infinite margin
        raise ConfigError("no samples: give trials >= 1 or a non-empty samples list")
    chis = pair.chi_values.real
    margin = np.inf
    witness = None
    for si, x in enumerate(samples):
        sx = pair.sigma(x)
        xnorm = op_norm(x)
        for g, chi in zip(ctx.window, chis):
            lhs = op_norm(fourier_coefficient(ctx, sx, g))
            bound = float(chi) * xnorm
            gap = bound - lhs
            if gap < margin:
                margin = gap
                witness = (si, g)
        if margin < -tol:
            break
    verdict = "Pass" if margin >= -tol else "Fail"
    if verdict == "Fail" and witness is not None:
        si, g = witness
        verdict = (
            f"Fail(sample={si}, g={ctx.group.format_element(g)}, "
            f"margin={margin:.3e})"
        )
    return CpReport(
        amplification_level=1,
        trials=len(samples),
        min_eigenvalue_seen=float("nan"),
        max_bimodular_defect=float("nan"),
        max_eigenrelation_defect=float("nan"),
        condition_ii_margin=float(margin),
        verdict=verdict,
    )


def _chi_divisors(pair: ExpectationPair) -> np.ndarray:
    """pair.chi_values, or NotInDomainError at the first slot whose
    eigenvalue is at or below the floor."""
    low = np.flatnonzero(np.abs(pair.chi_values) <= CHI_FLOOR)
    if low.size:
        g = pair.ctx.window[int(low[0])]
        raise NotInDomainError(
            f"eigenvalue underflow at {pair.ctx.group.format_element(g)}"
        )
    return pair.chi_values


def pi_projection(pair: ExpectationPair, x: BlockMatrix) -> BlockMatrix:
    """The idempotent: invert the eigenvalues on the coefficient series.

    Identity on the crossed-product span.  Eigenvalues below the floor
    mean the windowed inversion is meaningless; that is the finite-scale
    analogue of falling outside the domain.
    """
    coeffs = phi_hom(pair.ctx, pair.sigma(x))
    return theta_embed(pair.ctx, coeffs / _chi_divisors(pair)[:, None, None])


def pi_amplification(pair: ExpectationPair, x: BlockMatrix) -> float:
    """Window-scale domain surrogate: the largest coefficient inflation.

    Reports max over window g of ||coefficient of sigma(x) at g|| / chi(g);
    boundedness of the idempotent is undecidable at a finite window, so
    the inflation factor is surfaced instead of a verdict.
    """
    coeffs = phi_hom(pair.ctx, pair.sigma(x))
    norms = np.linalg.norm(coeffs, 2, axis=(-2, -1))
    return float(np.max(norms / np.abs(_chi_divisors(pair)), initial=0.0))


@dataclass(frozen=True)
class StudyRow:
    """One (radius, element) row of an eigenvalue convergence study."""

    radius: int
    label: str
    value: Fraction
    bound: Fraction
    margin: Fraction

    def to_csv_fields(self) -> List[str]:
        return [
            str(self.radius),
            self.label,
            repr(float(self.value)),
            repr(float(self.bound)),
            repr(float(self.margin)),
        ]


@dataclass(frozen=True)
class StudyTable:
    rows: Tuple[StudyRow, ...]
    monotone: Dict[str, bool]

    CSV_HEADER = ("radius", "g_label", "value", "bound", "margin")


def sequence_limit_study(
    spec: GroupSpec,
    ball_radii: Sequence[int],
    targets: Sequence[Element],
) -> StudyTable:
    """Exact ball-indicator eigenvalues against their analytic limits.

    For each target translate t and each radius n the table holds the
    overlap eigenvalue chi_n(t), the limit value (1 on amenable groups,
    the even/odd closed form on free groups), and the distance to it.
    Any other group raises SpecMismatchError at the first target.
    """
    free = isinstance(spec, FreeGroup)
    rows = []
    monotone: Dict[str, bool] = {}
    for t in targets:
        spec.validate(t)
        label = spec.format_element(t)
        if free:
            limit = freecomb.chi_limit_free(spec.k, spec.word_length(t))
            values = [freecomb.chi_ratio(spec.k, t, n) for n in ball_radii]
        else:
            limit = Fraction(1)
            values = [folner_overlap(spec, n, t) for n in ball_radii]
        errors = [abs(v - limit) for v in values]
        monotone[label] = all(b < a for a, b in zip(errors, errors[1:]))
        for n, v, err in zip(ball_radii, values, errors):
            rows.append(StudyRow(n, label, v, limit, err))
    return StudyTable(tuple(rows), monotone)

