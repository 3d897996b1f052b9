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

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .crossed import (
    BlockMatrix,
    CrossedContext,
    Normals,
    SpanElement,
    fourier_coefficient,
    grid_blocks,
    op_norm,
    phi_hom,
    span_check,
    span_coefficients,
    span_min_eigenvalues,
    span_norms,
    standard_normals,
    theta_embed,
)
from .errors import (
    ConfigError,
    MarginError,
    NotInDomainError,
    NotPositiveError,
    NotUnitalError,
    PartialSupportError,
    SpecMismatchError,
    VectorNotPositiveError,
)
from .groups import Element
from .posdef import L2Vector, PdFunction, chi_from_vector

UNITAL_TOL = 1e-12
CHI_FLOOR = 1e-14
# the most entries sigma reads from a stack of operators at once (64 KiB of
# complex terms), so that a stack of many operators costs no more memory
# than applying the map to each in turn
STACK_TERMS = 2**12
# the most complex entries a sweep draws at once for a block of its trials;
# a block also draws no more than its check keeps for all its trials, and a
# trial that passes either bound is drawn alone
BLOCK_TERMS = 2**12
# the most Krylov vectors of the lower bound on ||x|| by which condition
# (ii) skips a sample, and the relative slack that widens each of its bounds
NORM_STEPS = 10
BOUND_SLACK = 1e-12


class Support(NamedTuple):
    """Window slots of the nonzero entries k_i of a vector xi, and the
    (s, s) weights conj(k_i) k_j over pairs (i, j) of them."""

    slots: np.ndarray
    weights: np.ndarray


def _support(ctx: CrossedContext, xi: Union[L2Vector, Support]) -> Support:
    """The Support of xi on the window; a Support is returned as it is."""
    if isinstance(xi, Support):
        return xi
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
    return Support(np.array(slots, dtype=np.int64), k.conj()[:, None] * k[None, :])


def _check_margin(ctx: CrossedContext, slots: np.ndarray):
    if ctx.group.is_finite():
        return
    if (ctx.rel_table[np.ix_(slots, slots)] < 0).any():
        raise MarginError(
            "support products leave the window; enlarge the window "
            "or shrink the vector support"
        )


def _expected_terms(
    ctx: CrossedContext,
    x: BlockMatrix,
    i: np.ndarray,
    j: np.ndarray,
    pinv: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """weights * alpha(E(x_{(i, j)})) over the block pairs (i, j), for each
    operator of a stack x, as the flat (..., pairs, K) values at the
    algebra's kept entries, over x's leading axes.

    i, j and weights broadcast against each other; pinv holds the gather
    indices of alpha, one (d,) row per pair or one for all, as in
    alpha_by_perm.  Only the kept entries are read, by x.entries, which
    reads a span element's off its stack: entry (r, c) of pair (i, j) is
    x's entry (i d + pinv[r], j d + pinv[c]).  A full algebra, the scalars
    among them, reads its blocks through ExpectationSpec.apply instead.
    """
    d = ctx.d
    if ctx.algebra.kind == "full":
        k = np.arange(d)
        rows = (i * d)[..., None, None] + k[:, None]
        cols = (j * d)[..., None, None] + k
        blocks = ctx.alpha_by_perm(pinv, ctx.expectation.apply(x.entries(rows, cols)))
        return weights[..., None] * blocks.reshape(blocks.shape[:-2] + (d * d,))
    kr, kc = ctx.algebra.kept
    rows = (i * d)[..., None] + pinv[..., kr]
    cols = (j * d)[..., None] + pinv[..., kc]
    return weights[..., None] * x.entries(rows, cols)


def _as_blocks(ctx: CrossedContext, kept: np.ndarray) -> np.ndarray:
    """The (..., d, d) blocks of (..., K) values at the algebra's kept
    entries, such as sums of _expected_terms, written onto zero blocks."""
    out = np.zeros(kept.shape[:-1] + (ctx.d, ctx.d), dtype=complex)
    out[(...,) + ctx.algebra.kept] = kept
    return out


def sigma_coefficients(
    ctx: CrossedContext, xi: Union[L2Vector, Support], x: BlockMatrix
) -> np.ndarray:
    """Coefficient stack of the averaged map, aligned with the window; for
    a stack of operators, (..., n, d, d) over its leading axes.

    xi is the vector or its Support on ctx's window, as an
    ExpectationPair holds it.  Reads from x only the K entries of each
    support block that the algebra keeps (CoeffAlgebra.kept; see
    _expected_terms), sums them as flat (..., n, K) values and writes
    those onto the blocks (_as_blocks); a span element's are read off its
    stack, so no dense theta(c) is built.  A stack is read in parts along
    its first axis of at most STACK_TERMS entries each, or of one operator.
    """
    slots, weights = _support(ctx, xi)
    _check_margin(ctx, slots)
    rows, cols = slots[:, None], slots[None, :]
    pinv = ctx.perm_index[slots]
    kept = len(ctx.algebra.kept[0])
    lead = x.lead
    coeffs = np.zeros(lead + (ctx.nwin, kept), dtype=complex)
    at = (slice(None),) * len(lead) + (ctx.rel_table[rows, cols].ravel(),)
    per_part = slots.size**2 * kept * math.prod(lead[1:])
    step = max(1, STACK_TERMS // per_part)
    for a in range(0, lead[0], step) if lead else [None]:
        part = x if a is None else x[a : a + step]
        terms = _expected_terms(ctx, part, rows, cols, pinv, weights)
        # unbuffered and in (i, j) order, as a loop over the pairs would add
        out = coeffs if a is None else coeffs[a : a + step]
        np.add.at(out, at, terms.reshape(part.lead + (-1, kept)))
    return _as_blocks(ctx, coeffs)


def sigma_xi(
    ctx: CrossedContext, xi: Union[L2Vector, Support], x: BlockMatrix
) -> SpanElement:
    """Apply the averaged map to an operator or to each of a stack; the
    result lies in the crossed-product span, and carries its
    sigma_coefficients.  xi is as in sigma_coefficients."""
    return SpanElement(ctx, sigma_coefficients(ctx, xi, x))


def tau_u(
    ctx: CrossedContext,
    xi: Union[L2Vector, Support],
    u: Element,
    x: BlockMatrix,
    out: Optional[BlockMatrix] = None,
) -> BlockMatrix:
    """One term of the translation decomposition of the averaged map.

    Adds conj(k_g) k_h alpha_u(pi(x_{(g,h)})) into block (g u^-1, h u^-1)
    of out, a fresh zero operator when out is None, and returns out;
    summing over the whole group recovers sigma_xi, so a caller that
    passes one accumulator to every u makes the same additions in the
    same order as summing the separate terms.  For a stack x, out is a
    stack of the same leading axes and each operator takes its own
    terms.  Finite groups only.  xi is as in sigma_coefficients.
    """
    if not ctx.group.is_finite():
        raise SpecMismatchError("the translation decomposition needs a finite group")
    ctx.group.validate(u)
    slots, weights = _support(ctx, xi)
    ui = ctx.window.index(u)
    # right translation by u^-1 permutes the window, so no two pairs collide
    moved = ctx.rel_table[slots, ui]
    terms = _expected_terms(
        ctx, x, slots[:, None], slots[None, :], ctx.perm_index[ui], weights
    )
    if out is None:
        out = ctx.wrap(np.zeros(x.lead + (ctx.dim, ctx.dim), dtype=complex))
    kr, kc, d = *ctx.algebra.kept, ctx.d
    out.data[..., moved[:, None, None] * d + kr, moved[None, :, None] * d + kc] += terms
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
    terms = _expected_terms(ctx, x, i, j, ctx.perm_index[j], weights[a, b])
    acc = np.zeros((1,) + terms.shape[1:], dtype=complex)
    # unbuffered and in the order of b, as a loop over the support would add
    np.add.at(acc, np.zeros(len(terms), dtype=np.int64), terms)
    return _as_blocks(ctx, acc)[0] / chival


@dataclass(frozen=True)
class ExpectationPair:
    """A strictly positive eigenvalue function chi with its averaged map
    sigma, both from the unit vector xi; make_pair builds and checks one."""

    ctx: CrossedContext
    chi: PdFunction
    xi: L2Vector

    def sigma(self, x: BlockMatrix) -> SpanElement:
        """sigma_xi(x) of an operator or a stack of them, reading the
        support the pair holds."""
        return sigma_xi(self.ctx, self.support, x)

    @cached_property
    def chi_values(self) -> np.ndarray:
        """chi at every window slot, evaluated once per pair; read-only,
        since every caller shares it."""
        vals = np.array([self.chi(g) for g in self.ctx.window], dtype=complex)
        vals.flags.writeable = False
        return vals

    @cached_property
    def support(self) -> Support:
        """The Support of xi on the window, built once per pair; read-only,
        since every application of the map shares it."""
        support = _support(self.ctx, self.xi)
        for a in support:
            a.flags.writeable = False
        return support

    @cached_property
    def unital_defect(self) -> float:
        """||sigma(I) - I||, measured once per pair.

        I is the span element theta({e: 1}) on every window (theta is a
        gather, so on a window of an infinite group its dense data is the
        identity too), read off its stack by sigma; op_norm reads the
        difference off its dual-group blocks on a finite group, densely on
        a window.
        """
        ctx = self.ctx
        unit = theta_embed(ctx, {ctx.group.identity(): ctx.algebra.identity()})
        return op_norm(self.sigma(unit) - unit)


def make_pair(ctx: CrossedContext, xi: L2Vector) -> ExpectationPair:
    """Build an expectation pair from a strictly positive unit vector, and
    check that its eigenvalues are strictly positive and its map unital.

    Finite groups require the support to cover the whole group.  Infinite
    groups run in margin mode: support products must stay inside the
    window, and the eigenvalue function must be strictly positive there.
    """
    if not xi.is_strictly_positive():
        raise VectorNotPositiveError("vector entries must be strictly positive")
    supp = xi.support()
    if ctx.group.is_finite():
        if supp != frozenset(ctx.window.elements):
            raise PartialSupportError(
                "support must cover the whole group for a finite-group pair"
            )
    pair = ExpectationPair(ctx, chi_of(ctx, xi), xi)
    if not ctx.group.is_finite():
        _check_margin(ctx, pair.support.slots)
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
        """The fields by name, a NaN (a metric this check leaves unmeasured)
        as None; JSON output sorts the keys."""
        return {k: None if v != v else v for k, v in asdict(self).items()}


def trial_blocks(trials: int, draws: int, kept: int) -> List[Tuple[int, int]]:
    """(first trial, count) of each block of a sweep whose trials draw
    `draws` complex entries and keep `kept` each: as many trials as draw at
    most BLOCK_TERMS entries, and no more than all trials keep, or one."""
    step = max(1, min(trials, BLOCK_TERMS // draws, trials * kept // draws))
    return [(a, min(step, trials - a)) for a in range(0, trials, step)]


def random_psd(
    rng: np.random.Generator, size: int, classes: int = 1, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The Gram a* a of a (size, size) matrix a of standard complex normals,
    pinched onto `classes` residue classes.

    Column r of a belongs to class r mod classes.  Entry (r, c) of the
    result is that of the full Gram when r = c mod classes and exactly 0
    otherwise: the sum over the classes of (a P)^* (a P), P the
    coordinate projection onto one class, so it is PSD.  One Gram per
    class costs 1/classes of the full product; classes = 1 is the full
    Gram.  The rng draws are the same for every classes.  out, a
    (B, size, size) stack that is 0 off the classes, as a sweep allocates
    it once for all its blocks, takes B Grams in its class entries from
    one draw, as B calls would draw them, and is returned.
    """
    if classes < 1 or size % classes:
        raise SpecMismatchError(f"{size} columns do not split into {classes} classes")
    k = size // classes
    z = np.zeros((1, size, size), dtype=complex) if out is None else out
    # per Gram, the real parts, then the imaginary parts, of a; column r of
    # a is column r // classes of class r % classes
    draws = rng.standard_normal((len(z), 2, size, k, classes))
    cols = np.empty((size, k), dtype=complex)
    for draw, gram in zip(draws, z):
        per_class = gram.reshape(k, classes, k, classes)
        for c in range(classes):
            cols.real, cols.imag = draw[..., c]
            per_class[:, c, :, c] = cols.conj().T @ cols
    return z[0] if out is None else z


def random_window_operator(
    ctx: CrossedContext, rng: Normals, lead: Tuple[int, ...] = ()
) -> BlockMatrix:
    """A window operator of standard complex normals, its real parts, then
    its imaginary parts, from one (2, nd, nd) draw; or a lead-shaped stack
    of them from one draw, as that many calls would draw them."""
    n = ctx.dim
    draw = standard_normals(rng, tuple(lead) + (2, n, n))
    data = np.empty(draw.shape[:-3] + (n, n), dtype=complex)
    data.real, data.imag = draw[..., 0, :, :], draw[..., 1, :, :]
    return ctx.wrap(data)


def random_crossed_element(
    ctx: CrossedContext, rng: Normals, lead: Tuple[int, ...] = ()
) -> SpanElement:
    """A random element of the crossed-product span, one algebra member per
    window slot, from one draw; or a lead-shaped stack of them likewise."""
    return SpanElement(ctx, ctx.algebra.random_member(rng, tuple(lead) + (ctx.nwin,)))


def _sandwich(
    ctx: CrossedContext, r: np.ndarray, x: BlockMatrix, s: np.ndarray
) -> BlockMatrix:
    """psi(r) x psi(s) for algebra elements r and s, or for (..., d, d)
    stacks of them against a stack x of the same leading axes.

    Diagonal block (g, g) of psi(r) = theta({e: r}) is alpha_{g^-1}(r),
    taken for every window slot g in one alpha_by_perm gather, and every
    other block is zero.  For a SpanElement theta(c) of ctx the product is
    the span element theta(c') with c'_t = alpha_{t^-1}(r) c_t s, n
    products of d x d blocks.  Any other x is formed block by block, block
    (i, j) being alpha_{g_i^-1}(r) x_ij alpha_{g_j^-1}(s): n^2 products of
    d x d blocks, not two dense (nd)^3 ones.
    """
    pr = ctx.alpha_by_perm(ctx.inv_perm_index, r[..., None, :, :])
    if isinstance(x, SpanElement) and x.ctx is ctx:
        return SpanElement(ctx, pr @ x.coeffs @ s[..., None, :, :])
    ps = ctx.alpha_by_perm(ctx.inv_perm_index, s[..., None, :, :])
    blocks = pr[..., :, None, :, :] @ x.blocks() @ ps[..., None, :, :, :]
    return ctx.wrap(blocks.swapaxes(-3, -2).reshape(x.data.shape))


def _positivity_blocks(
    ctx: CrossedContext, apply: Callable, rng: np.random.Generator, trials: int, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The (trials, n, md, md) dual blocks and the residuals of apply's
    m-amplification on random PSD inputs, drawn and applied block by
    block of trials, each block's m x m grids as one stack.  One stack of
    inputs serves every block: its entries off the classes stay 0."""
    n, d, dim = ctx.nwin, ctx.d, ctx.dim
    coeffs = np.empty((trials, m, m, n, d, d), dtype=complex)
    squares = np.empty((trials, m, m))
    blocks = trial_blocks(trials, (m * dim) ** 2, 2 * n * (m * d) ** 2)
    z = np.zeros((blocks[0][1], m * dim, m * dim), dtype=complex)
    for a, b in blocks:
        random_psd(rng, m * dim, ctx.algebra.classes, out=z[:b])
        grid = ctx.wrap(z[:b].reshape(b, m, dim, m, dim).swapaxes(2, 3))
        with span_check(lambda k: f"positivity trial {a + k // (m * m)}"):
            coeffs[a : a + b], squares[a : a + b] = span_coefficients(ctx, apply(grid))
    return grid_blocks(ctx, coeffs), np.sqrt(squares.sum(axis=(1, 2)))


def _bimodularity_blocks(
    ctx: CrossedContext, apply: Callable, rng: np.random.Generator, trials: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The (trials, n, d, d) dual blocks and the residuals of
    apply(psi(r) x psi(s)) - psi(r) apply(x) psi(s) for random algebra
    elements r, s and operators x, drawn block by block of trials in one
    call each, a trial's r, s and x in turn, and each block's two inputs a
    trial applied as one stack; the second sandwich is taken on the
    coefficient stacks of all trials at once."""
    n, d, dim = ctx.nwin, ctx.d, ctx.dim
    rs = np.empty((trials, d, d), dtype=complex)
    ss = np.empty((trials, d, d), dtype=complex)
    coeffs = np.empty((trials, 2, n, d, d), dtype=complex)
    squares = np.empty((trials, 2))
    for a, b in trial_blocks(trials, 2 * d * d + dim * dim, 3 * n * d * d):
        draw = rng.standard_normal((b, 4 * d * d + 2 * dim * dim))
        members = ctx.algebra.random_member(draw[:, : 4 * d * d], (b, 2))
        rs[a : a + b], ss[a : a + b] = members[:, 0], members[:, 1]
        x = random_window_operator(ctx, draw[:, 4 * d * d :], (b,))
        sandwich = _sandwich(ctx, rs[a : a + b], x, ss[a : a + b])
        inputs = ctx.wrap(np.stack([sandwich.data, x.data], axis=1))
        with span_check(lambda k: f"bimodularity trial {a + k // 2}"):
            coeffs[a : a + b], squares[a : a + b] = span_coefficients(ctx, apply(inputs))
    rhs = _sandwich(ctx, rs, SpanElement(ctx, coeffs[:, 1]), ss).coeffs
    # ||psi(r) e psi(s)|| <= ||r|| ||e||_F ||s|| for what e the span drops
    scale = np.linalg.norm(rs, axis=(-2, -1)) * np.linalg.norm(ss, axis=(-2, -1))
    residuals = np.sqrt(squares[:, 0]) + scale * np.sqrt(squares[:, 1])
    return grid_blocks(ctx, (coeffs[:, 0] - rhs)[:, None, None]), residuals


def _eigenrelation_blocks(
    ctx: CrossedContext, apply: Callable, chis: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, n, d, d) dual blocks and the residuals of
    apply(x_g) - chi(g) x_g over the window translates x_g = theta({g: r_g}),
    applied as one stack; chis holds chi at every window slot, as
    ExpectationPair.chi_values does."""
    n, d = ctx.nwin, ctx.d
    translates = np.zeros((n, n, d, d), dtype=complex)
    translates[np.arange(n), np.arange(n)] = ctx.algebra.random_member(rng, (n,))
    with span_check(
        lambda t: f"eigenrelation at g = {ctx.group.format_element(ctx.window[t])}"
    ):
        images, squares = span_coefficients(ctx, apply(SpanElement(ctx, translates)))
    # images - chi x_g, with one temporary
    defects = translates * -chis[:, None, None, None]
    defects += images
    return grid_blocks(ctx, defects[:, None, None]), np.sqrt(squares)


def cp_check(
    ctx: CrossedContext,
    apply: Callable[[BlockMatrix], BlockMatrix],
    chi_values: Optional[np.ndarray] = None,
    amplification: int = 1,
    trials: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> CpReport:
    """Positivity, bimodularity, and eigenrelation sweep for an averaged map.

    apply maps a window operator, or a stack of them, to its image, or
    the stack of their images, as sigma_xi does.  Each check draws its
    inputs in blocks of trials (trial_blocks), a block in one call that
    draws the same numbers in the same order as its trials one by one,
    calls apply once per block on that block's stack, and keeps only the
    coefficient stacks of the outputs (span_coefficients) in one array
    for all trials; the dual blocks, eigensolves and norms then run once
    per check over it.

    Positivity applies the amplified map entrywise to random PSD inputs
    of the amplified size, one m x m stack per trial, and records the
    worst eigenvalue.  The inputs are drawn already pinched onto the
    classes the algebra's expectation reads (random_psd; the d residues
    mod d for a diagonal algebra, one class otherwise).  Every sigma_xi,
    and every convex combination or negation of one, reads nothing else
    of its input, so the sweep is the same test; a map that reads across
    classes sees the pinched input, which is still PSD.  Bimodularity
    compares apply(psi(r) x psi(s)) with psi(r) apply(x) psi(s) for
    random algebra elements r, s and operators x, the two inputs of a
    trial stacked; the second sandwich is taken on the coefficient
    stacks of all trials at once, alpha_{t^-1}(r) c_t s.  The
    eigenrelation, when chi_values (chi at every window slot, as
    ExpectationPair.chi_values holds it) is supplied, applies the map
    once to the stack of the n translates theta({g: r_g}), which it reads
    off their stacks.  No check builds a dense sigma(x).

    Every output must lie in the crossed-product span.  A SpanElement's
    coefficients are taken as they are; any other output, such as a
    plain BlockMatrix from a stand-in map, takes the dense span check
    where it is returned (NotInCrossedProductError outside the span,
    naming the check and its own trial or g first), and its Frobenius
    residual is carried into the norms and eigenvalues so that they stay
    on the safe side.  A failing verdict names the first check that
    fails and its worst witness: the trial of the worst eigenvalue, the
    bimodularity trial or the eigenrelation g of the largest defect.
    """
    if amplification < 1:
        raise ValueError("amplification must be >= 1")
    if trials < 1:
        # an empty sweep would report Pass with min_eigenvalue_seen = inf
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    lows = span_min_eigenvalues(*_positivity_blocks(ctx, apply, rng, trials, amplification))
    worst = int(np.argmin(lows))
    min_eig = float(lows[worst])

    bimod = span_norms(*_bimodularity_blocks(ctx, apply, rng, max(1, trials // 4)))
    worst_bimod = int(np.argmax(bimod))
    max_bimod = float(bimod[worst_bimod])

    max_eigrel, worst_g = 0.0, None
    if chi_values is not None:
        eigrel = span_norms(*_eigenrelation_blocks(ctx, apply, chi_values, rng))
        worst_g = int(np.argmax(eigrel))
        max_eigrel = float(eigrel[worst_g])

    verdict = "Pass"
    if not min_eig >= -tol:
        verdict = f"Fail(trial={worst}, min_eigenvalue={min_eig:.3e})"
    elif not max_bimod <= tol:
        verdict = f"Fail(bimodularity trial={worst_bimod}, defect={max_bimod:.3e})"
    elif not max_eigrel <= tol:
        g = ctx.group.format_element(ctx.window[worst_g])
        verdict = f"Fail(eigenrelation g={g}, defect={max_eigrel:.3e})"
    return CpReport(
        amplification_level=amplification,
        trials=trials,
        min_eigenvalue_seen=float(min_eig),
        max_bimodular_defect=float(max_bimod),
        max_eigenrelation_defect=float(max_eigrel),
        condition_ii_margin=float("nan"),
        verdict=verdict,
    )


def _norm_lower_bounds(samples: BlockMatrix) -> np.ndarray:
    """(T,) lower bounds on ||x|| for a (T, nd, nd) stack of operators.

    Rayleigh-Ritz on a Krylov space of x*x: from one start vector v of a
    fixed-seed generator, min(NORM_STEPS, nd) vectors v, x*x v, ... each
    normalized (a step that reaches 0, as on a zero or low-rank sample,
    stays 0), an orthonormal basis Q of them per sample (QR), and the top
    eigenvalue of (xQ)*(xQ), which Courant-Fischer keeps at or below
    ||x||^2.  x*(x v) is formed as conj((x v)* x), so no conjugate of the
    stack is made; a stack of span elements is read off its dense data.
    Shrunk by BOUND_SLACK, so that rounding cannot lift a bound over the
    dense ||x||."""
    x = samples.data
    dim = x.shape[-1]
    rng = np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis = np.zeros(x.shape[:1] + (min(NORM_STEPS, dim), dim), dtype=complex)
    basis[:, 0] = start / np.linalg.norm(start)
    for j in range(1, basis.shape[1]):
        xv = x @ basis[:, j - 1, :, None]
        step = (xv.swapaxes(-1, -2).conj() @ x)[:, 0].conj()
        size = np.linalg.norm(step, axis=-1, keepdims=True)
        np.divide(step, size, out=basis[:, j], where=size > 0)
    q = np.linalg.qr(basis.swapaxes(-1, -2))[0]
    xq = x @ q
    top = np.linalg.eigvalsh(xq.conj().swapaxes(-1, -2) @ xq)[:, -1]
    return np.sqrt(np.maximum(top, 0.0)) * (1 - BOUND_SLACK)


def _coefficient_upper_bounds(coeffs: np.ndarray) -> np.ndarray:
    """(..., n) upper bounds on ||c_g|| over a (..., n, d, d) coefficient
    stack: sqrt(max row sum * max column sum) of |c_g|, exact for a
    diagonal block, enlarged by BOUND_SLACK.  Every automorphism alpha
    permutes rows and columns alike, so the Fourier coefficient at g of
    theta(c), whose blocks are alpha_{h^-1}(c_g) or 0, has norm at most
    ||c_g||."""
    size = np.abs(coeffs)
    rows, cols = size.sum(axis=-1).max(axis=-1), size.sum(axis=-2).max(axis=-1)
    return np.sqrt(rows) * np.sqrt(cols) * (1 + BOUND_SLACK)


def check_condition_ii(
    pair: ExpectationPair, samples: BlockMatrix, tol: float = 1e-10
) -> CpReport:
    """Diagonal-compression bound sweep.

    For every window g and each sample x, the compressed diagonal norm
    ||Diag(L_{g^-1} sigma(x))|| must stay below chi(g) ||x||; the report
    carries the worst margin (bound minus value; negative = violation).

    samples is a non-empty (T, nd, nd) stack of operators; one operator
    or an empty stack is a ConfigError.  sigma is applied once, to the
    whole stack.  The margins of a sample are chi(g) ||x|| - lhs over the
    window; the witness is the first worst (sample, g) in sample-major,
    g-minor order, and no sample after the first one whose margin fails
    is normed.

    Before the scan every sample is bounded: ||x|| from below by a few
    Krylov steps over the whole stack (_norm_lower_bounds), and lhs at
    every g from above by the size of sigma(x)'s coefficient at g
    (_coefficient_upper_bounds); where chi(g) < 0, the Frobenius norm of
    x, enlarged by BOUND_SLACK, bounds ||x|| from above instead.  A
    sample whose smallest bounded margin is at or above the margin so far
    cannot lower it under the strict-< scan, and is skipped; sample 0
    never is.  Every other sample is normed exactly: one
    fourier_coefficient call gives the coefficients at every g as an
    (n, n, d, d) array of diagonal blocks, one op_norm on it gives their
    n norms from one batched eigensolve, and ||x|| takes the dense
    eigensolve.  So the margin, its witness and the early stop are those
    of norming every sample, bit for bit.
    """
    ctx = pair.ctx
    if len(samples.lead) != 1 or samples.lead[0] == 0:
        # an empty sweep would report Pass with an infinite margin
        raise ConfigError(
            f"condition (ii) needs a non-empty (T, {ctx.dim}, {ctx.dim}) stack "
            f"of samples, got shape {samples.lead + (ctx.dim, ctx.dim)}"
        )
    chis = pair.chi_values.real
    negative = chis < 0
    sxs = pair.sigma(samples)
    lows = _norm_lower_bounds(samples)
    highs = _coefficient_upper_bounds(sxs.coeffs)
    margin = np.inf
    witness = None
    for si in range(samples.lead[0]):
        low = lows[si]
        if negative.any():
            frobenius = np.linalg.norm(samples.data[si]) * (1 + BOUND_SLACK)
            low = np.where(negative, frobenius, low)
        if si and np.min(chis * low - highs[si]) >= margin:
            continue
        lhs = op_norm(fourier_coefficient(ctx, sxs[si]))
        gaps = chis * op_norm(samples[si]) - lhs
        gi = int(np.argmin(gaps))
        if gaps[gi] < margin:
            margin = float(gaps[gi])
            witness = (si, ctx.window[gi])
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
        trials=samples.lead[0],
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


def _sigma_coeffs(
    pair: ExpectationPair, x: Optional[BlockMatrix], coeffs: Optional[np.ndarray]
) -> np.ndarray:
    """coeffs, or phi_hom(pair.ctx, pair.sigma(x)) when it is None;
    ValueError when both are None."""
    if coeffs is not None:
        return coeffs
    if x is None:
        raise ValueError("give an operator x or the coefficients of sigma(x)")
    return phi_hom(pair.ctx, pair.sigma(x))


def pi_projection(
    pair: ExpectationPair,
    x: Optional[BlockMatrix] = None,
    *,
    coeffs: Optional[np.ndarray] = None,
) -> SpanElement:
    """The idempotent: invert the eigenvalues on the coefficient series.

    Identity on the crossed-product span.  Eigenvalues below the floor
    mean the windowed inversion is meaningless; that is the finite-scale
    analogue of falling outside the domain.  x is an operator or a stack
    of them, as pair.sigma takes it; coeffs, when given, is
    phi_hom(pair.ctx, pair.sigma(x)), already computed by the caller, and
    x is not needed.  ValueError when neither is given.  The result
    carries its coefficient stack, or the stack of them.
    """
    coeffs = _sigma_coeffs(pair, x, coeffs)
    return SpanElement(pair.ctx, coeffs / _chi_divisors(pair)[:, None, None])


def pi_amplification(
    pair: ExpectationPair,
    x: Optional[BlockMatrix] = None,
    *,
    coeffs: Optional[np.ndarray] = None,
) -> Union[float, np.ndarray]:
    """Window-scale domain surrogate: the largest coefficient inflation.

    Reports max over window g of ||coefficient of sigma(x) at g|| / chi(g);
    boundedness of the idempotent is undecidable at a finite window, so
    the inflation factor is surfaced instead of a verdict.  x and coeffs
    are as in pi_projection: a float for one operator, an array over the
    leading axes of a stack.
    """
    coeffs = _sigma_coeffs(pair, x, coeffs)
    norms = np.linalg.norm(coeffs, 2, axis=(-2, -1))
    return np.max(norms / np.abs(_chi_divisors(pair)), axis=-1, initial=0.0)
