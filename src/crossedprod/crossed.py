"""Truncated crossed products as dense block matrices.

A CrossedContext fixes a group, a finite window ball, a coefficient
algebra of d x d matrices and an action by coordinate permutations; the
algebra names the entries of a block it keeps (CoeffAlgebra.kept) and
fixes the conditional expectation onto it.  Operators live on window x
internal space and are stored dense (BlockMatrix), except the span
elements, which keep their coefficient stack c, read theta(c) straight
from it and build the dense matrix only when it is read (SpanElement).
A Fourier coefficient Diag(L_g^* x) is a plain array, the (n, d, d)
stack of its diagonal blocks, and op_norm norms it off them.  The
algebra sits in the span as psi(r) = theta({e: r}).

An operator lies in the span exactly when each Fourier coefficient
Diag(L_g^* x) is alpha-covariant along its diagonal, so the span check
(phi_hom) reads the Fourier batch, every coefficient in one gather.

On a finite group the norm and spectrum of a crossed-product span element
are read off its coefficient stack c instead (dual_blocks): conjugating
by diag(U_h) turns it into the group convolution with blocks U_s c_s,
which the characters gamma of the finite abelian group split into n
blocks F_gamma = sum_s conj gamma(s) U_s c_s of size d x d.  Only
general window operators, and span elements on windows of infinite
groups, take the dense eigensolve (op_norm).

Translation operators drop transitions that leave the window, so on
infinite groups most identities hold only for inputs with enough support
margin; on finite groups (window = whole group) everything is exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NotInCrossedProductError, SpecMismatchError
from .groups import (
    DEFAULT_ELEMENT_CAP,
    Ball,
    Cyclic,
    Element,
    GroupSpec,
    ball,
    whole_group_ball,
)
from .posdef import PdFunction, gram_matrix

DEFAULT_TOL = 1e-10


# a generator, or the normals a block of sweep trials drew in one call; the
# generator is named as a string, so that importing does not load numpy.random
Normals = Union["np.random.Generator", np.ndarray]


def standard_normals(rng: Normals, shape: Tuple[int, ...]) -> np.ndarray:
    """rng.standard_normal(shape), or drawn normals rng reshaped to shape.
    A draw fills its output in order: one (B, ...) draw is B of the rest."""
    return rng.reshape(shape) if isinstance(rng, np.ndarray) else rng.standard_normal(shape)


@dataclass(frozen=True)
class CoeffAlgebra:
    """The coefficient algebra: diagonal or full d x d matrices.  The
    scalars are the full 1 x 1 matrices.  The kind decides which entries
    of a block the algebra keeps (kept); the other methods read that."""

    kind: str
    internal_dim: int = 1

    _KINDS = ("diagonal", "full")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SpecMismatchError(f"unknown algebra kind {self.kind!r}")
        if self.internal_dim < 1:
            raise SpecMismatchError("internal dimension must be >= 1")

    @staticmethod
    def scalars() -> "CoeffAlgebra":
        return CoeffAlgebra.full(1)

    @staticmethod
    def diagonal(d: int) -> "CoeffAlgebra":
        return CoeffAlgebra("diagonal", d)

    @staticmethod
    def full(d: int) -> "CoeffAlgebra":
        return CoeffAlgebra("full", d)

    def identity(self) -> np.ndarray:
        return np.eye(self.internal_dim, dtype=complex)

    @cached_property
    def kept(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, cols) of the K entries of a block the algebra
        keeps: the diagonal, or every entry in row-major order."""
        d = self.internal_dim
        if self.kind == "diagonal":
            rows = cols = np.arange(d)
        else:
            rows, cols = np.divmod(np.arange(d * d), d)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @property
    def classes(self) -> int:
        """The expectation reads window entry (r, c) only if r = c mod classes."""
        return self.internal_dim if self.kind == "diagonal" else 1

    def compress(self, r: np.ndarray) -> np.ndarray:
        """A (..., d, d) stack r with its entries outside kept set to 0: r
        itself for a full algebra, which keeps every entry."""
        if self.kind == "full":
            return r
        out = np.zeros_like(r)
        out[(...,) + self.kept] = r[(...,) + self.kept]
        return out

    def off_algebra(self, r: np.ndarray) -> np.ndarray:
        """The largest |entry| outside kept of each d x d matrix of r."""
        outside = ~self.compress(np.ones((self.internal_dim,) * 2, dtype=bool))
        return np.max(np.abs(r[..., outside]), axis=-1, initial=0.0)

    def contains(self, r: np.ndarray, tol: float = 0.0) -> bool:
        r = np.asarray(r)
        return r.shape == (self.internal_dim,) * 2 and bool(self.off_algebra(r) <= tol)

    def validate_member(self, r) -> np.ndarray:
        out = np.asarray(r, dtype=complex)
        if out.ndim == 0:
            out = out.reshape(1, 1)
        if not self.contains(out):
            raise SpecMismatchError(
                f"not a member of {self.kind}({self.internal_dim}): shape "
                f"{out.shape}"
            )
        return out

    def random_member(self, rng: Normals, lead: Tuple[int, ...] = ()) -> np.ndarray:
        """A member of standard complex normals, its real parts, then its
        imaginary parts; or a lead-shaped stack of them from one draw."""
        d = self.internal_dim
        draw = standard_normals(rng, tuple(lead) + (2, d, d))
        return self.compress(draw[..., 0, :, :] + 1j * draw[..., 1, :, :])


@dataclass(frozen=True)
class ActionSpec:
    """Group action by permutations of the internal coordinates.

    perm_of maps a group element to a permutation tuple p, acting on basis
    vectors by e_i -> e_{p[i]}; perm_of None is the trivial action, every
    p the identity permutation.  Multiplicativity over the generating set
    is verified when a context is built.
    """

    perm_of: Optional[Callable[[Element], Tuple[int, ...]]] = None

    @staticmethod
    def trivial() -> "ActionSpec":
        return ActionSpec()

    @staticmethod
    def permutation(perm_of: Callable[[Element], Tuple[int, ...]]) -> "ActionSpec":
        return ActionSpec(perm_of)

    def perm(self, g: Element, d: int) -> Tuple[int, ...]:
        if self.perm_of is None:
            return tuple(range(d))
        p = tuple(self.perm_of(g))
        if sorted(p) != list(range(d)):
            raise SpecMismatchError(
                f"perm_of({g!r}) = {p} is not a permutation of 0..{d - 1}"
            )
        return p


def swap_action(spec: Cyclic) -> ActionSpec:
    """Order-two coordinate swap on 2 internal dims, driven by parity.

    Only a homomorphism when the cyclic order is even.
    """
    if spec.n % 2:
        raise SpecMismatchError(f"swap is not multiplicative on C{spec.n}")

    def perm_of(g):
        return (1, 0) if g % 2 else (0, 1)

    return ActionSpec.permutation(perm_of)


def translation_action(spec: Cyclic) -> ActionSpec:
    """C_n cycling n internal coordinates: the matrix-algebra testbed.

    With the diagonal algebra of size n this realizes M_n as the crossed
    product of its diagonal by the cyclic shift.
    """
    n = spec.n

    def perm_of(g):
        return tuple((i + g) % n for i in range(n))

    return ActionSpec.permutation(perm_of)


@dataclass(frozen=True)
class ExpectationSpec:
    """Conditional expectation of the d x d matrices onto the algebra,
    which fixes it: the entries outside CoeffAlgebra.kept are set to 0
    (the diagonal of a diagonal algebra; nothing of a full one, the
    scalars among them).  It is unital, idempotent, and bimodular over
    the algebra.

    The sweep kernels of sigma read from each block only what
    CoeffAlgebra.kept names, and pass the blocks through apply for a full
    algebra only; sigma.cp_check pinches its inputs onto
    CoeffAlgebra.classes.
    """

    algebra: CoeffAlgebra

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the expectation to a d x d matrix or, over the last two
        axes, to every matrix of an (..., d, d) stack; always a fresh
        complex array."""
        return self.algebra.compress(np.array(x, dtype=complex))


@dataclass(frozen=True)
class CrossedContext:
    """Everything needed to realize crossed-product operators on a window."""

    group: GroupSpec
    window: Ball
    algebra: CoeffAlgebra
    action: ActionSpec

    def __post_init__(self):
        if self.window.spec != self.group:
            raise SpecMismatchError("window was built for a different group")
        if len(self.window) == 0 or self.window[0] != self.group.identity():
            raise SpecMismatchError("window must start at the identity")
        if self.group.is_finite() and len(self.window) != self.group.order():
            raise SpecMismatchError(
                "finite-group contexts need the whole group as window"
            )
        d = self.algebra.internal_dim
        ident = self.action.perm(self.group.identity(), d)
        if ident != tuple(range(d)):
            raise SpecMismatchError("action of the identity must be trivial")
        for s in self.group.generating_set():
            ps = self.action.perm(s, d)
            for h in self.window:
                lhs = self.action.perm(self.group.multiply(s, h), d)
                ph = self.action.perm(h, d)
                if lhs != tuple(ps[ph[i]] for i in range(d)):
                    raise SpecMismatchError(
                        f"action not multiplicative at ({s!r}, {h!r})"
                    )

    @cached_property
    def expectation(self) -> ExpectationSpec:
        """The trace-preserving conditional expectation onto the algebra,
        the only one for the diagonal and full algebras; the algebra
        decides what it keeps."""
        return ExpectationSpec(self.algebra)

    @property
    def d(self) -> int:
        return self.algebra.internal_dim

    @property
    def nwin(self) -> int:
        return len(self.window)

    @property
    def dim(self) -> int:
        return self.nwin * self.d

    def left_index(self, g: Element) -> np.ndarray:
        """(n,) window index of g h for each window slot h, or -1 where g h
        leaves the window.

        For a window element g, once mul_table is built, this is a copy of
        its row there.  The cache is read through ``__dict__`` so that
        building mul_table, which calls this method, does not recurse.
        """
        self.group.validate(g)
        idx = self.window.index_of
        table = self.__dict__.get("mul_table")
        if table is not None and g in idx:
            return table[idx[g]].copy()
        return np.array(
            [idx.get(self.group.multiply(g, h), -1) for h in self.window],
            dtype=np.int64,
        )

    @cached_property
    def mul_table(self) -> np.ndarray:
        """index of g_i g_j in the window, or -1."""
        return np.stack([self.left_index(a) for a in self.window])

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Window index of g_j^-1: the row of the identity in column j of
        mul_table, which every column has, balls being closed under inverses."""
        return np.argmax(self.mul_table == 0, axis=0)

    @cached_property
    def rel_table(self) -> np.ndarray:
        """index of g_i g_j^-1 in the window, or -1.

        Balls are closed under inverses, so column j is column
        inv_table[j] of mul_table.
        """
        return self.mul_table[:, self.inv_table]

    @cached_property
    def perms(self) -> List[Tuple[int, ...]]:
        return [self.action.perm(g, self.d) for g in self.window]

    @cached_property
    def perm_index(self) -> np.ndarray:
        """(n, d) gather indices of alpha_g, one row per window slot g."""
        return _gather_index(self.perms)

    @cached_property
    def inv_perm_index(self) -> np.ndarray:
        """(n, d) gather indices of alpha_{g^-1} = alpha_g^-1, one row per
        window slot g: the permutations of perms themselves."""
        return np.asarray(self.perms, dtype=np.int64)

    @cached_property
    def dual_table(self) -> np.ndarray:
        """(n, n) values conj gamma(g_s) of the characters of a finite
        abelian group, one row per character.  The character of row k is
        exp(2 pi i sum_f k_f x_f / n_f) over the cyclic coordinates, with
        k the coordinates of window slot k."""
        x = np.array([self.group.coordinates(g) for g in self.window], dtype=np.int64)
        orders = np.array(self.group.axes(), dtype=np.int64)
        phase = ((x[:, None, :] * x[None, :, :]) % orders / orders).sum(axis=-1)
        return np.exp(-2j * np.pi * phase)

    def alpha(self, g: Element, r: np.ndarray) -> np.ndarray:
        """The automorphism alpha_g applied to a coefficient matrix."""
        return self.alpha_by_perm(self.action.perm(g, self.d), r)

    def alpha_by_perm(
        self, p: Union[Tuple[int, ...], np.ndarray], r: np.ndarray
    ) -> np.ndarray:
        """The automorphism of a permutation applied to coefficients.

        p is a permutation tuple, or gather indices as in perm_index whose
        leading axes broadcast against those of the (..., d, d) stack r: a
        (d,) row acts on every matrix, an (m, d) array on an (m, d, d)
        stack slot by slot, and on an (n, m, d, d) stack along axis 1.
        """
        if not isinstance(p, np.ndarray):
            p = _gather_index([p])[0]
        return _permute(np.asarray(r, dtype=complex), p)

    def zero(self) -> "BlockMatrix":
        return BlockMatrix(
            self.window, self.d, np.zeros((self.dim, self.dim), dtype=complex)
        )

    def wrap(self, data: np.ndarray) -> "BlockMatrix":
        return BlockMatrix(self.window, self.d, np.asarray(data, dtype=complex))


def _gather_index(perms: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Inverse permutations as rows: e_i -> e_{p[i]} moves entry
    (pinv[a], pinv[b]) of a matrix to (a, b)."""
    return np.argsort(np.asarray(perms, dtype=np.int64), axis=-1)


@lru_cache(maxsize=64)
def _lead_index(shape: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Read-only aranges over the leading axes of a stack, axis i shaped
    to broadcast along axis i of shape plus the two matrix axes."""
    out = []
    for i, size in enumerate(shape):
        k = np.arange(size).reshape((size,) + (1,) * (len(shape) - i + 1))
        k.flags.writeable = False
        out.append(k)
    return tuple(out)


def _permute(r: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """out[..., a, b] = r[..., pinv[..., a], pinv[..., b]] in one gather."""
    return r[_lead_index(r.shape[:-2]) + (pinv[..., :, None], pinv[..., None, :])]


def make_context(
    group: GroupSpec,
    radius: Optional[int] = None,
    algebra: Optional[CoeffAlgebra] = None,
    action: Optional[ActionSpec] = None,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> CrossedContext:
    """Assemble a context with sensible defaults.

    Finite groups take the whole group as window (radius ignored);
    infinite groups require a radius.  A window past cap is refused from
    its sphere sizes before any element is built.
    """
    if algebra is None:
        algebra = CoeffAlgebra.scalars()
    if action is None:
        action = ActionSpec.trivial()
    if group.is_finite():
        window = whole_group_ball(group, cap)
    else:
        if radius is None:
            raise SpecMismatchError(f"{group.label} needs an explicit radius")
        window = ball(group, radius, cap)
    return CrossedContext(group, window, algebra, action)


@dataclass(frozen=True)
class BlockMatrix:
    """Dense operator on window x internal space; block (i,j) is d x d.

    data is (nd, nd), or (..., nd, nd) for a stack of operators: the
    leading axes (lead) index trials or an amplification grid, and every
    method and operator acts on each operator of the stack."""

    window: Ball
    block_dim: int
    data: np.ndarray

    def __post_init__(self):
        n = len(self.window) * self.block_dim
        if self.data.shape[-2:] != (n, n):
            raise SpecMismatchError(
                f"data shape {self.data.shape} does not match window "
                f"({len(self.window)} x {self.block_dim})"
            )

    @property
    def lead(self) -> Tuple[int, ...]:
        """The leading axes of a stack; () for one operator."""
        return self.data.shape[:-2]

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.block_dim
        return self.data[..., i * d : (i + 1) * d, j * d : (j + 1) * d]

    def blocks(self) -> np.ndarray:
        """(..., n, n, d, d) view of the data."""
        n = len(self.window)
        d = self.block_dim
        return self.data.reshape(self.lead + (n, d, n, d)).swapaxes(-3, -2)

    def __getitem__(self, index) -> "BlockMatrix":
        """The operator, or the stack of them, at index of the leading axes."""
        return BlockMatrix(self.window, self.block_dim, self.data[index])

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """data[..., rows, cols]: the entries at the broadcast index arrays
        rows and cols, of every operator of a stack."""
        return self.data[..., rows, cols]

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(
            self.window, self.block_dim, self.data.conj().swapaxes(-1, -2).copy()
        )

    def _check_compatible(self, other: "BlockMatrix"):
        if self.window != other.window or self.block_dim != other.block_dim:
            raise SpecMismatchError("window or block dimension mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return BlockMatrix(self.window, self.block_dim, self.data + other.data)

    def __sub__(self, other):
        self._check_compatible(other)
        return BlockMatrix(self.window, self.block_dim, self.data - other.data)

    def __mul__(self, scalar):
        return BlockMatrix(self.window, self.block_dim, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_compatible(other)
        return BlockMatrix(self.window, self.block_dim, self.data @ other.data)


class SpanElement(BlockMatrix):
    """theta(c) for a complex (n, d, d) stack c whose every slot is in the
    algebra, or a stack of them, c (..., n, d, d): what sigma_xi,
    pi_projection, random_crossed_element and theta_embed's dict branch,
    psi's among them, return.  The element keeps c, made read-only, and
    phi_hom, dual_blocks and entries read it as it is; data, the dense
    theta(c), is gathered from it on first use and read-only too.  +, - and
    scalar * with a span element of the same context act on the stacks,
    which is the dense arithmetic entry for entry, since theta is a
    gather."""

    def __init__(self, ctx: "CrossedContext", coeffs: np.ndarray):
        coeffs.flags.writeable = False
        for name, value in (
            ("window", ctx.window), ("block_dim", ctx.d), ("ctx", ctx), ("coeffs", coeffs)
        ):
            object.__setattr__(self, name, value)

    @property
    def lead(self) -> Tuple[int, ...]:
        return self.coeffs.shape[:-3]

    @cached_property
    def data(self) -> np.ndarray:
        out = _theta_gather(self.ctx, self.coeffs)
        out.flags.writeable = False
        return out

    def __getitem__(self, index) -> "SpanElement":
        return SpanElement(self.ctx, self.coeffs[index])

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries of theta(c) at rows and cols, read straight from c
        (_theta_entries) without building the dense operator."""
        return _theta_entries(self.ctx, self.coeffs, rows, cols)

    def _same_span(self, other) -> bool:
        return isinstance(other, SpanElement) and other.ctx is self.ctx

    def __add__(self, other):
        if self._same_span(other):
            return SpanElement(self.ctx, self.coeffs + other.coeffs)
        return super().__add__(other)

    def __sub__(self, other):
        if self._same_span(other):
            return SpanElement(self.ctx, self.coeffs - other.coeffs)
        return super().__sub__(other)

    def __mul__(self, scalar):
        if np.ndim(scalar) == 0:
            return SpanElement(self.ctx, self.coeffs * scalar)
        return super().__mul__(scalar)

    __rmul__ = __mul__


def op_norm(x: Union[BlockMatrix, np.ndarray]) -> Union[float, np.ndarray]:
    """Operator norm: sqrt of the top eigenvalue of x* x.

    An ndarray is read as the (..., n, d, d) diagonal blocks of a block
    diagonal operator, or a stack of them, as fourier_coefficient returns
    them: x* x has blocks b* b, so its norm is the largest block norm,
    taken from one batched eigensolve (span_norms, residual 0).  A stack,
    such as the coefficients of an operator at every window slot, gives
    the array of its norms over the leading axes, each the same bits as
    that operator's own norm; one (n, d, d) operator gives a float.  A
    SpanElement of a finite group is normed off its dual_blocks.  Any
    other x, a span element on a window of an infinite group included,
    takes the dense (nd)^2 path, even when rounding leaves it block
    diagonal or in the span, so the path follows how x was built rather
    than the last bits of its entries.
    """
    if isinstance(x, np.ndarray):
        norms = span_norms(x, 0.0)
        return norms if x.ndim > 3 else float(norms)
    if isinstance(x, SpanElement) and x.ctx.group.is_finite():
        return float(span_norms(*dual_blocks(x.ctx, x)))
    m = x.data
    top = float(np.linalg.eigvalsh(m.conj().T @ m)[-1])
    return float(np.sqrt(max(0.0, top)))


def left_translation(ctx: CrossedContext, g: Element) -> BlockMatrix:
    """The translation operator L_g = theta({g: I}): block (a, b) = I
    exactly when a = g b.

    Unitary when the group is finite; a partial isometry on windows.
    """
    return theta_embed(ctx, {g: ctx.algebra.identity()})


def psi(ctx: CrossedContext, r) -> SpanElement:
    """The embedding of an algebra element, the span element theta({e: r}):
    block (g,g) is the coefficient twisted by the inverse-element
    automorphism, and every other block is zero."""
    return theta_embed(ctx, {ctx.group.identity(): r})


def fourier_coefficient(
    ctx: CrossedContext, x: BlockMatrix, g: Optional[Element] = None
) -> np.ndarray:
    """The diagonal operator Diag(L_g^* x) as the (n, d, d) stack of its
    diagonal blocks: block h is x_{(gh, h)}, and 0 where g h leaves the
    window.  op_norm reads such a stack as the operator.

    With g omitted, the coefficients at every window slot g, as one
    (n, n, d, d) array whose first axis follows the window: one gather
    through the rows of mul_table.  The single g is the same gather
    through its left_index row, with that axis dropped.  A stack x puts
    its leading axes in front.  The blocks are read by x.entries, so for
    a SpanElement theta(c) block h is alpha_{h^-1}(c_g), read straight
    from the stack without building the dense theta(c), and 0 for g off
    the window; any other x is read off its dense data, as by the span
    check (_phi_batch).  The array is fresh and C-contiguous."""
    row = ctx.mul_table if g is None else ctx.left_index(g)
    n, d = ctx.nwin, ctx.d
    k = np.arange(d)
    rows = np.maximum(row, 0)[..., None, None] * d + k[:, None]
    cols = np.arange(n)[:, None, None] * d + k
    out = x.entries(rows, cols).astype(complex, copy=False)
    out[..., row < 0, :, :] = 0.0
    return out


def reconstruct(
    ctx: CrossedContext, x: BlockMatrix, approximate: bool = False
) -> BlockMatrix:
    """Sum of translates of the coefficient diagonals.

    Exact reproduction of x on finite groups; on windows it is a truncated
    resummation and must be requested with approximate=True.  Block (i, j)
    lies on the translate by g_i g_j^-1 alone, so the sum keeps exactly
    the blocks whose rel_table entry is in the window.
    """
    if not ctx.group.is_finite() and not approximate:
        raise SpecMismatchError(
            "window reconstruction is approximate; pass approximate=True"
        )
    out = ctx.zero()
    rows, cols = np.nonzero(ctx.rel_table >= 0)
    out.blocks()[rows, cols] = x.blocks()[rows, cols]
    return out


def schur_product(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Blockwise product: block (i,j) of the result is a_ij b_ij."""
    a._check_compatible(b)
    ab = np.einsum("ijkl,ijlm->ijkm", a.blocks(), b.blocks())
    n = len(a.window)
    d = a.block_dim
    data = ab.swapaxes(1, 2).reshape(n * d, n * d)
    return BlockMatrix(a.window, d, data)


def hadamard_multiplier(
    ctx: CrossedContext, chi: PdFunction, x: BlockMatrix
) -> BlockMatrix:
    """Scale block (g,h) by chi(g h^-1): the Schur product with the Gram
    matrix of chi over the window."""
    full = np.kron(gram_matrix(chi, ctx.window), np.ones((ctx.d, ctx.d)))
    return BlockMatrix(ctx.window, ctx.d, x.data * full)


def p_seminorm(x: BlockMatrix, xi: np.ndarray) -> float:
    """Seminorm ||Diag(x* x)^(1/2) xi|| for a vector on window x internal."""
    d = x.block_dim
    n = len(x.window)
    xi = np.asarray(xi, dtype=complex).ravel()
    if xi.size != n * d:
        raise SpecMismatchError(f"vector length {xi.size}, expected {n * d}")
    m = x.data.conj().T @ x.data
    total = 0.0
    for i in range(n):
        s = slice(i * d, (i + 1) * d)
        blockm = (m[s, s] + m[s, s].conj().T) / 2.0
        w, v = np.linalg.eigh(blockm)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        total += float(np.sum(np.abs(root @ xi[s]) ** 2))
    return float(np.sqrt(total))


def phi_hom(ctx: CrossedContext, x: BlockMatrix) -> np.ndarray:
    """Coefficient extraction: stack of algebra elements, one per window slot.

    Slot t holds the unique r with translate-diagonal Diag(L_{t^-1} x)
    equal to the block-diagonal embedding of r.  A SpanElement of ctx
    carries that stack, so it is read as it is.  Any other operator, such
    as a plain BlockMatrix stand-in, is read off its Fourier batch, and
    raises when no such r exists (x is outside the crossed-product span)
    within DEFAULT_TOL.  A stack of operators gives a stack of stacks.
    """
    return ctx.algebra.compress(span_coefficients(ctx, x)[0])


def span_coefficients(ctx: CrossedContext, x: BlockMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """The coefficient stack of x and its squared residual, per operator of
    a stack: (..., n, d, d) and (...) over x's leading axes.

    A SpanElement of ctx gives the stack it carries, with residual
    exactly 0.  Any other operator takes the span check of phi_hom on its
    Fourier batch (_phi_batch), all of a stack in one call: coefficients
    read off the identity slot, not yet compressed onto the algebra, and
    the squared Frobenius norm of x - theta(c) over the blocks the window
    translates reach, every block on a finite group.
    """
    if isinstance(x, SpanElement) and x.ctx is ctx:
        return x.coeffs, np.zeros(x.lead)
    n = ctx.dim
    coeffs, squares = _phi_batch(ctx, x.data.reshape((-1, n, n)))
    return coeffs.reshape(x.lead + coeffs.shape[1:]), squares.reshape(x.lead)


def _phi_batch(ctx: CrossedContext, data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The checks of phi_hom on the k operators of a (k, nd, nd) array.

    Candidate (t, j) is alpha_{g_j}(x_{(g_t g_j, g_j)}): block j of the
    Fourier coefficient at slot t (fourier_coefficient's (n, n, d, d)
    batch) under alpha_{g_j}, 0 (masked) off the window.
    Returns the (k, n, d, d) coefficient stacks and squared residuals, as
    span_coefficients; NotInCrossedProductError outside the span, its
    index the first of the k that fails.  The operators are checked one
    at a time, so that one operator's candidates are held at most.
    """
    n, d = ctx.nwin, ctx.d
    coeffs = np.empty((len(data), n, d, d), dtype=complex)
    squares = np.empty(len(data))
    for k, x in enumerate(data):
        cand = ctx.alpha_by_perm(ctx.perm_index, fourier_coefficient(ctx, ctx.wrap(x)))
        # slot t is read off column 0 (the identity) and must agree with
        # alpha_{g_j}(x_{(t g_j, g_j)}) in every other column j
        coeffs[k] = cand[:, 0]
        cand -= coeffs[k][:, None]
        gap = np.abs(cand)[None]
        if not ctx.group.is_finite():
            gap[:, ctx.mul_table < 0] = 0.0
        off = ctx.algebra.off_algebra(coeffs[k])
        # written so that a NaN fails either test
        if not (np.max(gap) <= DEFAULT_TOL and np.max(off) <= DEFAULT_TOL):
            _raise_outside_span(ctx, np.max(gap[0], axis=(-2, -1)), off, k)
        squares[k] = np.einsum("ktjab,ktjab->k", gap, gap)[0]
    return coeffs, squares


def _raise_outside_span(ctx: CrossedContext, defect: np.ndarray, off: np.ndarray, k: int):
    """NotInCrossedProductError for operator k of a batch, at its first
    slot whose (n,) consistency defects exceed DEFAULT_TOL, or are NaN,
    or whose coefficient leaves the algebra by more than DEFAULT_TOL."""
    inconsistent = ~(defect <= DEFAULT_TOL)
    ti = int(np.flatnonzero(inconsistent.any(axis=-1) | ~(off <= DEFAULT_TOL))[0])
    if inconsistent[ti].any():
        j = int(np.argmax(inconsistent[ti]))
        exc = NotInCrossedProductError(
            f"coefficient at window slot {ti} inconsistent across the "
            f"diagonal (defect {float(defect[ti, j]):.3e})"
        )
    else:
        exc = NotInCrossedProductError(
            f"coefficient at window slot {ti} leaves the "
            f"{ctx.algebra.kind} algebra"
        )
    exc.index = k
    raise exc


def dual_blocks(ctx: CrossedContext, x: BlockMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """The dual-group blocks of a span element, and its Frobenius residual.

    x is a span element or a stack of them.  Returns the (..., n, d, d)
    blocks F_gamma (grid_blocks) over the leading axes of a stack, and
    the (...) Frobenius norms of x - theta(c).  The operator is unitarily
    equivalent to the direct sum of the blocks up to that residual, so
    span_norms adds it and span_min_eigenvalues subtracts it.  Span
    elements of ctx are read off their stacks, with residual exactly 0.
    Any other operator, such as a plain BlockMatrix stand-in, takes the
    dense span check of phi_hom, a stack in one batch, and raises
    NotInCrossedProductError outside the span (span_coefficients).  An
    m-amplification's blocks come from grid_blocks on the (m, m) grid of
    coefficient stacks.  Raises SpecMismatchError on an infinite group.
    """
    if not ctx.group.is_finite():
        raise SpecMismatchError("dual-group blocks need a finite group")
    coeffs, squares = span_coefficients(ctx, x)
    return grid_blocks(ctx, coeffs[..., None, None, :, :, :]), np.sqrt(squares)


def grid_blocks(ctx: CrossedContext, coeffs: np.ndarray) -> np.ndarray:
    """The (..., n, md, md) dual-group blocks of m-amplified span elements
    from their (..., m, m, n, d, d) coefficient stacks: part (p, q) of
    block gamma is sum_s conj gamma(s) U_s c_s for the stack c of entry
    (p, q).  np.matmul makes one (n, n) @ (n, m m d d) product per element
    of the leading axes, so an element's blocks do not depend on how many
    are stacked with it."""
    n, d = ctx.nwin, ctx.d
    lead, m = coeffs.shape[:-5], coeffs.shape[-5]
    # entry (s, p, a, q, b) of U_s c_s over the grid, in one gather: row a
    # of slot s is row perm_index[s, a] of c_s
    p, q, b = np.arange(m)[:, None, None, None], np.arange(m)[:, None], np.arange(d)
    s, a = np.arange(n)[:, None, None, None, None], ctx.perm_index[:, None, :, None, None]
    stack = coeffs[..., p, q, s, a, b]
    blocks = np.matmul(ctx.dual_table, stack.reshape(lead + (n, -1)))
    return blocks.reshape(lead + (n, m * d, m * d))


@contextmanager
def span_check(witness: Union[str, Callable[[int], str]]):
    """Prefix a NotInCrossedProductError raised inside with the check and
    witness it failed, such as "tau-sum of sample 3", or, for a check of
    a stack, with witness(index) of the first operator that fails; the
    span check's own message stays as the suffix."""
    try:
        yield
    except NotInCrossedProductError as exc:
        name = witness if isinstance(witness, str) else witness(exc.index)
        raise NotInCrossedProductError(f"{name}: {exc}") from exc


def span_norms(blocks: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Operator norms of k elements from their stacked (k, n, md, md)
    dual_blocks and (k,) residuals, in one batched eigensolve: the
    largest block norm plus the residual, so never below the dense
    op_norm of the element."""
    gram = blocks.conj().swapaxes(-1, -2) @ blocks
    top = np.max(np.linalg.eigvalsh(gram)[..., -1], axis=-1)
    return np.sqrt(np.maximum(top, 0.0)) + residuals


def span_min_eigenvalues(blocks: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of k elements, from
    their stacked dual_blocks and residuals as in span_norms, in one
    batched eigensolve, minus the residual, so never above the dense
    value."""
    # halved in place: one temporary of the blocks' size, not two
    herm = blocks + blocks.conj().swapaxes(-1, -2)
    herm /= 2.0
    return np.min(np.linalg.eigvalsh(herm)[..., 0], axis=-1) - residuals


def theta_embed(
    ctx: CrossedContext,
    coeffs: Union[np.ndarray, Dict[Element, np.ndarray]],
) -> BlockMatrix:
    """Assemble the operator with the given coefficient series.

    Entry (i, j) is the coefficient at g_i g_j^-1, twisted by the
    inverse-of-g_j automorphism.  Accepts a (n, d, d) stack aligned with
    the window, returned as a dense BlockMatrix whose slots need not lie
    in the algebra, or a dict keyed by group elements whose values are
    checked to be algebra members.  A dict whose keys all lie in the
    window returns a SpanElement; one with a key off the window of an
    infinite group returns a dense BlockMatrix holding the translates
    that key still reaches.
    """
    n = ctx.nwin
    d = ctx.d
    if isinstance(coeffs, dict):
        members = {}
        for t, r in coeffs.items():
            members[t] = ctx.algebra.validate_member(r)
            ctx.group.validate(t)
        idx = ctx.window.index_of
        if all(t in idx for t in members):
            stack = np.zeros((n, d, d), dtype=complex)
            for t, r in members.items():
                stack[idx[t]] = r
            return SpanElement(ctx, stack)
        out = ctx.zero()
        oblocks = out.blocks()
        for t, r in members.items():
            row = ctx.left_index(t)
            # left multiplication by t is injective: no block is hit twice
            cols = np.flatnonzero(row >= 0)
            stack = np.broadcast_to(r, (cols.size, d, d))
            oblocks[row[cols], cols] += ctx.alpha_by_perm(
                ctx.inv_perm_index[cols], stack
            )
        return out
    stack = np.asarray(coeffs, dtype=complex)
    if stack.shape != (n, d, d):
        raise SpecMismatchError(f"coefficient stack must be ({n},{d},{d})")
    return ctx.wrap(_theta_gather(ctx, stack))


def _theta_gather(ctx: CrossedContext, stack: np.ndarray) -> np.ndarray:
    """The dense (..., nd, nd) data of theta of a (..., n, d, d) stack."""
    k = np.arange(ctx.dim)
    return _theta_entries(ctx, stack, k[:, None], k)


def _theta_entries(
    ctx: CrossedContext, stack: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """theta(c) at the broadcast index arrays rows and cols, for each c of
    a (..., n, d, d) stack: entry (i d + a, j d + b) is
    c[rel_table[i, j], q[j, a], q[j, b]] with q = inv_perm_index, that is
    alpha_{g_j^-1}(c at g_i g_j^-1), or 0 where g_i g_j^-1 leaves the window."""
    n, d = ctx.nwin, ctx.d
    (i, a), (j, b) = np.divmod(rows, d), np.divmod(cols, d)
    # one flat index into each c, from 1-d gathers of the small tables
    q, rel = ctx.inv_perm_index.ravel(), ctx.rel_table.ravel()[i * n + j]
    flat = (np.maximum(rel, 0) * d + q[j * d + a]) * d + q[j * d + b]
    out = np.take(stack.reshape(stack.shape[:-3] + (-1,)), flat, axis=-1)
    out = out.astype(complex, copy=False)
    out[..., rel < 0] = 0.0
    return out


def hadamard_product(ctx: CrossedContext, x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """Coefficientwise product: the coefficient series multiply slotwise."""
    cx = phi_hom(ctx, x)
    cy = phi_hom(ctx, y)
    cz = np.einsum("tab,tbc->tac", cx, cy)
    return theta_embed(ctx, cz)
