"""Truncated crossed products as dense block matrices.

A CrossedContext fixes a group, a finite window ball, a coefficient
algebra of d x d matrices and an action by coordinate permutations; the
algebra fixes the conditional expectation onto it.  Operators live on
window x internal space and are stored dense (BlockMatrix).

On a finite group the norm and spectrum of a crossed-product span element
are read off its coefficient stack c instead (dual_blocks): conjugating
by diag(U_h) turns it into the group convolution with blocks U_s c_s,
which the characters gamma of the finite abelian group split into n
blocks F_gamma = sum_s conj gamma(s) U_s c_s of size d x d.  Only
general window operators take the dense eigensolve (op_norm).

Translation operators drop transitions that leave the window, so on
infinite groups most identities hold only for inputs with enough support
margin; on finite groups (window = whole group) everything is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NotInCrossedProductError, SpecMismatchError
from .groups import (
    DEFAULT_ELEMENT_CAP,
    ORDERING_VERSION,
    Ball,
    Cyclic,
    Element,
    GroupSpec,
    ball,
    parse_group,
    whole_group_ball,
)
from .posdef import PdFunction, gram_matrix

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CoeffAlgebra:
    """The coefficient algebra: scalars, diagonal, or full d x d matrices."""

    kind: str
    internal_dim: int = 1

    _KINDS = ("scalars", "diagonal", "full")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SpecMismatchError(f"unknown algebra kind {self.kind!r}")
        if self.internal_dim < 1:
            raise SpecMismatchError("internal dimension must be >= 1")
        if self.kind == "scalars" and self.internal_dim != 1:
            raise SpecMismatchError("scalar algebra has internal dimension 1")

    @staticmethod
    def scalars() -> "CoeffAlgebra":
        return CoeffAlgebra("scalars", 1)

    @staticmethod
    def diagonal(d: int) -> "CoeffAlgebra":
        return CoeffAlgebra("diagonal", d)

    @staticmethod
    def full(d: int) -> "CoeffAlgebra":
        return CoeffAlgebra("full", d)

    def identity(self) -> np.ndarray:
        return np.eye(self.internal_dim, dtype=complex)

    def contains(self, r: np.ndarray, tol: float = 0.0) -> bool:
        r = np.asarray(r)
        d = self.internal_dim
        if r.shape != (d, d):
            return False
        if self.kind == "diagonal":
            off = r - np.diag(np.diag(r))
            return bool(np.max(np.abs(off), initial=0.0) <= tol)
        return True

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

    def random_member(self, rng: np.random.Generator) -> np.ndarray:
        d = self.internal_dim
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if self.kind == "diagonal":
            m = np.diag(np.diag(m))
        return m


@dataclass(frozen=True)
class ActionSpec:
    """Group action by permutations of the internal coordinates.

    perm_of maps a group element to a permutation tuple p, acting on basis
    vectors by e_i -> e_{p[i]}.  Multiplicativity over the generating set
    is verified when a context is built.
    """

    kind: str
    perm_of: Optional[Callable[[Element], Tuple[int, ...]]] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "permutation"):
            raise SpecMismatchError(f"unknown action kind {self.kind!r}")
        if self.kind == "permutation" and self.perm_of is None:
            raise SpecMismatchError("permutation action needs perm_of")

    @staticmethod
    def trivial() -> "ActionSpec":
        return ActionSpec("trivial")

    @staticmethod
    def permutation(perm_of: Callable[[Element], Tuple[int, ...]]) -> "ActionSpec":
        return ActionSpec("permutation", perm_of)

    def perm(self, g: Element, d: int) -> Tuple[int, ...]:
        if self.kind == "trivial":
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
    """Conditional expectation of the d x d matrices onto the algebra.

    trace: x -> (tr x / d) I (scalars target); diagonal: keep the diagonal;
    identity: the full algebra, no compression.  All three are unital,
    idempotent, and bimodular over the target algebra.
    """

    kind: str

    # algebra kind -> the expectation onto it
    _ONTO = {"scalars": "trace", "diagonal": "diagonal", "full": "identity"}

    def __post_init__(self):
        if self.kind not in self._ONTO.values():
            raise SpecMismatchError(f"unknown expectation kind {self.kind!r}")

    @staticmethod
    def default_for(algebra: CoeffAlgebra) -> "ExpectationSpec":
        return ExpectationSpec(ExpectationSpec._ONTO[algebra.kind])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the expectation to a d x d matrix or, over the last two
        axes, to every matrix of an (..., d, d) stack."""
        x = np.asarray(x, dtype=complex)
        d = x.shape[-1]
        if self.kind == "trace":
            tr = np.trace(x, axis1=-2, axis2=-1) / d
            return tr[..., None, None] * np.eye(d, dtype=complex)
        if self.kind == "diagonal":
            return _keep_diagonal(x)
        return x.copy()


def _keep_diagonal(x: np.ndarray) -> np.ndarray:
    """Zero every off-diagonal entry of each matrix in a (..., d, d) stack."""
    out = np.zeros_like(x)
    k = np.arange(x.shape[-1])
    out[..., k, k] = x[..., k, k]
    return out


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
        the only one for the scalar, diagonal and full algebras."""
        return ExpectationSpec.default_for(self.algebra)

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
        idx = self.window.index_of
        return np.array(
            [idx.get(self.group.inverse(a), -1) for a in self.window],
            dtype=np.int64,
        )

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
    def inv_perms(self) -> List[Tuple[int, ...]]:
        return [
            self.action.perm(self.group.inverse(g), self.d) for g in self.window
        ]

    @cached_property
    def perm_index(self) -> np.ndarray:
        """(n, d) gather indices of alpha_g, one row per window slot g."""
        return _gather_index(self.perms)

    @cached_property
    def inv_perm_index(self) -> np.ndarray:
        """(n, d) gather indices of alpha_{g^-1}, one row per window slot g."""
        return _gather_index(self.inv_perms)

    @cached_property
    def phi_index(self) -> np.ndarray:
        """(n, n, d, d) flat indices into a window operator's data: entry
        (t, j) reads block (g_t g_j, g_j) through alpha_{g_j}, so column 0
        is the coefficient stack.  Where g_t g_j leaves the window it reads
        block (0, j), which the span checks mask."""
        n, d = self.nwin, self.d
        rows = np.maximum(self.mul_table, 0)[..., None] * d + self.perm_index
        cols = np.arange(n)[:, None] * d + self.perm_index
        return rows[..., :, None] * (n * d) + cols[:, None, :]

    @cached_property
    def theta_index(self) -> np.ndarray:
        """(nd, nd) flat indices into a coefficient stack with one zero
        appended: entry (i d + a, j d + b) of theta(c) is entry (a, b) of
        alpha_{g_j^-1}(c at g_i g_j^-1), or the zero where g_i g_j^-1
        leaves the window."""
        n, d = self.nwin, self.d
        q = self.inv_perm_index
        inner = (q[:, :, None] * d + q[:, None, :])[None]
        idx = np.where(
            (self.rel_table < 0)[..., None, None],
            n * d * d,
            self.rel_table[..., None, None] * (d * d) + inner,
        )
        return idx.swapaxes(1, 2).reshape(n * d, n * d)

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

    def identity_matrix(self) -> "BlockMatrix":
        return BlockMatrix(self.window, self.d, np.eye(self.dim, dtype=complex))

    def wrap(self, data: np.ndarray) -> "BlockMatrix":
        return BlockMatrix(self.window, self.d, np.asarray(data, dtype=complex))


def _gather_index(perms: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Inverse permutations as rows: e_i -> e_{p[i]} moves entry
    (pinv[a], pinv[b]) of a matrix to (a, b)."""
    return np.argsort(np.asarray(perms, dtype=np.int64), axis=-1)


def _permute(r: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """out[..., a, b] = r[..., pinv[..., a], pinv[..., b]] in one gather."""
    lead = tuple(k[..., None, None] for k in np.ix_(*map(range, r.shape[:-2])))
    return r[lead + (pinv[..., :, None], pinv[..., None, :])]


def make_context(
    group: GroupSpec,
    radius: Optional[int] = None,
    algebra: Optional[CoeffAlgebra] = None,
    action: Optional[ActionSpec] = None,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> CrossedContext:
    """Assemble a context with sensible defaults.

    Finite groups take the whole group as window (radius ignored);
    infinite groups require a radius.  cap bounds the window's
    enumeration.
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
    """Dense operator on window x internal space; block (i,j) is d x d."""

    window: Ball
    block_dim: int
    data: np.ndarray

    def __post_init__(self):
        n = len(self.window) * self.block_dim
        if self.data.shape != (n, n):
            raise SpecMismatchError(
                f"data shape {self.data.shape} does not match window "
                f"({len(self.window)} x {self.block_dim})"
            )

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.block_dim
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    def blocks(self) -> np.ndarray:
        """(n, n, d, d) view of the data."""
        n = len(self.window)
        d = self.block_dim
        return self.data.reshape(n, d, n, d).swapaxes(1, 2)

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(self.window, self.block_dim, self.data.conj().T.copy())

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

    def to_json(self) -> str:
        pairs = [
            [float(z.real), float(z.imag)] for z in self.data.ravel(order="C")
        ]
        return json.dumps(
            {
                "group": self.window.spec.label,
                "radius": self.window.radius,
                "ordering": ORDERING_VERSION,
                "block_dim": self.block_dim,
                "data": pairs,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "BlockMatrix":
        doc = json.loads(text)
        if doc["ordering"] != ORDERING_VERSION:
            raise SpecMismatchError(
                f"serialized with ordering {doc['ordering']!r}, "
                f"this build uses {ORDERING_VERSION!r}"
            )
        spec = parse_group(doc["group"])
        window = ball(spec, doc["radius"])
        d = doc["block_dim"]
        n = len(window) * d
        flat = np.array(
            [complex(re, im) for re, im in doc["data"]], dtype=complex
        )
        if flat.size != n * n:
            raise SpecMismatchError("serialized data size mismatch")
        return BlockMatrix(window, d, flat.reshape(n, n))


class BlockDiagonal(BlockMatrix):
    """A BlockMatrix built with every off-diagonal block zero.  psi
    (embedded algebra elements), fourier_coefficient and diag (diagonal
    compressions) return it; arithmetic on it returns a plain
    BlockMatrix."""


def op_norm(x: BlockMatrix) -> float:
    """Operator norm: sqrt of the top eigenvalue of x* x.

    For a BlockDiagonal whose off-diagonal blocks are all still exactly
    zero, x* x is block diagonal with blocks b* b, so the top eigenvalue
    is the largest over the (n, d, d) stack of diagonal blocks, taken from
    one batched eigensolve.  Any other x takes the dense (nd)^2 path, even
    when rounding leaves it block diagonal, so the path follows how x was
    built rather than the last bits of its entries.
    """
    n = len(x.window)
    diagonal = x.blocks()[np.arange(n), np.arange(n)]
    # data written off the diagonal after construction sends x to the dense path
    blockwise = isinstance(x, BlockDiagonal) and (
        np.count_nonzero(diagonal) == np.count_nonzero(x.data)
    )
    if blockwise:
        gram = diagonal.conj().swapaxes(-1, -2) @ diagonal
        top = float(np.max(np.linalg.eigvalsh(gram)[:, -1]))
    else:
        m = x.data
        top = float(np.linalg.eigvalsh(m.conj().T @ m)[-1])
    return float(np.sqrt(max(0.0, top)))


def left_translation(ctx: CrossedContext, g: Element) -> BlockMatrix:
    """The translation operator L_g = theta({g: I}): block (a, b) = I
    exactly when a = g b.

    Unitary when the group is finite; a partial isometry on windows.
    """
    return theta_embed(ctx, {g: ctx.algebra.identity()})


def psi(ctx: CrossedContext, r) -> BlockDiagonal:
    """Block-diagonal embedding of an algebra element, theta({e: r}):
    block (g,g) is the coefficient twisted by the inverse-element
    automorphism."""
    out = theta_embed(ctx, {ctx.group.identity(): r})
    return BlockDiagonal(out.window, out.block_dim, out.data)


def diag(x: BlockMatrix) -> BlockDiagonal:
    """Keep the diagonal blocks, zero the rest."""
    out = BlockDiagonal(x.window, x.block_dim, np.zeros_like(x.data))
    slots = np.arange(len(x.window))
    out.blocks()[slots, slots] = x.blocks()[slots, slots]
    return out


def fourier_coefficient(
    ctx: CrossedContext, x: BlockMatrix, g: Element
) -> BlockDiagonal:
    """The diagonal operator Diag(L_g^* x); block (h,h) = x_{(gh, h)}."""
    out = BlockDiagonal(ctx.window, ctx.d, ctx.zero().data)
    row = ctx.left_index(g)
    cols = np.flatnonzero(row >= 0)
    out.blocks()[cols, cols] = x.blocks()[row[cols], cols]
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
    equal to the block-diagonal embedding of r.  Raises when no such r
    exists (x is outside the crossed-product span) within DEFAULT_TOL.
    """
    coeffs = _phi_batch(ctx, [x])[0][0]
    if ctx.algebra.kind == "diagonal":
        return _keep_diagonal(coeffs)
    return coeffs


def _phi_batch(
    ctx: CrossedContext, xs: Sequence[BlockMatrix]
) -> Tuple[np.ndarray, np.ndarray]:
    """The checks of phi_hom on k operators at once.

    Returns their (k, n, d, d) coefficient stacks, read off column 0 and
    not yet compressed onto the algebra, and the squared Frobenius norm
    of x - theta(c) over the blocks the window translates reach: every
    block on a finite group.
    """
    cand = np.empty((len(xs),) + ctx.phi_index.shape, dtype=complex)
    for c, x in zip(cand, xs):
        np.take(x.data.astype(complex, copy=False), ctx.phi_index, out=c)
    # slot t is read off column 0 (the identity) and must agree with
    # alpha_{g_j}(x_{(t g_j, g_j)}) in every other column j
    coeffs = cand[:, :, 0].copy()
    cand -= coeffs[:, :, None]
    gap = np.abs(cand)
    if not ctx.group.is_finite():
        gap[:, ctx.mul_table < 0] = 0.0
    # (k, n) largest entry off the algebra, per coefficient
    off = np.zeros(coeffs.shape[:2])
    if ctx.algebra.kind == "diagonal":
        off = np.max(np.abs(coeffs * (1.0 - np.eye(ctx.d))), axis=(-2, -1))
    if np.max(gap) > DEFAULT_TOL or not np.max(off) <= DEFAULT_TOL:
        _raise_outside_span(ctx, np.max(gap, axis=(-2, -1)), off)
    return coeffs, np.einsum("ktjab,ktjab->k", gap, gap)


def _raise_outside_span(ctx: CrossedContext, defect: np.ndarray, off: np.ndarray):
    """NotInCrossedProductError at the first slot of a batch whose (n,)
    consistency defects exceed DEFAULT_TOL or whose coefficient leaves
    the algebra by more than DEFAULT_TOL."""
    inconsistent = defect > DEFAULT_TOL
    bad = np.flatnonzero(inconsistent.any(axis=-1) | ~(off <= DEFAULT_TOL))
    k, ti = divmod(int(bad[0]), ctx.nwin)
    if inconsistent[k, ti].any():
        j = int(np.argmax(inconsistent[k, ti]))
        raise NotInCrossedProductError(
            f"coefficient at window slot {ti} inconsistent across the "
            f"diagonal (defect {float(defect[k, ti, j]):.3e})"
        )
    raise NotInCrossedProductError(
        f"coefficient at window slot {ti} leaves the "
        f"{ctx.algebra.kind} algebra"
    )


def dual_blocks(
    ctx: CrossedContext, x: Union[BlockMatrix, Sequence[Sequence[BlockMatrix]]]
) -> Tuple[np.ndarray, float]:
    """The dual-group blocks of a span element, and its Frobenius residual.

    x is a span element or an m x m grid of them, read as their
    m-amplification.  Returns the (n, md, md) blocks F_gamma, whose
    (p, q) parts are sum_s conj gamma(s) U_s c_s for the coefficient stack
    c of x_pq, and the Frobenius norm of x - theta(c) over the grid.  The
    amplified operator is unitarily equivalent to the direct sum of the
    blocks up to that residual, so span_norms adds it and
    span_min_eigenvalues subtracts it.  Raises NotInCrossedProductError
    outside the span, as phi_hom does, and SpecMismatchError on an
    infinite group.
    """
    if not ctx.group.is_finite():
        raise SpecMismatchError("dual-group blocks need a finite group")
    grid = [[x]] if isinstance(x, BlockMatrix) else x
    n, d, m = ctx.nwin, ctx.d, len(grid)
    flat = [xpq for row in grid for xpq in row]
    coeffs, squares = _phi_batch(ctx, flat)
    # U_s c_s: row a of slot s is row perm_index[s, a] of c_s
    shifted = coeffs[:, np.arange(n)[:, None], ctx.perm_index]
    stack = shifted.reshape(m, m, n, d, d).transpose(2, 0, 3, 1, 4)
    blocks = ctx.dual_table @ stack.reshape(n, -1)
    return blocks.reshape(n, m * d, m * d), math.sqrt(squares.sum())


def empty_blocks(
    ctx: CrossedContext, k: int, m: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Room for the dual_blocks of k elements, m-amplified, and their
    residuals: one array per sweep, filled in place, keeps a sweep's
    blocks from scattering over the heap between its dense temporaries."""
    d = m * ctx.d
    return np.empty((k, ctx.nwin, d, d), dtype=complex), np.empty(k)


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
    herm = (blocks + blocks.conj().swapaxes(-1, -2)) / 2.0
    return np.min(np.linalg.eigvalsh(herm)[..., 0], axis=-1) - residuals


def theta_embed(
    ctx: CrossedContext,
    coeffs: Union[np.ndarray, Dict[Element, np.ndarray]],
) -> BlockMatrix:
    """Assemble the operator with the given coefficient series.

    Entry (i, j) is the coefficient at g_i g_j^-1, twisted by the
    inverse-of-g_j automorphism.  Accepts a (n, d, d) stack aligned with
    the window or a dict keyed by group elements.
    """
    n = ctx.nwin
    d = ctx.d
    if isinstance(coeffs, dict):
        out = ctx.zero()
        oblocks = out.blocks()
        for t, r in coeffs.items():
            r = ctx.algebra.validate_member(r)
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
    return ctx.wrap(np.append(stack.ravel(), 0.0)[ctx.theta_index])


def hadamard_product(ctx: CrossedContext, x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """Coefficientwise product: the coefficient series multiply slotwise."""
    cx = phi_hom(ctx, x)
    cy = phi_hom(ctx, y)
    cz = np.einsum("tab,tbc->tac", cx, cy)
    return theta_embed(ctx, cz)
