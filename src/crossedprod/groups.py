"""Group engines: canonical normal forms, word length, deterministic balls.

Supported groups: the integers Z, cyclic groups C_n, free groups F_k, and
finite direct products of these; the lattice Z^d is the product of d
copies of Z under its own label.  Elements are plain Python payloads in
canonical normal form:

* ``Z`` and ``C_n``: ``int`` (``C_n`` reduced mod n),
* ``F_k``: tuple of nonzero signed generator indices, freely reduced
  (``1..k`` generators, negative for inverses),
* products, ``Z^d`` among them: tuple of factor payloads.

Z, C_n and their products are abelian: ``axes()`` gives the order of each
cyclic coordinate (0 for a Z axis) and ``coordinates(a)`` the payload as
one int per axis.

A ball lists its elements by word length, then by least geodesic word,
words compared letter by letter in the order of ``generating_set()``.  That
order is the one declaration of the scheme: a1 < a1^-1 < a2 < a2^-1 < ...
for free groups (``_core._letters``), +1 < -1 for Z, and the factors' orders
in turn for products.  The scheme is versioned (ORDERING_VERSION) so
serialized matrices can detect an ordering change.

Every window obeys one cap rule: its size, each element counted once per
payload component, is read off its sphere sizes, and a window past the cap
is refused before any element is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ._core import _letters, free_ball_words, free_mul, free_sphere_sizes
from .errors import ConfigError, ResourceCapError, SpecMismatchError

Element = Union[int, tuple]

ORDERING_VERSION = "llex-1"
DEFAULT_ELEMENT_CAP = 10**6


class GroupSpec:
    """Base class for group descriptions.

    Subclasses provide the group law on canonical payloads, the word
    length for the standard symmetric generating set, and that set in the
    fixed order that orders every ball.  Balls come from the one generic
    search in ``_enumerate_ball``; only ``FreeGroup``, whose word tree
    already emits length-lex order, overrides it.  Sphere sizes come from
    ``_spheres`` with no element built, and ``_sphere_sizes`` holds the one
    cap rule: the search asks it first, so an over-cap ball is refused
    before any element exists.
    """

    label: str

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inverse(self, a: Element) -> Element:
        raise NotImplementedError

    def word_length(self, a: Element) -> int:
        raise NotImplementedError

    def validate(self, a: Element) -> Element:
        """Return the payload if it is in canonical form, else raise."""
        raise NotImplementedError

    def quotient_lengths(self, elements: Sequence[Element]) -> np.ndarray:
        """(n, n) table of word_length(g_i g_j^-1) in a small unsigned dtype:
        symmetric, as |t^-1| = |t|, with a zero diagonal."""
        raise NotImplementedError

    def generating_set(self) -> Tuple[Element, ...]:
        """Standard symmetric generators in the fixed enumeration order."""
        raise NotImplementedError

    def element_size(self) -> int:
        """What an element counts against a ball's cap: its components."""
        return 1

    def axes(self) -> Tuple[int, ...]:
        """The order of each abelian coordinate, 0 for a Z axis."""
        raise SpecMismatchError(f"no averaging sequence for {self.label}")

    def coordinates(self, a: Element) -> Tuple[int, ...]:
        """The validated payload as one int per entry of axes()."""
        raise SpecMismatchError(f"no averaging sequence for {self.label}")

    def is_finite(self) -> bool:
        return False

    def order(self) -> int:
        raise SpecMismatchError(f"{self.label} is infinite")

    def diameter(self) -> int:
        raise SpecMismatchError(f"{self.label} is infinite")

    def _enumerate_ball(self, n: int, cap: int) -> List[Element]:
        """Sphere-by-sphere search over ``generating_set()``, which emits
        each sphere already in length-lex order.

        Least geodesic words are prefix-closed: if u s is the least
        geodesic word of h, then u is the least geodesic word of h s^-1.
        So the least word of an element h of sphere k+1 is the word of the
        first element g of sphere k with g s = h, followed by the first
        such generator s in ``generating_set()`` order.  The search visits
        sphere k in order and each g's generators in order, and appends h
        at exactly that first visit; by induction from {e}, every sphere
        comes out sorted.  ``_sphere_sizes`` refuses an over-cap ball
        before any element is built and gives the last radius r with a
        non-empty sphere, so the search is r plain steps.  The generators
        are built only when r >= 1: then all of them lie in the ball, and
        the cap bounds them too.
        """
        r = len(self._sphere_sizes(n, cap)) - 1
        frontier = [self.identity()]
        if r == 0:
            return frontier
        gens = self.generating_set()
        seen = set(frontier)
        out = list(frontier)
        for _ in range(r):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.multiply(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            out.extend(nxt)
            frontier = nxt
        return out

    def _sphere_sizes(self, n: int, cap: int) -> List[int]:
        """|S_0|, ..., |S_r| from ``_spheres``, r the smaller of n and a
        finite group's diameter: the one cap rule of every window.  It
        refuses past r + 1 elements first, as every sphere up to r is
        non-empty, then past the ball's size, each element counted
        element_size() times.  The radius-0 ball is {e}, with no factor
        to fold."""
        limit = cap // self.element_size()
        r = min(n, self.diameter()) if self.is_finite() else n
        try:
            spheres = None if r + 1 > limit else [1] if r == 0 else self._spheres(r, limit)
        except ResourceCapError:
            spheres = None
        if spheres is None or sum(spheres) > limit:
            raise ResourceCapError(f"ball of {self.label} at radius {n} exceeds cap {cap}")
        return spheres

    def _spheres(self, r: int, limit: int) -> List[int]:
        """|S_0|, ..., |S_r|, r + 1 <= limit; may raise ResourceCapError
        once the ball is known to pass ``limit``."""
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    def format_element(self, a: Element) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r})"


def _as_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


@dataclass(frozen=True, repr=False)
class Integers(GroupSpec):
    """The group Z with generators {+1, -1}."""

    @property
    def label(self):
        return "Z"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return self.validate(a) + self.validate(b)

    def inverse(self, a):
        return -self.validate(a)

    def word_length(self, a):
        return abs(self.validate(a))

    def validate(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise SpecMismatchError(f"not an integer payload: {a!r}")
        return a

    def quotient_lengths(self, elements):
        x = np.array([self.validate(a) for a in elements], dtype=np.int64)
        delta = np.subtract.outer(x, x)
        return _narrow(np.abs(delta, out=delta))

    def generating_set(self):
        return (1, -1)

    def _spheres(self, r, limit):
        return [1] + [2] * r

    def axes(self):
        return (0,)

    def coordinates(self, a):
        return (self.validate(a),)

    def parse_element(self, text):
        return _as_int(text)

    def format_element(self, a):
        return str(a)


@dataclass(frozen=True, repr=False)
class Cyclic(GroupSpec):
    """C_n = Z/nZ; payloads in {0..n-1}, length min(j, n-j)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"cyclic order must be >= 1, got {self.n}")

    @property
    def label(self):
        return f"C{self.n}"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return (self.validate(a) + self.validate(b)) % self.n

    def inverse(self, a):
        return (-self.validate(a)) % self.n

    def word_length(self, a):
        a = self.validate(a)
        return min(a, self.n - a) if a else 0

    def validate(self, a):
        if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < self.n:
            raise SpecMismatchError(f"not a C{self.n} payload: {a!r}")
        return a

    def quotient_lengths(self, elements):
        x = np.array([self.validate(a) for a in elements], dtype=np.int64)
        delta = np.subtract.outer(x, x) % self.n
        return _narrow(np.minimum(delta, self.n - delta))

    def generating_set(self):
        if self.n == 1:
            return ()
        if self.n == 2:
            return (1,)
        return (1, self.n - 1)

    def _spheres(self, r, limit):
        # r <= n // 2, and at r = n / 2 the two directions meet
        return [1] + [2] * r if 2 * r < self.n else [1] + [2] * (r - 1) + [1]

    def is_finite(self):
        return True

    def order(self):
        return self.n

    def diameter(self):
        return self.n // 2

    def axes(self):
        return (self.n,)

    def coordinates(self, a):
        return (self.validate(a),)

    def parse_element(self, text):
        """An integer in -n < x < n; a negative x spells the inverse of -x."""
        x = _as_int(text)
        if not -self.n < x < self.n:
            raise ConfigError(f"{x} is out of range for C{self.n}: need |x| < {self.n}")
        return x % self.n

    def format_element(self, a):
        return str(a)


@dataclass(frozen=True, repr=False)
class FreeGroup(GroupSpec):
    """F_k on letters a, b, c, ...; payloads are reduced signed-index words."""

    k: int

    def __post_init__(self):
        if not 1 <= self.k <= 26:
            raise ConfigError(f"free rank must be in 1..26, got {self.k}")

    @property
    def label(self):
        return f"F{self.k}"

    def identity(self):
        return ()

    def multiply(self, a, b):
        return free_mul(self.validate(a), self.validate(b))

    def inverse(self, a):
        return tuple(-v for v in reversed(self.validate(a)))

    def word_length(self, a):
        return len(self.validate(a))

    def validate(self, a):
        if not isinstance(a, tuple):
            raise SpecMismatchError(f"not a word payload: {a!r}")
        for i, v in enumerate(a):
            if not isinstance(v, int) or v == 0 or abs(v) > self.k:
                raise SpecMismatchError(f"letter {v!r} outside F{self.k}")
            if i and a[i - 1] == -v:
                raise SpecMismatchError(f"word not reduced at position {i}: {a!r}")
        return a

    def quotient_lengths(self, elements):
        """|g| + |h| - 2 lcs(g, h): the common suffix of g and h cancels in
        g h^-1 and nothing else does.  lcs is the number of suffix lengths s
        at which both words have the same suffix, found by one equality of
        integer suffix ids per s.  The elements may be any list of words,
        repeats included, in any order.

        The id at s is the rank of the pair (id at s - 1, letter at -s),
        read off the right-aligned letter matrix, so the loop over s does
        no per-word Python work.  A word shorter than s takes an id of its
        own, negative, which equals no other word's; it still equals
        itself, so the diagonal, where g h^-1 = e, is zeroed at the end."""
        letters, lens = right_aligned_letters([self.validate(a) for a in elements])
        n, top = letters.shape
        width = lens.astype(np.min_scalar_type(2 * top))
        out = np.add.outer(width, width)
        own = -1 - np.arange(n)
        ids = np.zeros(n, dtype=np.int64)
        # ids lie in -n..n-1, so the n^2 comparisons read them in the
        # smallest signed dtype that holds them, not in int64
        small = np.min_scalar_type(-n)
        eq = np.empty((n, n), dtype=bool)
        for s in range(1, top + 1):
            pairs = ids * (2 * self.k + 1) + letters[:, top - s]
            ids = np.where(lens >= s, np.unique(pairs, return_inverse=True)[1], own)
            tag = ids.astype(small)
            np.equal.outer(tag, tag, out=eq)
            # unsigned: the diagonal may wrap here, and is overwritten below
            out -= eq
            out -= eq
        np.fill_diagonal(out, 0)
        return out

    def generating_set(self):
        return tuple((v,) for v in _letters(self.k))

    def _enumerate_ball(self, n, cap):
        # free_ball_words already emits length-lex order
        return free_ball_words(self.k, n, cap)

    def _sphere_sizes(self, n, cap):
        # the word tree's level sizes, refused as free_ball_words refuses
        return free_sphere_sizes(self.k, n, cap)

    def parse_element(self, text):
        text = text.strip()
        if text in ("e", ""):
            return ()
        # a stack of the letters kept: each cancels the last when it is its
        # inverse, so the word is reduced in one pass
        word = []
        for ch in text:
            if "a" <= ch <= "z":
                v = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                v = -(ord(ch) - ord("A") + 1)
            else:
                raise ConfigError(f"bad letter {ch!r} in word {text!r}")
            if abs(v) > self.k:
                raise ConfigError(f"letter {ch!r} outside F{self.k}")
            if word and word[-1] == -v:
                word.pop()
            else:
                word.append(v)
        return tuple(word)

    def format_element(self, a):
        if not a:
            return "e"
        out = []
        for v in a:
            ch = chr(ord("a") + abs(v) - 1)
            out.append(ch.upper() if v < 0 else ch)
        return "".join(out)


def right_aligned_letters(words: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """The letters of each word right-aligned in one int8 row of width the
    longest word's length, 0 on the left of a shorter word, and the word
    lengths.  A word ends in c exactly when its last len(c) columns equal
    c; its letter at -s is column width - s.  The letters are laid out by
    one scatter, with no per-word Python work beyond len."""
    lens = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    top = int(lens.max()) if len(words) else 0
    letters = np.zeros((len(words), top), dtype=np.int8)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(words) else 0
    # the p-th letter of the concatenation is letter p - (end - len) of its
    # word, which sits in column top - len plus that
    cols = top + np.arange(total) - np.repeat(ends, lens)
    letters[np.repeat(np.arange(len(words)), lens), cols] = np.fromiter(
        chain.from_iterable(words), dtype=np.int8, count=total
    )
    return letters, lens


@dataclass(frozen=True, repr=False)
class ProductGroup(GroupSpec):
    """Finite direct product; word length is the sum over factors."""

    factors: Tuple[GroupSpec, ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ConfigError("product needs at least two factors")

    @property
    def label(self):
        return "x".join(f.label for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    # the factor methods validate their own components, so the product
    # methods only check the tuple shape
    def multiply(self, a, b):
        a = self._components(a)
        b = self._components(b)
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, self._components(a)))

    def word_length(self, a):
        return sum(f.word_length(x) for f, x in zip(self.factors, self._components(a)))

    def validate(self, a):
        for f, x in zip(self.factors, self._components(a)):
            f.validate(x)
        return a

    def quotient_lengths(self, elements):
        parts = zip(*(self._components(a) for a in elements))
        out = np.zeros((len(elements), len(elements)), dtype=np.int64)
        for f, part in zip(self.factors, parts):
            out += f.quotient_lengths(part)
        return _narrow(out)

    def _components(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise SpecMismatchError(f"not a {self.label} payload: {a!r}")
        return a

    def generating_set(self):
        e = self.identity()
        return tuple(
            e[:i] + (s,) + e[i + 1 :]
            for i, f in enumerate(self.factors)
            for s in f.generating_set()
        )

    def element_size(self):
        return sum(f.element_size() for f in self.factors)

    def _spheres(self, r, limit):
        """The l1 length's spheres, the convolution of the factors' truncated
        at r, one factor folded in at a time.  A partial product's ball is a
        sub-ball of the product's, so the fold stops once its running size
        passes ``limit``; each term multiplies two non-empty spheres, so the
        work stays within ``limit`` too."""
        spheres = [1]
        for f in self.factors:
            other = f._sphere_sizes(r, limit * f.element_size())
            out, total = [], 0
            for j in range(min(r, len(spheres) + len(other) - 2) + 1):
                lo, hi = max(0, j - len(other) + 1), min(j, len(spheres) - 1)
                out.append(sum(spheres[i] * other[j - i] for i in range(lo, hi + 1)))
                total += out[-1]
                if total > limit:
                    raise ResourceCapError(f"ball of {self.label} exceeds {limit} elements")
            spheres = out
        return spheres

    def axes(self):
        return tuple(m for f in self.factors for m in f.axes())

    def coordinates(self, a):
        parts = zip(self.factors, self._components(a))
        return tuple(x for f, part in parts for x in f.coordinates(part))

    def is_finite(self):
        return all(f.is_finite() for f in self.factors)

    def order(self):
        out = 1
        for f in self.factors:
            out *= f.order()
        return out

    def diameter(self):
        return sum(f.diameter() for f in self.factors)

    def parse_element(self, text):
        parts = _split_components(text)
        if len(parts) != len(self.factors):
            raise ConfigError(f"expected {len(self.factors)} components, got {text!r}")
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))

    def format_element(self, a):
        return "(" + ",".join(f.format_element(x) for f, x in zip(self.factors, a)) + ")"


@dataclass(frozen=True, repr=False)
class IntegerLattice(ProductGroup):
    """Z^d as the product of d copies of Z: tuples of d ints, word length
    the l1 norm, generators +-e_1 < +-e_2 < ... in the product's order."""

    factors: Tuple[GroupSpec, ...] = field(init=False)
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"lattice dimension must be >= 1, got {self.d}")
        object.__setattr__(self, "factors", (Integers(),) * self.d)

    @property
    def label(self):
        return f"Z^{self.d}"


def _narrow(table: np.ndarray) -> np.ndarray:
    """A nonnegative integer table in the narrowest unsigned dtype holding it."""
    top = int(table.max()) if table.size else 0
    return table.astype(np.min_scalar_type(top))


def _split_components(text: str) -> List[str]:
    """Split on top-level commas, honoring one level of parentheses."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_group(text: str) -> GroupSpec:
    """Parse a group label: Z, Z^d, Cn, Fk, or products like ZxC3."""
    parts = [p.strip() for p in text.replace("*", "x").split("x")]
    specs = []
    for part in parts:
        if part == "Z":
            specs.append(Integers())
        elif part.startswith("Z^"):
            specs.append(IntegerLattice(_as_int(part[2:])))
        elif part.startswith("C"):
            specs.append(Cyclic(_as_int(part[1:])))
        elif part.startswith("F"):
            specs.append(FreeGroup(_as_int(part[1:])))
        else:
            raise ConfigError(f"unrecognized group {part!r} in {text!r}")
    if len(specs) == 1:
        return specs[0]
    return ProductGroup(tuple(specs))


@dataclass(frozen=True)
class Ball:
    """All elements of word length <= radius, in the fixed length-lex order.

    elements[0] is always the identity; index_of inverts positional lookup
    and is built on first use.
    """

    spec: GroupSpec
    radius: int
    elements: Tuple[Element, ...]

    @cached_property
    def index_of(self) -> Dict[Element, int]:
        return {g: i for i, g in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.index_of

    def __getitem__(self, i: int) -> Element:
        return self.elements[i]

    def index(self, g: Element) -> int:
        try:
            return self.index_of[g]
        except KeyError:
            raise SpecMismatchError(
                f"{self.spec.format_element(g)} outside radius-{self.radius} ball"
            ) from None


def ball(spec: GroupSpec, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Ball:
    if n < 0:
        raise ConfigError(f"ball radius must be >= 0, got {n}")
    elems = tuple(spec._enumerate_ball(n, cap))
    return Ball(spec, n, elems)


def sphere_sizes(spec: GroupSpec, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> List[int]:
    """|S_0|, ..., |S_n| of spec, cut at a finite group's diameter, with no
    element built.  Refuses what ball(spec, n, cap) refuses, with its
    message."""
    if n < 0:
        raise ConfigError(f"ball radius must be >= 0, got {n}")
    return spec._sphere_sizes(n, cap)


def sphere(spec: GroupSpec, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> List[Element]:
    return [g for g in ball(spec, n, cap) if spec.word_length(g) == n]


def whole_group_ball(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> Ball:
    """The full group as a ball; finite groups only."""
    if not spec.is_finite():
        raise SpecMismatchError(f"{spec.label} is infinite; pick a radius")
    return ball(spec, spec.diameter(), cap)
