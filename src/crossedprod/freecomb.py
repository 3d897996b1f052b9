"""Exact ball combinatorics of free groups and finitely generated groups.

Everything here is integer or rational arithmetic; floats never enter.
Closed-form counts are validated against brute-force enumeration in the
test suite, so they can be trusted at radii where enumeration is
infeasible.

Notation: k is the free rank (or the symmetric generator count where
stated), q = 2k-1, B_n the radius-n word-metric ball, and for a group
element t, T_n(t) = {h in B_n : l(th) <= n} so that the overlap ratio
|B_n meet tB_n| / |B_n| equals |T_n(t)| / |B_n|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from ._core import free_t_count
from .groups import DEFAULT_ELEMENT_CAP, Element, FreeGroup, GroupSpec, ball


def sphere_size(k: int, n: int) -> int:
    """Number of reduced words of length exactly n in F_k."""
    _check_rank(k, radius=n)
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


def ball_size(k: int, n: int) -> int:
    """|B_n| = (k(2k-1)^n - 1)/(k-1), exact."""
    _check_rank(k, radius=n)
    size, rem = divmod(k * (2 * k - 1) ** n - 1, k - 1)
    assert rem == 0, (k, n)
    return size


def t_count_closed(k: int, ell: int, n: int) -> int:
    """|T_n(t)| for any t of length ell, by the closed form.

    Requires n >= 2*ell; below that the sphere-by-sphere count changes
    shape and the formula does not apply.
    """
    _check_rank(k, length=ell)
    if n < 2 * ell:
        raise ValueError(f"closed form needs n >= 2*ell, got n={n}, ell={ell}")
    if ell == 0:
        return ball_size(k, n)
    q = 2 * k - 1
    m, odd = divmod(ell, 2)
    if odd:
        num = 2 * q ** (n - m) - 2
    else:
        num = q ** (n - m + 1) + q ** (n - m) - 2
    count, rem = divmod(num, q - 1)
    assert rem == 0, (k, ell, n)
    return count


def t_count_bruteforce(
    k: int, words: Sequence[tuple], radii: Sequence[int], cap: int = DEFAULT_ELEMENT_CAP
) -> List[List[int]]:
    """|T_n(t)| for each t of ``words`` (a row each) and n of ``radii`` (in
    their order), by one exhaustive enumeration of the largest ball in F_k."""
    _check_rank(k)
    for t in words:
        FreeGroup(k).validate(t)
    return free_t_count(k, words, radii, cap)


def chi_ratio(k: int, t: tuple, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Fraction:
    """Exact overlap ratio |B_n meet tB_n| / |B_n| in F_k."""
    return Fraction(t_count_bruteforce(k, [t], [n], cap)[0][0], ball_size(k, n))


def chi_limit_free(k: int, ell: int) -> Fraction:
    """Limit of the overlap ratio as n grows, for t of length ell in F_k.

    1/q^m when ell = 2m, and 1/(k q^m) when ell = 2m + 1.
    """
    _check_rank(k, length=ell)
    q = 2 * k - 1
    m, odd = divmod(ell, 2)
    if odd:
        return Fraction(1, k * q**m)
    return Fraction(1, q**m)


def fin_gen_lower_bound(k: int, ell: int) -> Fraction:
    """Universal lower bound on the limiting overlap ratio at length ell.

    k counts the symmetric generating set (so F_r contributes k = 2r).
    The bound is 1 / (1 + (k-1) + ... + (k-1)^ell); for k >= 3 this equals
    (k-2) / ((k-1)^(ell+1) - 1), and at k = 2 the geometric sum degenerates
    to 1/(ell+1).
    """
    if k < 2:
        raise ValueError(f"need at least 2 symmetric generators, got {k}")
    if ell < 0:
        raise ValueError(f"length must be >= 0, got {ell}")
    denom = sum((k - 1) ** j for j in range(ell + 1))
    return Fraction(1, denom)


def ball_overlap_count(
    spec: GroupSpec, g: Element, n: int, cap: int = DEFAULT_ELEMENT_CAP
) -> int:
    """|B_n meet gB_n| for any supported group, by direct enumeration."""
    spec.validate(g)
    if isinstance(spec, FreeGroup):
        return free_t_count(spec.k, [spec.inverse(g)], [n], cap)[0][0]
    return sum(1 for h in ball(spec, n, cap) if spec.word_length(spec.multiply(g, h)) <= n)


def ball_overlap_ratio(
    spec: GroupSpec, g: Element, n: int, cap: int = DEFAULT_ELEMENT_CAP
) -> Fraction:
    return Fraction(ball_overlap_count(spec, g, n, cap), len(ball(spec, n, cap)))


@dataclass(frozen=True)
class FreeCount:
    """One row of a closed-form-vs-enumeration comparison."""

    k: int
    ell: int
    n: int
    closed: int
    brute: int
    ratio: Fraction
    limit: Fraction


def representative_word(ell: int) -> tuple:
    """A fixed reduced word of length ell (alternating letters)."""
    return tuple(1 if i % 2 == 0 else 2 for i in range(ell))


def count_table(
    k: int, lmax: int, radii: Optional[Sequence[int]] = None, cap: int = DEFAULT_ELEMENT_CAP
) -> List[FreeCount]:
    """Closed-form vs brute-force |T_n(t)| rows for ell in 0..lmax.

    Default radii per ell: n in {2*ell .. min(2*ell + 2, 7)}.  A row needs
    n >= 2*ell, so ell stops at half the largest radius.  One enumeration
    of the largest ball counts every row; the cap is checked in row order.
    """
    _check_rank(k)
    top = 7 if radii is None else max(radii, default=-1)
    ells = range(min(lmax, top // 2) + 1)
    pairs = [
        (ell, n)
        for ell in ells
        for n in (range(2 * ell, min(2 * ell + 2, top) + 1) if radii is None else radii)
        if n >= 2 * ell
    ]
    words = [representative_word(ell) for ell in ells]
    brute = t_count_bruteforce(k, words, [n for _, n in pairs], cap)
    return [
        FreeCount(k, ell, n, t_count_closed(k, ell, n), brute[ell][i],
                  Fraction(brute[ell][i], ball_size(k, n)), chi_limit_free(k, ell))
        for i, (ell, n) in enumerate(pairs)
    ]


def _check_rank(k: int, **lengths: int):
    if k < 2:
        raise ValueError(f"free rank must be >= 2, got {k}")
    for name, value in lengths.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
