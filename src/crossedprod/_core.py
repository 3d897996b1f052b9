"""Free-group word kernels.

Words are freely reduced tuples of nonzero signed generator indices
(``1..k`` for generators, ``-1..-k`` for inverses).  The letter order is
``a1 < a1^-1 < a2 < a2^-1 < ...``, and enumeration is length-lexicographic
with respect to it.
"""

from .errors import ResourceCapError

# Kernel path tag printed by ``--version`` and recorded in report provenance.
BACKEND = "pure"


def _letters(k):
    # [1, -1, 2, -2, ..., k, -k] -- the fixed generator order
    out = []
    for i in range(1, k + 1):
        out.append(i)
        out.append(-i)
    return out


def free_ball_words(k, n, cap):
    """All reduced words of length <= n in F_k, length-lex ordered.

    Raises ResourceCapError as soon as the enumeration exceeds ``cap``
    elements.
    """
    if k < 1:
        raise ValueError(f"free rank must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"radius must be >= 0, got {n}")
    letters = _letters(k)
    words = [()]
    total = 1
    if total > cap:
        raise ResourceCapError(f"ball of F_{k} at radius {n} exceeds cap {cap}")
    frontier = [()]
    for _ in range(n):
        nxt = []
        for w in frontier:
            last = w[-1] if w else 0
            for v in letters:
                if v == -last:
                    continue
                total += 1
                if total > cap:
                    raise ResourceCapError(
                        f"ball of F_{k} at radius {n} exceeds cap {cap}"
                    )
                nxt.append(w + (v,))
        words.extend(nxt)
        frontier = nxt
    return words


def free_mul(a, b):
    """Product of two reduced words, freely reduced."""
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def free_t_count(k, t, n, cap):
    """|{h in B_n : len(t h) <= n}| by exhaustive enumeration of B_n.

    ``t`` must be a reduced word.  The reduced length of ``t h`` is
    ``len(t) + len(h) - 2 j`` where ``j`` counts the letters of ``h`` that
    cancel against the tail of ``t``; the enumeration tracks ``j``
    incrementally along the word tree.
    """
    if k < 1:
        raise ValueError(f"free rank must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"radius must be >= 0, got {n}")
    letters = _letters(k)
    ell = len(t)
    # tail[m] is the letter of t that the (m+1)'th letter of h must cancel
    tail = [-t[ell - 1 - m] for m in range(ell)]
    count = 0
    visited = 0

    # stack entries: (word_last, depth, matched, still_matching)
    stack = [(0, 0, 0, True)]
    while stack:
        last, depth, matched, matching = stack.pop()
        visited += 1
        if visited > cap:
            raise ResourceCapError(f"ball of F_{k} at radius {n} exceeds cap {cap}")
        if ell + depth - 2 * matched <= n:
            count += 1
        if depth == n:
            continue
        for v in reversed(letters):
            if v == -last:
                continue
            if matching and depth < ell and v == tail[depth]:
                stack.append((v, depth + 1, matched + 1, True))
            else:
                stack.append((v, depth + 1, matched, False))
    return count
