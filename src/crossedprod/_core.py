"""Free-group word kernels.

Words are freely reduced tuples of nonzero signed generator indices
(``1..k`` for generators, ``-1..-k`` for inverses).  The letter order is
``a1 < a1^-1 < a2 < a2^-1 < ...``, and enumeration is length-lexicographic
with respect to it.  ``free_ball_words`` builds the ball as tuples;
``free_t_count`` only counts, so it walks the ball as level arrays with
one numpy entry per word.
"""

import numpy as np

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
    cancel against the tail of ``t``.  B_n is enumerated as level arrays
    with one entry per reduced word of each length: its last letter, its
    ``j``, and whether it still matches the tail.  Each level's children
    repeat their parent's entry, and a histogram of ``j`` per level counts
    the words that land in B_n.  The cap is checked before each level is
    built.
    """
    if not 1 <= k <= np.iinfo(np.int8).max:
        raise ValueError(f"free rank must be in 1..127, got {k}")
    if n < 0:
        raise ValueError(f"radius must be >= 0, got {n}")
    ell = len(t)
    # tail[m] is the letter of t that the (m+1)'th letter of h must cancel
    tail = [-t[ell - 1 - m] for m in range(ell)]
    letters = np.array(_letters(k), dtype=np.int8)
    # allowed[v] lists the letters that may follow the letter v, so a signed
    # int8 letter indexes its own row; row 0 is never read
    allowed = np.zeros((2 * k + 1, 2 * k - 1), dtype=np.int8)
    for v in letters:
        allowed[v] = letters[letters != -v]

    total = 1
    if total > cap:
        raise ResourceCapError(f"ball of F_{k} at radius {n} exceeds cap {cap}")
    count = int(ell <= n)
    last = letters
    matched = np.zeros(1, dtype=np.min_scalar_type(min(ell, n)))
    matching = np.ones(1, dtype=bool)
    for depth in range(1, n + 1):
        fanout = 2 * k if depth == 1 else 2 * k - 1
        total += matched.size * fanout
        if total > cap:
            raise ResourceCapError(f"ball of F_{k} at radius {n} exceeds cap {cap}")
        if depth > 1:
            last = allowed[last].ravel()
        cancel = tail[depth - 1] if depth <= ell else 0
        matching = np.repeat(matching, fanout) & (last == cancel)
        matched = np.repeat(matched, fanout) + matching
        # the words of this level with ell + depth - 2 j <= n
        lo = max(0, -((n - ell - depth) // 2))
        count += int(np.bincount(matched)[lo:].sum())
    return count
