"""Free-group word kernels.

Words are freely reduced tuples of nonzero signed generator indices
(``1..k`` for generators, ``-1..-k`` for inverses).  The letter order is
``a1 < a1^-1 < a2 < a2^-1 < ...``, and enumeration is length-lexicographic
with respect to it.  Both kernels walk one tree, ``_levels``: the ball as
level arrays with one numpy entry per word, its last letter and the index
of its parent one level up.  ``free_ball_words`` builds the words as
tuples from them; ``free_t_count`` only counts, so it keeps one numpy
entry per word.
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


def _levels(k, n, cap):
    """Walk the reduced words of B_n in F_k level by level, length-lex.

    Yields, for each length 1..n, the int8 last letters of that level's
    words and the index of each word's parent in the level before (the
    empty word at length 1).  A parent's children are consecutive and in
    letter order.  The cap is checked before each level is built, so
    ResourceCapError is raised as soon as the ball would exceed ``cap``
    elements and no word past it is allocated.
    """
    if not 1 <= k <= np.iinfo(np.int8).max:
        raise ValueError(f"free rank must be in 1..127, got {k}")
    if n < 0:
        raise ValueError(f"radius must be >= 0, got {n}")
    letters = np.array(_letters(k), dtype=np.int8)
    # allowed[v] lists the letters that may follow the letter v, so a signed
    # int8 letter indexes its own row; row 0 is never read
    allowed = np.zeros((2 * k + 1, 2 * k - 1), dtype=np.int8)
    for v in letters:
        allowed[v] = letters[letters != -v]
    total = 0
    for depth in range(n + 1):
        # |S_0| = 1 and |S_j| = 2k (2k - 1)^(j - 1)
        size = 1 if depth == 0 else 2 * k * (2 * k - 1) ** (depth - 1)
        total += size
        if total > cap:
            raise ResourceCapError(f"ball of F_{k} at radius {n} exceeds cap {cap}")
        if depth:
            last = letters if depth == 1 else allowed[last].ravel()
            yield last, np.repeat(np.arange(prev), size // prev)
        prev = size


def free_ball_words(k, n, cap):
    """All reduced words of length <= n in F_k, length-lex ordered.

    Raises ResourceCapError as soon as the enumeration exceeds ``cap``
    elements.
    """
    words, level = [()], [()]
    for last, parent in _levels(k, n, cap):
        # memoryviews hand out the entries one at a time as Python ints,
        # where lists would hold all of them for the whole level
        level = [level[p] + (v,) for p, v in zip(memoryview(parent), memoryview(last))]
        words.extend(level)
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
    cancel against the tail of ``t``.  B_n is enumerated as the level
    arrays of ``_levels``, with one more entry per word, its ``j``: the
    parent's, plus one when every letter before cancelled and this one
    does too.  Each level counts its words with ``j`` large enough to
    land in B_n.  The cap is checked before each level is built.
    """
    ell = len(t)
    # tail[m] is the letter of t that the (m+1)'th letter of h must cancel
    tail = [-t[ell - 1 - m] for m in range(ell)]
    count = int(ell <= n)
    matched = np.zeros(1, dtype=np.min_scalar_type(min(ell, n)))
    for depth, (last, parent) in enumerate(_levels(k, n, cap), 1):
        matched = matched[parent]
        if depth <= ell:
            matched += (matched == depth - 1) & (last == tail[depth - 1])
        # the words of this level with ell + depth - 2 j <= n
        lo = max(0, -((n - ell - depth) // 2))
        count += int(np.count_nonzero(matched >= lo))
    return count
