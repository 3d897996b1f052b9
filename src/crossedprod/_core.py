"""Free-group word kernels.

Words are freely reduced tuples of nonzero signed generator indices
(``1..k`` for generators, ``-1..-k`` for inverses).  The letter order is
``a1 < a1^-1 < a2 < a2^-1 < ...``, and enumeration is length-lexicographic
with respect to it.  Three kernels walk one tree, ``_levels``: the ball as
level arrays with one numpy entry per word, its last letter and the index
of its parent one level up.  ``free_ball_words`` builds the words as
tuples from them; ``free_sphere_sizes`` reads only each level's length;
``free_t_count`` only counts, for many words and radii from one walk, so
it keeps a few numpy entries per word.
"""

import numpy as np

from .errors import ResourceCapError

# Kernel path tag printed by ``--version`` and recorded in report provenance.
BACKEND = "pure"


def _letters(k):
    # [1, -1, 2, -2, ..., k, -k] -- the fixed generator order
    return [sign * i for i in range(1, k + 1) for sign in (1, -1)]


def _check_ball(k, n, cap):
    """ValueError unless B_n of F_k is defined, ResourceCapError if over ``cap``."""
    if not 1 <= k <= np.iinfo(np.int8).max:
        raise ValueError(f"free rank must be in 1..127, got {k}")
    if n < 0:
        raise ValueError(f"radius must be >= 0, got {n}")
    too_big = f"ball of F_{k} at radius {n} exceeds cap {cap}"
    if k == 1:
        # |B_n| = 2n + 1 grows too slowly for the loop below to stop early
        if 2 * n + 1 > cap:
            raise ResourceCapError(too_big)
        return
    total = 0
    for depth in range(n + 1):
        # |S_0| = 1 and |S_j| = 2k (2k - 1)^(j - 1)
        total += 1 if depth == 0 else 2 * k * (2 * k - 1) ** (depth - 1)
        if total > cap:
            raise ResourceCapError(too_big)


def _levels(k, n, cap):
    """Walk the reduced words of B_n in F_k level by level, length-lex.

    Yields, for each length 1..n, the int8 last letters of that level's
    words and the index of each word's parent in the level before (the
    empty word at length 1).  A parent's children are consecutive and in
    letter order.  A ball over ``cap`` raises ResourceCapError before the
    first level is built.
    """
    _check_ball(k, n, cap)
    letters = np.array(_letters(k), dtype=np.int8)
    # allowed[v] lists the letters that may follow the letter v, so a signed
    # int8 letter indexes its own row; row 0 is never read
    allowed = np.zeros((2 * k + 1, 2 * k - 1), dtype=np.int8)
    for v in letters:
        allowed[v] = letters[letters != -v]
    last = np.zeros(1, dtype=np.int8)
    for depth in range(1, n + 1):
        prev, last = last.size, letters if depth == 1 else allowed[last].ravel()
        yield last, np.repeat(np.arange(prev), last.size // prev)


def free_ball_words(k, n, cap):
    """All reduced words of length <= n in F_k, length-lex ordered.

    Raises ResourceCapError, before any word is built, when the ball
    exceeds ``cap`` elements.
    """
    words, level = [()], [()]
    for last, parent in _levels(k, n, cap):
        # memoryviews hand out the entries one at a time as Python ints,
        # where lists would hold all of them for the whole level
        level = [level[p] + (v,) for p, v in zip(memoryview(parent), memoryview(last))]
        words.extend(level)
    return words


def free_sphere_sizes(k, n, cap):
    """|S_0|, ..., |S_n| of F_k, the lengths of the level arrays, with no
    word built.  Raises ResourceCapError as ``free_ball_words`` does."""
    return [1] + [last.size for last, _ in _levels(k, n, cap)]


def free_mul(a, b):
    """Product of two reduced words, freely reduced."""
    i, j, nb = len(a), 0, len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def free_t_count(k, words, radii, cap):
    """|{h in B_n : len(t h) <= n}| for each reduced word t of ``words`` (a
    row each) and n of ``radii`` (in their order), from one walk of the
    largest ball.  The radii are checked against the cap first, in order.

    For h of length D, ``len(t h) = len(t) + D - 2 j``, where ``j`` counts
    the letters of h that cancel against the tail of t: the parent's count,
    plus one when all before cancelled and the D'th does too.  Past the
    longest word's length L, a level carries only each word's depth-L
    ancestor, whose ``j`` it keeps, and counts the words under it.
    """
    for n in radii:
        _check_ball(k, n, cap)
    top = max(radii, default=0)
    deep = min(max(map(len, words), default=0), top)
    matched = [np.zeros(1, dtype=np.min_scalar_type(deep)) for _ in words]
    # at_least[i][D, j]: the h of length D with at least j letters cancelled
    at_least = [np.zeros((top + 1, len(t) + 2), dtype=np.int64) for t in words]
    for table in at_least:
        table[0, 0] = 1
    for depth, (last, parent) in enumerate(_levels(k, top, cap), 1):
        if depth <= deep:
            for i, t in enumerate(words):
                m = matched[i] = matched[i][parent]
                if depth <= len(t):
                    m += (m == depth - 1) & (last == -t[-depth])
                at_least[i][depth, :-1] = [np.count_nonzero(m >= j) for j in range(len(t) + 1)]
            continue
        # the ids stay sorted, as a parent's children are consecutive, so each
        # id's count is a run length (np.bincount is far slower on few ids)
        ancestor = parent.astype(np.min_scalar_type(parent[-1])) if depth == deep + 1 else ancestor[parent]
        below = np.diff(np.flatnonzero(ancestor[1:] != ancestor[:-1]), prepend=-1, append=ancestor.size - 1)
        for m, table in zip(matched, at_least):
            table[depth] = np.bincount(m, below, table.shape[1])[::-1].cumsum()[::-1]
    n = np.array(radii, dtype=np.int64)[:, None]
    depth = np.arange(top + 1)
    rows = []
    for t, table in zip(words, at_least):
        # h counts when D <= n and j >= (len(t) + D - n) / 2; the last column is 0
        fewest = np.clip((len(t) + depth - n + 1) // 2, 0, len(t) + 1)
        rows.append([int(c) for c in table[depth, np.where(depth <= n, fewest, -1)].sum(axis=1)])
    return rows
