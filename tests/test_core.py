from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossedprod
from crossedprod import _core
from crossedprod.errors import ResourceCapError
from crossedprod.freecomb import ball_size, t_count_closed
from crossedprod.groups import FreeGroup, GroupSpec


def test_backend_tag():
    # report provenance and --version read this tag
    assert crossedprod.BACKEND == _core.BACKEND == "pure"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(5))
def test_ball_words_match_generic_search(k, n):
    words = _core.free_ball_words(k, n, 10**6)
    assert words == GroupSpec._enumerate_ball(FreeGroup(k), n, 10**6)


@pytest.mark.parametrize(
    "k,t,n",
    [
        (2, (), 3),
        (2, (1,), 4),
        (2, (1, 2), 5),
        (2, (1, -2, 1), 6),
        (3, (1,), 3),
        (3, (2, 3), 5),
    ],
)
def test_t_count_matches_closed_form(k, t, n):
    assert _core.free_t_count(k, [t], [n], 10**7) == [[t_count_closed(k, len(t), n)]]


def test_ball_words_cap_error():
    with pytest.raises(ResourceCapError):
        _core.free_ball_words(3, 9, 10**4)


# every radius whose ball has at most 10**5 words: F2 to 9, F3 to 6, F4 to 5.
# The words of B_n(F1) hold n**2 letters, so F1 stops at 2000 here and
# test_f1_spheres_are_pairs_up_to_the_cap covers its larger radii.
SPHERE_CASES = [(1, n) for n in (0, 1, 2, 50, 2000)] + [
    (k, n) for k, top in ((2, 9), (3, 6), (4, 5)) for n in range(top + 1)
]


@pytest.mark.parametrize("k, n", SPHERE_CASES)
def test_sphere_sizes_count_the_ball_words_by_length(k, n):
    lengths = Counter(map(len, _core.free_ball_words(k, n, 10**5)))
    assert _core.free_sphere_sizes(k, n, 10**5) == [lengths[j] for j in range(n + 1)]


def test_f1_spheres_are_pairs_up_to_the_cap():
    # |B_n(F1)| = 2n + 1, so 10**5 admits n = 49999 and refuses n = 50000
    assert _core.free_sphere_sizes(1, 49999, 10**5) == [1] + [2] * 49999
    with pytest.raises(ResourceCapError, match="ball of F_1 at radius 50000 exceeds cap 100000"):
        _core.free_sphere_sizes(1, 50000, 10**5)


def test_word_multiplication_reduces():
    assert _core.free_mul((1, 2), (-2, -1)) == ()
    assert _core.free_mul((1, 2), (-2, 1)) == (1, 1)
    assert _core.free_mul((), (3,)) == (3,)


def dfs_t_count(k, t, n, cap):
    """Reference |T_n(t)|: a depth-first walk of the word tree, one stack
    entry per reduced word, raising once it has visited more than cap."""
    letters = _core._letters(k)
    ell = len(t)
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


def dfs_t_counts(k, words, radii, cap):
    """Reference rows: one dfs_t_count per word and radius, radii outer, so
    the first radius in order whose ball is over the cap raises."""
    by_radius = [[dfs_t_count(k, t, n, cap) for t in words] for n in radii]
    return [[counts[i] for counts in by_radius] for i in range(len(words))]


def outcome(count, *args):
    try:
        return count(*args)
    except ResourceCapError as exc:
        return str(exc)


@st.composite
def reduced_words(draw, k, max_len):
    letters = draw(st.lists(st.sampled_from(_core._letters(k)), max_size=max_len))
    return reduce(lambda w, v: _core.free_mul(w, (v,)), letters, ())


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_t_count_matches_the_depth_first_reference(data, k):
    # several words, including the empty one and words longer than a radius,
    # against unordered and repeated radii in one call
    words = data.draw(st.lists(reduced_words(k, 5), min_size=1, max_size=3), label="words")
    radii = data.draw(st.lists(st.integers(0, 6), max_size=4), label="radii")
    cap = data.draw(st.one_of(st.just(10**6), st.integers(1, 3000)), label="cap")
    got = outcome(_core.free_t_count, k, words, radii, cap)
    assert got == outcome(dfs_t_counts, k, words, radii, cap)


def test_t_count_checks_the_cap_before_building_a_level(monkeypatch):
    # |B_6(F2)| = 1457: at cap 1456 no level is allocated, not even the
    # ones of the radii before 6, and the error names 6, the first radius
    # in order over the cap
    sizes = []
    real = np.repeat

    def spy(a, repeats, *args, **kwargs):
        out = real(a, repeats, *args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "repeat", spy)
    with pytest.raises(ResourceCapError, match="ball of F_2 at radius 6 exceeds cap 1456"):
        _core.free_t_count(2, [(1, 2)], [2, 6, 3, 7], ball_size(2, 6) - 1)
    assert sizes == []
    assert _core.free_t_count(2, [(1, 2)], [6], ball_size(2, 6)) == [[t_count_closed(2, 2, 6)]]
    assert max(sizes) == 972


def test_t_count_walks_the_largest_ball_once(monkeypatch):
    walks = []
    real = _core._levels

    def spy(k, n, cap):
        walks.append(n)
        return real(k, n, cap)

    monkeypatch.setattr(_core, "_levels", spy)
    words = [(), (1,), (1, 2), (2, -1, 2)]
    rows = _core.free_t_count(2, words, [6, 0, 4, 4], 10**6)
    assert walks == [6]
    assert rows == [[dfs_t_count(2, t, n, 10**6) for n in (6, 0, 4, 4)] for t in words]
