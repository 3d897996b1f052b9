import pytest

import crossedprod
from crossedprod import _core
from crossedprod.errors import ResourceCapError
from crossedprod.freecomb import t_count_closed
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
    assert _core.free_t_count(k, t, n, 10**7) == t_count_closed(k, len(t), n)


def test_ball_words_cap_error():
    with pytest.raises(ResourceCapError):
        _core.free_ball_words(3, 9, 10**4)


def test_word_multiplication_reduces():
    assert _core.free_mul((1, 2), (-2, -1)) == ()
    assert _core.free_mul((1, 2), (-2, 1)) == (1, 1)
    assert _core.free_mul((), (3,)) == (3,)
