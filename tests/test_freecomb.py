from fractions import Fraction

import pytest

from crossedprod import freecomb
from crossedprod.errors import SpecMismatchError
from crossedprod.freecomb import (
    ball_overlap_ratio,
    ball_size,
    chi_limit_free,
    chi_ratio,
    count_table,
    fin_gen_lower_bound,
    representative_word,
    sphere_size,
    t_count_bruteforce,
    t_count_closed,
)
from crossedprod.groups import FreeGroup, IntegerLattice, ball

# enumerated once with the streaming kernel, frozen here
BALL_SIZES = {
    2: [1, 5, 17, 53, 161, 485, 1457, 4373],
    3: [1, 7, 37, 187, 937, 4687, 23437, 117187],
}

T_COUNTS = {
    (2, 1, 2): 8,
    (2, 1, 3): 26,
    (2, 1, 4): 80,
    (2, 2, 4): 53,
    (2, 2, 5): 161,
    (2, 3, 6): 242,
    (3, 1, 2): 12,
    (3, 2, 4): 187,
}


@pytest.mark.parametrize("k", [2, 3])
def test_ball_and_sphere_sizes(k):
    for n, size in enumerate(BALL_SIZES[k]):
        assert ball_size(k, n) == size
    for n in range(1, 8):
        assert sphere_size(k, n) == BALL_SIZES[k][n] - BALL_SIZES[k][n - 1]
    assert sphere_size(k, 0) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_ball_size_matches_enumeration(k):
    for n in range(6):
        assert ball_size(k, n) == len(ball(FreeGroup(k), n))


def test_sphere_size_formula():
    assert sphere_size(2, 1) == 4
    assert sphere_size(2, 2) == 12
    assert sphere_size(3, 2) == 30


@pytest.mark.parametrize("key", sorted(T_COUNTS))
def test_t_count_frozen_values(key):
    k, ell, n = key
    t = representative_word(ell)
    assert t_count_closed(k, ell, n) == T_COUNTS[key]
    assert t_count_bruteforce(k, [t], [n]) == [[T_COUNTS[key]]]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("ell", range(4))
def test_closed_form_matches_bruteforce(k, ell):
    for n in range(2 * ell, min(2 * ell + 2, 7) + 1):
        t = representative_word(ell)
        assert [[t_count_closed(k, ell, n)]] == t_count_bruteforce(k, [t], [n])


def test_t_count_is_word_independent():
    # count depends on t only through its length
    for t in [(1, 1), (1, 2), (2, -1), (-2, -2)]:
        assert t_count_bruteforce(2, [t], [5]) == [[t_count_closed(2, 2, 5)]]
    for t in [(1, 2, 1), (1, -2, 1), (2, 1, 2)]:
        assert t_count_bruteforce(2, [t], [6]) == [[t_count_closed(2, 3, 6)]]
    # and all of them from one walk, a row each
    words = [(1, 1), (1, 2), (2, -1), (-2, -2), (1, 2, 1), (1, -2, 1), (2, 1, 2)]
    want = [t_count_closed(2, len(t), 6) for t in words]
    assert t_count_bruteforce(2, words, [6]) == [[c] for c in want]


def test_t_count_precondition():
    with pytest.raises(ValueError):
        t_count_closed(2, 2, 3)
    # n = 2*ell is the first admissible radius
    assert t_count_closed(2, 2, 4) == 53


def test_t_count_length_zero_is_ball():
    for n in range(6):
        assert t_count_closed(2, 0, n) == ball_size(2, n)


def test_chi_ratio_values():
    assert chi_ratio(2, (1,), 2) == Fraction(8, 17)
    assert chi_ratio(2, (1,), 3) == Fraction(26, 53)
    assert chi_ratio(2, (1,), 4) == Fraction(80, 161)
    assert chi_ratio(2, (1,), 5) == Fraction(242, 485)
    assert chi_ratio(2, (1, 1), 4) == Fraction(53, 161)
    assert chi_ratio(2, (1, 2, 1), 6) == Fraction(242, 1457)


def test_chi_limit_values():
    assert chi_limit_free(2, 0) == 1
    assert chi_limit_free(2, 1) == Fraction(1, 2)
    assert chi_limit_free(2, 2) == Fraction(1, 3)
    assert chi_limit_free(2, 3) == Fraction(1, 6)
    assert chi_limit_free(3, 1) == Fraction(1, 3)
    assert chi_limit_free(3, 2) == Fraction(1, 5)


@pytest.mark.parametrize("k,ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_chi_ratio_error_decreases(k, ell):
    limit = chi_limit_free(k, ell)
    t = representative_word(ell)
    errs = [abs(chi_ratio(k, t, n) - limit) for n in range(2 * ell, 8)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_lower_bound_values():
    assert fin_gen_lower_bound(2, 2) == Fraction(1, 3)
    assert fin_gen_lower_bound(4, 1) == Fraction(1, 4)
    assert fin_gen_lower_bound(4, 2) == Fraction(2, 26)
    assert fin_gen_lower_bound(3, 2) == Fraction(1, 7)
    # k = 2 degenerates to 1/(ell+1)
    for ell in range(5):
        assert fin_gen_lower_bound(2, ell) == Fraction(1, ell + 1)
    # closed form (k-2)/((k-1)^(ell+1)-1) for k >= 3
    for k in (3, 4, 5):
        for ell in range(5):
            assert fin_gen_lower_bound(k, ell) == Fraction(
                k - 2, (k - 1) ** (ell + 1) - 1
            )


def test_lower_bound_monotone_in_length():
    vals = [fin_gen_lower_bound(4, ell) for ell in range(6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ball_overlap_free_group():
    F2 = FreeGroup(2)
    assert freecomb.ball_overlap_count(F2, (1,), 2) == 8
    assert ball_overlap_ratio(F2, (1,), 2) == Fraction(8, 17)
    # overlap of B_n with itself
    assert ball_overlap_ratio(F2, (), 3) == 1


def test_ball_overlap_generic_matches_free_path():
    F2 = FreeGroup(2)
    for g in [(1,), (1, 2), (2, -1, 2)]:
        n = 2 * len(g)
        brute = sum(
            1
            for h in ball(F2, n)
            if F2.word_length(F2.multiply(g, h)) <= n
        )
        assert freecomb.ball_overlap_count(F2, g, n) == brute


def test_ball_overlap_lattice():
    L = IntegerLattice(2)
    r = ball_overlap_ratio(L, (1, 0), 2)
    assert r == Fraction(8, 13)
    assert 0 < r <= 1


def test_overlap_beats_lower_bound_small():
    # the bound takes k = size of the symmetric generating set, 4 here
    F2 = FreeGroup(2)
    for g in [(1,), (1, 2)]:
        ell = len(g)
        for n in range(ell, 5):
            assert ball_overlap_ratio(F2, g, n) >= fin_gen_lower_bound(4, ell)


def test_count_table_rows():
    rows = count_table(2, 1)
    keys = {(r.ell, r.n) for r in rows}
    assert keys == {(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4)}
    for r in rows:
        assert r.closed == r.brute
        assert r.ratio == Fraction(r.closed, ball_size(r.k, r.n))
        assert r.limit == chi_limit_free(r.k, r.ell)


@pytest.mark.parametrize(
    "radii, last", [(None, 3), ([0, 3, 9], 4), ([3], 1), ([], -1)]
)
def test_count_table_stops_at_half_the_largest_radius(monkeypatch, radii, last):
    """No row has n < 2 ell, so words past half the largest radius are
    never built, however large lmax is."""
    seen = []
    real = freecomb.representative_word

    def spy(ell):
        seen.append(ell)
        return real(ell)

    monkeypatch.setattr(freecomb, "representative_word", spy)
    rows = count_table(2, 20000, radii)
    assert seen == list(range(last + 1))
    assert {r.ell for r in rows} == set(range(last + 1))
    assert all(r.n >= 2 * r.ell for r in rows)


def test_representative_word():
    assert representative_word(0) == ()
    assert representative_word(1) == (1,)
    assert representative_word(4) == (1, 2, 1, 2)
    F = FreeGroup(2)
    for ell in range(6):
        assert F.word_length(representative_word(ell)) == ell


def test_overlap_requires_supported_spec():
    from crossedprod.groups import Cyclic

    # finite groups: overlap with whole group is total
    assert ball_overlap_ratio(Cyclic(5), 2, 10) == 1
    with pytest.raises(SpecMismatchError):
        freecomb.t_count_bruteforce(2, [(1, -1)], [4])
