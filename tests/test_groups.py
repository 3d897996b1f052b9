import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedprod import groups
from crossedprod._core import free_ball_words
from crossedprod.errors import ConfigError, ResourceCapError, SpecMismatchError
from crossedprod.groups import (
    Cyclic,
    FreeGroup,
    IntegerLattice,
    Integers,
    ProductGroup,
    ball,
    parse_group,
    sphere,
)

ALL_SPECS = [
    Integers(),
    IntegerLattice(2),
    Cyclic(5),
    Cyclic(6),
    FreeGroup(2),
    ProductGroup((Integers(), Cyclic(3))),
]


def bfs_ball(spec, n):
    """Oracle: elements reachable in <= n generator multiplications."""
    seen = {spec.identity()}
    frontier = [spec.identity()]
    for _ in range(n):
        nxt = []
        for g in frontier:
            for s in spec.generating_set():
                h = spec.multiply(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def test_free_multiply_examples():
    F2 = FreeGroup(2)
    assert F2.multiply((1,), (-1,)) == ()
    assert F2.multiply((1, 2), (-2, 1)) == (1, 1)
    assert F2.multiply((1, 2), (-2, -1)) == ()


def test_cyclic_multiply():
    C4 = Cyclic(4)
    assert C4.multiply(3, 2) == 1
    assert C4.inverse(3) == 1


def test_inverse_examples():
    F2 = FreeGroup(2)
    assert F2.inverse((1, 2)) == (-2, -1)
    assert Integers().inverse(5) == -5
    assert IntegerLattice(2).inverse((1, -3)) == (-1, 3)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_inverse_law(spec):
    for a in ball(spec, 3):
        assert spec.multiply(a, spec.inverse(a)) == spec.identity()


def test_word_length_examples():
    assert FreeGroup(2).word_length((1, 1, 2)) == 3
    assert Integers().word_length(-4) == 4
    assert IntegerLattice(2).word_length((2, -1)) == 3


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_word_length_properties(spec):
    e = spec.identity()
    assert spec.word_length(e) == 0
    B = list(ball(spec, 4))
    for a in B:
        assert spec.word_length(spec.inverse(a)) == spec.word_length(a)
    # subadditivity over sampled pairs
    for a in B[::3]:
        for b in B[::4]:
            assert spec.word_length(spec.multiply(a, b)) <= (
                spec.word_length(a) + spec.word_length(b)
            )


def test_ball_examples():
    assert len(ball(FreeGroup(2), 2)) == 17
    assert len(sphere(FreeGroup(2), 1)) == 4
    assert len(ball(Cyclic(5), 10)) == 5


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("n", range(7))
def test_ball_matches_bfs(spec, n):
    if n == 6 and isinstance(spec, FreeGroup):
        got = set(ball(spec, n).elements)
    else:
        got = set(ball(spec, n).elements)
    assert got == bfs_ball(spec, n)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_sphere_partition(spec):
    sizes = [len(sphere(spec, m)) for m in range(5)]
    assert len(ball(spec, 4)) == sum(sizes)
    seen = set()
    for m in range(5):
        s = set(sphere(spec, m))
        assert not (s & seen)
        seen |= s


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_ball_determinism_and_indexing(spec):
    b1 = ball(spec, 4)
    b2 = ball(spec, 4)
    assert b1.elements == b2.elements
    assert b1.elements[0] == spec.identity()
    for i, g in enumerate(b1):
        assert b1.index(g) == i
    for g in b1:
        assert spec.word_length(g) <= 4


def test_ball_order_is_length_lex():
    assert ball(Integers(), 2).elements == (0, 1, -1, 2, -2)
    assert ball(FreeGroup(2), 1).elements == ((), (1,), (-1,), (2,), (-2,))
    assert ball(Cyclic(4), 2).elements == (0, 1, 3, 2)
    assert ball(IntegerLattice(2), 1).elements == (
        (0, 0),
        (1, 0),
        (-1, 0),
        (0, 1),
        (0, -1),
    )


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        ball(FreeGroup(3), 9, cap=10**5)
    with pytest.raises(ResourceCapError):
        ball(Integers(), 100, cap=50)


def test_payload_validation():
    F2 = FreeGroup(2)
    with pytest.raises(SpecMismatchError):
        F2.validate((1, -1))
    with pytest.raises(SpecMismatchError):
        F2.validate((3,))
    with pytest.raises(SpecMismatchError):
        Cyclic(4).validate(4)
    with pytest.raises(SpecMismatchError):
        IntegerLattice(2).validate((1,))


def test_parse_group_round_trip():
    for text in ["Z", "Z^2", "C4", "F2", "ZxC3", "Z^2xC2"]:
        spec = parse_group(text)
        assert spec.label == text
    with pytest.raises(ConfigError):
        parse_group("Q8")


def test_parse_format_elements():
    F2 = FreeGroup(2)
    assert F2.parse_element("abA") == (1, 2, -1)
    assert F2.parse_element("aA") == ()
    assert F2.format_element((1, 2, -1)) == "abA"
    assert F2.format_element(()) == "e"
    L = IntegerLattice(2)
    assert L.parse_element("(1,-3)") == (1, -3)
    assert L.format_element((1, -3)) == "(1,-3)"
    P = parse_group("ZxC3")
    assert P.parse_element("(4,2)") == (4, 2)
    assert Cyclic(4).parse_element("-1") == 3


def test_finite_group_metadata():
    assert Cyclic(6).order() == 6
    assert Cyclic(6).diameter() == 3
    assert not Integers().is_finite()
    P = ProductGroup((Cyclic(2), Cyclic(3)))
    assert P.is_finite() and P.order() == 6
    assert len(groups.whole_group_ball(P)) == 6
    with pytest.raises(SpecMismatchError):
        groups.whole_group_ball(Integers())


def reference_ball(spec, n):
    """The per-group scans that enumerated balls before the generic search:
    a box scan for Z^d, a whole-group scan for C_n, a scan of the product of
    the factor balls for products, then one global sort."""
    if isinstance(spec, Integers):
        return [0] + [v for j in range(1, n + 1) for v in (j, -j)]
    if isinstance(spec, FreeGroup):
        return free_ball_words(spec.k, n, 10**6)
    if isinstance(spec, IntegerLattice):
        box = itertools.product(range(-n, n + 1), repeat=spec.d)
        out = [v for v in box if sum(abs(x) for x in v) <= n]
    elif isinstance(spec, Cyclic):
        out = [j for j in range(spec.n) if spec.word_length(j) <= n]
    else:
        combos = itertools.product(*(reference_ball(f, n) for f in spec.factors))
        out = [c for c in combos if spec.word_length(c) <= n]
    out.sort(key=spec.sort_key)
    return out


@pytest.mark.parametrize(
    "label,radii",
    [
        ("Z", range(8)),
        ("Z^1", range(6)),
        ("Z^2", range(6)),
        ("Z^3", range(5)),
        ("Z^4", range(4)),
        ("C1", range(3)),
        ("C2", range(3)),
        ("C5", range(5)),
        ("C6", range(5)),
        ("C32", range(0, 18, 3)),
        ("F2", range(5)),
        ("ZxC3", range(5)),
        ("ZxF2", range(4)),
        ("Z^2xC2", range(4)),
        ("C4xC6", range(7)),
        ("F2xF2", range(4)),
    ],
)
def test_ball_order_matches_reference_scans(label, radii):
    spec = parse_group(label)
    for n in radii:
        assert list(ball(spec, n).elements) == reference_ball(spec, n), (label, n)


def _factor_specs():
    return st.one_of(
        st.just(Integers()),
        st.integers(1, 3).map(IntegerLattice),
        st.integers(1, 12).map(Cyclic),
        st.integers(1, 3).map(FreeGroup),
    )


GROUP_SPECS = st.one_of(
    _factor_specs(),
    st.lists(_factor_specs(), min_size=2, max_size=3).map(
        lambda fs: ProductGroup(tuple(fs))
    ),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spec=GROUP_SPECS, n=st.integers(0, 3))
def test_ball_order_is_sorted_bfs(spec, n):
    assert list(ball(spec, n).elements) == sorted(bfs_ball(spec, n), key=spec.sort_key)


def test_cyclic_cap_counts_the_ball_not_the_group():
    assert ball(Cyclic(10**7), 2).elements == (0, 1, 10**7 - 1, 2, 10**7 - 2)


def test_large_lattice_ball_is_not_a_box_scan():
    # the (2n+1)^12 box holds 244 million points
    assert len(ball(IntegerLattice(12), 2)) == 313


def test_cap_bounds_work(monkeypatch):
    calls = []
    multiply = IntegerLattice.multiply

    def counted(self, a, b):
        calls.append(1)
        return multiply(self, a, b)

    monkeypatch.setattr(IntegerLattice, "multiply", counted)
    spec = IntegerLattice(6)
    cap = 200
    with pytest.raises(ResourceCapError):
        ball(spec, 4, cap=cap)
    assert 0 < len(calls) <= (cap + 1) * len(spec.generating_set())


def test_product_multiply_validates_each_component_once(monkeypatch):
    seen = []
    real = FreeGroup.validate

    def spy(self, a):
        seen.append(a)
        return real(self, a)

    monkeypatch.setattr(FreeGroup, "validate", spy)
    spec = ProductGroup((FreeGroup(2), FreeGroup(2)))
    a, b = ((1, 2), (-1,)), ((-2,), (2, 2))
    assert spec.multiply(a, b) == ((1,), (-1, 2, 2))
    assert sorted(seen) == sorted([(1, 2), (-1,), (-2,), (2, 2)])
    seen.clear()
    spec.inverse(a)
    spec.word_length(a)
    assert sorted(seen) == sorted([(1, 2), (-1,)] * 2)


@pytest.mark.parametrize(
    "payload",
    [((1,),), ((1,), (2,), ()), [(1,), (2,)], ((1, -1), ()), ((), (3,)), ((), 1)],
)
def test_malformed_product_payload_raises(payload):
    spec = ProductGroup((FreeGroup(2), FreeGroup(2)))
    good = ((1,), (2,))
    for call in (
        lambda: spec.multiply(payload, good),
        lambda: spec.multiply(good, payload),
        lambda: spec.inverse(payload),
        lambda: spec.word_length(payload),
        lambda: spec.validate(payload),
    ):
        with pytest.raises(SpecMismatchError):
            call()


def test_cyclic_parse_rejects_out_of_range_integers():
    C5 = Cyclic(5)
    assert [C5.parse_element(str(x)) for x in range(-4, 5)] == [1, 2, 3, 4, 0, 1, 2, 3, 4]
    for text in ("5", "7", "-5", "-12"):
        with pytest.raises(ConfigError, match="out of range for C5"):
            C5.parse_element(text)
    with pytest.raises(ConfigError, match="out of range for C3"):
        parse_group("ZxC3").parse_element("(1,5)")


def test_ball_index_is_built_on_first_use():
    b = ball(FreeGroup(2), 2)
    assert "index_of" not in vars(b)
    assert len(b) == 17 and b[3] == (2,)
    assert "index_of" not in vars(b)
    assert (1, -2) in b and (1, 1, 1) not in b
    table = vars(b)["index_of"]
    assert b.index((2,)) == 3 and b.index(()) == 0
    assert b.index_of is table
    with pytest.raises(SpecMismatchError, match=r"outside radius-2 ball"):
        b.index((1, 1, 1))
    assert ball(FreeGroup(2), 2) == b
