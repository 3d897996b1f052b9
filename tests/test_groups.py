import functools
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedprod import groups
from crossedprod._core import free_ball_words, free_mul
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


def test_parsed_words_match_the_free_mul_fold():
    # the letter-by-letter product is the reference for the one-pass reduction
    rng = random.Random(7)
    for k in (1, 2, 3):
        spec = FreeGroup(k)
        letters = "".join(chr(ord("a") + i) + chr(ord("A") + i) for i in range(k))
        for length in (0, 1, 2, 5, 40, 300):
            for _ in range(20):
                text = "".join(rng.choice(letters) for _ in range(length))
                # and a word that cancels to e, and one that cancels in its middle
                back = text[: length // 2]
                back += back[::-1].swapcase()
                for word in (text, back, back + text):
                    want = functools.reduce(free_mul, map(spec.parse_element, word), ())
                    assert spec.parse_element(word) == want, word


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


def llex_words(spec, elements):
    """The least geodesic word of each element, as generator indices.

    By the prefix recursion: word(e) = (), and word(a) is the least
    word(a s_i^-1) + (i,) over the generator indices i with
    |a s_i^-1| = |a| - 1, which is the least geodesic word of a because
    every prefix of a geodesic word is geodesic.  It reads neither the
    order a search visits the elements in nor any library sort key.
    """
    inverses = [spec.inverse(s) for s in spec.generating_set()]
    words = {}
    for a in sorted(elements, key=spec.word_length):
        length = spec.word_length(a)
        if length == 0:
            words[a] = ()
            continue
        steps = [(i, spec.multiply(a, t)) for i, t in enumerate(inverses)]
        words[a] = min(
            words[b] + (i,) for i, b in steps if spec.word_length(b) == length - 1
        )
    return words


def llex_sorted(spec, elements):
    """The elements by length, then by least geodesic word."""
    words = llex_words(spec, elements)
    return sorted(elements, key=lambda a: (len(words[a]), words[a]))


def reference_ball(spec, n):
    """The per-group scans that enumerated balls before the generic search:
    a box scan for Z^d, a whole-group scan for C_n, a scan of the product of
    the factor balls for products, then one global llex sort."""
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
    return llex_sorted(spec, out)


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


# sha256 of repr(ball.elements), recorded before the search stopped sorting
# its spheres: every ball the benchmark studies enumerate and every sweep
# window.  A radius of None is the whole finite group.
BALL_DIGESTS = [
    ("Z", 8, 17, "37f2f07b81da0aa70fa6f3fba254121576bc7d789763d49a706a13b2a3e2ef99"),
    ("Z^3", 6, 377, "3ee92a23819ec4aab83c9cee495828ebb48ada4b6f581cd4b4651b7abb6a1880"),
    ("Z^7", 3, 575, "ba277d3284a566a595ddad745989984bf8485ddbcc9e35b849285788c153d589"),
    ("ZxC3", 20, 119, "9d8558f013c7eebb86ad1a2f51034ad018266a560bc3553fcf4e61074531e83e"),
    ("Z^2xC3", 4, 91, "1aaae4d34a79131cc013b9f12ad038216c29ad15e54efb31bf48fe21e210428a"),
    ("ZxF2", 5, 959, "5e7cdaea6a383a0759da81886174e2f9fb52264e47499eac8b6827bf39a33bac"),
    ("F2", 5, 485, "43156e85400e1bcd192823082def74d4b798017de505cf0091800cc3e18f48b9"),
    ("F2xF2", 3, 217, "3a55ba7b428c73910191914f7ea96904240f37d440b78464edd87c4bb7444040"),
    ("C2xF3", 3, 224, "9650877bed11cc75fec0bd25cb9f881e8faf22f356aa3676cc41f7074f84487c"),
    ("C4xC6", 7, 24, "60ef14e441a1731f4183fa7a1904e4d2a403d208dbf263d49740c293140b6167"),
    ("C4", None, 4, "9df149b78089c8cb64f79ddfa4eadf3f428aa798a5f43c27a7ce72e468024fff"),
    ("C5", None, 5, "dda5e560b9895b95d7d472e33ed645ced97047e86ca51dd8516d52fa5a2df570"),
    ("C6", None, 6, "c230d570eb34b226a8bd8b2f4b49e0f0f634eef71c73713bbd81a6d5c60980d6"),
    ("C8", None, 8, "f5001bb04d4031bd7eaa8ccdbf6578d056b8d68c5965d5e66c0984c25b11924e"),
    ("C12", None, 12, "b59dce03171f70b25cc739e3c0b4933fa43797e58f1509ddb0e08482aa1b0ee0"),
    ("C16", None, 16, "07b1a3742e46fb36228154222f3f5b0f6ff3e6b54486f92fedd22dfbd1d41f31"),
    ("C32", None, 32, "6bfe9e6d1734863642df345abe20c1ff066e3ded6bb351b45864d06607b00feb"),
]


@pytest.mark.parametrize(
    "label,radius,size,digest", BALL_DIGESTS, ids=[f"{r[0]}-{r[1]}" for r in BALL_DIGESTS]
)
def test_ball_order_is_pinned(label, radius, size, digest):
    spec = parse_group(label)
    b = groups.whole_group_ball(spec) if radius is None else ball(spec, radius)
    assert len(b) == size
    assert hashlib.sha256(repr(b.elements).encode()).hexdigest() == digest


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
    assert list(ball(spec, n).elements) == llex_sorted(spec, list(bfs_ball(spec, n)))


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
    # refused from the sphere sizes, before the search multiplies once
    assert calls == []
    assert len(ball(spec, 1, cap=cap)) == 13 and calls


@pytest.mark.parametrize("label", ["Z^3", "Z^2xC3"])
def test_the_cap_counts_each_component_of_a_payload(label):
    # a radius-1 ball of either holds 7 elements of 3 components each
    spec = parse_group(label)
    assert spec.element_size() == 3
    assert len(ball(spec, 1, cap=21)) == 7
    for radius, cap in ((1, 20), (0, 2)):
        message = f"ball of {label} at radius {radius} exceeds cap {cap}"
        with pytest.raises(ResourceCapError, match=re.escape(message)):
            ball(spec, radius, cap=cap)


def test_the_cap_stops_a_lattice_ball_before_it_builds_every_generator(monkeypatch):
    def never(self):
        raise AssertionError("every generator was built before the cap was checked")

    calls = []
    multiply = ProductGroup.multiply

    def counted(self, a, b):
        calls.append(b)
        return multiply(self, a, b)

    monkeypatch.setattr(ProductGroup, "generating_set", never)
    monkeypatch.setattr(ProductGroup, "multiply", counted)
    spec = IntegerLattice(500)
    # the cap holds two elements of 500 components; the ball has 1001
    with pytest.raises(ResourceCapError, match=r"ball of Z\^500 at radius 1 exceeds cap 1000"):
        ball(spec, 1, cap=1000)
    assert calls == []


def test_a_radius_zero_ball_builds_no_generator(monkeypatch):
    # nothing bounds the 2d generators of Z^d at radius 0, where the ball
    # is e alone; building them would cost d^2
    def never(self):
        raise AssertionError("generators built for a radius-0 ball")

    monkeypatch.setattr(ProductGroup, "generating_set", never)
    monkeypatch.setattr(Cyclic, "generating_set", never)
    spec = IntegerLattice(10**5)
    assert ball(spec, 0).elements == ((0,) * 10**5,)
    assert groups.whole_group_ball(Cyclic(1)).elements == (0,)


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
