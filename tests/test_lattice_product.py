"""Z^d as the product of d copies of Z, and the abelian coordinates of
GroupSpec.

``RefLattice`` is the lattice that had a group law of its own; the product
form must agree with it on every method the rest of the package reads.
"""

import itertools
from math import comb

import numpy as np
import pytest

from crossedprod.errors import ConfigError, SpecMismatchError
from crossedprod.groups import (
    Cyclic,
    FreeGroup,
    GroupSpec,
    IntegerLattice,
    Integers,
    ProductGroup,
    _narrow,
    ball,
    parse_group,
    sphere_sizes,
)


class RefLattice(GroupSpec):
    """Z^d with the standard generators, word length = l1 norm."""

    def __init__(self, d):
        self.d = d
        self.label = f"Z^{d}"

    def identity(self):
        return (0,) * self.d

    def multiply(self, a, b):
        a = self.validate(a)
        b = self.validate(b)
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in self.validate(a))

    def word_length(self, a):
        return sum(abs(x) for x in self.validate(a))

    def validate(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.d
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in a)
        ):
            raise SpecMismatchError(f"not a Z^{self.d} payload: {a!r}")
        return a

    def quotient_lengths(self, elements):
        x = np.array([self.validate(a) for a in elements], dtype=np.int64)
        x = x.reshape(len(x), self.d)
        out = np.zeros((len(x), len(x)), dtype=np.int64)
        for col in x.T:
            out += np.abs(np.subtract.outer(col, col))
        return _narrow(out)

    def generating_set(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)

    def _spheres(self, r, limit):
        # |S_j| counts the points of l1 norm j by their k nonzero
        # coordinates: which k, their signs, and a composition of j into k
        return [1] + [
            sum(2**k * comb(self.d, k) * comb(j - 1, k - 1) for k in range(1, self.d + 1))
            for j in range(1, r + 1)
        ]


RADIUS = {1: 6, 2: 4, 3: 3, 4: 2}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_product_lattice_matches_the_reference(d):
    spec, ref = IntegerLattice(d), RefLattice(d)
    assert spec.label == ref.label == f"Z^{d}"
    assert spec.identity() == ref.identity()
    assert spec.generating_set() == ref.generating_set()
    assert sphere_sizes(spec, RADIUS[d]) == sphere_sizes(ref, RADIUS[d])
    got = ball(spec, RADIUS[d]).elements
    assert got == ball(ref, RADIUS[d]).elements
    for a in got:
        assert spec.inverse(a) == ref.inverse(a)
        assert spec.word_length(a) == ref.word_length(a)
    for a, b in itertools.product(got[:40], got[-40:]):
        assert spec.multiply(a, b) == ref.multiply(a, b)
    want = ref.quotient_lengths(got)
    table = spec.quotient_lengths(got)
    assert table.dtype == want.dtype and np.array_equal(table, want)


def test_product_lattice_is_a_product_of_integers():
    spec = IntegerLattice(3)
    assert isinstance(spec, ProductGroup)
    assert spec.factors == (Integers(),) * 3
    assert spec == IntegerLattice(3) and spec != IntegerLattice(2)
    assert hash(spec) == hash(IntegerLattice(3))
    assert repr(spec) == "IntegerLattice('Z^3')"
    assert parse_group("Z^3") == spec
    assert parse_group("Z^2xC3").label == "Z^2xC3"


def test_lattice_defines_no_group_law():
    own = set(vars(IntegerLattice))
    for name in (
        "identity", "multiply", "inverse", "word_length", "validate",
        "quotient_lengths", "generating_set", "parse_element",
        "format_element", "axes", "coordinates",
    ):
        assert name not in own, name


def test_lattice_dimension_is_checked():
    with pytest.raises(ConfigError, match="lattice dimension must be >= 1"):
        IntegerLattice(0)


def test_lattice_payloads_are_checked_by_the_product():
    spec = IntegerLattice(2)
    for bad in [(1,), (1, 2, 3), [1, 2], 5]:
        with pytest.raises(SpecMismatchError, match="not a Z\\^2 payload"):
            spec.validate(bad)
    for bad in [(1, 2.0), (True, 0)]:
        with pytest.raises(SpecMismatchError, match="not an integer payload"):
            spec.multiply(bad, (0, 0))
    with pytest.raises(ConfigError, match="expected 2 components"):
        spec.parse_element("(1,2,3)")
    assert spec.parse_element("(1,-3)") == (1, -3)
    assert spec.format_element((1, -3)) == "(1,-3)"


@pytest.mark.parametrize(
    "spec, a, axes, coords",
    [
        (Integers(), -4, (0,), (-4,)),
        (Cyclic(5), 3, (5,), (3,)),
        (IntegerLattice(3), (1, -2, 0), (0, 0, 0), (1, -2, 0)),
        (parse_group("ZxC3"), (-7, 2), (0, 3), (-7, 2)),
        (parse_group("Z^2xC4"), ((1, -1), 3), (0, 0, 4), (1, -1, 3)),
        (
            ProductGroup((Cyclic(2), ProductGroup((Integers(), Cyclic(6))))),
            (1, (5, 4)),
            (2, 0, 6),
            (1, 5, 4),
        ),
        (
            ProductGroup((IntegerLattice(2), ProductGroup((Cyclic(3), IntegerLattice(1))))),
            ((0, 4), (2, (-1,))),
            (0, 0, 3, 0),
            (0, 4, 2, -1),
        ),
    ],
    ids=["Z", "C5", "Z^3", "ZxC3", "Z^2xC4", "nested", "nested-lattices"],
)
def test_axes_and_coordinates(spec, a, axes, coords):
    assert spec.axes() == axes
    assert spec.coordinates(a) == coords


@pytest.mark.parametrize(
    "spec, bad",
    [
        (Cyclic(5), 5),
        (Integers(), "1"),
        (IntegerLattice(2), (1,)),
        (parse_group("Z^2xC4"), ((1, 1), 4)),
    ],
    ids=["C5-out-of-range", "Z-str", "Z^2-arity", "Z^2xC4-cyclic-part"],
)
def test_coordinates_validate_the_payload(spec, bad):
    with pytest.raises(SpecMismatchError):
        spec.coordinates(bad)


@pytest.mark.parametrize("spec", [FreeGroup(2), parse_group("ZxF2"), parse_group("F2xC3")])
def test_groups_without_abelian_coordinates(spec):
    with pytest.raises(SpecMismatchError, match="no averaging sequence for F2"):
        spec.axes()
    with pytest.raises(SpecMismatchError, match="no averaging sequence for F2"):
        spec.coordinates(spec.identity())
