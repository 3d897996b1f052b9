"""Finite-window calculus for crossed products of matrix algebras by discrete groups.

Subpackages:

* ``groups``    group engines and deterministic ball enumeration
* ``posdef``    positive definite functions and Gram-matrix witnesses
* ``crossed``   truncated crossed-product block matrices
* ``sigma``     averaged completely positive maps and expectation pairs
* ``freecomb``  exact free-group ball combinatorics
* ``summation`` Cesaro means and amenable-group studies
* ``cli``       reproducible experiment driver
"""

from ._core import BACKEND
from .errors import (
    ConfigError,
    CrossedProdError,
    MarginError,
    NotInCrossedProductError,
    NotInDomainError,
    NotPositiveError,
    PartialSupportError,
    ResourceCapError,
    SpecMismatchError,
    UndersampledGridError,
    VectorNotPositiveError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    ORDERING_VERSION,
    Ball,
    Cyclic,
    FreeGroup,
    GroupSpec,
    IntegerLattice,
    Integers,
    ProductGroup,
    ball,
    parse_group,
    sphere,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Ball",
    "ConfigError",
    "CrossedProdError",
    "Cyclic",
    "DEFAULT_ELEMENT_CAP",
    "FreeGroup",
    "GroupSpec",
    "IntegerLattice",
    "Integers",
    "MarginError",
    "NotInCrossedProductError",
    "NotInDomainError",
    "NotPositiveError",
    "ORDERING_VERSION",
    "PartialSupportError",
    "ProductGroup",
    "ResourceCapError",
    "SpecMismatchError",
    "UndersampledGridError",
    "VectorNotPositiveError",
    "ball",
    "parse_group",
    "sphere",
    "__version__",
]
