"""Exception types shared across the library.

The CLI maps these onto distinct exit codes, so raising the right class
matters for scriptability.
"""


class CrossedProdError(Exception):
    """Base class for all library errors."""


class SpecMismatchError(CrossedProdError):
    """An element payload does not belong to the given group spec."""


class ResourceCapError(CrossedProdError):
    """An enumeration would exceed the configured element-count cap."""


class MarginError(CrossedProdError):
    """A window-mode operation would drop terms (insufficient support margin)."""


class NotInCrossedProductError(CrossedProdError):
    """A block matrix is not (numerically) in the span of translates L_g Psi(r).

    index is the operator of a checked stack that failed, in C order over
    its leading axes."""

    index = 0


class NotUnitalError(CrossedProdError):
    """An averaged map does not send the identity to the identity."""


class NotPositiveError(CrossedProdError, ValueError):
    """An eigenvalue function is not strictly positive on the window.

    Also a ValueError, the type this check raised before it had its own.
    """


class VectorNotPositiveError(CrossedProdError, ValueError):
    """A vector meant to build an expectation pair has an entry that is not
    strictly positive.

    Also a ValueError, the type this check raised before it had its own.
    """


class PartialSupportError(CrossedProdError, ValueError):
    """A finite-group pair's vector does not cover the whole group.

    Also a ValueError, the type this check raised before it had its own.
    """


class NotInDomainError(CrossedProdError):
    """Idempotent projection undefined: an eigenvalue is below the underflow floor."""


class UndersampledGridError(CrossedProdError):
    """A sup-norm grid has too few points for the polynomial degree."""


class ConfigError(CrossedProdError):
    """Malformed CLI configuration file or option value."""
