"""Exception hierarchy shared by all coxlat modules.

Every error raised on a documented failure path derives from CoxlatError,
so callers (in particular the CLI) can distinguish bad input from bugs.
"""


class CoxlatError(Exception):
    """Base class for all documented coxlat failures."""


class ZeroConstantTerm(CoxlatError):
    """Series expansion of num/den requires den(0) != 0."""


class NonIntegralCoefficient(CoxlatError):
    """A series coefficient came out fractional; all in-scope series are
    integral, so this signals a construction bug rather than a need for
    rational arithmetic."""


class OrderMismatch(CoxlatError):
    """Two power series of different truncation orders were compared."""


class BadGram(CoxlatError, ValueError):
    """A Gram matrix that is not square, not symmetric or not matched by its
    labels, or a lattice JSON without a 'gram' field."""


class NotARoot(CoxlatError):
    """A basis vector with self-pairing != -2 was used as a reflection root."""


class NotUnitriangular(CoxlatError):
    """Expected an upper-triangular matrix with unit diagonal."""


class NeitherKind(CoxlatError):
    """Orbit invariants match neither the Kleinian nor the Fuchsian pattern."""


class UnknownName(CoxlatError):
    """Catalog lookup of an unknown singularity name."""


class NegativeDimension(CoxlatError):
    """A Riemann-Roch dimension 1 + deg came out negative; the genus-0
    vanishing hypothesis does not hold for this input."""


class RouteMismatch(CoxlatError):
    """The two internal evaluation routes of a Hilbert-Poincare series
    disagreed (internal consistency failure)."""


class NotAStarLattice(CoxlatError):
    """A Gram matrix could not be decoded as a star-shaped (-2)-curve
    configuration with the central vertex last."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class TooLarge(CoxlatError):
    """An input over the stated size limits, refused before any matrix is
    built, or an orbit walk coefficient too long for Python to print."""
