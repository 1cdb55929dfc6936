"""Exception types shared across the package."""


class FracvarError(Exception):
    """Base class for package-specific failures."""


class HypothesisError(FracvarError):
    """A structural hypothesis needed by the requested computation fails.

    Examples: a sweep range outside the admissible parameter interval, or
    a signed datum whose potential has no known peaks.
    """


class ResolutionError(FracvarError):
    """The discretization is too coarse for a guaranteed-positive quantity.

    Raised when the assembled energy form fails its lower-bound check.  The
    check's slack and the quadrature error it absorbs both shrink like
    (k_max/n)^(2-alpha), so a failing grid does not pass under refinement
    to leading order; the message states the measured error constant
    against the slack's, which near alpha = 1/2 stays above it on every
    grid tested.
    """
