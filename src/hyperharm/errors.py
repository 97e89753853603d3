"""Exception and warning types shared across the package."""


class HyperharmError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(HyperharmError):
    """A series failed to reach the requested tolerance within the term cap."""


class UnsupportedRequest(HyperharmError):
    """A full (non-zonal) construction was requested where only the zonal
    reduction is available."""


class UnsupportedDimension(HyperharmError):
    """The operation is only defined for a restricted set of dimensions."""


class QuadratureFailure(HyperharmError):
    """Adaptive quadrature exceeded its refinement cap without converging."""


class OriginSingularity(HyperharmError):
    """A 1/r^2-type prefactor was requested too close to the origin for a
    black-box evaluator."""


class DataFileError(HyperharmError):
    """A boundary-data or configuration file is malformed."""


class TruncationWarning(UserWarning):
    """The last retained series term exceeded the configured tail tolerance."""
