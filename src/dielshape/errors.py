"""Exception types shared across the package."""


class DielshapeError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveRadial(DielshapeError):
    """Radial function rho(x) of a star-shaped surface is <= 0 somewhere."""


class ResolutionTooLow(DielshapeError):
    """Quadrature grid cannot resolve the requested spectral degree."""


class InadmissibleDeformation(DielshapeError):
    """Deformed map fails the injectivity / positive-Jacobian check."""


class GridMismatch(DielshapeError):
    """Two objects do not share the same ReferenceGrid."""


class NonZeroMean(DielshapeError):
    """A mean-zero field was required but the input has non-negligible mean."""


class KindMismatch(DielshapeError):
    """Operator applied to a field of the wrong kind (scalar vs tangential)."""


class TargetOnSurface(DielshapeError):
    """Off-surface evaluation requested too close to the boundary."""


class SingularSystem(DielshapeError):
    """The assembled linear system is numerically rank deficient."""


class NoConvergence(DielshapeError):
    """An iterative refinement or extrapolation failed to converge."""


class SeriesNotConverged(DielshapeError):
    """Separation-of-variables series truncation error above tolerance."""


class ConfigError(DielshapeError):
    """Invalid run configuration."""
