"""Exception hierarchy shared across the package.

``TfslabError`` is the common base; the CLI maps subclasses to exit codes
(config problems -> 2, numerical failures -> 3, I/O -> 4).
"""


class TfslabError(Exception):
    """Base class for all package errors."""


class ConfigError(TfslabError):
    """Invalid configuration document or parameter set."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalError(TfslabError):
    """Base class for failures of the numerical machinery."""


class MLDomainError(NumericalError):
    """Mittag-Leffler arguments outside the supported domain (bad parameters,
    argument beyond the modulus cap, non-finite inputs)."""


class MLOverflowError(NumericalError):
    """The requested Mittag-Leffler value exceeds double-precision range."""


class MLAccuracyError(NumericalError):
    """Internal loss of accuracy detected by the recurrence self-check."""


class EllipticityError(NumericalError):
    """Diffusion coefficient drops below the declared ellipticity floor."""


class OperatorOverflowError(NumericalError):
    """A discretized operator (the stencil of L or a weighted observation
    design) exceeds double-precision range."""


class EigenSolveError(NumericalError):
    """Eigen-iteration failed to converge or produced an invalid system."""


class GridMismatchError(NumericalError):
    """Operands sampled on incompatible grids."""


class EmptyMaskError(NumericalError):
    """Observation intervals capture no grid node (grid too coarse)."""


class RankDeficientError(NumericalError):
    """Unregularized normal equations with a rank-deficient design matrix."""


class SourceHypothesisError(NumericalError):
    """Temporal source factor is identically zero (inverse source problem
    requires a nontrivial temporal factor)."""


class FlatMisfitError(NumericalError):
    """Order-search misfit landscape carries no order information."""
