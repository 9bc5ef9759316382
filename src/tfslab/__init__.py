"""tfslab: forward/inverse solver laboratory for the time-fractional
Schrodinger equation i d^alpha y + L y = f on an interval with Dirichlet
conditions.

Modal solutions are built from Mittag-Leffler kernels; the inverse side
recovers initial data, separable-source spatial factors, and the
fractional order from observations on positive-measure subsets.
"""

from .errors import (
    CheckOverflowError,
    ConfigError,
    EigenSolveError,
    EllipticityError,
    EmptyMaskError,
    FlatMisfitError,
    GridMismatchError,
    MLAccuracyError,
    MLDomainError,
    MLOverflowError,
    NumericalError,
    OperatorOverflowError,
    RankDeficientError,
    SourceHypothesisError,
    TfslabError,
)
from .forward import (
    KernelTable,
    SourceSpec,
    TimeGrid,
    caputo_l1,
    decay_slope,
    duhamel_check,
    eval_homogeneous,
    pde_residual,
    project,
    projection_tail_energy,
    rl_integral,
)
from .inverse import (
    InversionResult,
    OrderSearchConfig,
    TikhonovConfig,
    extract_modal_projection,
    invert_initial,
    invert_order,
    invert_source,
    laplace_identity_gap,
    modal_resolvent,
    order_misfit,
)
from .mlf import (
    FractionalOrder,
    MLParams,
    certify_c0,
    ml_eval,
)
from .observe import ObservationMask, ObservedData, make_mask, observe
from .spectral import (
    EigenGroup,
    EigenSystem,
    Grid1D,
    OperatorSpec,
    Tridiag,
    analytic_eigensystem,
    assemble_operator,
    eigen_solve,
)

__version__ = "0.1.0"
