"""Recovery of simultaneously row-sparse and low-rank matrices from linear
measurements via iteratively reweighted least squares, with a hard
thresholding baseline and a reproducible benchmark harness."""

from .core import (
    GroundTruth,
    generate_ground_truth,
    hard_threshold_rows,
    project_tangent,
    rel_frobenius_error,
    rho,
    truncate_rank,
)
from .measurement import (
    DenseGaussianOperator,
    FourierRankOneOperator,
    MatrixOperator,
    MeasurementOperator,
    RankOneGaussianOperator,
    RipEstimate,
    fourier_rank_one,
    gaussian_dense,
    gaussian_rank_one,
    rip_probe,
)
from .objective import (
    SmoothingParams,
    f_lowrank,
    f_sparse,
    f_tau,
    f_tau_prime,
    f_total,
    grad_f_lowrank,
    grad_f_sparse,
    q_lowrank,
    q_sparse,
)
from .weights import (
    IterationLimitError,
    WeightState,
    apply_w,
    apply_w_inv,
    apply_w_lowrank,
    apply_w_sparse,
    build_weight,
    identity_weight,
)
from .wls import WlsSolution, solve_wls
from .irls import (
    IrlsConfig,
    IterateTrace,
    MmStepReport,
    QuadraticRateFit,
    RecoveryResult,
    check_mm_step,
    fit_quadratic_rate,
    run_irls,
    update_smoothing,
)
from .iht import IhtConfig, run_iht
from .bench import (
    CellResult,
    ExperimentManifest,
    ManifestError,
    info_limit,
    run_experiment,
    run_phase_grid,
)

__version__ = "0.1.0"
