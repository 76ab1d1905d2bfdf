"""Row-sampling sketches for overdetermined least squares.

The package solves ``min_X ||A X - B||_F^2`` approximately by sampling a
small number of rows with probabilities derived from leverage scores,
reweighting them, and solving the reduced problem exactly. Diagnostics
check the structural conditions that certify the sketched solution, and
the experiment layer runs seeded Monte Carlo sweeps over problem
families and sampling distributions.
"""

from .diagnostics import (
    SC1_THRESHOLD,
    BoundReport,
    ChunkScores,
    StructuralReport,
    TrialScorer,
    check_bounds,
    check_structural,
)
from .exceptions import (
    ConfigParseError,
    DimensionError,
    GenerationFailedError,
    InvalidParameterError,
    InvalidSampleCountError,
    LevSketchError,
    MatrixMarketParseError,
    RankDeficientError,
    SketchRankDeficientError,
    UnsupportedRowError,
)
from .experiment import (
    CSV_COLUMNS,
    PRESETS,
    ExperimentReport,
    TrialConfig,
    parse_distribution_spec,
    parse_sample_rule,
    report_lines,
    run_experiment,
    write_report,
)
from .leverage import (
    LeverageProfile,
    SamplingDistribution,
    blended_distribution,
    leverage_distribution,
    leverage_scores,
    misestimation_beta,
    profile_from_basis,
    uniform_distribution,
)
from .linalg import (
    DenseMatrix,
    LstsqSolution,
    OrthonormalBasis,
    SpectralSummary,
    exact_lstsq,
    fro_norm_sq,
    orthonormal_basis,
    spectral_extremes,
)
from .mmio import read_matrix, write_matrix
from .problems import PROBLEM_KINDS, ProblemSpec, generate_problem
from .sketch import (
    RngStream,
    SketchPlan,
    approx_matmul,
    apply_sketch,
    build_sketch,
    multinomial_draws,
)
from .solver import (
    SAMPLE_SIZE_CONSTANT,
    AccuracyTarget,
    SketchSolution,
    accuracy_ratio,
    required_samples,
    sketched_lstsq,
    solve_with_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyTarget",
    "BoundReport",
    "CSV_COLUMNS",
    "ChunkScores",
    "ConfigParseError",
    "DenseMatrix",
    "DimensionError",
    "ExperimentReport",
    "GenerationFailedError",
    "InvalidParameterError",
    "InvalidSampleCountError",
    "LevSketchError",
    "LeverageProfile",
    "LstsqSolution",
    "MatrixMarketParseError",
    "OrthonormalBasis",
    "PRESETS",
    "PROBLEM_KINDS",
    "ProblemSpec",
    "RankDeficientError",
    "RngStream",
    "SAMPLE_SIZE_CONSTANT",
    "SC1_THRESHOLD",
    "SamplingDistribution",
    "SketchPlan",
    "SketchRankDeficientError",
    "SketchSolution",
    "SpectralSummary",
    "StructuralReport",
    "TrialConfig",
    "TrialScorer",
    "UnsupportedRowError",
    "accuracy_ratio",
    "approx_matmul",
    "apply_sketch",
    "blended_distribution",
    "build_sketch",
    "check_bounds",
    "check_structural",
    "exact_lstsq",
    "fro_norm_sq",
    "generate_problem",
    "leverage_distribution",
    "leverage_scores",
    "misestimation_beta",
    "multinomial_draws",
    "orthonormal_basis",
    "parse_distribution_spec",
    "parse_sample_rule",
    "profile_from_basis",
    "read_matrix",
    "report_lines",
    "required_samples",
    "run_experiment",
    "sketched_lstsq",
    "solve_with_plan",
    "spectral_extremes",
    "uniform_distribution",
    "write_matrix",
    "write_report",
]
