"""Conformal prediction sets that stay valid under evasion and poisoning.

The package wraps a plain split-conformal pipeline (``scores``) with
randomized-smoothing machinery (``smoothing``, ``bounds``) so that the
calibrated threshold, or the prediction sets themselves, carry a
worst-case guarantee against bounded input perturbations.  Finite-sample
estimation error is handled by ``correction``, training-set attacks by
``poisoning``, and everything is wired together by the experiment
harness in ``experiments`` plus the ``robustcp`` command line tool.
"""

from .bounds import (
    BinaryBall,
    L2Ball,
    RegionTable,
    bound_for_clean,
    build_region_table,
    gaussian_transfer,
    sparse_transfer,
)
from .correction import (
    BudgetLedger,
    bernstein_radius,
    corrected_bound,
    dkw_radius,
    hoeffding_radius,
)
from .errors import ConfigurationError, InputError
from .evasion import (
    Calibration,
    EvasionConfig,
    calibrate,
    calibrate_smooth,
    class_distributions,
    predict,
    vanilla_worst_case_coverage,
)
from .poisoning import (
    ConservativeThreshold,
    PoisonWitness,
    corrected_feature_poison_threshold,
    feature_poison_threshold,
    label_poison_threshold,
    replay_feature_witness,
    replay_label_witness,
    worst_case_feature_quantile,
    worst_case_label_quantile,
)
from .scores import (
    ALL_CLASSES_THRESHOLD,
    CoverageBeta,
    MetricsReport,
    conformal_quantile,
    coverage_distribution,
    evaluate_sets,
    inverse_quantile,
)
from .smoothing import (
    BinGrid,
    GaussianNoise,
    ScoreBatch,
    SparseFlipNoise,
    sample_gaussian,
    sample_sparse,
    subseed,
    substream,
    summarize_blocks,
    summarize_samples,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CLASSES_THRESHOLD",
    "BinGrid",
    "BinaryBall",
    "BudgetLedger",
    "Calibration",
    "ConfigurationError",
    "ConservativeThreshold",
    "CoverageBeta",
    "EvasionConfig",
    "GaussianNoise",
    "InputError",
    "L2Ball",
    "MetricsReport",
    "PoisonWitness",
    "RegionTable",
    "ScoreBatch",
    "SparseFlipNoise",
    "bernstein_radius",
    "bound_for_clean",
    "build_region_table",
    "calibrate",
    "calibrate_smooth",
    "class_distributions",
    "conformal_quantile",
    "corrected_bound",
    "corrected_feature_poison_threshold",
    "coverage_distribution",
    "dkw_radius",
    "evaluate_sets",
    "feature_poison_threshold",
    "gaussian_transfer",
    "hoeffding_radius",
    "inverse_quantile",
    "label_poison_threshold",
    "predict",
    "replay_feature_witness",
    "replay_label_witness",
    "sample_gaussian",
    "sample_sparse",
    "sparse_transfer",
    "subseed",
    "substream",
    "summarize_blocks",
    "summarize_samples",
    "vanilla_worst_case_coverage",
    "worst_case_feature_quantile",
    "worst_case_label_quantile",
]
