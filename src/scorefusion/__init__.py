"""scorefusion: fuse a trained classifier with an auxiliary oracle score stream.

The package enhances a logistic base scorer f(x) with a second per-instance
estimate z in [0, 1] from an external judge (an LLM, a cached score file, or
a seeded simulator) through three routes:

* linear ensembling with a constant or piecewise-constant weight fitted on
  out-of-fold predictions (``ensemble``),
* grid-discretized additive calibration against both score streams
  (``calibration``),
* covariate-shift transfer training that augments the labeled pool with
  oracle-labeled samples from a derived sampling density (``transfer``).

All randomness flows through numpy's default_rng (PCG64) with explicit seeds.
"""

from types import ModuleType as _ModuleType

from .calibration import (
    AdditiveCalibrator,
    CalibrationError,
    CellCalibrator,
    GridSpec,
    choose_grid,
    fit_additive_calibrator,
    fit_cell_calibrator,
    grid_index,
    grid_round,
    load_calibrator,
)
from .config import (
    BaseSettings,
    ConfigError,
    ExperimentConfig,
    MethodSpec,
    OracleSettings,
    TransferSettings,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from .data import (
    DatasetError,
    Instance,
    LabeledDataset,
    SyntheticSpec,
    load_dataset,
    make_folds,
    save_dataset,
    split,
    synthesize,
)
from .ensemble import (
    EnsembleError,
    FusionReport,
    WeightFunction,
    choose_pieces,
    fit_adaptive_weights,
    fit_constant_weight,
    fuse,
    fusion_objective,
    fusion_report,
    piece_index,
)
from .harness import (
    HarnessError,
    MetricReport,
    build_provider,
    child_seed,
    run_experiment,
    run_transfer_experiment,
    tune_hyperparameter,
)
from .logistic import (
    BaseModel,
    SingleClassFoldWarning,
    TrainingError,
    TrainMeta,
    cv_predict,
    minimize_gd,
    regularized_logloss,
    regularized_logloss_grad,
    sigmoid,
    train,
)
from .metrics import MetricError, accuracy, brier_score, log_loss
from .oracle import (
    DEFAULT_KEYWORDS,
    CachedOracle,
    HttpOracle,
    HttpOracleConfig,
    OracleCache,
    OracleError,
    PromptError,
    ScoreParseError,
    SyntheticOracle,
    SyntheticOracleSpec,
    parse_score,
    render_prompt,
    score_batch,
)
from .transfer import (
    RelaxedLoss,
    StratumDensity,
    TransferError,
    TransferPlan,
    augmented_objective_and_grad,
    derive_p3,
    feasibility_threshold,
    label_with_oracle,
    make_plan,
    sample_augmentation,
    train_augmented,
)

__version__ = "0.1.0"

# every public name imported above, sorted; the submodules are not listed
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
