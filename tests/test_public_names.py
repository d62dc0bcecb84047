"""The package's public names: ``scorefusion.__all__`` is derived from what
``__init__.py`` imports, so this pins it to the list it was written out as."""

import scorefusion

PUBLIC = (
    "AdditiveCalibrator", "BaseModel", "BaseSettings", "CachedOracle", "CalibrationError",
    "CellCalibrator", "ConfigError", "DEFAULT_KEYWORDS", "DatasetError", "EnsembleError",
    "ExperimentConfig", "FusionReport", "GridSpec", "HarnessError", "HttpOracle",
    "HttpOracleConfig", "Instance", "LabeledDataset", "MethodSpec", "MetricError", "MetricReport",
    "OracleCache", "OracleError", "OracleSettings", "PromptError", "RelaxedLoss",
    "ScoreParseError", "SingleClassFoldWarning", "StratumDensity", "SyntheticOracle",
    "SyntheticOracleSpec", "SyntheticSpec", "TrainMeta", "TrainingError", "TransferError",
    "TransferPlan", "TransferSettings", "WeightFunction", "accuracy",
    "augmented_objective_and_grad", "brier_score", "build_provider", "child_seed", "choose_grid",
    "choose_pieces", "config_from_mapping", "cv_predict", "derive_p3", "feasibility_threshold",
    "fit_adaptive_weights", "fit_additive_calibrator", "fit_cell_calibrator",
    "fit_constant_weight", "fuse", "fusion_objective", "fusion_report", "grid_index", "grid_round",
    "label_with_oracle", "load_calibrator", "load_config", "load_dataset", "log_loss",
    "make_folds", "make_plan", "minimize_gd", "parse_config_text", "parse_score", "piece_index",
    "regularized_logloss", "regularized_logloss_grad", "render_prompt", "run_experiment",
    "run_transfer_experiment", "sample_augmentation", "save_dataset", "score_batch", "sigmoid",
    "split", "synthesize", "train", "train_augmented", "tune_hyperparameter",
)


def test_all_lists_the_public_names_sorted():
    assert scorefusion.__all__ == list(PUBLIC)


def test_every_public_name_resolves():
    missing = [name for name in scorefusion.__all__ if not hasattr(scorefusion, name)]
    assert not missing


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from scorefusion import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
