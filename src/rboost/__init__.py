"""L2 boosting for regression with re-scaled greedy steps.

Three training loops over a shared staged-model core: plain greedy
boosting, re-scaled boosting with the 2/(k+u) shrinkage schedule, and
data-driven re-scaling via an exact two-dimensional step search. Ships
with validation-based selection of the re-scale factor and a reproducible
synthetic/real-data benchmark harness.
"""

__version__ = "0.1.0"  # set before the submodules load: io writes it into manifests

from .core import (
    ALGORITHMS,
    Dataset,
    Ensemble,
    Stage,
    TrainConfig,
    clip,
    empirical_inner,
    empirical_norm,
    empirical_risk,
)
from .learners import (
    DegenerateLearnerError,
    DictionaryAtom,
    DictionaryLearnerSpec,
    NormalizedLearner,
    RegressionTree,
    TreeLearnerSpec,
    fit_tree,
)
from .boosters import (
    TrainingTrace,
    shrinkage_alpha,
    train,
    two_dim_linear_search,
)
from .selection import (
    SelectionResult,
    adaptive_select,
    split_learn_validate,
    u_grid,
)
from .bench import (
    SyntheticSpec,
    TrialReport,
    UCurvePoint,
    eval_target,
    rmse,
    run_adaptive_eval,
    run_comparison,
    sample_dataset,
    target_values,
)
from .realdata import RealDataReport, realdata_experiment
from .io import CsvSchema, load_csv, load_model, save_model, write_csv

__all__ = [
    "ALGORITHMS",
    "CsvSchema",
    "Dataset",
    "DegenerateLearnerError",
    "DictionaryAtom",
    "DictionaryLearnerSpec",
    "Ensemble",
    "NormalizedLearner",
    "RealDataReport",
    "RegressionTree",
    "SelectionResult",
    "Stage",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingTrace",
    "TreeLearnerSpec",
    "TrialReport",
    "UCurvePoint",
    "adaptive_select",
    "clip",
    "empirical_inner",
    "empirical_norm",
    "empirical_risk",
    "eval_target",
    "fit_tree",
    "load_csv",
    "load_model",
    "realdata_experiment",
    "rmse",
    "run_adaptive_eval",
    "run_comparison",
    "sample_dataset",
    "save_model",
    "shrinkage_alpha",
    "split_learn_validate",
    "target_values",
    "train",
    "two_dim_linear_search",
    "u_grid",
    "write_csv",
]
