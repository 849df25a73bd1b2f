"""L2 boosting for regression with re-scaled greedy steps.

Three training loops over a shared staged-model core: plain greedy
boosting, re-scaled boosting with the 2/(k+u) shrinkage schedule, and
data-driven re-scaling via an exact two-dimensional step search. Ships
with validation-based selection of the re-scale factor and a reproducible
synthetic/real-data benchmark harness.
"""

__version__ = "0.1.0"  # set before the submodules load: io writes it into manifests

# The surface the README and demos use; every other name is imported from its submodule.
from .core import Dataset, Ensemble, TrainConfig
from .learners import TreeLearnerSpec
from .boosters import train
from .selection import adaptive_select, split_learn_validate, u_grid
from .bench import SyntheticSpec, run_comparison
from .realdata import realdata_experiment
from .io import CsvSchema, load_csv, load_model, save_model, write_csv

__all__ = [
    "CsvSchema",
    "Dataset",
    "Ensemble",
    "SyntheticSpec",
    "TrainConfig",
    "TreeLearnerSpec",
    "adaptive_select",
    "load_csv",
    "load_model",
    "realdata_experiment",
    "run_comparison",
    "save_model",
    "split_learn_validate",
    "train",
    "u_grid",
    "write_csv",
]
