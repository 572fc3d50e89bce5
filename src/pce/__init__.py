"""Principal coefficients embedding: robust subspace learning with automatic
feature-dimension estimation, plus the synthetic-data and evaluation harness.
"""

from . import errors
from .data import (
    LabeledDataset,
    NoiseSpec,
    SubspaceSpec,
    add_gaussian_noise,
    add_pixel_corruption,
    generate_union_of_subspaces,
    load_matrix,
    save_matrix,
    split,
)
from .evaluation import (
    ExperimentConfig,
    PcaModel,
    Report,
    accuracy,
    nn_classify,
    pca_fit,
    pca_transform,
    run_experiment,
)
from .graph import embed, lle_graph
from .linalg import SvdFactors, skinny_svd
from .model import (
    PceModel,
    estimate_dimension,
    fit,
    principal_coefficients,
    recover_clean,
    transform,
)

__version__ = "0.23.0"

__all__ = [
    "ExperimentConfig",
    "LabeledDataset",
    "NoiseSpec",
    "PcaModel",
    "PceModel",
    "Report",
    "SubspaceSpec",
    "SvdFactors",
    "accuracy",
    "add_gaussian_noise",
    "add_pixel_corruption",
    "embed",
    "estimate_dimension",
    "fit",
    "generate_union_of_subspaces",
    "lle_graph",
    "load_matrix",
    "nn_classify",
    "pca_fit",
    "pca_transform",
    "principal_coefficients",
    "recover_clean",
    "run_experiment",
    "save_matrix",
    "skinny_svd",
    "split",
    "transform",
]
