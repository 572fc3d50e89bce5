"""Nearest-neighbor classification, the centered-PCA baseline, and the
repeated-trial experiment runner.
"""

import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import graph as _graph
from . import model as _model
from .data import (
    LabeledDataset,
    NoiseSpec,
    SubspaceSpec,
    add_gaussian_noise,
    add_pixel_corruption,
    generate_union_of_subspaces,
    load_matrix,
    split,
    write_csv,
)
from .errors import BadDim, DimensionMismatch, EmptyTrainingSet, LengthMismatch

__all__ = [
    "nn_classify",
    "accuracy",
    "PcaModel",
    "pca_fit",
    "pca_transform",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "write_report_csv",
]

METHODS = ("pce", "pca", "lle-npe", "raw")


def nn_classify(train_z, train_labels, test_z):
    """Label each test column with its Euclidean-nearest training column's
    label; exact distance ties go to the lower training index."""
    train_z = np.atleast_2d(np.asarray(train_z, dtype=float))
    test_z = np.atleast_2d(np.asarray(test_z, dtype=float))
    if train_z.shape[1] == 0:
        raise EmptyTrainingSet("no training columns")
    if train_z.shape[0] != test_z.shape[0]:
        raise DimensionMismatch(
            f"train features {train_z.shape[0]}-d, test {test_z.shape[0]}-d"
        )
    dist = cdist(test_z.T, train_z.T)
    nearest = dist.argmin(axis=1)  # argmin returns the first (lowest) index
    return np.asarray(train_labels)[nearest]


def accuracy(predicted, truth):
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise LengthMismatch(f"{predicted.shape} vs {truth.shape}")
    return float(np.mean(predicted == truth))


@dataclass(frozen=True)
class PcaModel:
    """Centered principal components: subtract ``mean`` then project."""

    mean: np.ndarray
    components: np.ndarray  # m x dim, orthonormal columns


def pca_fit(d, dim):
    """Top-``dim`` left singular vectors of the column-centered data."""
    d = np.asarray(d, dtype=float)
    mean = d.mean(axis=1, keepdims=True)
    u, s, _ = np.linalg.svd(d - mean, full_matrices=False)
    if dim > min(d.shape[0], d.shape[1] - 1):
        raise BadDim(f"dim={dim} exceeds min(m, n-1) = {min(d.shape[0], d.shape[1] - 1)}")
    return PcaModel(mean=mean[:, 0].copy(), components=np.ascontiguousarray(u[:, :dim]))


def pca_transform(pca: PcaModel, y):
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != pca.mean.shape[0]:
        raise DimensionMismatch(
            f"data has {y.shape[0]} rows, PCA expects {pca.mean.shape[0]}"
        )
    return pca.components.T @ (y - pca.mean[:, None])


@dataclass(frozen=True)
class ExperimentConfig:
    """One classification experiment: data source, optional corruption, a
    feature-extraction method, and repeated stratified trials."""

    source: object  # file path (str) or SubspaceSpec
    method: str = "pce"
    lam: float = 1.0
    dim: int | None = None  # m' for pca / lle-npe
    neighbors: int = 5  # p for lle-npe
    noise: NoiseSpec | None = None
    noise_after_split: bool = False
    trials: int = 10
    train_fraction: float = 0.5
    base_seed: int = 0
    center: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; valid: {', '.join(METHODS)}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")


@dataclass
class Report:
    """Per-trial accuracies, estimated dimensions and phase timings."""

    accuracies: list = field(default_factory=list)
    ks: list = field(default_factory=list)
    fit_seconds: list = field(default_factory=list)
    transform_seconds: list = field(default_factory=list)
    classify_seconds: list = field(default_factory=list)

    @property
    def mean(self):
        return statistics.fmean(self.accuracies)

    @property
    def std(self):
        return statistics.pstdev(self.accuracies)

    @property
    def k_mode(self):
        return statistics.mode(self.ks)


def _load_source(source, seed):
    if isinstance(source, SubspaceSpec):
        return generate_union_of_subspaces(source, seed)
    return load_matrix(source)


def _apply_noise(matrix, noise: NoiseSpec, seed):
    if noise.kind == "gaussian":
        return add_gaussian_noise(matrix, noise.rho, clip=noise.clip, seed=seed)
    if noise.kind == "pixel":
        return add_pixel_corruption(matrix, noise.rho, seed=seed)
    raise ValueError(f"unknown noise kind {noise.kind!r}")


def _fit_method(cfg: ExperimentConfig, train: LabeledDataset):
    """Returns (transform callable, estimated k or None)."""
    if cfg.method == "raw":
        return (lambda y: np.asarray(y, dtype=float)), None
    if cfg.method == "pce":
        model = _model.fit(train.matrix, cfg.lam, center=cfg.center)
        return (lambda y: _model.transform(model, y)), model.k
    if cfg.method == "pca":
        if cfg.dim is None:
            raise ValueError("pca needs an explicit dim")
        pca = pca_fit(train.matrix, cfg.dim)
        return (lambda y: pca_transform(pca, y)), None
    # lle-npe: reconstruction-weight graph embedded at a user-chosen dimension
    if cfg.dim is None:
        raise ValueError("lle-npe needs an explicit dim")
    g = _graph.lle_graph(train.matrix, _graph.LleConfig(p=cfg.neighbors))
    theta = _graph.embed(train.matrix, g, cfg.dim)
    return (lambda y: theta.T @ np.asarray(y, dtype=float)), None


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run ``cfg.trials`` independent trials (seed = base_seed + trial) and
    collect accuracies, dimensions, and per-phase wall-clock times."""
    report = Report()
    for trial in range(cfg.trials):
        seed = cfg.base_seed + trial
        try:
            ds = _load_source(cfg.source, seed)
            if cfg.noise is not None and not cfg.noise_after_split:
                ds = LabeledDataset(
                    _apply_noise(ds.matrix, cfg.noise, seed), ds.labels, ds.meta
                )
            train, test = split(ds, cfg.train_fraction, seed)
            if cfg.noise is not None and cfg.noise_after_split:
                train = LabeledDataset(
                    _apply_noise(train.matrix, cfg.noise, seed), train.labels, train.meta
                )
                test = LabeledDataset(
                    _apply_noise(test.matrix, cfg.noise, seed + cfg.trials),
                    test.labels,
                    test.meta,
                )
            t0 = time.perf_counter()
            project, k = _fit_method(cfg, train)
            t1 = time.perf_counter()
            train_z = project(train.matrix)
            test_z = project(test.matrix)
            t2 = time.perf_counter()
            predicted = nn_classify(train_z, train.labels, test_z)
            t3 = time.perf_counter()
        except Exception as exc:
            raise type(exc)(f"trial {trial}: {exc}") from exc
        report.accuracies.append(accuracy(predicted, test.labels))
        report.ks.append(k)
        report.fit_seconds.append(t1 - t0)
        report.transform_seconds.append(t2 - t1)
        report.classify_seconds.append(t3 - t2)
    return report


def write_report_csv(report: Report, path):
    """One row per trial (trial, accuracy, k, fit_s, transform_s, classify_s)
    plus a trailing summary row, written atomically."""

    def row(trial, acc, k, *seconds):
        k = "" if k is None else k
        return (trial, repr(acc), k, *(f"{t:.6f}" for t in seconds))

    phases = (report.fit_seconds, report.transform_seconds, report.classify_seconds)
    trials = zip(report.accuracies, report.ks, *phases)
    rows = [row(i, *values) for i, values in enumerate(trials)]
    k_mode = None if report.ks[0] is None else report.k_mode
    rows.append(row("summary", report.mean, k_mode, *map(sum, phases)))
    header = ("trial", "accuracy", "k", "fit_s", "transform_s", "classify_s")
    write_csv(path, header, rows)
