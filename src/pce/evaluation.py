"""Nearest-neighbor classification, the centered-PCA baseline, and the
repeated-trial experiment runner.
"""

import statistics
from dataclasses import dataclass, field

import numpy as np

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
    require_labels,
    split,
    write_csv,
)
from .errors import BadDim, DimensionMismatch
from .linalg import SvdFactors, _centred, _check_matrix, _spectrum_of, _unit_scale
from .linalg import canonical_signs, skinny_svd

__all__ = [
    "nn_classify",
    "accuracy",
    "PcaModel",
    "pca_fit",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "write_report_csv",
]

METHODS = ("pce", "pca", "lle-npe", "raw")
NPE_ENERGY = 0.98  # share of the energy NPE's PCA step keeps, as Laplacianfaces does


def nn_classify(train_z, train_labels, test_z):
    """Label each test column with its Euclidean-nearest training column's
    label.  With both sets shifted by the first training column, which keeps
    integer features exact, column a goes to the b_j minimising ||b_j||^2 - 2a'b_j;
    exact ties go to the lowest j.  Both sets are first divided by one power of
    two, exactly, so no shifted entry overflows and features scaled by 2^j keep
    every prediction.  A 1-d set is one feature; both pass ``_check_matrix``."""
    train_z, test_z = (_check_matrix(np.atleast_2d(z)) for z in (train_z, test_z))
    train_labels = np.asarray(train_labels)
    if train_z.shape[0] != test_z.shape[0]:
        raise DimensionMismatch(
            f"train features {train_z.shape[0]}-d, test {test_z.shape[0]}-d"
        )
    if len(train_labels) != train_z.shape[1]:
        raise DimensionMismatch(
            f"{len(train_labels)} labels for {train_z.shape[1]} training columns"
        )
    b, a = train_z.copy(), test_z.copy()
    _unit_scale(b, a)
    a -= b[:, :1]
    b -= b[:, :1]
    score = np.einsum("ij,ij->j", b, b) - 2.0 * (a.T @ b)
    return train_labels[score.argmin(axis=1)]


def accuracy(predicted, truth):
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise DimensionMismatch(f"{predicted.shape} vs {truth.shape}")
    if truth.size == 0:
        raise DimensionMismatch("no labels to score")
    return float(np.mean(predicted == truth))


@dataclass(frozen=True)
class PcaModel:
    """Centred principal components, applied by ``transform``: subtract ``center``
    then project onto ``theta``, the centred, unwhitened counterpart of PCE's."""

    center: np.ndarray
    theta: np.ndarray  # m x dim, orthonormal columns


def pca_fit(d, dim):
    """Top-``dim`` left singular vectors of the column-centred data, each with
    its largest-magnitude entry positive.  ``dim`` may not exceed the centred
    data's rank.  ``d`` is checked as ``skinny_svd`` checks it (DimensionMismatch,
    NonFinite) before centring; constant rows raise ZeroMatrix."""
    if dim < 1:
        raise BadDim(f"dim={dim} must be >= 1")
    x, mean = _centred(d)
    svd = skinny_svd(x, right=False)
    if dim > svd.rank:
        raise BadDim(f"dim={dim} exceeds the rank {svd.rank} of the centred data")
    return PcaModel(center=mean, theta=canonical_signs(svd.u[:, :dim].copy()))


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
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        if self.method in ("pca", "lle-npe") and self.dim is None:
            raise ValueError(f"{self.method} needs an explicit dim")
        if self.method in ("pca", "lle-npe") and self.dim < 1:
            raise ValueError(f"{self.method} needs dim >= 1, got {self.dim}")
        if self.method == "lle-npe" and self.neighbors < 1:
            raise ValueError(f"lle-npe needs neighbors >= 1, got {self.neighbors}")


@dataclass
class Report:
    """Per-trial accuracies and estimated dimensions (None where the method
    estimates none); a deterministic function of the experiment's config."""

    accuracies: list = field(default_factory=list)
    ks: list = field(default_factory=list)

    @property
    def mean(self):
        return statistics.fmean(self.accuracies)

    @property
    def std(self):
        return statistics.pstdev(self.accuracies)

    @property
    def k_mode(self):
        return statistics.mode(self.ks)


def _apply_noise(ds: LabeledDataset, noise: NoiseSpec, seed):
    if noise.kind == "pixel":
        matrix = add_pixel_corruption(ds.matrix, noise.rho, seed=seed)
    else:
        matrix = add_gaussian_noise(ds.matrix, noise.rho, clip=noise.clip, seed=seed)
    return LabeledDataset(matrix, ds.labels, ds.meta)


def _fit_method(cfg: ExperimentConfig, train: LabeledDataset):
    """Returns (transform callable, estimated k or None)."""
    if cfg.method == "raw":
        return (lambda y: np.asarray(y, dtype=float)), None
    if cfg.method == "pce":
        model = _model.fit(train.matrix, cfg.lam, center=cfg.center)
        return (lambda y: _model.transform(model, y)), model.k
    if cfg.method == "pca":
        pca = pca_fit(train.matrix, cfg.dim)
        return (lambda y: _model.transform(pca, y)), None
    # lle-npe: reconstruction-weight graph embedded at a user-chosen dimension
    # in the PCA subspace that holds NPE_ENERGY of the train half's energy
    weights = _graph.lle_graph(train.matrix, cfg.neighbors)
    svd = _npe_pca(train.matrix)
    if cfg.dim > svd.rank:
        raise BadDim(
            f"dim={cfg.dim} exceeds the r={svd.rank} PCA directions that hold "
            f"{NPE_ENERGY:g} of the energy"
        )
    theta = _graph.embed(svd, weights, cfg.dim)
    return (lambda y: _model._project(theta, y)), None


def _npe_pca(d):
    """NPE's PCA step: the leading r singular triplets of ``d`` for the least
    r whose sigma_i^2 hold NPE_ENERGY of sum sigma_i^2, with all min(m, n)
    values in the spectrum, from one ``eigh`` of the n x n Gram of ``d``
    scaled by ``_unit_scale``; it shares ``skinny_svd``'s epilogue and errors.

    U_r = x V_r Sigma_r^-1 needs no re-orthonormalising: as r - 1 values fall
    short of NPE_ENERGY, the n - r + 1 values from sigma_r on hold more than
    2% of the energy, so sigma_1^2 / sigma_r^2 < 50 n, and the Gram's
    eigenvalues, exact to about eps sigma_1^2, keep U_r' U_r = I to a few
    times 50 n eps.
    """
    x = np.array(d, dtype=float)
    e = _unit_scale(x)
    evals, vecs = np.linalg.eigh(x.T @ x)
    # a rank-deficient Gram can have eigenvalues of -eps
    sigma = np.sqrt(np.maximum(evals[::-1], 0.0))[: min(x.shape)]
    spectrum = _spectrum_of(sigma, e)
    energy = np.cumsum(evals[::-1])
    r = int(np.argmax(energy >= NPE_ENERGY * energy[-1])) + 1
    v = vecs[:, :-r - 1:-1]
    u = x @ v / sigma[:r]
    return SvdFactors(u=u, v=v, rank=r, spectrum=spectrum)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run ``cfg.trials`` independent trials (seed = base_seed + trial) and
    collect accuracies and dimensions.  A data file is parsed once; a
    SubspaceSpec is sampled per trial from its seed.  A trial's error propagates
    with its type unchanged and a note naming the trial."""
    report = Report()
    loaded = None
    if not isinstance(cfg.source, SubspaceSpec):
        loaded = require_labels(load_matrix(cfg.source), "eval")
    for trial in range(cfg.trials):
        seed = cfg.base_seed + trial
        try:
            if loaded is None:
                ds = generate_union_of_subspaces(cfg.source, seed)
            else:
                ds = loaded
            if cfg.noise is not None:
                ds = _apply_noise(ds, cfg.noise, seed)
            train, test = split(ds, cfg.train_fraction, seed)
            project, k = _fit_method(cfg, train)
            train_z = project(train.matrix)
            test_z = project(test.matrix)
            predicted = nn_classify(train_z, train.labels, test_z)
        except Exception as exc:
            # add_note is Python 3.11+; __notes__ is what it appends to
            note = f"trial {trial}, seed {seed}"
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
            raise
        report.accuracies.append(accuracy(predicted, test.labels))
        report.ks.append(k)
    return report


def write_report_csv(report: Report, path):
    """One row per trial (trial, accuracy, k) plus a trailing summary row
    (summary, mean accuracy, k_mode), written atomically.  A k of None is
    written empty."""
    trials = [*enumerate(zip(report.accuracies, report.ks)),
              ("summary", (report.mean, report.k_mode))]
    rows = [(trial, repr(acc), "" if k is None else k) for trial, (acc, k) in trials]
    write_csv(path, ("trial", "accuracy", "k"), rows)
