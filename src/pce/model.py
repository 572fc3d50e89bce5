"""Principal coefficients embedding: dimension estimation, clean-data recovery,
model fitting and out-of-sample projection.

One SVD D = U S V' of the training matrix decides everything.  The feature
dimension is k = #{lam * sigma_i^2 > 1}; the self-expression matrix is
C = Vk Vk'; and the embedding pencil of C collapses in closed form, because
D (C + C' - C C') D' = Uk Sk^2 Uk', to the projection Theta = Uk Sk^-1.  PCE
is therefore uncentred whitened PCA that keeps k directions.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadK,
    DegenerateDimension,
    DimensionMismatch,
    EmptySpectrum,
    NotSorted,
    TooLarge,
)
from .linalg import _check_matrix, canonical_signs, numerical_rank, skinny_svd

__all__ = [
    "PceModel",
    "CoefficientFactor",
    "SpectrumSummary",
    "estimate_dimension",
    "describe",
    "principal_coefficients",
    "closed_form_projection",
    "recover_clean",
    "fit",
    "transform",
    "materialize_affinity",
]

AFFINITY_CAP = 20_000
TIE_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientFactor:
    """Factored self-expression matrix: C = vk @ vk.T with vk column-orthonormal."""

    vk: np.ndarray
    k: int


@dataclass(frozen=True)
class PceModel:
    """Fitted projection.

    ``theta`` is m x k with theta.T @ D @ D.T @ theta = I for the training D.
    ``spectrum`` keeps the full training singular values so the dimension
    choice can be audited after the fact.
    """

    lam: float
    k: int
    theta: np.ndarray
    spectrum: np.ndarray
    train_cols: int
    center: np.ndarray | None = field(default=None)
    fit_seconds: float = field(default=0.0, compare=False)

    @property
    def ambient_dim(self):
        return self.theta.shape[0]


def _squares(sigma):
    # sigma^2 = squares * 4^e for 2^e at sigma_1, the one squaring of a singular
    # value: none overflows, and the exact scaling keeps every normal square's bits
    e = int(np.frexp(sigma[0])[1])
    return np.ldexp(sigma, -e) ** 2, e


def _times_2e(x, e, lam=1.0):
    # lam * x * 2^e (inf on overflow) without lam * 2^e, which may overflow or be subnormal
    frac, exp = np.frexp(lam)
    with np.errstate(over="ignore"):
        return np.ldexp(frac * x, int(exp) + e)


def estimate_dimension(sigma, lam):
    """Feature dimension minimizing r + lam * sum of the squared trailing values.

    Ties within 1e-12 absolute go to the smallest r.  Away from ties this
    equals the count of i with lam * sigma_i^2 > 1.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or len(sigma) == 0:
        raise EmptySpectrum("need at least one singular value")
    if not np.all(np.isfinite(sigma)):
        raise NotSorted("spectrum contains non-finite values")
    if np.any(np.diff(sigma) > TIE_TOL):
        raise NotSorted("singular values must be nonincreasing")
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam:g}")
    # cost(r) = r + lam * sum_{i>r} sigma_i^2, r = 0..len(sigma)
    squares, e = _squares(sigma)
    tail = np.concatenate([np.cumsum(squares[::-1])[::-1], [0.0]])
    cost = np.arange(len(sigma) + 1) + _times_2e(tail, 2 * e, lam)
    best = cost.min()
    return int(np.nonzero(cost <= best + TIE_TOL)[0][0])


@dataclass(frozen=True)
class SpectrumSummary:
    """``describe``'s record; ``min_lambda`` is the least lambda that keeps a
    dimension, None when no finite one does."""

    k: int
    rank: int
    error_norm: float  # ||E||_F, the norm of the values past k
    cumulative_energy: np.ndarray  # share of sum sigma^2 in the first i values
    min_lambda: float | None


def describe(spectrum, lam, shape):
    """Summary of the descending ``spectrum`` of a ``shape`` matrix at ``lam``,
    finite at any scale; k is chosen among the values within the numerical
    rank, as ``fit`` chooses it."""
    spectrum = np.asarray(spectrum, dtype=float)
    rank = numerical_rank(spectrum, shape)
    k = estimate_dimension(spectrum[:rank], lam)
    squares, e = _squares(spectrum)
    energy = np.cumsum(squares)
    min_lam = float(_times_2e((1.0 + 1e-6) / squares[0], -2 * e))  # past 1/sigma_1^2
    error_norm = float(_times_2e(np.sqrt(np.sum(squares[k:])), e))
    min_lam = min_lam if np.isfinite(min_lam) else None
    return SpectrumSummary(k, rank, error_norm, energy / energy[-1], min_lam)


def _kept_dimension(svd, lam):
    # svd.sigma holds only values above the rank, so describe keeps them all
    summary = describe(svd.sigma, lam, svd.u.shape)
    if summary.k == 0:
        low = summary.min_lambda
        hint = "no finite lambda keeps one" if low is None else f"use lambda > {low:g}"
        raise DegenerateDimension(
            f"lambda={lam:g} keeps no dimensions for this spectrum; {hint}", min_lambda=low
        )
    return summary.k


def principal_coefficients(svd, lam):
    """First k right singular vectors, k chosen by ``estimate_dimension``.

    The n x n matrix C = vk @ vk.T is never formed here; use
    ``materialize_affinity`` when an explicit copy is wanted.
    """
    k = _kept_dimension(svd, lam)
    return CoefficientFactor(vk=np.ascontiguousarray(svd.require_v()[:, :k]), k=k)


def closed_form_projection(svd, k):
    """The canonical PCE projection Theta = Uk Sk^-1 (m x k).

    Column i is u_i / sigma_i with its largest-magnitude entry made positive,
    so Theta is a deterministic function of the SVD rather than an arbitrary
    rotation of the k-fold eigenvalue 1 of the embedding pencil.  Its first j
    columns are the projection for dimension j.
    """
    return canonical_signs(svd.u[:, :k] / svd.sigma[:k])


def recover_clean(svd, k):
    """Split the SVD into a rank-k clean part and the residual error.

    Returns (d0, e) with d0 the best rank-k approximation and e the rest, so
    d0 + e reconstructs the input and ||e||_F^2 = sum of the trailing
    squared singular values.
    """
    if not 1 <= k <= svd.rank:
        raise BadK(f"k={k} outside 1..{svd.rank}")
    v = svd.require_v()
    d0 = (svd.u[:, :k] * svd.sigma[:k]) @ v[:, :k].T
    e = (svd.u[:, k:] * svd.sigma[k:]) @ v[:, k:].T
    return d0, e


def materialize_affinity(factor, cap=AFFINITY_CAP):
    """Explicit n x n affinity C = vk @ vk.T; guarded by a size cap."""
    n = factor.vk.shape[0]
    if n > cap:
        raise TooLarge(f"materializing {n}x{n} exceeds the cap of {cap}")
    return factor.vk @ factor.vk.T


def fit(d, lam=1.0, center=False):
    """Fit a PCE model: one skinny SVD gives k = #{lam * sigma_i^2 > 1} and the
    m x k projection Theta = Uk Sk^-1 (uncentred whitened PCA).

    This is the embedding of the principal-coefficient graph C = Vk Vk' in
    closed form, so no eigenproblem is solved.  ``center`` subtracts the
    per-row training mean first (off by default; the plain pipeline operates
    on raw columns).
    """
    t0 = time.perf_counter()
    d = _check_matrix(d)  # the mean of a matrix with no columns warns
    mean = d.mean(axis=1, keepdims=True) if center else None
    svd = skinny_svd(d if mean is None else d - mean, right=False)
    k = _kept_dimension(svd, lam)
    return PceModel(
        lam=float(lam),
        k=k,
        theta=closed_form_projection(svd, k),
        spectrum=svd.spectrum,
        train_cols=d.shape[1],
        center=None if mean is None else mean[:, 0].copy(),
        fit_seconds=time.perf_counter() - t0,
    )


def _project(theta, y, center=None, owner="model"):
    """theta' (y - center) for the columns of ``y`` (a vector is one column);
    a row count other than theta's is a DimensionMismatch naming ``owner``."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != theta.shape[0]:
        raise DimensionMismatch(
            f"data has {y.shape[0]} rows, {owner} expects {theta.shape[0]}"
        )
    if center is not None:
        y = y - center[:, None]
    return theta.T @ y


def transform(model, y):
    """Project columns of ``y`` into the learned feature space (z = theta' y)."""
    return _project(model.theta, y, model.center)
