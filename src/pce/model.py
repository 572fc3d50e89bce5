"""Principal coefficients embedding: dimension estimation, clean-data recovery,
model fitting and out-of-sample projection.

One SVD D = U S V' of the training matrix decides everything.  The feature
dimension is k = #{lam * sigma_i^2 > 1}; the self-expression matrix is
C = Vk Vk'; and the embedding pencil of C collapses in closed form, because
D (C + C' - C C') D' = Uk Sk^2 Uk', to the projection Theta = Uk Sk^-1.  PCE
is therefore uncentred whitened PCA that keeps k directions.

k is stored once, as the width of theta (``PceModel.k``) and of the factor Vk
that ``principal_coefficients`` returns, so no copy of it can disagree.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDim, DegenerateDimension, DimensionMismatch, NonFinite, NotSorted
from .errors import ZeroMatrix
from .linalg import QR_RATIO, _check_matrix, _row_mean, canonical_signs, numerical_rank
from .linalg import skinny_svd

__all__ = [
    "PceModel",
    "SpectrumSummary",
    "estimate_dimension",
    "describe",
    "principal_coefficients",
    "closed_form_projection",
    "recover_clean",
    "fit",
    "transform",
]

TIE_TOL = 1e-12


@dataclass(frozen=True)
class PceModel:
    """Fitted projection.

    ``theta`` is m x k with theta.T @ D @ D.T @ theta = I for the training D,
    so k is its width.  ``spectrum`` keeps the full training singular values so
    the dimension choice can be audited after the fact.
    """

    lam: float
    theta: np.ndarray
    spectrum: np.ndarray
    train_cols: int
    center: np.ndarray | None = field(default=None)
    fit_seconds: float = field(default=0.0, compare=False)

    @property
    def k(self):
        return self.theta.shape[1]

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
    """k = #{lam * sigma_i^2 > 1 + 1e-12}: the r minimizing r + lam * sum_{i>r}
    sigma_i^2, as that cost changes by 1 - lam * sigma_r^2 from r - 1 to r.
    Equal values share a side of the threshold, so k never splits them.

    The one check of a spectrum, in order: empty or not 1-d is DimensionMismatch;
    NaN or Inf is NonFinite; a rise or a value < 0 is NotSorted; then sigma_1 <= 0
    (all zero) is ZeroMatrix; lambda not finite and > 0 is a ValueError."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or len(sigma) == 0:
        raise DimensionMismatch("need at least one singular value")
    if not np.all(np.isfinite(sigma)):
        raise NonFinite("spectrum contains non-finite values")
    if np.any(np.diff(sigma) > 0) or sigma[-1] < 0:
        raise NotSorted("singular values must be nonincreasing and >= 0")
    if not sigma[0] > 0:
        raise ZeroMatrix(f"sigma_1={sigma[0]!r} must be > 0")
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam:g}")
    squares, e = _squares(sigma)
    return int(np.count_nonzero(_times_2e(squares, 2 * e, lam) > 1 + TIE_TOL))


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
    k = estimate_dimension(spectrum, lam)  # the spectrum's check, before it is read
    rank = numerical_rank(spectrum, shape)
    k = min(k, rank)
    squares, e = _squares(spectrum)
    energy = np.cumsum(squares)
    min_lam = float(_times_2e((1.0 + 1e-6) / squares[0], -2 * e))  # past 1/sigma_1^2
    error_norm = float(_times_2e(np.sqrt(np.sum(squares[k:])), e))
    min_lam = min_lam if np.isfinite(min_lam) else None
    return SpectrumSummary(k, rank, error_norm, energy / energy[-1], min_lam)


def _kept_dimension(svd, lam):
    # svd.sigma holds only values above the rank, so describe keeps them all
    summary = describe(svd.sigma, lam, (len(svd.sigma),) * 2)
    if summary.k == 0:
        low = summary.min_lambda
        hint = "no finite lambda keeps one" if low is None else f"use lambda > {low:g}"
        raise DegenerateDimension(
            f"lambda={lam:g} keeps no dimensions for this spectrum; {hint}", min_lambda=low
        )
    return summary.k


def principal_coefficients(svd, lam):
    """Vk, the n x k first right singular vectors, k chosen by ``estimate_dimension``:
    the factor of the affinity C = Vk @ Vk.T."""
    k = _kept_dimension(svd, lam)
    return np.ascontiguousarray(svd.require_v()[:, :k])


def _check_k(svd, k):
    if not 1 <= k <= svd.rank:
        raise BadDim(f"k={k} outside 1..{svd.rank}")


def closed_form_projection(svd, k):
    """The canonical PCE projection Theta = Uk Sk^-1 (m x k).

    Column i is u_i / sigma_i with its largest-magnitude entry made positive,
    so Theta is a deterministic function of the SVD rather than an arbitrary
    rotation of the k-fold eigenvalue 1 of the embedding pencil.  Its first j
    columns are the projection for dimension j.  k outside 1..rank is BadDim.
    """
    _check_k(svd, k)
    return canonical_signs(svd.u[:, :k] / svd.sigma[:k])


def recover_clean(svd, k):
    """Split the SVD into a rank-k clean part and the residual error.

    Returns (d0, e) with d0 the best rank-k approximation and e the rest, so
    d0 + e reconstructs the input and ||e||_F^2 = sum of the trailing
    squared singular values.  k outside 1..rank is BadDim.
    """
    _check_k(svd, k)
    u, v = svd.u, svd.require_v()
    d0 = (u[:, :k] * svd.sigma[:k]) @ v[:, :k].T
    e = (u[:, k:] * svd.sigma[k:]) @ v[:, k:].T
    return d0, e


def fit(d, lam=1.0, center=False):
    """Fit a PCE model: one skinny SVD gives k = #{lam * sigma_i^2 > 1} and the
    m x k projection Theta = Uk Sk^-1 (uncentred whitened PCA).

    This is the embedding of the principal-coefficient graph C = Vk Vk' in
    closed form, so no eigenproblem is solved.  Tall data (m >= QR_RATIO * n)
    take Vk as the U of D', whose SVD is that of the triangular factor of D,
    and Uk is the Q of D Vk Sk^-1 = Q R.  ``center`` subtracts the per-row
    training mean first (off by default; the plain pipeline operates on raw
    columns).
    """
    t0 = time.perf_counter()
    d = _check_matrix(d)  # first: a matrix with no columns has no row mean
    mean = _row_mean(d) if center else None
    with np.errstate(over="ignore"):  # an overflowing difference is skinny_svd's NonFinite
        x = d if mean is None else d - mean
    tall = x.shape[0] >= QR_RATIO * x.shape[1]
    svd = skinny_svd(x.T if tall else x, right=False)
    k = _kept_dimension(svd, lam)
    # D Vk Sk^-1 is Uk only to sigma_1 / sigma_k ulps; its thin QR is orthonormal to rounding
    theta = closed_form_projection(svd, k) if not tall else canonical_signs(
        np.linalg.qr(x @ svd.u[:, :k] / svd.sigma[:k])[0] / svd.sigma[:k])
    return PceModel(
        lam=float(lam), theta=theta, spectrum=svd.spectrum, train_cols=d.shape[1],
        center=None if mean is None else mean[:, 0].copy(), fit_seconds=time.perf_counter() - t0
    )


def _project(theta, y, center=None, owner="model"):
    """theta' (y - center) for the columns of ``y`` (a vector is one column);
    ``y`` is checked as ``fit`` checks its data, and a row count other than
    theta's is a DimensionMismatch naming ``owner``."""
    y = np.asarray(y, dtype=float)
    y = _check_matrix(y[:, None] if y.ndim == 1 else y)
    if y.shape[0] != theta.shape[0]:
        raise DimensionMismatch(
            f"data has {y.shape[0]} rows, {owner} expects {theta.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # save_matrix refuses inf and nan
        return theta.T @ (y if center is None else y - center[:, None])


def transform(model, y):
    """Project columns of ``y`` into the learned feature space (z = theta' y)."""
    return _project(model.theta, y, model.center)
