"""Dense linear-algebra kernels: skinny SVD and a generalized symmetric eigensolver.

Everything here is deterministic: identical inputs produce bitwise-identical
outputs on a given platform.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, NotConverged, ZeroMatrix

__all__ = [
    "SvdFactors",
    "skinny_svd",
    "generalized_top_eigs",
    "canonical_signs",
    "rank_tolerance",
]

SYMMETRY_TOL = 1e-10


def rank_tolerance(shape):
    """Relative threshold (against sigma_1) below which singular values count as zero."""
    return 1e-12 * max(shape)


def _check_matrix(d):
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return d


@dataclass(frozen=True)
class SvdFactors:
    """Skinny SVD of a matrix, truncated at its numerical rank.

    ``u`` (m x r) and ``v`` (n x r) are column-orthonormal, ``sigma`` holds the
    r retained singular values in descending order.  ``spectrum`` keeps the full
    min(m, n) singular values so callers can reason about the discarded tail.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    spectrum: np.ndarray = field(repr=False)

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.T


def skinny_svd(d):
    """SVD of ``d`` keeping only singular triplets above the rank tolerance.

    Raises ZeroMatrix when every entry is numerically zero (the self-expression
    problem is undefined for the zero matrix) and NonFinite on NaN/Inf.
    """
    d = _check_matrix(d)
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    if s[0] <= 0.0:
        raise ZeroMatrix("matrix is numerically zero")
    tol = rank_tolerance(d.shape)
    r = int(np.count_nonzero(s > tol * s[0]))
    return SvdFactors(
        u=np.ascontiguousarray(u[:, :r]),
        sigma=s[:r].copy(),
        v=np.ascontiguousarray(vt[:r].T),
        rank=r,
        spectrum=s,
    )


def _first_nonzero_index(vec):
    big = np.abs(vec).max()
    if big == 0.0:
        return len(vec)
    nz = np.nonzero(np.abs(vec) > 1e-10 * big)[0]
    return int(nz[0]) if len(nz) else len(vec)


def canonical_signs(vectors):
    """Flip columns in place so each one's largest-magnitude coordinate is
    positive (the first such coordinate on exact ties); returns ``vectors``."""
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def _canonicalize(values, vectors):
    # Descending eigenvalues; exactly equal eigenvalues are ordered by the
    # first nonzero coordinate of their vectors, then by position (the sort
    # is stable).  Only tied eigenvalues need that key.
    neg = -values
    ranked = np.sort(neg)
    tied = np.isin(neg, ranked[1:][ranked[1:] == ranked[:-1]])
    key = np.zeros(len(values), dtype=int)
    for i in np.flatnonzero(tied):
        key[i] = _first_nonzero_index(vectors[:, i])
    order = np.lexsort((key, neg))
    return values[order], canonical_signs(vectors[:, order])


def generalized_top_eigs(l, r, count, ridge=None):
    """Top ``count`` eigenpairs of the pencil (l, r + ridge*I).

    ``l`` must be symmetric and ``r`` symmetric PSD.  Solved by Cholesky
    whitening of ``r + ridge*I`` followed by an ordinary symmetric
    eigendecomposition.  Returned vectors satisfy
    ``vectors.T @ (r + ridge*I) @ vectors = I``.  When ``ridge`` is omitted
    and ``r`` turns out singular, a ridge of 1e-10 * trace(r)/n is applied.
    """
    l = np.asarray(l, dtype=float)
    r = np.asarray(r, dtype=float)
    if l.shape != r.shape or l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise DimensionMismatch(f"pencil shapes differ: {l.shape} vs {r.shape}")
    n = l.shape[0]
    if count > n:
        raise DimensionMismatch(f"requested {count} eigenpairs from a {n}x{n} pencil")
    scale_l = np.abs(l).max()
    scale_r = np.abs(r).max()
    if np.abs(l - l.T).max() > SYMMETRY_TOL * max(scale_l, 1.0):
        raise DimensionMismatch("left matrix is not symmetric")
    if np.abs(r - r.T).max() > SYMMETRY_TOL * max(scale_r, 1.0):
        raise DimensionMismatch("right matrix is not symmetric")

    auto_ridge = ridge is None
    ridge = 0.0 if auto_ridge else ridge
    reg = r if ridge == 0.0 else r + ridge * np.eye(n)
    try:
        chol = np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        if not auto_ridge:
            raise NotConverged(
                "right matrix is singular; pass a positive ridge"
            ) from exc
        ridge = 1e-10 * np.trace(r) / n
        try:
            chol = np.linalg.cholesky(r + ridge * np.eye(n))
        except np.linalg.LinAlgError:
            raise NotConverged(
                "right matrix is singular even after the default ridge"
            ) from exc
    # Whiten: M = L^-1 l L^-T, then eigh; back-transform keeps the metric
    # normalization exact.
    half = scipy.linalg.solve_triangular(chol, 0.5 * (l + l.T), lower=True)
    m = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    m = 0.5 * (m + m.T)
    try:
        w, y = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NotConverged("symmetric eigensolve failed") from exc
    vectors = scipy.linalg.solve_triangular(chol.T, y, lower=False)
    values, vectors = _canonicalize(w, vectors)
    return values[:count].copy(), np.ascontiguousarray(vectors[:, :count])
