"""The references that the tests check the library against.

``argmin_oracle`` enumerates the paper's objective r + lam * sum_{i>r} sigma_i^2
for every r, the independent check of ``estimate_dimension``'s closed-form count.

``generalized_top_eigs`` is the reference generalized symmetric eigensolver.
No library path solves a generalized eigenproblem: PCE is one SVD, and
``pce.embed`` reduces its pencil to one symmetric ``eigh``.  This solver is the
independent oracle for both, so it, and its scipy import, live with the tests.
"""

import numpy as np
import scipy.linalg

from pce.errors import DimensionMismatch, NotConverged
from pce.linalg import _canonicalize, _check_matrix

SYMMETRY_TOL = 1e-10


def argmin_oracle(sigma, lam):
    """Exhaustive cost enumeration; the independent check for the estimator."""
    sigma = np.asarray(sigma, dtype=float)
    costs = [
        r + lam * float(np.sum(sigma[r:] ** 2)) for r in range(len(sigma) + 1)
    ]
    best = min(costs)
    return next(r for r, c in enumerate(costs) if c <= best + 1e-12)


def generalized_top_eigs(l, r, count):
    """Top ``count`` eigenpairs of the pencil (l, r).

    ``l`` must be symmetric and ``r`` symmetric positive definite.  Solved by
    one LAPACK ``sygvd`` call (``scipy.linalg.eigh(l, r)``), which whitens by
    Cholesky itself, so the returned vectors satisfy ``vectors.T @ r @ vectors = I``.
    Values come in descending order with the library's canonical tie order and
    column signs.  Raises NonFinite on NaN/Inf and NotConverged when ``r`` is
    not positive definite.
    """
    l, r = _check_matrix(l), _check_matrix(r)
    if l.shape != r.shape or l.shape[0] != l.shape[1]:
        raise DimensionMismatch(f"pencil shapes differ: {l.shape} vs {r.shape}")
    n = l.shape[0]
    if count > n:
        raise DimensionMismatch(f"requested {count} eigenpairs from a {n}x{n} pencil")
    for side, a in (("left", l), ("right", r)):
        if np.abs(a - a.T).max() > SYMMETRY_TOL * max(np.abs(a).max(), 1.0):
            raise DimensionMismatch(f"{side} matrix is not symmetric")
    try:
        w, vectors = scipy.linalg.eigh(0.5 * (l + l.T), r)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(
            "right matrix is not positive definite; pass r + ridge * I instead"
        ) from exc
    values, vectors = _canonicalize(w, vectors)
    return values[:count].copy(), np.ascontiguousarray(vectors[:, :count])
