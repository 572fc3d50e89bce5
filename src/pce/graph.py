"""The locally-linear-reconstruction graph and its embedding.

``lle_graph`` encodes each column over its p nearest neighbours with weights
summing to 1, all from one Gram matrix of the data shifted by its first
column.  ``embed`` solves the pencil D (A + A' - A A') D' theta = sigma D D'
theta of a weight matrix A with one symmetric ``eigh``: of A + A' - A A' when
D = QR has an R whose condition number is bounded through R^-1 by norms alone
(no SVD of R is taken), else of an r x r matrix from the SVD of D; no
generalized eigensolver runs.  The principal-coefficient graph A = Vk Vk' is
such a matrix too, but its pencil has the closed form
``model.closed_form_projection`` and ``fit`` takes that.
"""

import numpy as np

from .errors import BadDim, DegenerateNeighborhood, DimensionMismatch, NotConverged
from .linalg import _canonicalize, _check_matrix, _unit_scale, canonical_signs
from .linalg import _rank_tol, skinny_svd

__all__ = ["lle_graph", "embed"]

EIG_FLOOR = 1e-8
QR_COND_MAX = np.finfo(float).eps ** (-1 / 3)  # embed's R route: eps kappa^3 <= 1


def lle_graph(d, p, reg=1e-3):
    """n x n reconstruction weights: column i encodes d_i over its p nearest
    neighbours with weights summing to 1, and the diagonal is zero.

    Neighbor ties are broken by ascending column index; the local Gram matrix
    gets reg * trace / p added to its diagonal before solving.  Distances and
    local Grams both come from one Gram matrix K = X'X of the data with its
    first column subtracted from every column.  That shift leaves every
    difference unchanged, avoids cancelling large squared norms, and keeps
    integer-valued data (e.g. pixels) integer, so exactly equal distances stay
    equal and their ties still go to the lower index.  All n KKT systems are
    solved in one stacked pseudo-inverse, so no per-column loop and no
    n x p x m array is formed.  The shifted data is divided by the power of
    two at its largest |entry| and each local Gram by the power of two at its
    trace; both are exact, so 2^j d has the weights of d.
    """
    d = _check_matrix(d)
    n = d.shape[1]
    if not 1 <= p < n:
        raise DimensionMismatch(f"need 1 <= p < n, got p={p}, n={n}")
    x = d - d[:, :1]
    _unit_scale(x)
    gram = x.T @ x
    sq_norms = np.diag(gram)
    dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    np.fill_diagonal(dist, np.inf)
    nbrs = _nearest(dist, p)  # row i lists column i's p nearest neighbors
    cols = np.arange(n)
    # G_i = K[N,N] - K[N,i] - K[i,N] + K[i,i], the Gram of x_N - x_i
    cross = gram[nbrs, cols[:, None]]  # K[N_i, i], n x p
    local = (
        gram[nbrs[:, :, None], nbrs[:, None, :]]
        - cross[:, :, None]
        - cross[:, None, :]
        + sq_norms[:, None, None]
    )
    trace = np.trace(local, axis1=1, axis2=2)
    # each Gram over the power of two at its trace, to match the KKT's border of ones
    e = -np.frexp(trace)[1]
    np.ldexp(local, e[:, None, None], out=local)
    np.ldexp(trace, e, out=trace)
    if reg > 0:
        diag = np.arange(p)
        local[:, diag, diag] += np.where(trace > 0, reg * trace / p, 0.0)[:, None]
    # constrained least squares via the KKT systems; the pseudo-inverse, with
    # lstsq's default cutoff, picks the minimal-norm weights when a Gram is
    # exactly singular
    kkt = np.zeros((n, p + 1, p + 1))
    kkt[:, :p, :p] = 2.0 * local
    kkt[:, :p, p] = 1.0
    kkt[:, p, :p] = 1.0
    eps = np.finfo(float).eps
    coeffs = np.linalg.pinv(kkt, rcond=eps * (p + 1))[:, :p, p]  # n x p
    total = coeffs.sum(axis=1)
    good = np.isfinite(coeffs).all(axis=1) & (np.abs(total - 1.0) <= 1e-8)
    if not good.all():
        raise DegenerateNeighborhood(
            f"degenerate weights at column {int(np.flatnonzero(~good)[0])}"
        )
    w = np.zeros((n, n))
    w[nbrs, cols[:, None]] = coeffs / total[:, None]
    return w


def _nearest(dist, p):
    """Row i: the rows of column i's p smallest entries of ``dist``, ordered by
    value and ties by index, as ``np.argsort(dist, axis=0, kind="stable")[:p].T``
    gives them, without sorting whole columns: every entry below the p-th
    smallest, then the lowest-index entries equal to it."""
    kth = np.partition(dist, p - 1, axis=0)[p - 1]
    below = dist < kth
    tied = dist == kth
    keep = below | (tied & (np.cumsum(tied, axis=0) <= p - below.sum(axis=0)))
    nbrs = np.nonzero(keep.T)[1].reshape(-1, p)  # each row in index order
    near = dist[nbrs, np.arange(len(nbrs))[:, None]]
    return np.take_along_axis(nbrs, np.argsort(near, axis=1, kind="stable"), axis=1)


def embed(d, weights, dim, svd=None):
    """Solve the embedding pencil of the n x n weight matrix ``weights`` and
    return the m x dim projection.

    The pencil L theta = sigma D D' theta has L = D S D' with S = A + A' - A A'.
    With ``svd`` None and n <= m, D = QR and R^-1 is formed once; no SVD of R
    is taken.  When the norm bound sqrt(kappa_1 kappa_inf) on kappa =
    sigma_1 / sigma_n, with kappa_p = ||R||_p ||R^-1||_p, is at most
    QR_COND_MAX and 1 / (1e-12 max(m, n)), D has full numerical column rank,
    V is square and orthogonal, and Theta = U Sigma^-1 V' Z = D R^-1 R^-T Z
    for the top eigenvectors Z of S, by products with R^-1 and R^-T; neither
    U nor Q is formed.  This meets D' Theta = Z to eps kappa^2; one step on
    the residual brings that to eps kappa.  A singular R, a non-finite R^-1
    or a larger bound takes the SVD route.
    Any other D is reduced to its range through D = U_r Sigma_r V_r':
    theta = U_r Sigma_r^-1 y turns the pencil into M0 y = sigma y with
    M0 = V_r' S V_r, formed from B = V_r' A as B V_r + (B V_r)' - B B' with no
    n x n product of A with itself, and Theta = U_r Sigma_r^-1 Y.  Either way
    Theta' D D' Theta = I to eps kappa, even when D D' itself is singular, and
    ``canonical_signs`` then fixes each column's sign.
    """
    d = _check_matrix(d)
    weights = _check_matrix(weights)
    m, n = d.shape
    rows, cols = weights.shape
    if rows != cols:
        raise DimensionMismatch(f"weights are {rows}x{cols}, not square")
    if rows != n:
        raise DimensionMismatch(f"graph has {rows} nodes, data has {n} columns")
    if dim < 1:
        raise BadDim("dim must be at least 1")
    inv = None
    if svd is None and n <= m:  # D = QR: full column rank needs no SVD of D
        inv = _well_conditioned_inverse(np.linalg.qr(d, mode="r"), d.shape)
    if inv is None:
        svd = skinny_svd(d) if svd is None else svd
        u, v = svd.require_u(), svd.require_v()
        if (u.shape[0], v.shape[0]) != d.shape:
            raise DimensionMismatch(
                f"SVD factors are {u.shape[0]}x{v.shape[0]}, data is {m}x{n}"
            )
        b = v.T @ weights
        bv = b @ v
        core = bv + bv.T - b @ b.T
    else:
        core = weights + weights.T - weights @ weights.T
    try:
        evals, y = np.linalg.eigh(0.5 * (core + core.T))
    except np.linalg.LinAlgError as exc:
        raise NotConverged("symmetric eigensolve failed") from exc
    values, alpha = _canonicalize(evals, y / svd.sigma[:, None] if inv is None else y)
    usable = int(np.count_nonzero(values > EIG_FLOOR))
    if dim > usable:
        raise BadDim(
            f"dim={dim} exceeds the {usable} eigenvalues above {EIG_FLOOR:g}"
        )
    if inv is None:
        return canonical_signs(u @ alpha[:, :dim])
    theta = np.zeros((m, dim))
    for _ in range(2):  # Theta = D R^-1 R^-T Z, then the step on Z - D' Theta
        theta += d @ (inv @ (inv.T @ (alpha[:, :dim] - d.T @ theta)))
    return canonical_signs(theta)


def _well_conditioned_inverse(tri, shape):
    """R^-1 of the triangular factor ``tri`` of a matrix of ``shape`` when
    kappa_2(R) <= sqrt(kappa_1 kappa_inf) is at most QR_COND_MAX and below the
    rank cutoff 1 / (1e-12 max(shape)), else None.  Each kappa_p pairs a norm
    of R with the same norm of R^-1, so it is exact under 2^j scaling and
    finite at any scale; an overflow only makes the bound infinite."""
    try:
        inv = np.linalg.inv(tri)
    except np.linalg.LinAlgError:  # exactly singular
        return None
    if not np.isfinite(inv).all():
        return None
    with np.errstate(over="ignore"):
        kappa_1 = np.linalg.norm(tri, 1) * np.linalg.norm(inv, 1)
        kappa_inf = np.linalg.norm(tri, np.inf) * np.linalg.norm(inv, np.inf)
        bound = np.sqrt(kappa_1 * kappa_inf)
    return inv if bound <= min(QR_COND_MAX, 1 / _rank_tol(shape)) else None
