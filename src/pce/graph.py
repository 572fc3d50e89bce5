"""The locally-linear-reconstruction graph and its embedding.

``lle_graph`` encodes each column over its p nearest neighbours with weights
summing to 1, all from one Gram matrix of the data shifted by its first
column.  ``embed`` solves the pencil D (A + A' - A A') D' theta = sigma D D'
theta of a weight matrix A in the SVD D = U_r Sigma_r V_r' it is given, with
one symmetric r x r ``eigh``; no generalized eigensolver runs.  Given a
truncated SVD, it embeds in span U_r.  The principal-coefficient graph
A = Vk Vk' is such a matrix too, but its pencil has the closed form
``model.closed_form_projection`` and ``fit`` takes that.
"""

import numpy as np

from .errors import BadDim, DegenerateNeighborhood, DimensionMismatch, NonFinite, NotConverged
from .linalg import _canonicalize, _check_matrix, _unit_scale, canonical_signs

__all__ = ["lle_graph", "embed"]

EIG_FLOOR = 1e-8
LLE_REG = 1e-3


def lle_graph(d, p):
    """n x n reconstruction weights: column i encodes d_i over its p nearest
    neighbours with weights summing to 1, and the diagonal is zero.

    Neighbor ties are broken by ascending column index; each local Gram matrix
    gets LLE_REG * trace / p added to its diagonal, solves (G + delta I) w = 1,
    and its weights are rescaled to sum to 1.  Distances and local Grams both
    come from one Gram matrix K = X'X of the data with its first column
    subtracted from every column.  That shift leaves every difference
    unchanged, avoids cancelling large squared norms, and keeps integer-valued
    data (e.g. pixels) integer, so exactly equal distances stay equal and their
    ties still go to the lower index.  All n systems are solved in one batched
    ``solve``, so no per-column loop and no n x p x m array is formed.  The
    data is divided by the power of two at its largest |entry| before the
    shift, so no difference overflows, and each local Gram by the power of
    two at its trace; both are exact, so 2^j d has the weights of d.
    """
    x = _check_matrix(d).copy()
    n = x.shape[1]
    if not 1 <= p < n:
        raise DimensionMismatch(f"need 1 <= p < n, got p={p}, n={n}")
    _unit_scale(x)
    x -= x[:, :1]
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
    # each Gram over the power of two at its trace, so the solve neither
    # under- nor overflows; a zero Gram (all neighbours equal) gets I
    e = -np.frexp(trace)[1]
    np.ldexp(local, e[:, None, None], out=local)
    np.ldexp(trace, e, out=trace)
    diag = np.arange(p)
    local[:, diag, diag] += np.where(trace > 0, LLE_REG * trace / p, 1.0)[:, None]
    try:
        coeffs = np.linalg.solve(local, np.ones((n, p, 1)))[..., 0]  # n x p
    except np.linalg.LinAlgError as exc:
        raise DegenerateNeighborhood("a local Gram system is singular") from exc
    total = coeffs.sum(axis=1)
    good = np.isfinite(coeffs).all(axis=1) & (total > 0)
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


def embed(svd, weights, dim):
    """Solve the embedding pencil of the n x n weight matrix ``weights`` in
    the SVD ``svd`` = (U_r, Sigma_r, V_r) of the m x n data D, and return the
    m x dim projection.

    The pencil L theta = sigma D D' theta has L = D S D' with S = A + A' - A A'.
    theta = U_r Sigma_r^-1 y turns it into M0 y = sigma y with M0 = V_r' S V_r,
    formed from B = V_r' A as B V_r + (B V_r)' - B B' with no n x n product of
    A with itself, and Theta = U_r Sigma_r^-1 Y.  Theta' D D' Theta = I to
    eps kappa, even when D D' itself is singular, and ``canonical_signs`` then
    fixes each column's sign.  An ``svd`` truncated below the rank embeds in
    span U_r: this solves the pencil of U_r' D, as NPE's PCA step asks.
    """
    u, v = svd.u, svd.require_v()
    weights = _check_matrix(weights)
    n = v.shape[0]
    if weights.shape != (n, n):
        raise DimensionMismatch(f"weights are {weights.shape[0]}x{weights.shape[1]}, "
                                f"not {n}x{n} for data of {n} columns")
    if dim < 1:
        raise BadDim("dim must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        b = v.T @ weights
        bv = b @ v
        core = bv + bv.T - b @ b.T
    if not np.isfinite(core).all():
        raise NonFinite("the pencil V' (A + A' - A A') V overflows the float range")
    e = _unit_scale(core)  # exact; core is symmetric as formed, and eigh reads one triangle
    try:
        evals, y = np.linalg.eigh(core)
    except np.linalg.LinAlgError as exc:
        raise NotConverged("symmetric eigensolve failed") from exc
    with np.errstate(over="ignore"):
        usable = int(np.count_nonzero(np.ldexp(evals, -e) > EIG_FLOOR))
    if dim > usable:
        raise BadDim(
            f"dim={dim} exceeds the {usable} eigenvalues above {EIG_FLOOR:g}"
        )
    # 1/sigma_r may overflow for subnormal data: such a theta is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        _, alpha = _canonicalize(evals, y / svd.sigma[:, None])
        theta = u @ alpha[:, :dim]
    if not np.isfinite(theta).all():
        raise NonFinite(f"theta = U Sigma^-1 Y overflows the float range: "
                        f"sigma_r = {svd.sigma[-1]:.3g}")
    return canonical_signs(theta)
