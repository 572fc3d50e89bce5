"""Affinity graphs and the graph-embedding step.

Two graph flavors: the factored principal-coefficient graph (A = vk vk') and
a locally-linear-reconstruction baseline with explicit weights, built from one
Gram matrix of the data shifted by its first column.  Both embed through the
pencil D (A + A' - A A') D' theta = sigma D D' theta.  When vk is the leading
block of D's right singular vectors the pencil has the closed-form solution
Theta = Uk Sk^-1.  For the other graphs the SVD of D makes the right matrix
diag(sigma_r^2), so Theta = U_r Sigma_r^-1 Y with Y from one symmetric
``eigh`` of an r x r matrix; no generalized eigensolver runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDim, DegenerateNeighborhood, DimensionMismatch, NotConverged
from .linalg import _canonicalize, canonical_signs, skinny_svd
from .model import CoefficientFactor, closed_form_projection

__all__ = ["AffinityGraph", "LleConfig", "pce_graph", "lle_graph", "embed"]

EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class AffinityGraph:
    """Either a factored projector graph (vk) or explicit reconstruction weights.

    ``weights`` columns sum to 1 and have zero diagonal; ``vk`` implies
    A = vk @ vk.T without storing it.
    """

    kind: str  # "pce-factored" | "lle-weights"
    n: int
    vk: np.ndarray | None = None
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class LleConfig:
    """Neighborhood size and Gram regularizer for the reconstruction weights."""

    p: int
    reg: float = 1e-3


def pce_graph(factor: CoefficientFactor) -> AffinityGraph:
    """Wrap a coefficient factor as a similarity graph (no n x n copy)."""
    return AffinityGraph(kind="pce-factored", n=factor.vk.shape[0], vk=factor.vk)


def lle_graph(d, cfg: LleConfig) -> AffinityGraph:
    """Reconstruction-weight graph: each column is encoded over its p nearest
    neighbors with weights summing to 1.

    Neighbor ties are broken by ascending column index; the local Gram matrix
    gets reg * trace / p added to its diagonal before solving.  Distances and
    local Grams both come from one Gram matrix K = X'X of the data with its
    first column subtracted from every column.  That shift leaves every
    difference unchanged, avoids cancelling large squared norms, and keeps
    integer-valued data (e.g. pixels) integer, so exactly equal distances stay
    equal and their ties still go to the lower index.  All n KKT systems are
    solved in one stacked pseudo-inverse, so no per-column loop and no
    n x p x m array is formed.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[1]
    if not 1 <= cfg.p < n:
        raise DimensionMismatch(f"need 1 <= p < n, got p={cfg.p}, n={n}")
    p = cfg.p
    x = d - d[:, :1]
    gram = x.T @ x
    sq_norms = np.diag(gram)
    dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    np.fill_diagonal(dist, np.inf)
    # stable sort keeps ascending-index tie order; row i lists column i's
    # p nearest neighbors
    nbrs = np.argsort(dist, axis=0, kind="stable")[:p].T
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
    if cfg.reg > 0:
        diag = np.arange(p)
        local[:, diag, diag] += np.where(trace > 0, cfg.reg * trace / p, 0.0)[:, None]
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
    return AffinityGraph(kind="lle-weights", n=n, weights=w)


def embed(d, graph: AffinityGraph, dim, svd=None):
    """Solve the embedding pencil and return the m x dim projection.

    The pencil L theta = sigma D D' theta with L = D (A + A' - A A') D' is
    reduced to the range of D through its SVD D = U_r Sigma_r V_r': writing
    theta = U_r Sigma_r^-1 y turns it into the symmetric eigenproblem
    M0 y = sigma y with M0 = V_r' (A + A' - A A') V_r, because every retained
    sigma is positive.  One ``eigh`` of the r x r matrix M0 gives Y, and
    Theta = U_r Sigma_r^-1 Y satisfies Theta' D D' Theta = I even when D D'
    itself is singular; ``canonical_signs`` then fixes each column's sign.

    A factored graph whose vk is the leading k-block of D's right singular
    vectors, as built by ``principal_coefficients``, has M0 = diag(1_k, 0):
    the pencil's top k eigenvalues all equal 1 and its solution is the closed
    form Theta = Uk Sk^-1.  That graph gets the first ``dim`` columns of the
    canonical Theta, i.e. the top-sigma directions, and no eigensolve runs.
    Any other factored graph has M0 = (V_r' vk)(V_r' vk)'; a
    reconstruction-weight graph forms M0 from B = V_r' A as B V_r + (B V_r)' -
    B B'.  Neither forms an n x n product of the graph with itself.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[1]
    if graph.n != n:
        raise DimensionMismatch(f"graph has {graph.n} nodes, data has {n} columns")
    if dim < 1:
        raise BadDim("dim must be at least 1")
    if svd is None:
        svd = skinny_svd(d)
    v = svd.require_v()
    if (svd.u.shape[0], v.shape[0]) != d.shape:
        raise DimensionMismatch(
            f"SVD factors are {svd.u.shape[0]}x{v.shape[0]}, data is {d.shape[0]}x{n}"
        )

    if graph.kind == "pce-factored":
        k = graph.vk.shape[1]
        if dim > k:
            raise BadDim(f"dim={dim} exceeds the graph rank k={k}")
        if np.array_equal(graph.vk, v[:, :k]):
            return closed_form_projection(svd, dim)
        b = v.T @ graph.vk
        core = b @ b.T
    else:
        b = v.T @ graph.weights
        bv = b @ v
        core = bv + bv.T - b @ b.T
    try:
        evals, y = np.linalg.eigh(0.5 * (core + core.T))
    except np.linalg.LinAlgError as exc:
        raise NotConverged("symmetric eigensolve failed") from exc
    values, alpha = _canonicalize(evals, y / svd.sigma[:, None])
    usable = int(np.count_nonzero(values > EIG_FLOOR))
    if dim > usable:
        raise BadDim(
            f"dim={dim} exceeds the {usable} eigenvalues above {EIG_FLOOR:g}"
        )
    return canonical_signs(svd.u @ alpha[:, :dim])
