"""Affinity graphs and the graph-embedding step.

Two graph flavors: the factored principal-coefficient graph (A = vk vk') and
a locally-linear-reconstruction baseline with explicit weights.  Both embed
through the pencil D (A + A' - A A') D' theta = sigma D D' theta.  When vk is
the leading block of D's right singular vectors the pencil has the closed-form
solution Theta = Uk Sk^-1; only the other graphs need the generalized
eigensolver.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BadDim, DegenerateNeighborhood, DimensionMismatch
from .linalg import generalized_top_eigs, skinny_svd
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
    gets reg * trace / p added to its diagonal before solving.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[1]
    if not 1 <= cfg.p < n:
        raise DimensionMismatch(f"need 1 <= p < n, got p={cfg.p}, n={n}")
    dist = cdist(d.T, d.T)
    np.fill_diagonal(dist, np.inf)
    w = np.zeros((n, n))
    p = cfg.p
    for i in range(n):
        # stable sort keeps ascending-index tie order
        nbrs = np.argsort(dist[:, i], kind="stable")[:p]
        z = d[:, nbrs] - d[:, [i]]
        gram = z.T @ z
        trace = np.trace(gram)
        if trace > 0 and cfg.reg > 0:
            gram = gram + (cfg.reg * trace / p) * np.eye(p)
        # constrained least squares via the KKT system; lstsq picks the
        # minimal-norm weights when the Gram is exactly singular
        kkt = np.zeros((p + 1, p + 1))
        kkt[:p, :p] = 2.0 * gram
        kkt[:p, p] = 1.0
        kkt[p, :p] = 1.0
        rhs = np.zeros(p + 1)
        rhs[p] = 1.0
        coeffs = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:p]
        total = coeffs.sum()
        if not np.all(np.isfinite(coeffs)) or abs(total - 1.0) > 1e-8:
            raise DegenerateNeighborhood(f"degenerate weights at column {i}")
        w[nbrs, i] = coeffs / total
    return AffinityGraph(kind="lle-weights", n=n, weights=w)


def embed(d, graph: AffinityGraph, dim, ridge=None, svd=None):
    """Solve the embedding pencil and return the m x dim projection.

    The pencil L theta = sigma (D D') theta with L = D (A + A' - A A') D' is
    reduced to the range of D through its SVD: writing theta = U_r alpha turns
    the right matrix into diag(sigma_r^2), which is positive definite, so no
    ridge is needed even when D D' itself is singular.

    A factored graph whose vk is the leading k-block of D's right singular
    vectors, as built by ``principal_coefficients``, has L = Uk Sk^2 Uk': the
    pencil's top k eigenvalues all equal 1 and its solution is the closed form
    Theta = Uk Sk^-1.  That graph gets the first ``dim`` columns of the
    canonical Theta, i.e. the top-sigma directions, and no eigensolve runs.
    Any other factored graph reduces L to (D vk)(D vk)' and, like the
    reconstruction-weight graph, goes through ``generalized_top_eigs``; no
    n x n matrix is formed for it.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if graph.n != n:
        raise DimensionMismatch(f"graph has {graph.n} nodes, data has {n} columns")
    if dim < 1:
        raise BadDim("dim must be at least 1")
    if svd is None:
        svd = skinny_svd(d)
    r = svd.rank
    sig = svd.sigma

    # U_r' D = diag(sig) V_r', so both reduced matrices are r x r
    if graph.kind == "pce-factored":
        k = graph.vk.shape[1]
        if dim > k:
            raise BadDim(f"dim={dim} exceeds the graph rank k={k}")
        if np.array_equal(graph.vk, svd.v[:, :k]):
            return closed_form_projection(svd, dim)
        w = sig[:, None] * (svd.v.T @ graph.vk)
        left = w @ w.T
    else:
        a = graph.weights
        sym = a + a.T - a @ a.T
        sv = (svd.v * sig[None, :]).T  # diag(sig) V_r'
        left = sv @ sym @ sv.T
        left = 0.5 * (left + left.T)
    right = np.diag(sig**2)
    if ridge is None:
        ridge = 0.0

    values, alpha = generalized_top_eigs(left, right, r, ridge=ridge)
    usable = int(np.count_nonzero(values > EIG_FLOOR))
    if dim > usable:
        raise BadDim(
            f"dim={dim} exceeds the {usable} eigenvalues above {EIG_FLOOR:g}"
        )
    return np.ascontiguousarray(svd.u @ alpha[:, :dim])
