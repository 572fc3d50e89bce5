import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import pce
from pce.errors import BadDim, DegenerateNeighborhood, DimensionMismatch, NonFinite, NotConverged
from pce.graph import _nearest, embed, lle_graph
from reference import generalized_top_eigs


def principal_angle(a, b):
    """Largest principal angle between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def test_lle_midpoint_weights():
    x = np.array([0.0, 0.0])
    y = np.array([4.0, 2.0])
    d = np.column_stack([x, (x + y) / 2, y])
    w = lle_graph(d, 2)
    assert np.allclose(w[:, 1], [0.5, 0.0, 0.5], atol=1e-10)


def test_lle_duplicate_neighbors_split_evenly():
    d = np.array([[0.0, 1.0, 1.0, 5.0]])
    w = lle_graph(d, 2)[:, 0]
    assert w[1] == pytest.approx(w[2], abs=1e-10)


def test_lle_columns_sum_to_one():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((5, 20))
    w = lle_graph(d, 4)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-8)
    assert np.all(np.diag(w) == 0.0)
    assert np.all(np.count_nonzero(w, axis=0) <= 4)


def reference_lle_weights(d, p):
    """An independent per-column loop: cdist neighbours, one local Gram and
    one lstsq solve of the constrained least-squares KKT system per column."""
    n = d.shape[1]
    dist = cdist(d.T, d.T)
    np.fill_diagonal(dist, np.inf)
    w = np.zeros((n, n))
    for i in range(n):
        nbrs = np.argsort(dist[:, i], kind="stable")[:p]
        z = d[:, nbrs] - d[:, [i]]
        gram = z.T @ z
        trace = np.trace(gram)
        if trace > 0:
            gram = gram + (1e-3 * trace / p) * np.eye(p)
        kkt = np.zeros((p + 1, p + 1))
        kkt[:p, :p] = 2.0 * gram
        kkt[:p, p] = 1.0
        kkt[p, :p] = 1.0
        rhs = np.zeros(p + 1)
        rhs[p] = 1.0
        coeffs = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:p]
        w[nbrs, i] = coeffs / coeffs.sum()
    return w


def _random_data(seed=11):
    return np.random.default_rng(seed).standard_normal((6, 30))


def _with_duplicates(seed=12):
    d = _random_data(seed)
    return np.hstack([d, d[:, [3, 3, 17, 5]]])


def _equidistant():
    # columns 1 and 3 are both at distance 1 from column 2, and so on
    return np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 6.0]])


def _integer_pixels(seed=13):
    # integer-valued data, such as pixel images, has many exactly equal
    # distances between distinct columns
    return np.random.default_rng(seed).integers(0, 4, (5, 40)).astype(float)


@pytest.mark.parametrize(
    "make, p",
    [
        (_random_data, 5),
        (_with_duplicates, 4),
        (lambda: _random_data() + 1e3, 5),
        (_equidistant, 1),
        (_equidistant, 2),
        (_integer_pixels, 4),
    ],
    ids=["random", "duplicates", "shifted", "equidistant-p1", "equidistant-p2",
         "integer-ties"],
)
def test_lle_weights_match_reference_loop(make, p):
    d = make()
    w = lle_graph(d, p)
    ref = reference_lle_weights(d, p)
    assert np.array_equal(w != 0, ref != 0)
    assert np.abs(w - ref).max() <= 1e-12


@pytest.mark.parametrize(
    "d, p",
    [(np.random.default_rng(14).standard_normal((30, 60)), 5), (_integer_pixels(), 4)],
    ids=["gaussian", "integer"],
)
def test_lle_weights_are_scale_invariant(d, p):
    # power-of-two scaling is exact, so only over- or underflow could move a weight
    w = lle_graph(d, p)
    for j in (-480, -300, -1, 1, 9, 300, 480):
        assert np.array_equal(lle_graph(np.ldexp(d, j), p), w), f"2^{j}"


def test_lle_weights_of_data_whose_differences_overflow():
    # row 0 alternates +-1.7e308: finite, but d_j - d_0 overflows unless the
    # data is scaled before it is shifted
    d = np.random.default_rng(0).standard_normal((6, 20))
    d[0] = np.where(np.arange(20) % 2 == 0, 1.7e308, -1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = lle_graph(d, 2)
    assert np.array_equal(w, lle_graph(np.ldexp(d, -4), 2))
    assert np.allclose(w.sum(axis=0), 1.0)


def test_lle_weights_of_pixel_images_match_reference_loop():
    # 0..255 pixels, as in face images: raw local Grams reach ~1e8 and many
    # distances tie exactly; the loop runs on the same data scaled into [0, 1)
    d = np.random.default_rng(15).integers(0, 256, (1024, 200)).astype(float)
    w = lle_graph(d, 5)
    ref = reference_lle_weights(d / 256.0, 5)
    assert np.array_equal(w != 0, ref != 0)
    assert np.abs(w - ref).max() <= 1e-12


def _tied_integers(seed=16):
    # 0..2 entries in 4 rows: squared distances 0..16 between 60 columns, so
    # every column has runs of equal distances
    return np.random.default_rng(seed).integers(0, 3, (4, 60)).astype(float)


@pytest.mark.parametrize("p", [1, 2, 5, 59], ids=["p1", "p2", "p5", "n-1"])
def test_lle_neighbours_match_stable_argsort(p):
    d = _tied_integers()
    diff = d[:, :, None] - d[:, None, :]
    dist = (diff**2).sum(axis=0)  # exact: integers
    np.fill_diagonal(dist, np.inf)
    reference = np.argsort(dist, axis=0, kind="stable")[:p]
    if p < 59:  # ties cross the p-th position, so the index rule decides
        ranked = np.sort(dist, axis=0)
        assert (ranked[p - 1] == ranked[p]).sum() >= 10
    assert np.array_equal(_nearest(dist, p), reference.T)
    # lle_graph's neighbour lists: its nonzero weights sit on the same rows
    mask = np.zeros(dist.shape, dtype=bool)
    mask[reference, np.arange(60)] = True
    assert np.array_equal(lle_graph(d, p) != 0, mask)


def test_graph_inputs_are_checked():
    d = _random_data()
    w = lle_graph(d, 5)
    nan_d, nan_w = d.copy(), w.copy()
    nan_d[2, 3] = nan_w[4, 5] = np.nan
    svd = pce.skinny_svd(d)
    for call in (lambda: lle_graph(nan_d, 5), lambda: embed(svd, nan_w, 2)):
        with pytest.raises(NonFinite):
            call()
    for call in (lambda: lle_graph(d[0], 5), lambda: embed(svd, w[0], 2)):
        with pytest.raises(DimensionMismatch, match="expected a 2-d matrix"):
            call()
    with pytest.raises(DimensionMismatch, match="weights are 30x29, not 30x30"):
        embed(svd, w[:, :-1], 2)


def test_lle_degenerate_neighborhood_names_first_column(monkeypatch):
    # finite data never reaches the check, so poison two columns' solutions
    solve = np.linalg.solve

    def poisoned(a, b):
        out = solve(a, b)
        out[[4, 2]] = np.nan
        return out

    monkeypatch.setattr(np.linalg, "solve", poisoned)
    with pytest.raises(DegenerateNeighborhood, match="at column 2$"):
        lle_graph(_random_data(), 3)


def test_lle_singular_local_system_is_degenerate_neighborhood():
    # a far outlier in column 0 cancels the shifted Gram's terms: one local
    # system is exactly singular, which numpy's batched solve refuses
    rng = np.random.default_rng(47)
    eps = 10.0 ** rng.uniform(-12, -4)
    x = (rng.standard_normal((20, 1)) * 100 + 1000) + eps * rng.standard_normal((20, 30))
    x[:, 0] = rng.standard_normal(20)
    with pytest.raises(DegenerateNeighborhood, match="a local Gram system is singular"):
        lle_graph(x, 5)


def test_lle_bad_neighborhood_size():
    with pytest.raises(DimensionMismatch):
        lle_graph(np.zeros((3, 4)), 4)


def test_embed_diag_pencil():
    d = np.diag([2.0, 0.1])
    vk = pce.principal_coefficients(pce.skinny_svd(d), 1.0)
    theta = embed(pce.skinny_svd(d), vk @ vk.T, 1)
    assert np.allclose(np.abs(theta[:, 0]), [0.5, 0.0], atol=1e-10)


@pytest.mark.parametrize("shape,lam", [((8, 14), 1.0), ((14, 8), 1.0), ((10, 10), 5.0)])
def test_embed_degenerate_spectrum_and_subspace(shape, lam):
    rng = np.random.default_rng(sum(shape))
    d = rng.standard_normal(shape)
    svd = pce.skinny_svd(d)
    vk = pce.principal_coefficients(svd, lam)
    k = vk.shape[1]
    theta = embed(svd, vk @ vk.T, k)
    # metric orthonormality and the all-ones pencil spectrum
    gram = theta.T @ d @ d.T @ theta
    assert np.allclose(gram, np.eye(k), atol=1e-8)
    reference = svd.u[:, :k] / svd.sigma[:k]
    assert principal_angle(theta, reference) < 1e-6


def test_embed_identity_affinity_all_ones():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((6, 9))
    theta = embed(pce.skinny_svd(d), np.eye(9), 6)
    assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(6), atol=1e-8)


def test_embed_dim_exceeds_rank():
    d = np.diag([2.0, 0.1])
    svd = pce.skinny_svd(d)
    vk = pce.principal_coefficients(svd, 1.0)
    with pytest.raises(BadDim):
        embed(svd, vk @ vk.T, 2)


def test_embed_rejects_mismatched_graph_and_bad_dim():
    rng = np.random.default_rng(6)
    d = rng.standard_normal((6, 9))
    graph = np.full((9, 9), 1.0 / 9.0)
    with pytest.raises(DimensionMismatch, match="weights are 9x9, not 8x8 for data of 8 columns"):
        embed(pce.skinny_svd(d[:, :8]), graph, 1)
    svd = pce.skinny_svd(d)
    with pytest.raises(BadDim, match="dim must be at least 1"):
        embed(svd, graph, 0)
    # the projector onto the all-ones vector gives M0 rank 1: one usable eigenvalue
    with pytest.raises(BadDim, match="dim=2 exceeds the 1 eigenvalues above 1e-08"):
        embed(svd, graph, 2)


def test_eigenvalue_count_matches_k():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((10, 24))
    svd = pce.skinny_svd(d)
    vk = pce.principal_coefficients(svd, 0.5 / svd.sigma[4] ** 2 * 2)
    k = vk.shape[1]
    dv = d @ vk
    left = dv @ dv.T
    right = d @ d.T
    values, _ = generalized_top_eigs(left, right, 10)
    assert int(np.count_nonzero(values > 1e-8)) == k


def test_lle_embed_matches_dense_generalized_solve():
    # independent oracle: scipy's dense generalized symmetric eigensolver
    rng = np.random.default_rng(7)
    d = rng.standard_normal((9, 24))
    a = lle_graph(d, 5)
    sym = a + a.T - a @ a.T
    left = d @ sym @ d.T
    left = 0.5 * (left + left.T)
    right = d @ d.T
    w_ref, v_ref = scipy.linalg.eigh(left, right)
    w_ref = w_ref[::-1]
    v_ref = v_ref[:, ::-1]
    dim = 4
    theta = embed(pce.skinny_svd(d), a, dim)
    values, _ = generalized_top_eigs(left, right, dim)
    assert np.allclose(values, w_ref[:dim], atol=1e-8)
    assert principal_angle(theta, v_ref[:, :dim]) < 1e-6
    assert np.allclose(theta.T @ right @ theta, np.eye(dim), atol=1e-8)


@pytest.mark.parametrize("shape", [(12, 40), (30, 20), (50, 200)],
                         ids=["12x40", "30x20", "50x200"])
def test_lle_embed_ignores_svd_column_signs(shape):
    # flipping one pair (u_i, v_i) leaves D = U S V' as it is, so it leaves theta too
    d = np.random.default_rng(sum(shape)).standard_normal(shape)
    g = lle_graph(d, 5)
    svd = pce.skinny_svd(d)
    theta = embed(svd, g, 4)
    for i in range(svd.rank):
        sign = np.ones(svd.rank)
        sign[i] = -1.0
        flipped = replace(svd, u=svd.u * sign, v=svd.v * sign)
        assert np.array_equal(embed(flipped, g, 4), theta), f"pair {i}"


@pytest.mark.parametrize("kind", ["lle", "factored"])
def test_embed_with_ridge_matches_pencil(kind):
    # theta = U Sigma^-1 Y: theta' D D' theta = I, and the same subspace as
    # the reduced pencil (Sigma M0 Sigma, Sigma^2) solved by generalized_top_eigs
    rng = np.random.default_rng(5)
    d = rng.standard_normal((9, 24))
    svd = pce.skinny_svd(d)
    if kind == "lle":
        g = a = lle_graph(d, 5)
        core = svd.v.T @ (a + a.T - a @ a.T) @ svd.v
    else:
        vk = np.linalg.qr(rng.standard_normal((24, 6)))[0]
        g = vk @ vk.T
        core = (svd.v.T @ vk) @ (svd.v.T @ vk).T
    dim = 4
    theta = embed(svd, g, dim)
    assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(dim), atol=1e-10)
    left = svd.sigma[:, None] * core * svd.sigma[None, :]
    _, alpha = generalized_top_eigs(
        0.5 * (left + left.T), np.diag(svd.sigma**2), dim
    )
    assert principal_angle(theta, svd.u @ alpha) < 1e-6


@pytest.mark.parametrize("shape", [(60, 25), (25, 25)], ids=["tall", "square"])
def test_full_rank_embed_takes_one_svd_and_meets_criterion_6(shape):
    d = np.random.default_rng(21).standard_normal(shape)
    a = lle_graph(d, 5)
    n, dim = shape[1], 6
    svd = pce.skinny_svd(d)
    theta = embed(svd, a, dim)
    assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(dim), atol=1e-8)
    # the reference: the pencil reduced through the SVD, by generalized_top_eigs
    sym = a + a.T - a @ a.T
    left = svd.sigma[:, None] * (svd.v.T @ sym @ svd.v) * svd.sigma[None, :]
    values, alpha = generalized_top_eigs(
        0.5 * (left + left.T), np.diag(svd.sigma**2), n
    )
    assert principal_angle(theta, svd.u @ alpha[:, :dim]) < 1e-6
    # each column solves D S D' theta = mu D D' theta with the reference's mu
    lhs = d @ (sym @ (d.T @ theta))
    rhs = d @ (d.T @ theta) * values[:dim]
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(lhs).max()


def test_embed_of_equal_columns_takes_svd_route_without_warning():
    # the SVD of the rank-deficient D drops its zero singular value
    d = np.random.default_rng(27).standard_normal((40, 20))
    d[:, 7] = d[:, 3]
    a = lle_graph(d, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svd = pce.skinny_svd(d)
        theta = embed(svd, a, 4)
    assert svd.rank == 19
    assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(4), atol=1e-8)


def test_embed_is_scale_equivariant_bit_for_bit():
    # 2^j D has Sigma * 2^j, the same U and V and the same weights, so Theta / 2^j
    # exactly
    d = np.random.default_rng(23).standard_normal((60, 25))
    a = lle_graph(d, 5)
    theta = embed(pce.skinny_svd(d), a, 6)
    for j in (-400, -255, -1, 1, 37, 255, 400):
        scaled = embed(pce.skinny_svd(np.ldexp(d, j)), a, 6)
        assert np.array_equal(scaled, np.ldexp(theta, -j)), f"2^{j}"


def test_embed_of_subnormal_data_is_non_finite_without_warning():
    # sigma_r ~ 1e-310, so 1/sigma_r overflows: refused, naming sigma_r
    spec = pce.SubspaceSpec(30, ((3, 10), (3, 10), (3, 10)))
    d = pce.generate_union_of_subspaces(spec, seed=0).matrix * 1e-310
    svd = pce.skinny_svd(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"sigma_r = 1\.18e-310$"):
            embed(svd, lle_graph(d, 3), 3)


def test_embed_whose_pencil_overflows_is_non_finite_without_warning():
    d = np.random.default_rng(0).standard_normal((20, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="pencil .* overflows"):
            embed(pce.skinny_svd(d), np.full((12, 12), 1e155), 2)


@pytest.mark.parametrize("s", [1.6e153, 2.05e153])
def test_embed_of_a_finite_pencil_near_the_float_limit(s):
    # the pencil's largest entry is near 1.7e308: it is scaled by a power of
    # two before its eigh, so nothing overflows and theta stays D D'-orthonormal
    d = np.random.default_rng(0).standard_normal((20, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = embed(pce.skinny_svd(d), np.full((12, 12), s), 2)
    assert np.isfinite(theta).all()
    assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(2), rtol=0, atol=1e-12)


def test_embed_whose_eigensolve_fails_is_not_converged(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    d = np.random.default_rng(0).standard_normal((20, 12))
    svd, a = pce.skinny_svd(d), lle_graph(d, 3)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NotConverged, match="symmetric eigensolve failed"):
        embed(svd, a, 2)


def graded(kappa, seed):
    """A 60 x 25 matrix with singular values spaced evenly in log from 1 to 1/kappa."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((60, 25)))
    v, _ = np.linalg.qr(rng.standard_normal((25, 25)))
    return (u * np.logspace(0, -np.log10(kappa), 25)) @ v.T


def test_graded_embed_meets_eps_kappa():
    # at kappa = 3e4 the one SVD of D gives D' Theta orthonormal columns to
    # eps kappa
    kappa = 3e4
    d = graded(kappa, 25)
    g = np.random.default_rng(25).standard_normal((25, 25))
    a = np.eye(25) - g / (2 * np.linalg.norm(g, 2))
    theta = embed(pce.skinny_svd(d), a, 8)
    f = d.T @ theta
    assert np.abs(f.T @ f - np.eye(8)).max() <= 10 * np.finfo(float).eps * kappa


@given(
    # tall and square, with kappa over many decades
    shape=st.integers(2, 30).flatmap(
        lambda n: st.tuples(st.sampled_from([n, 2 * n, 3 * n]), st.just(n))),
    rank=st.integers(1, 30),
    noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
    seed=st.integers(0, 2**16),
    skew=st.integers(0, 8),
    dim=st.integers(1, 30),
)
@settings(max_examples=300, deadline=None)
def test_embed_keeps_metric_orthonormality(shape, rank, noise, seed, skew, dim):
    # a rank-r product plus noise, so D is nearly rank deficient yet of full
    # column rank, with its columns scaled by u^skew so that kappa spans many
    # decades; A = I - G / (2 ||G||) keeps every eigenvalue of A + A' - A A' in
    # [3/4, 1], so any dim up to the rank is usable
    rng = np.random.default_rng(seed)
    m, n = shape
    r = min(rank, n)
    d = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    d = (d + noise * rng.standard_normal((m, n))) * rng.uniform(0, 1, n) ** skew
    sigma = np.linalg.svd(d, compute_uv=False)
    if sigma[0] == 0.0:
        return
    r = pce.linalg.numerical_rank(sigma, d.shape)
    dim = min(dim, r)
    g = rng.standard_normal((n, n))
    a = np.eye(n) - g / (2 * np.linalg.norm(g, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = embed(pce.skinny_svd(d), a, dim)
    # theta' D D' theta = I to 1e-10 relative to ||D|| ||theta|| = sigma_1 / sigma_r,
    # the scale to which a backward-stable SVD keeps it
    f = d.T @ theta
    assert np.abs(f.T @ f - np.eye(dim)).max() <= 1e-10 * sigma[0] / sigma[r - 1]
    if r == n:
        assert np.abs(f.T @ f - np.eye(dim)).max() <= 1e-12 * sigma[0] / sigma[-1]
