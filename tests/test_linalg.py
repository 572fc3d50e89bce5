import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pce
from pce.errors import DimensionMismatch, NonFinite, NotConverged, ZeroMatrix
from pce.linalg import QR_RATIO, skinny_svd
from reference import generalized_top_eigs


def test_diagonal_rank_one():
    f = skinny_svd(np.diag([2.0, 0.0]))
    assert f.rank == 1
    assert np.allclose(f.sigma, [2.0])
    assert np.allclose(np.abs(f.u[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(f.v[:, 0]), [1.0, 0.0])


def test_identity():
    f = skinny_svd(np.eye(3))
    assert f.rank == 3
    assert np.allclose(f.sigma, [1.0, 1.0, 1.0])


def test_rank_one_outer_product():
    # D'D = [[5,10],[10,20]] has eigenvalues 25 and 0, so sigma = (5, 0)
    f = skinny_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert f.rank == 1
    assert abs(f.sigma[0] - 5.0) < 1e-10
    assert abs(f.spectrum[1]) < 1e-10


def test_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        skinny_svd(np.zeros((3, 3)))


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        skinny_svd(np.array([[1.0, np.nan]]))


TRAIN = np.random.default_rng(4).standard_normal((6, 8))
# every public entry point that takes a sample matrix, called on it
SAMPLE_ENTRY_POINTS = {
    "fit": lambda d: pce.fit(d),
    "transform": lambda d: pce.transform(pce.fit(TRAIN), d),
    "pca_fit": lambda d: pce.pca_fit(d, 1),
    "transform_pca": lambda d: pce.transform(pce.pca_fit(TRAIN, 2), d),
    "skinny_svd": lambda d: skinny_svd(d),
    "lle_graph": lambda d: pce.lle_graph(d, 1),
    "embed": lambda d: pce.embed(skinny_svd(TRAIN), d, 1),  # its matrix input is the weights
    "add_gaussian_noise": lambda d: pce.add_gaussian_noise(d, 0.1),
    "add_pixel_corruption": lambda d: pce.add_pixel_corruption(d, 0.5),
}


def _bad_samples(kind):
    d = np.random.default_rng(5).standard_normal((6, 8))
    if kind == "m x 0":
        return d[:, :0], DimensionMismatch
    if kind == "1-d":
        return d[:, 0], DimensionMismatch
    d[2, 3] = np.nan if kind == "nan" else -np.inf
    return d, NonFinite


@pytest.mark.parametrize("kind", ["nan", "inf", "m x 0", "1-d"])
@pytest.mark.parametrize("entry", list(SAMPLE_ENTRY_POINTS))
def test_every_sample_matrix_is_checked_alike(entry, kind):
    # one contract, linalg._check_matrix's: NaN or Inf is NonFinite, and a
    # matrix without rows or columns, or no matrix at all, is DimensionMismatch.
    # A projection takes a vector as one column
    d, error = _bad_samples(kind)
    call = SAMPLE_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "1-d" and entry in ("transform", "transform_pca"):
            assert np.array_equal(call(d), call(d[:, None]))
            d[3] = np.nan
            error = NonFinite
        with pytest.raises(error):
            call(d)


@pytest.mark.parametrize("shape", [(5, 9), (9, 5), (16, 16), (64, 33), (8, 20)])
def test_roundtrip_and_energy(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    d = rng.standard_normal(shape)
    f = skinny_svd(d)
    rebuilt = (f.u * f.sigma) @ f.v.T
    assert np.linalg.norm(rebuilt - d) / np.linalg.norm(d) < 1e-10
    # spectrum energy equals squared Frobenius norm
    assert np.sum(f.spectrum**2) == pytest.approx(
        np.linalg.norm(d) ** 2, rel=1e-8
    )
    assert np.allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-10)
    assert np.all(np.diff(f.sigma) <= 0)


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["tall", "wide-qr-first"])
def test_left_only_svd_matches_full(shape):
    rng = np.random.default_rng(3)
    # rank 10 < min(m, n), so the truncation at the rank is exercised
    d = rng.standard_normal((shape[0], 10)) @ rng.standard_normal((10, shape[1]))
    full = skinny_svd(d)
    left = skinny_svd(d, right=False)
    assert left.v is None
    assert left.rank == full.rank == 10
    for name in ("u", "sigma", "spectrum"):
        assert np.array_equal(getattr(left, name), getattr(full, name))


@given(
    # tall, square, wide below QR_RATIO (one gesdd), at QR_RATIO and past it
    # (the R-SVD), with the tall d' that fit factors past it
    shape=st.integers(2, 30).flatmap(lambda m: st.tuples(st.just(m), st.sampled_from(
        [max(1, math.floor(m / QR_RATIO)), m // 2 + 1, m, m + m // 2,
         math.ceil(QR_RATIO * m), 2 * m]))),
    seed=st.integers(0, 2**16),
    right=st.booleans(),
    j=st.integers(-1000, 1000),
)
@settings(max_examples=200, deadline=None)
def test_skinny_svd_is_scale_equivariant_bit_for_bit(shape, seed, right, j):
    # c = 2^j: skinny_svd(c d) keeps u, v and the rank and gives spectrum * c
    # exactly.  Every |entry| lies in [1/2, 2), so every entry of c d is a
    # normal float; past 2^+-400 the data is divided by a power of two before
    # LAPACK could rescale it by one that is not
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    base = skinny_svd(d, right=right)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = skinny_svd(np.ldexp(d, j), right=right)
    assert scaled.rank == base.rank
    assert np.array_equal(scaled.u, base.u)
    assert np.array_equal(scaled.v, base.v) if right else scaled.v is None
    assert np.array_equal(scaled.spectrum, np.ldexp(base.spectrum, j))


V_READERS = {
    "require_v": lambda d, svd: svd.require_v(),
    "recover_clean": lambda d, svd: pce.recover_clean(svd, 1),
    "principal_coefficients": lambda d, svd: pce.principal_coefficients(svd, 10.0),
    "embed-lle-graph": lambda d, svd: pce.embed(svd, pce.lle_graph(d, 3), 1),
}


@pytest.mark.parametrize("reader", V_READERS.values(), ids=V_READERS.keys())
@pytest.mark.parametrize("shape", [(20, 8), (8, 20)], ids=["tall", "wide-qr-first"])
def test_left_only_factors_refuse_every_v_reader(reader, shape):
    d = np.random.default_rng(9).standard_normal(shape)
    reader(d, skinny_svd(d))  # the full factors are accepted
    with pytest.raises(ValueError, match=r"take it with skinny_svd\(d, right=True\)"):
        reader(d, skinny_svd(d, right=False))


def test_right_only_svd_of_transpose_is_v():
    # V alone is the U of d': for a tall d that is the SVD of R from d = QR,
    # so sigma agrees with the plain call to rounding and u is R's right vectors
    rng = np.random.default_rng(4)
    d = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 12))
    full = skinny_svd(d)
    right = skinny_svd(d.T, right=False)
    assert right.rank == full.rank == 10
    assert np.allclose(right.spectrum, full.spectrum, rtol=0, atol=1e-12 * full.sigma[0])
    assert np.allclose(right.u.T @ right.u, np.eye(10), atol=1e-12)
    # distinct singular values: each right vector is the plain call's up to sign
    assert np.allclose(np.abs(right.u.T @ full.v), np.eye(10), atol=1e-10)


def test_svd_deterministic():
    d = np.random.default_rng(7).standard_normal((12, 8))
    a = skinny_svd(d)
    b = skinny_svd(d)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.v, b.v)


def test_diagonal_pencil():
    values, vectors = generalized_top_eigs(np.diag([4.0, 0.0]), np.eye(2), 1)
    assert np.allclose(values, [4.0])
    assert np.allclose(vectors[:, 0], [1.0, 0.0])


def test_identity_pencil_tiebreak():
    values, vectors = generalized_top_eigs(np.eye(2), np.eye(2), 2)
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors, np.eye(2))


def test_scalar_rayleigh_quotients():
    values, vectors = generalized_top_eigs(
        np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 4.0, 1.0]), 2
    )
    assert np.allclose(values, [1.0, 0.25])
    assert np.allclose(vectors[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(vectors[:, 1], [0.0, 0.5, 0.0])


def test_identity_metric_matches_eigh():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    sym = a + a.T
    values, vectors = generalized_top_eigs(sym, np.eye(8), 8)
    ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
    assert np.allclose(values, ref, atol=1e-10)
    assert np.allclose(vectors.T @ vectors, np.eye(8), atol=1e-8)


def test_metric_normalization():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    l = a + a.T
    b = rng.standard_normal((6, 6))
    r = b @ b.T + 0.5 * np.eye(6)
    values, vectors = generalized_top_eigs(l, r, 4)
    assert np.allclose(vectors.T @ r @ vectors, np.eye(4), atol=1e-8)
    assert np.all(np.diff(values) <= 1e-12)


def test_singular_right_auto_ridge():
    # r is PSD but singular: the solver adds no ridge of its own, so the caller
    # scales one from r (the pre-0.2.0 default, 1e-10 * trace(r) / n) and passes r + ridge * I
    l = np.diag([4.0, 0.0])
    r = np.diag([4.0, 0.0])
    ridged = r + 1e-10 * np.trace(r) / r.shape[0] * np.eye(2)
    values, vectors = generalized_top_eigs(l, ridged, 1)
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert vectors[:, 0].T @ r @ vectors[:, 0] == pytest.approx(1.0, abs=1e-6)


def test_singular_right_explicit_zero_ridge_fails():
    # a zero ridge leaves r singular, and no ridge is added: the caller is told to add one
    r = np.diag([4.0, 0.0])
    with pytest.raises(NotConverged, match=r"pass r \+ ridge \* I instead"):
        generalized_top_eigs(np.diag([4.0, 0.0]), r + 0.0 * np.eye(2), 1)


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        generalized_top_eigs(np.eye(3), np.eye(4), 1)


def test_asymmetric_rejected():
    with pytest.raises(DimensionMismatch):
        generalized_top_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1)


def test_asymmetric_right_rejected():
    right = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match="right matrix is not symmetric"):
        generalized_top_eigs(np.eye(2), right, 1)


def test_count_above_order_rejected():
    with pytest.raises(DimensionMismatch):
        generalized_top_eigs(np.eye(3), np.eye(3), 4)


def test_zero_right_fails_even_with_default_ridge():
    # the zero matrix is not positive definite: the solve fails at once
    with pytest.raises(NotConverged, match="right matrix is not positive definite"):
        generalized_top_eigs(np.eye(2), np.zeros((2, 2)), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_nonfinite_pencil_rejected(side, bad):
    # symmetric placement: the finite check runs before the symmetry test
    poisoned = np.eye(3)
    poisoned[0, 1] = poisoned[1, 0] = bad
    pencil = {"left": np.eye(3), "right": 2.0 * np.eye(3), side: poisoned}
    with pytest.raises(NonFinite):
        generalized_top_eigs(pencil["left"], pencil["right"], 1)


def _canonicalize_reference(values, vectors):
    # the original per-column implementation, kept as the oracle
    from pce.linalg import _first_nonzero_index

    order = sorted(
        range(len(values)),
        key=lambda i: (-values[i], _first_nonzero_index(vectors[:, i])),
    )
    values = values[order]
    vectors = vectors[:, order]
    for i in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, i])))
        if vectors[j, i] < 0:
            vectors[:, i] = -vectors[:, i]
    return values, vectors


def test_canonicalize_matches_reference_on_exact_ties():
    from pce.linalg import _canonicalize

    rng = np.random.default_rng(12)
    vectors = rng.standard_normal((6, 10))
    vectors[:2, 1] = 0.0  # first nonzero coordinate 2
    vectors[:1, 4] = 0.0  # first nonzero coordinate 1
    vectors[:2, 7] = 0.0  # ties column 1's key: position decides
    vectors[:, 8] = 0.0  # zero vector
    vectors[:, 9] = [0.0, -3.0, 3.0, 1.0, 0.0, 0.0]  # equal-magnitude extremes
    values = np.array([1.0, 1.0, 0.5, 2.0, 1.0, 0.5, -0.0, 1.0, 0.0, 0.5])
    expected_values, expected_vectors = _canonicalize_reference(values, vectors)
    got_values, got_vectors = _canonicalize(values, vectors)
    assert got_values.tobytes() == expected_values.tobytes()
    assert got_vectors.tobytes() == expected_vectors.tobytes()
    # the inputs are left untouched
    assert values[6] == 0.0 and np.signbit(values[6])
    assert vectors[1, 9] == -3.0
