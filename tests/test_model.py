import ast
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pce
from pce.errors import (
    BadK,
    DegenerateDimension,
    DimensionMismatch,
    EmptySpectrum,
    NotSorted,
    TooLarge,
)
from pce.model import describe, estimate_dimension


def argmin_oracle(sigma, lam):
    """Exhaustive cost enumeration; the independent check for the estimator."""
    sigma = np.asarray(sigma, dtype=float)
    costs = [
        r + lam * float(np.sum(sigma[r:] ** 2)) for r in range(len(sigma) + 1)
    ]
    best = min(costs)
    return next(r for r, c in enumerate(costs) if c <= best + 1e-12)


def test_costs_enumerated_by_hand():
    # costs for r=0..3 are 4, 1, 2, 3
    assert estimate_dimension([2.0, 0.0, 0.0], 1.0) == 1


def test_large_lambda_keeps_tail():
    # cost(1) = 1 + 200*0.01 = 3 > cost(2) = 2
    assert estimate_dimension([2.0, 0.1], 200.0) == 2


def test_monotone_in_lambda_single_spike():
    sigma = [1.0, 0.0, 0.0, 0.0]
    ks = [estimate_dimension(sigma, lam) for lam in (0.5, 1.5, 10.0, 1e6)]
    assert ks == sorted(ks)


def test_empty_spectrum():
    with pytest.raises(EmptySpectrum):
        estimate_dimension([], 1.0)


def test_increasing_spectrum_rejected():
    with pytest.raises(NotSorted):
        estimate_dimension([1.0, 2.0], 1.0)


@given(
    sigma=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=40),
    lam=st.floats(1e-3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_matches_exhaustive_oracle(sigma, lam):
    sigma = np.sort(np.asarray(sigma))[::-1]
    assert estimate_dimension(sigma, lam) == argmin_oracle(sigma, lam)


@given(
    sigma=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=40),
    lam1=st.floats(1e-3, 1e3),
    lam2=st.floats(1e-3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_monotone_in_lambda(sigma, lam1, lam2):
    sigma = np.sort(np.asarray(sigma))[::-1]
    lo, hi = sorted((lam1, lam2))
    assert estimate_dimension(sigma, lo) <= estimate_dimension(sigma, hi)


def test_threshold_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        sigma = np.sort(10 ** rng.uniform(-3, 3, size=rng.integers(1, 30)))[::-1]
        lam = 10 ** rng.uniform(-2, 2)
        if np.min(np.abs(lam * sigma**2 - 1.0)) > 1e-9:
            assert estimate_dimension(sigma, lam) == int(
                np.count_nonzero(lam * sigma**2 > 1.0)
            )


def test_describe_keeps_the_bits_of_direct_squares():
    # at a normal scale the power-of-two scaling changes no bit of any field
    rng = np.random.default_rng(11)
    for shape in [(20, 30), (40, 25), (12, 20)]:
        d = rng.standard_normal((shape[0], 6)) @ rng.standard_normal((6, shape[1]))
        spectrum = pce.skinny_svd(d, right=False).spectrum
        for lam in (0.01, 1.0, 37.5, 1e6):
            summary = describe(spectrum, lam, shape)
            assert summary.rank == 6
            assert summary.k == estimate_dimension(spectrum[:6], lam)
            assert summary.error_norm == np.sqrt(np.sum(spectrum[summary.k :] ** 2))
            energy = np.cumsum(spectrum**2)
            assert np.array_equal(summary.cumulative_energy, energy / energy[-1])
            assert summary.min_lambda == (1.0 + 1e-6) / spectrum[0] ** 2


@given(
    sigma=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30),
    zeros=st.integers(0, 3),
    lam=st.floats(1e-3, 1e3),
    j=st.integers(-495, 495),
)
@settings(max_examples=300, deadline=None)
def test_describe_is_scale_equivariant(sigma, zeros, lam, j):
    # c = 2^j scales sigma exactly: the decision and the shares keep their
    # bits, ||E||_F scales by c and the least lambda by 1/c^2.  In these
    # ranges c * sigma, lam / c^2 and every scaled field are normal floats
    sigma = np.concatenate([np.sort(sigma)[::-1], np.zeros(zeros)])
    shape = (len(sigma), len(sigma) + 5)
    base = describe(sigma, lam, shape)
    scaled = describe(np.ldexp(sigma, j), math.ldexp(lam, -2 * j), shape)
    assert (scaled.k, scaled.rank) == (base.k, base.rank)
    assert np.array_equal(scaled.cumulative_energy, base.cumulative_energy)
    assert scaled.error_norm == math.ldexp(base.error_norm, j)
    assert scaled.min_lambda == math.ldexp(base.min_lambda, -2 * j)


@pytest.mark.parametrize("lam", [1e308, np.finfo(float).max, 5e-324, 1e-320])
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e155, 1e300])
def test_describe_at_extreme_lambda_and_scale(lam, scale):
    # lam * 4^e may overflow or turn subnormal; k still counts lam * sigma^2 > 1
    # (sigma^2 taken exactly in fractions here), with no warning and no nan
    sigma = scale * np.array([4.0, 2.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = describe(sigma, lam, (4, 4))
    exact = [Fraction(lam) * Fraction(s) ** 2 > 1 for s in sigma]
    assert summary.k == sum(exact)
    assert np.isfinite(summary.error_norm)
    assert not np.isnan(summary.cumulative_energy).any()
    assert summary.cumulative_energy[-1] == 1.0
    assert summary.min_lambda is None or np.isfinite(summary.min_lambda)


def test_no_finite_lambda_keeps_a_dimension():
    # 1 / sigma_1^2 overflows, so no finite lambda is large enough
    svd = pce.skinny_svd(np.diag([1e-160, 1e-161]))
    with pytest.raises(DegenerateDimension, match="no finite lambda keeps one"):
        pce.principal_coefficients(svd, 1e300)
    assert describe(svd.spectrum, 1e300, (2, 2)).min_lambda is None


def test_sigma_is_squared_in_one_helper():
    # every square of a singular value goes through model._squares
    squares = []
    for path in sorted(Path(pce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                squares += [
                    (path.stem, func.name) for node in ast.walk(func)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and ast.unparse(node.right) == "2"
                ]
    assert squares == [("model", "_squares")]


def test_principal_coefficients_2x2():
    svd = pce.skinny_svd(np.diag([2.0, 0.1]))
    factor = pce.principal_coefficients(svd, 1.0)
    assert factor.k == 1
    c = pce.materialize_affinity(factor)
    assert np.allclose(c, [[1.0, 0.0], [0.0, 0.0]])


def test_orthonormal_columns_identity_affinity():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 4)))
    factor = pce.principal_coefficients(pce.skinny_svd(q), 2.0)
    assert factor.k == 4
    assert np.allclose(pce.materialize_affinity(factor), np.eye(4), atol=1e-10)


def test_degenerate_dimension_reports_min_lambda():
    svd = pce.skinny_svd(np.diag([2.0, 0.1]))
    with pytest.raises(DegenerateDimension) as err:
        pce.principal_coefficients(svd, 0.01)
    assert err.value.min_lambda is not None
    k = estimate_dimension(svd.sigma, err.value.min_lambda)
    assert k >= 1


def test_affinity_properties():
    rng = np.random.default_rng(5)
    vk, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    c = pce.materialize_affinity(pce.CoefficientFactor(vk=vk, k=3))
    assert np.allclose(c, c.T, atol=1e-10)
    assert np.allclose(c @ c, c, atol=1e-8)
    assert np.trace(c) == pytest.approx(3.0, abs=1e-8)
    assert np.linalg.norm(c) ** 2 == pytest.approx(3.0, abs=1e-8)


def test_affinity_cap():
    vk = np.eye(5)[:, :2]
    with pytest.raises(TooLarge):
        pce.materialize_affinity(pce.CoefficientFactor(vk=vk, k=2), cap=4)


def test_recover_clean_truncation():
    svd = pce.skinny_svd(np.diag([2.0, 0.1]))
    d0, e = pce.recover_clean(svd, 1)
    assert np.allclose(d0, np.diag([2.0, 0.0]), atol=1e-12)
    assert np.allclose(e, np.diag([0.0, 0.1]), atol=1e-12)
    assert np.linalg.norm(e) == pytest.approx(0.1, abs=1e-12)


def test_recover_clean_full_rank():
    d = np.random.default_rng(2).standard_normal((6, 5))
    svd = pce.skinny_svd(d)
    d0, e = pce.recover_clean(svd, svd.rank)
    assert np.allclose(d0, d, atol=1e-10)
    assert np.linalg.norm(e) < 1e-10


def test_recover_clean_bad_k():
    svd = pce.skinny_svd(np.eye(3))
    with pytest.raises(BadK):
        pce.recover_clean(svd, 4)
    with pytest.raises(BadK):
        pce.recover_clean(svd, 0)


def test_eckart_young_and_self_expression():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.standard_normal((12, 20))
        lam = 10 ** rng.uniform(-1, 1)
        svd = pce.skinny_svd(d)
        try:
            factor = pce.principal_coefficients(svd, lam)
        except DegenerateDimension:
            continue
        d0, e = pce.recover_clean(svd, factor.k)
        tail = np.sqrt(np.sum(svd.spectrum[factor.k :] ** 2))
        assert np.linalg.norm(d - d0) == pytest.approx(tail, rel=1e-8)
        c = pce.materialize_affinity(factor)
        assert np.linalg.norm(d0 @ c - d0) < 1e-8


def test_pseudoinverse_solution_for_clean_data():
    # For clean rank-deficient D the minimal-norm self-expression is D+ D,
    # which must coincide with the right-singular-vector projector.
    rng = np.random.default_rng(3)
    d = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 16))
    svd = pce.skinny_svd(d)
    proj = svd.v @ svd.v.T
    assert np.linalg.norm(np.linalg.pinv(d) @ d - proj) < 1e-8


def test_fit_diag_example():
    model = pce.fit(np.diag([2.0, 0.1]), 1.0)
    assert model.k == 1
    assert np.allclose(np.abs(model.theta[:, 0]), [0.5, 0.0], atol=1e-10)


def test_fit_identical_columns():
    col = np.array([[3.0], [4.0]])
    d = np.tile(col, (1, 6))
    model = pce.fit(d, 1.0)
    assert model.k == 1
    direction = model.theta[:, 0] / np.linalg.norm(model.theta[:, 0])
    assert np.allclose(np.abs(direction), [0.6, 0.8], atol=1e-10)


def test_fit_matrix_without_columns_rejected_before_centring():
    # the mean of a matrix with no columns would warn "Mean of empty slice"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=r"shape \(5, 0\)"):
            pce.fit(np.ones((5, 0)), center=True)


def test_fit_independent_subspaces_recovers_total_dim():
    spec = pce.SubspaceSpec(ambient=50, subspaces=((4, 20),) * 5)
    ds = pce.generate_union_of_subspaces(spec, seed=0)
    svd = pce.skinny_svd(ds.matrix)
    assert svd.rank == 20
    lam = 2.0 / svd.sigma[19] ** 2
    model = pce.fit(ds.matrix, lam)
    assert model.k == 20


def test_transform_linearity_and_zero():
    model = pce.fit(np.random.default_rng(4).standard_normal((6, 10)), 1.0)
    y1 = np.random.default_rng(5).standard_normal((6, 3))
    y2 = np.random.default_rng(6).standard_normal((6, 3))
    z = pce.transform(model, 2.0 * y1 - 3.0 * y2)
    assert np.allclose(
        z, 2.0 * pce.transform(model, y1) - 3.0 * pce.transform(model, y2)
    )
    assert np.allclose(pce.transform(model, np.zeros((6, 1))), 0.0)


def test_transform_matches_fit_embedding():
    d = np.random.default_rng(8).standard_normal((7, 12))
    model = pce.fit(d, 1.0)
    z = pce.transform(model, d)
    assert np.allclose(z, model.theta.T @ d)


def test_block_diagonal_affinity():
    spec = pce.SubspaceSpec(ambient=50, subspaces=((4, 20),) * 5)
    ds = pce.generate_union_of_subspaces(spec, seed=42)
    svd = pce.skinny_svd(ds.matrix)
    lam = 2.0 / svd.sigma[-1] ** 2
    c = pce.materialize_affinity(pce.principal_coefficients(svd, lam))
    labels = ds.labels
    cross = c[labels[:, None] != labels[None, :]]
    assert np.max(np.abs(cross)) < 1e-8


def canonical_closed_form(d, k):
    """U_k S_k^-1 from numpy's SVD, each column's largest-magnitude entry positive."""
    u, s, _ = np.linalg.svd(d, full_matrices=False)
    theta = u[:, :k] / s[:k]
    lead = theta[np.argmax(np.abs(theta), axis=0), np.arange(k)]
    return theta * np.sign(lead)


@pytest.mark.parametrize("ambient", [300, 200], ids=["300x400", "200x400-qr-first"])
def test_fit_theta_is_canonical_closed_form(ambient):
    # k = 32 << rank: the embedding pencil's eigenvalue 1 is 32-fold.  The
    # 200 x 400 matrix is past linalg.QR_RATIO, so its SVD takes the QR first
    spec = pce.SubspaceSpec(ambient=ambient, subspaces=((4, 50),) * 8)
    ds = pce.generate_union_of_subspaces(spec, seed=3)
    d = pce.add_gaussian_noise(ds.matrix, 0.01, seed=3)
    model = pce.fit(d, 4.0)
    assert model.k == 32
    assert np.abs(model.theta - canonical_closed_form(d, 32)).max() < 1e-12
    svd = pce.skinny_svd(d)
    factor = pce.principal_coefficients(svd, 4.0)
    for dim in (1, 5, 32):
        theta = pce.embed(d, pce.pce_graph(factor), dim, svd=svd)
        assert np.array_equal(theta, model.theta[:, :dim])


def test_fit_on_wide_data_never_forms_q(monkeypatch):
    # fit reads no right vectors, so the QR of d' is taken in mode "r" only
    modes = []
    qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    d = np.random.default_rng(5).standard_normal((20, 60))
    pce.fit(d, 1.0)
    assert modes == ["r"]
    pce.skinny_svd(d)
    assert modes == ["r", "reduced"]


BLAS_THREADS_FIT = """
import sys
import numpy as np
import pce
spec = pce.SubspaceSpec(ambient=300, subspaces=((4, 50),) * 8)
ds = pce.generate_union_of_subspaces(spec, seed=3)
d = pce.add_gaussian_noise(ds.matrix, 0.01, seed=3)
np.save(sys.argv[1], pce.transform(pce.fit(d, 4.0), d))
"""


def test_features_independent_of_blas_threads(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    features = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = tmp_path / f"z{threads}.npy"
        subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_FIT, str(out)],
            env=env, check=True, timeout=120,
        )
        features.append(np.load(out))
    assert features[0].shape == (32, 400)
    assert np.abs(features[0] - features[1]).max() < 1e-10
