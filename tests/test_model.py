import ast
import dataclasses
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
    BadDim,
    DegenerateDimension,
    DimensionMismatch,
    NonFinite,
    NotSorted,
    ZeroMatrix,
)
from pce.linalg import QR_RATIO
from pce.model import closed_form_projection, describe, estimate_dimension
from reference import argmin_oracle


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


@pytest.mark.parametrize("check", ["estimate_dimension", "describe"])
@pytest.mark.parametrize(
    "spectrum, lam, error",
    [
        ([], 1.0, DimensionMismatch),
        (np.ones((2, 2)), 1.0, DimensionMismatch),
        ([np.nan, 1.0], 1.0, NonFinite),
        ([np.inf, 1.0], 1.0, NonFinite),
        ([0.0, 0.0], 1.0, ZeroMatrix),
        ([1.0, 2.0], 1.0, NotSorted),
        ([1e-20, 2e-20], 1e41, NotSorted),
        ([1.0, -0.5], 1.0, NotSorted),
        ([1e-300, 0.0, -1.0], 1.0, NotSorted),
        ([0.0, 1.0], 1.0, NotSorted),
        ([-1.0], 1.0, NotSorted),
        ([2.0, 1.0], 0.0, ValueError),
        ([2.0, 1.0], np.nan, ValueError),
        ([2.0, 1.0], np.inf, ValueError),
    ],
    ids=["empty", "2-d", "nan", "inf", "zero", "increasing", "increasing-tiny",
         "negative", "negative-past-tiny", "zero-then-rise", "negative-only",
         "zero-lambda", "nan-lambda", "inf-lambda"],
)
def test_one_rule_refuses_a_bad_spectrum(check, spectrum, lam, error):
    # describe runs estimate_dimension's check before it reads the spectrum,
    # and an increase is refused at every scale; the order of the rules makes
    # sigma_1 <= 0 mean an all-zero spectrum, so [0, 1] and [-1] are NotSorted
    call = {"estimate_dimension": estimate_dimension,
            "describe": lambda s, lam: describe(s, lam, (2, 2))}[check]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(spectrum, lam)


@pytest.mark.parametrize("lam, k", [(1 - 5e-13, 1), (1 + 5e-13, 1), (1 + 5e-12, 4)])
def test_equal_values_are_never_split(lam, k):
    # lam * 1^2 lies inside the 1e-12 tie band or past it: the three equal
    # values are kept or dropped together, never one of them alone
    sigma = np.array([10.0, 1.0, 1.0, 1.0, 0.1])
    assert estimate_dimension(sigma, lam) == k
    assert pce.fit(np.diag(sigma), lam).k == k


@given(
    sigma=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30),
    zeros=st.integers(0, 3),
    j=st.integers(-500, 500),
    lam=st.floats(5e-324, 1.7e308),
    near=st.none() | st.tuples(st.integers(0, 29),
                               st.floats(-1e-11, 1e-11) | st.floats(0.0, 2e-12)),
)
@settings(max_examples=300, deadline=None)
def test_count_is_exact_at_every_scale(sigma, zeros, j, lam, near):
    # k is the exact count of lam * sigma_i^2 > 1 + 1e-12 for a spectrum scaled
    # by 2^j and any positive finite lambda; ``near`` puts lam * sigma_i^2
    # within 1e-11 of 1, often inside the tie band.  A product within a
    # relative 1e-14 of the threshold, where one rounding decides, may count
    # either way
    sigma = np.concatenate([np.ldexp(np.sort(sigma)[::-1], j), np.zeros(zeros)])
    threshold = 1 + Fraction(1e-12)
    if near is not None:
        s = Fraction(sigma[near[0] % (len(sigma) - zeros)])
        lam = float((1 + Fraction(near[1])) / s**2)
    products = [Fraction(lam) * Fraction(s) ** 2 for s in sigma]
    band = threshold * Fraction(1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = estimate_dimension(sigma, lam)
    assert sum(p > threshold + band for p in products) <= k
    assert k <= sum(p > threshold - band for p in products)


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


@given(
    # tall past linalg.QR_RATIO (the R-SVD without U), tall, square, at
    # QR_RATIO (the R-SVD of D') and wide
    shape=st.integers(2, 30).flatmap(lambda m: st.tuples(st.just(m), st.sampled_from(
        [max(1, math.floor(m / QR_RATIO)), m // 2 + 1, m, math.ceil(QR_RATIO * m), 2 * m]))),
    seed=st.integers(0, 2**16),
    lam=st.floats(0.05, 20),
    j=st.integers(-508, 508),
)
@settings(max_examples=200, deadline=None)
def test_fit_is_scale_equivariant_bit_for_bit(shape, seed, lam, j):
    # c = 2^j: fit(c D, lam / c^2) keeps k and gives spectrum * c and theta / c
    # exactly.  |j| <= 508 is the widest range in which lam / c^2 is a normal
    # float for every lam in [0.05, 20]; every scaled entry is one too
    d = np.random.default_rng(seed).standard_normal(shape)
    scaled_d, scaled_lam = np.ldexp(d, j), math.ldexp(lam, -2 * j)
    try:
        base = pce.fit(d, lam)
    except DegenerateDimension:
        with pytest.raises(DegenerateDimension):
            pce.fit(scaled_d, scaled_lam)
        return
    scaled = pce.fit(scaled_d, scaled_lam)
    assert scaled.k == base.k
    assert np.array_equal(scaled.spectrum, np.ldexp(base.spectrum, j))
    assert np.array_equal(scaled.theta, np.ldexp(base.theta, -j))


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
    vk = pce.principal_coefficients(svd, 1.0)
    assert vk.shape == (2, 1)
    c = vk @ vk.T
    assert np.allclose(c, [[1.0, 0.0], [0.0, 0.0]])


def test_orthonormal_columns_identity_affinity():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 4)))
    vk = pce.principal_coefficients(pce.skinny_svd(q), 2.0)
    assert vk.shape == (4, 4)
    assert np.allclose(vk @ vk.T, np.eye(4), atol=1e-10)


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
    c = vk @ vk.T
    assert np.allclose(c, c.T, atol=1e-10)
    assert np.allclose(c @ c, c, atol=1e-8)
    assert np.trace(c) == pytest.approx(3.0, abs=1e-8)
    assert np.linalg.norm(c) ** 2 == pytest.approx(3.0, abs=1e-8)


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
    # both readers of k refuse one outside 1..rank alike
    svd = pce.skinny_svd(np.eye(3))
    for reader in (pce.recover_clean, closed_form_projection):
        for k in (0, -1, 4):
            with pytest.raises(BadDim, match=rf"^k={k} outside 1\.\.3$"):
                reader(svd, k)


def test_eckart_young_and_self_expression():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.standard_normal((12, 20))
        lam = 10 ** rng.uniform(-1, 1)
        svd = pce.skinny_svd(d)
        try:
            vk = pce.principal_coefficients(svd, lam)
        except DegenerateDimension:
            continue
        d0, e = pce.recover_clean(svd, vk.shape[1])
        tail = np.sqrt(np.sum(svd.spectrum[vk.shape[1] :] ** 2))
        assert np.linalg.norm(d - d0) == pytest.approx(tail, rel=1e-8)
        c = vk @ vk.T
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


def test_fit_center_takes_the_row_mean_without_overflow():
    d = np.random.default_rng(0).standard_normal((6, 8))
    d[0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = pce.fit(d, center=True)
    assert model.center[0] == 1e308
    # below overflow the scaled mean keeps d.mean's bits
    assert model.center[1:].tobytes() == d[1:].mean(axis=1).tobytes()
    d[0] = -1.7e308
    d[0, 0] = 1.7e308  # minus the row mean -1.275e308, this entry overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="NaN or Inf"):
            pce.fit(d, center=True)


def test_derived_fields_are_not_stored():
    # k is theta's width and sigma the spectrum's head, so neither can disagree
    assert [f.name for f in dataclasses.fields(pce.PceModel)] == [
        "lam", "theta", "spectrum", "train_cols", "center", "fit_seconds"
    ]
    assert [f.name for f in dataclasses.fields(pce.SvdFactors)] == [
        "u", "v", "rank", "spectrum"
    ]
    model = pce.PceModel(1.0, np.ones((4, 3)), np.array([2.0, 2.0, 0.5, 0.5]), 4)
    assert model.k == model.theta.shape[1] == 3
    assert not hasattr(pce, "CoefficientFactor")


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
    vk = pce.principal_coefficients(svd, lam)
    c = vk @ vk.T
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
    for dim in (1, 5, 32):
        theta = closed_form_projection(svd, dim)
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


def test_fit_on_tall_data_never_forms_u(monkeypatch):
    # fit reads V from the SVD of R (QR mode "r"); the only other QR is the
    # thin one of D Vk Sk^-1, whose k columns are Uk
    spec = pce.SubspaceSpec(ambient=300, subspaces=((4, 20),) * 6)
    ds = pce.generate_union_of_subspaces(spec, seed=4)
    d = pce.add_gaussian_noise(ds.matrix, 0.01, seed=4)
    modes, shapes = [], []
    qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        modes.append(mode)
        shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    model = pce.fit(d, 4.0)
    assert model.k == 24
    assert (modes, shapes) == (["r", "reduced"], [(300, 120), (300, 24)])
    assert np.abs(model.theta - canonical_closed_form(d, 24)).max() < 1e-12 * np.abs(
        model.theta).max()
    assert np.allclose(model.spectrum, np.linalg.svd(d, compute_uv=False), rtol=1e-13)


@given(
    # tall (the R-SVD without U), just either side of QR_RATIO, square and wide
    shape=st.integers(2, 40).flatmap(lambda n: st.tuples(st.sampled_from(
        [3 * n, math.ceil(QR_RATIO * n), math.ceil(QR_RATIO * n) - 1, n, n // 2 + 1]
    ), st.just(n))),
    rank=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    skew=st.integers(0, 8),
    cut=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_fit_keeps_k_and_metric_orthonormality(shape, rank, seed, skew, cut):
    # a rank-r product, its columns scaled by u^skew so that sigma_1 / sigma_k
    # spans many decades; lambda sits between two singular values, away from ties
    rng = np.random.default_rng(seed)
    m, n = shape
    r = min(rank, m, n)
    d = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) * rng.uniform(0, 1, n) ** skew
    sigma = np.linalg.svd(d, compute_uv=False)
    rank = pce.linalg.numerical_rank(sigma, d.shape)
    k = 1 + int(cut * (rank - 1))
    if k < rank and sigma[k - 1] < (1 + 1e-6) * sigma[k]:
        return  # a tie: k is not decided by the count alone
    lam = 1.0 / (sigma[k - 1] * sigma[k]) if k < rank else 4.0 / sigma[k - 1] ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = pce.fit(d, lam)
    assert model.k == k == int(np.count_nonzero(sigma[:rank] > lam**-0.5))
    # theta' D D' theta = I to 1e-10 relative to ||D|| ||theta|| = sigma_1 / sigma_k,
    # the scale to which a backward-stable SVD keeps it
    g = d.T @ model.theta
    assert np.abs(g.T @ g - np.eye(k)).max() <= 1e-10 * sigma[0] / sigma[k - 1]


def noisy_low_rank(shape, r, log_spread, eta, tight, seed):
    """(D0, E): D0 = U S V' of rank r with sigma_r(D0) = 1 and sigma_1 up to
    10^log_spread, and E with ||E||_2 = eta.  A ``tight`` E is
    eta (u_{r+1} v_{r+1}' - u_r v_r'), which meets both of Weyl's bounds:
    sigma_r(D0 + E) = 1 - eta and sigma_{r+1}(D0 + E) = eta.  Any other E is
    a gaussian matrix scaled to that norm."""
    rng = np.random.default_rng(seed)
    m, n = shape
    u = np.linalg.qr(rng.standard_normal((m, r + 1)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r + 1)))[0]
    s = np.sort(10.0 ** rng.uniform(0.0, log_spread, r))[::-1]
    s[-1] = 1.0
    d0 = (u[:, :r] * s) @ v[:, :r].T
    if tight:
        e = eta * (np.outer(u[:, r], v[:, r]) - np.outer(u[:, r - 1], v[:, r - 1]))
    else:
        g = rng.standard_normal(shape)
        e = g * (eta / np.linalg.norm(g, 2))
    return d0, e


# tall (fit takes the SVD of R, without U), square, and wide (the SVD of R')
WEYL_SHAPES = st.integers(2, 30).flatmap(lambda n: st.sampled_from(
    [(math.ceil(QR_RATIO * n), n), (n, n), (n, math.ceil(QR_RATIO * n))]))
WEYL_CASES = dict(
    shape=WEYL_SHAPES,
    cut=st.floats(0.0, 1.0, exclude_max=True),
    log_spread=st.floats(0.0, 3.0),
    eta=st.floats(1e-3, 0.499),
    tight=st.booleans(),
    seed=st.integers(0, 2**16),
    j=st.integers(-400, 400),
)


@given(**WEYL_CASES, at=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_weyl_interval_keeps_the_true_dimension(shape, cut, log_spread, eta, tight, seed, j,
                                                at):
    # D = D0 + E with rank(D0) = r and ||E||_2 < sigma_r(D0) / 2.  By Weyl,
    # sigma_{r+1}(D) <= ||E||_2 and sigma_r(D) >= sigma_r(D0) - ||E||_2, so every
    # lam in (1 / (sigma_r(D0) - ||E||_2)^2, 1 / ||E||_2^2] keeps k = r; lam stays
    # a relative 1e-6 inside, far from the 1e-12 tie band of k's count.  Scaling
    # D by 2^j scales the interval by 4^-j
    r = 1 + int(cut * (min(shape) - 1))
    d0, e = noisy_low_rank(shape, r, log_spread, eta, tight, seed)
    norm_e = np.linalg.norm(e, 2)
    lo, hi = 1.0 / (1.0 - norm_e) ** 2, 1.0 / norm_e**2
    lam = lo * (1 + 1e-6) * (hi * (1 - 1e-6) / (lo * (1 + 1e-6))) ** at
    d = np.ldexp(d0 + e, j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pce.fit(d, math.ldexp(lam, -2 * j)).k == r
        if not tight:
            return
        # both bounds are met, so a lam just outside either end changes k
        assert pce.fit(d, math.ldexp(hi * (1 + 1e-6), -2 * j)).k == r + 1
        if r == 1:
            with pytest.raises(DegenerateDimension):
                pce.fit(d, math.ldexp(lo * (1 - 1e-6), -2 * j))
        else:
            assert pce.fit(d, math.ldexp(lo * (1 - 1e-6), -2 * j)).k == r - 1


@given(**WEYL_CASES)
@settings(max_examples=300, deadline=None)
def test_recover_clean_is_within_twice_the_noise(shape, cut, log_spread, eta, tight, seed, j):
    # ||D0^ - D0||_2 <= ||D0^ - D||_2 + ||D - D0||_2 = sigma_{r+1}(D) + ||E||_2
    # <= 2 ||E||_2, plus the rounding of a backward-stable SVD and its product,
    # a small multiple of eps sigma_1 (max(m, n) is generous)
    r = 1 + int(cut * (min(shape) - 1))
    d0, e = noisy_low_rank(shape, r, log_spread, eta, tight, seed)
    svd = pce.skinny_svd(np.ldexp(d0 + e, j))
    clean, _ = pce.recover_clean(svd, r)
    eps_sigma = np.finfo(float).eps * math.ldexp(svd.sigma[0], -j)
    bound = 2 * np.linalg.norm(e, 2) + max(shape) * eps_sigma
    assert np.linalg.norm(np.ldexp(clean, -j) - d0, 2) <= bound


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
