import csv
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import pce
from pce import evaluation
from pce.data import add_pixel_corruption
from pce.errors import (
    BadDim,
    DimensionMismatch,
    NonFinite,
    ZeroMatrix,
)
from pce.evaluation import (
    ExperimentConfig,
    nn_classify,
    pca_fit,
    run_experiment,
    write_report_csv,
)
from pce.graph import lle_graph
from reference import generalized_top_eigs
from test_graph import principal_angle


def test_nn_exact_match():
    train = np.array([[0.0, 1.0, 2.0]])
    labels = np.array([7, 8, 9])
    assert nn_classify(train, labels, np.array([[1.0]]))[0] == 8


def test_nn_tie_goes_to_lower_index():
    train = np.array([[0.0, 2.0]])
    labels = np.array([1, 2])
    assert nn_classify(train, labels, np.array([[1.0]]))[0] == 1


def test_nn_scalar_distance():
    train = np.array([[0.0, 10.0]])
    labels = np.array([0, 1])  # 0 = "A", 1 = "B"
    assert nn_classify(train, labels, np.array([[4.0]]))[0] == 0


def test_nn_errors():
    # no training columns; features of 3-d samples; no features at all, where
    # every distance tied and each test column took column 0's label
    for train, test in [((2, 0), (2, 1)), ((2, 3, 4), (2, 3, 1)), ((0, 3), (0, 2))]:
        with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {train}")):
            nn_classify(np.zeros(train), [0, 1, 2][: train[1]], np.zeros(test))
    with pytest.raises(DimensionMismatch):
        nn_classify(np.zeros((2, 3)), [0, 0, 0], np.zeros((3, 1)))
    for test in ([[2]], [[0]]):  # column 2 has no label; column 0 does
        with pytest.raises(DimensionMismatch, match="2 labels for 3 training columns"):
            nn_classify([[0, 1, 2]], [5, 6], test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["train", "test"])
def test_nn_rejects_nonfinite_features(side, bad):
    # a NaN score made argmin stop at it: [[nan, 0, 1]] classified [[1]] as 0
    train, test = np.array([[0.0, 0.0, 1.0]]), np.array([[1.0]])
    (train if side == "train" else test)[0, 0] = bad
    with pytest.raises(NonFinite, match="matrix contains NaN or Inf entries"):
        nn_classify(train, [0, 1, 2], test)


def test_nn_invariant_under_orthogonal_transform():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((5, 30))
    test = rng.standard_normal((5, 10))
    labels = rng.integers(0, 3, size=30)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    base = nn_classify(train, labels, test)
    rotated = nn_classify(q @ train, labels, q @ test)
    assert np.array_equal(base, rotated)


def _pixel_features(rng):
    # integer pixels whose training set holds every column twice, so a test
    # column sits at exactly equal distances from two training columns
    train = rng.integers(0, 256, size=(64, 50)).astype(float)
    test = add_pixel_corruption(train[:, rng.integers(0, 50, size=200)], 0.3, seed=1)
    return np.hstack([train, train]), np.rint(test)


@pytest.mark.parametrize(
    "features",
    [
        lambda rng: (rng.standard_normal((20, 300)), rng.standard_normal((20, 200))),
        _pixel_features,
        lambda rng: (1e8 + rng.standard_normal((5, 100)),
                     1e8 + rng.standard_normal((5, 200))),
    ],
    ids=["gaussian", "duplicated-pixels", "offset-1e8"],
)
def test_nn_matches_cdist(features):
    train, test = features(np.random.default_rng(0))
    labels = np.arange(train.shape[1])  # a label per column shows the index chosen
    expected = cdist(test.T, train.T).argmin(axis=1)
    assert np.array_equal(nn_classify(train, labels, test), expected)


def test_nn_predictions_keep_under_power_of_two_scaling():
    # at 2^530 the squared distances overflow and at 2^-560 they underflow,
    # unless the features are scaled back first
    rng = np.random.default_rng(4)
    train, test = rng.standard_normal((6, 50)), rng.standard_normal((6, 80))
    labels = np.arange(50)
    expected = nn_classify(train, labels, test)
    for j in (-560, -500, -1, 1, 500, 530):
        scaled = nn_classify(np.ldexp(train, j), labels, np.ldexp(test, j))
        assert np.array_equal(scaled, expected), f"2^{j}"


def test_nn_predictions_of_features_whose_differences_overflow():
    # row 0 alternates +-1.7e308: finite, but a - b_0 overflows unless the
    # features are scaled before they are shifted
    rng = np.random.default_rng(0)
    train, test = rng.standard_normal((6, 20)), rng.standard_normal((6, 30))
    train[0] = np.where(np.arange(20) % 2 == 0, 1.7e308, -1.7e308)
    test[0] = np.where(np.arange(30) % 3 == 0, -1.7e308, 1.7e308)
    labels = np.arange(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = nn_classify(train, labels, test)
    assert np.array_equal(predicted, nn_classify(np.ldexp(train, -4), labels, np.ldexp(test, -4)))


def test_accuracy_counting():
    assert pce.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert pce.accuracy([1, 1], [2, 2]) == 0.0
    assert pce.accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75
    with pytest.raises(DimensionMismatch, match=re.escape("(1,) vs (2,)")):
        pce.accuracy([1], [1, 2])
    with pytest.raises(DimensionMismatch, match="no labels to score"):
        pce.accuracy([], [])


def test_pca_recovers_line_direction():
    rng = np.random.default_rng(1)
    direction = np.array([3.0, 4.0]) / 5.0
    d = direction[:, None] * rng.standard_normal(40)[None, :] + 10.0
    model = pca_fit(d, 1)
    assert np.allclose(np.abs(model.theta[:, 0]), direction, atol=1e-8)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((6, 20))
    centered = d - d.mean(axis=1, keepdims=True)
    rank = np.linalg.matrix_rank(centered)
    model = pca_fit(d, rank)
    z = pce.transform(model, d)
    rebuilt = model.theta @ z + model.center[:, None]
    assert np.linalg.norm(rebuilt - d) < 1e-8


def test_pca_variance_fraction():
    rng = np.random.default_rng(3)
    m = 20
    d = rng.standard_normal((m, 4000))
    model = pca_fit(d, 2)
    z = pce.transform(model, d)
    captured = np.var(z, axis=1).sum()
    total = np.var(d - d.mean(axis=1, keepdims=True), axis=1).sum()
    assert captured / total == pytest.approx(2.0 / m, rel=0.2)


def test_pca_bad_dim():
    with pytest.raises(BadDim):
        pca_fit(np.random.default_rng(4).standard_normal((5, 4)), 4)


@pytest.mark.parametrize("dim", [0, -1], ids=["zero", "negative"])
def test_pca_dim_below_one(dim):
    with pytest.raises(BadDim, match="must be >= 1"):
        pca_fit(np.random.default_rng(4).standard_normal((5, 4)), dim)


@pytest.mark.parametrize("shape", [(5, 20), (20, 5)], ids=["wide", "tall"])
def test_pca_nonfinite_rejected(shape):
    d = np.ones(shape)
    d[1, 2] = np.nan
    with pytest.raises(NonFinite):
        pca_fit(d, 1)


def test_pca_matrix_without_columns_rejected_before_centring():
    # the mean of a matrix with no columns would warn "Mean of empty slice"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=r"shape \(5, 0\)"):
            pca_fit(np.ones((5, 0)), 1)


def test_pca_takes_the_row_mean_without_overflow():
    # fit's scale-safe mean: a row of 1e308 neither warns nor becomes inf
    d = np.random.default_rng(0).standard_normal((6, 8))
    d[0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pca = pca_fit(d, 2)
    assert pca.center[0] == 1e308
    assert pca.center[1:].tobytes() == d[1:].mean(axis=1).tobytes()


def test_pca_dim_above_centred_rank():
    # 30 points in a 3-d affine subspace of R^8: the centred data has rank 2,
    # although min(m, n - 1) = 8
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((8, 2))
    d = basis @ rng.standard_normal((2, 30)) + rng.standard_normal((8, 1))
    assert pca_fit(d, 2).theta.shape == (8, 2)
    with pytest.raises(BadDim, match="exceeds the rank 2 of the centred data"):
        pca_fit(d, 3)


def test_pca_constant_rows_rejected():
    d = np.arange(6.0)[:, None] * np.ones((1, 10))
    with pytest.raises(ZeroMatrix):
        pca_fit(d, 1)


def test_pca_components_have_canonical_signs():
    d = np.random.default_rng(6).standard_normal((15, 40))
    components = pca_fit(d, 10).theta
    biggest = components[np.argmax(np.abs(components), axis=0), np.arange(10)]
    assert np.all(biggest > 0)
    # a column's sign is all that canonical_signs may change
    centred = d - d.mean(axis=1, keepdims=True)
    u = np.linalg.svd(centred, full_matrices=False)[0][:, :10]
    assert np.allclose(np.abs(components), np.abs(u), atol=1e-10)


def synthetic_config(**overrides):
    spec = pce.SubspaceSpec(ambient=20, subspaces=((2, 10), (2, 10)))
    base = dict(source=spec, method="pce", lam=10.0, trials=1, base_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_orthogonal_classes_perfectly_separated():
    report = run_experiment(synthetic_config())
    assert report.accuracies == [1.0]
    # raw-feature oracle agrees: the classes are linearly separated already
    raw = run_experiment(synthetic_config(method="raw"))
    assert raw.accuracies == [1.0]


def test_raw_and_pce_reports_well_formed():
    for method, extra in (("raw", {}), ("pce", {}), ("pca", {"dim": 2})):
        report = run_experiment(synthetic_config(method=method, trials=2, **extra))
        assert len(report.accuracies) == 2
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)
        if method == "pce":
            assert all(k >= 1 for k in report.ks)
        else:
            assert report.ks == [None, None]


def test_lle_npe_method_runs():
    report = run_experiment(
        synthetic_config(method="lle-npe", dim=2, neighbors=3, trials=2)
    )
    assert len(report.accuracies) == 2


def test_reports_deterministic_in_seed():
    a = run_experiment(synthetic_config(trials=3, base_seed=5))
    b = run_experiment(synthetic_config(trials=3, base_seed=5))
    assert a.accuracies == b.accuracies
    assert a.ks == b.ks


def test_per_trial_k_matches_standalone_estimate():
    spec = pce.SubspaceSpec(ambient=12, subspaces=((2, 8), (2, 8)))
    cfg = synthetic_config(source=spec, trials=3, lam=10.0)
    report = run_experiment(cfg)
    for trial in range(3):
        seed = cfg.base_seed + trial
        ds = pce.generate_union_of_subspaces(spec, seed)
        train, _ = pce.split(ds, cfg.train_fraction, seed)
        svd = pce.skinny_svd(train.matrix)
        assert report.ks[trial] == pce.estimate_dimension(svd.sigma, cfg.lam)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="pce, pca, lle-npe, raw"):
        synthetic_config(method="magic")


def test_report_csv_layout(tmp_path):
    report = run_experiment(synthetic_config(trials=3))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "accuracy", "k"]
    assert len(rows) == 5  # header + 3 trials + summary
    assert rows[-1][0] == "summary"
    accs = [float(r[1]) for r in rows[1:4]]
    assert float(rows[-1][1]) == pytest.approx(np.mean(accs))


def test_data_file_parsed_once(tmp_path, monkeypatch):
    # only the noise and the split depend on a trial's seed, so the file is
    # read once; each trial still matches a one-trial run at its own seed
    spec = pce.SubspaceSpec(ambient=20, subspaces=((2, 10), (2, 10), (2, 10)))
    path = str(tmp_path / "d.txt")
    pce.save_matrix(pce.generate_union_of_subspaces(spec, seed=3), path)
    calls, real_load = [], evaluation.load_matrix

    def counting_load(p):
        calls.append(p)
        return real_load(p)

    monkeypatch.setattr(evaluation, "load_matrix", counting_load)
    cfg = dict(source=path, lam=2.0, noise=pce.NoiseSpec("gaussian", 0.4))
    report = run_experiment(synthetic_config(trials=5, **cfg))
    assert calls == [path]
    singles = [run_experiment(synthetic_config(base_seed=t, **cfg)) for t in range(5)]
    assert report.accuracies == [r.accuracies[0] for r in singles]
    assert report.ks == [r.ks[0] for r in singles]


def test_lle_npe_classifies_the_subspace_eval_spec():
    # perfbench's subspace_eval trial: on its 1024 x 500 train halves a pencil
    # without NPE's PCA step constrains all of R^n, so the training features
    # are just the weights' eigenvectors, and accuracy is about 0.7
    spec = pce.SubspaceSpec(ambient=1024, subspaces=((4, 100),) * 10)
    cfg = ExperimentConfig(source=spec, method="lle-npe", dim=40, neighbors=5,
                           noise=pce.NoiseSpec("gaussian", 0.01), trials=3, base_seed=1)
    assert run_experiment(cfg).mean >= 0.95


@pytest.mark.parametrize("shape", [(60, 25), (25, 25), (25, 60)],
                         ids=["tall", "square", "wide"])
def test_lle_npe_solves_the_pencil_of_its_pca_coordinates(shape):
    # columns of falling scale, so the 98% cut drops part of the rank; theta is
    # U_r a for the top eigenvectors a of the pencil of Y = U_r' D
    rng = np.random.default_rng(sum(shape))
    d = rng.standard_normal(shape) * np.logspace(0, -1.5, shape[1])
    dim = 4
    cfg = ExperimentConfig(source="unused", method="lle-npe", dim=dim, neighbors=5)
    project, _ = evaluation._fit_method(cfg, pce.LabeledDataset(d, np.zeros(shape[1], int)))
    theta = project(np.eye(shape[0])).T
    r = evaluation._npe_pca(d).rank
    assert dim < r < min(shape)
    u_r = np.linalg.svd(d)[0][:, :r]
    y = u_r.T @ d
    a = lle_graph(d, 5)
    left = y @ (a + a.T - a @ a.T) @ y.T
    _, alpha = generalized_top_eigs(0.5 * (left + left.T), y @ y.T, dim)
    assert principal_angle(theta, u_r @ alpha) < 1e-6
    f = d.T @ theta
    assert np.abs(f.T @ f - np.eye(dim)).max() <= 1e-10


def flat_tail(shape, lead, tail_square, seed):
    """A matrix of ``shape`` with ``lead`` singular values 1 and the rest
    sqrt(tail_square), and those singular values."""
    rng = np.random.default_rng(seed)
    (m, n), k = shape, min(shape)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    sigma = np.full(k, np.sqrt(tail_square))
    sigma[:lead] = 1.0
    return (u * sigma) @ v.T, sigma


def check_pca_step(d, sigma, j):
    """``_npe_pca`` keeps the least r whose sigma^2 hold 98% of the energy of
    the known ``sigma``, within the 50 (n - r + 1) bound, and 2^j d gives
    the same U and V bits and 2^j times the sigma; returns r and
    sigma_1^2 / sigma_r^2."""
    n = d.shape[1]
    svd = evaluation._npe_pca(d)
    r = svd.rank
    energy = np.cumsum(sigma**2)
    assert r == 1 + int(np.argmax(energy >= 0.98 * energy[-1]))
    ratio = (svd.sigma[0] / svd.sigma[-1]) ** 2
    assert ratio < 50 * (n - r + 1) <= 50 * n
    assert np.abs(svd.sigma - sigma[:r]).max() <= 1e-12 * sigma[0]
    # U_r = x V_r Sigma_r^-1 is orthonormal to a few times 50 n ulps
    assert np.abs(svd.u.T @ svd.u - np.eye(r)).max() <= 5 * 50 * n * np.finfo(float).eps
    svd_j = evaluation._npe_pca(np.ldexp(d, j))
    for got, want in ((svd_j.u, svd.u), (svd_j.sigma, np.ldexp(svd.sigma, j)), (svd_j.v, svd.v)):
        assert np.array_equal(got, want)
    return r, ratio


SHAPES = [(120, 50), (50, 50), (50, 120)]


@pytest.mark.parametrize("shape", SHAPES, ids=["tall", "square", "wide"])
@pytest.mark.parametrize("j", [-500, -1, 0, 1, 255, 500])
def test_pca_step_bound_is_nearly_met_by_a_flat_tail(shape, j):
    # sigma = (1, t, ..., t) with its tail just past 2% of the energy: r = 2 and
    # sigma_1^2 / sigma_r^2 = 1 / t^2 = 49 k - 99 over 0.999, near the bound
    k = min(shape)
    d, sigma = flat_tail(shape, 1, 0.999 * 0.02 / (0.98 * k - 1.98), seed=k)
    r, ratio = check_pca_step(d, sigma, j)
    assert r == 2 and ratio > 0.9 * 50 * (k - 1)


@given(
    shape=st.sampled_from([(30, 12), (12, 12), (12, 30), (40, 40), (60, 25)]),
    lead=st.integers(1, 6),
    log_tail=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**16),
    j=st.integers(-500, 500),
)
@settings(max_examples=200, deadline=None)
def test_pca_step_keeps_the_least_r_for_98_percent(shape, lead, log_tail, seed, j):
    d, sigma = flat_tail(shape, lead, 10.0**log_tail, seed)
    energy = np.cumsum(sigma**2)
    # a cumulative energy within rounding of the cut could go either way
    assume(np.abs(energy / energy[-1] - 0.98).min() > 1e-9)
    check_pca_step(d, sigma, j)
    # the factors keep SvdFactors' contract: all min(m, n) values, sigma leading
    svd = evaluation._npe_pca(d)
    assert len(svd.spectrum) == min(shape)
    assert np.array_equal(svd.sigma, svd.spectrum[: svd.rank])


@pytest.mark.parametrize("noise", [None, pce.NoiseSpec("gaussian", 0.05)],
                         ids=["rank-4", "full-rank"])
def test_lle_npe_dim_above_r_is_bad_dim_naming_r(noise):
    # 20 x 10 train halves of two 2-d subspaces; with noise they have full rank,
    # but the 98% cut keeps fewer directions than dim = 8
    cfg = synthetic_config(method="lle-npe", dim=8, neighbors=3, noise=noise)
    ds = pce.generate_union_of_subspaces(cfg.source, 0)
    if noise is not None:
        ds = evaluation._apply_noise(ds, noise, 0)
    train, _ = pce.split(ds, 0.5, 0)
    r = evaluation._npe_pca(train.matrix).rank
    assert r < 8
    message = f"dim=8 exceeds the r={r} PCA directions that hold 0.98 of the energy"
    with pytest.raises(BadDim, match=re.escape(message)):
        run_experiment(cfg)


def test_pca_step_refuses_an_overflowing_sigma_as_skinny_svd_does():
    # every entry is finite, but sigma_1 (30 * 1e307 for ``flat``) is not: the
    # factors cannot hold it, so NPE's PCA step raises NonFinite, without a numpy
    # warning, as skinny_svd does; the 6 x 20 ``alternating`` takes its QR route
    flat = np.full((20, 30), 1e307)
    flat[0, 0] = 0.5e307
    alternating = np.random.default_rng(0).standard_normal((6, 20))
    alternating[0] = np.where(np.arange(20) % 2 == 0, 1.7e308, -1.7e308)
    for d in (flat, alternating, alternating.T):
        for take in (evaluation._npe_pca, pce.skinny_svd,
                     lambda d: pce.skinny_svd(d, right=False)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFinite, match="sigma_1 overflows"):
                    take(d)
