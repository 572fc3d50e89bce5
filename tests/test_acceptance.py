"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import csv
import time

import numpy as np
import pytest

import pce
from pce.cli import load_model, main
from pce.evaluation import nn_classify, pca_fit
from pce.model import estimate_dimension
from reference import argmin_oracle, generalized_top_eigs

BENCH_SPEC = pce.SubspaceSpec(ambient=50, subspaces=((4, 20),) * 5)


def _passed(name):
    print(f"acceptance[{name}]: PASS")


def principal_angle(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def noisy_benchmark(seed):
    """Criterion 5's data: 5 orthogonal 4-dim subspaces plus gaussian noise at
    5% of the smallest clean singular value (in spectral-norm scale), with
    lambda placed between the 20th and 21st squared singular values."""
    ds = pce.generate_union_of_subspaces(BENCH_SPEC, seed)
    clean = ds.matrix
    smin = np.linalg.svd(clean, compute_uv=False)[19]
    m, n = clean.shape
    rho = 0.05 * smin / (np.sqrt(m) + np.sqrt(n))
    noisy = pce.add_gaussian_noise(clean, rho, seed=seed)
    return pce.LabeledDataset(noisy, ds.labels), smin


def test_criterion_1_dimension_estimator_oracle():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        sigma = np.sort(10 ** rng.uniform(-4, 4, size=length))[::-1]
        for lam in (0.01, 1.0, 100.0):
            k = estimate_dimension(sigma, lam)
            assert k == argmin_oracle(sigma, lam)
            if np.min(np.abs(lam * sigma**2 - 1.0)) > 1e-9:
                assert k == int(np.count_nonzero(lam * sigma**2 > 1.0))
    assert time.perf_counter() - start < 5.0
    _passed("1 dimension-estimator oracle equivalence")


def test_criterion_2_pseudoinverse_equivalence():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _ in range(100):
        m = int(rng.integers(4, 65))
        n = int(rng.integers(4, 65))
        r = int(rng.integers(1, min(m, n)))
        d = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        svd = pce.skinny_svd(d)
        proj = svd.v @ svd.v.T
        assert np.linalg.norm(np.linalg.pinv(d) @ d - proj) < 1e-8
    assert time.perf_counter() - start < 10.0
    _passed("2 minimal-norm self-expression equals right-singular projector")


def test_criterion_3_recovery_correctness():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        m = int(rng.integers(4, 40))
        n = int(rng.integers(4, 40))
        d = rng.standard_normal((m, n))
        lam = 10 ** rng.uniform(-1, 2)
        svd = pce.skinny_svd(d)
        try:
            vk = pce.principal_coefficients(svd, lam)
        except pce.errors.DegenerateDimension:
            continue
        d0, _ = pce.recover_clean(svd, vk.shape[1])
        tail = np.sqrt(np.sum(svd.spectrum[vk.shape[1] :] ** 2))
        residual = np.linalg.norm(d - d0)
        assert residual == pytest.approx(tail, rel=1e-8, abs=1e-8)
        c = vk @ vk.T
        assert np.linalg.norm(d0 @ c - d0) < 1e-8
        checked += 1
    assert time.perf_counter() - start < 10.0
    _passed("3 recovery residual and self-expression")


def test_criterion_4_block_diagonal_affinity():
    start = time.perf_counter()
    for seed in range(20):
        ds = pce.generate_union_of_subspaces(BENCH_SPEC, seed)
        svd = pce.skinny_svd(ds.matrix)
        lam = 2.0 / svd.sigma[19] ** 2
        vk = pce.principal_coefficients(svd, lam)
        c = vk @ vk.T
        cross = c[ds.labels[:, None] != ds.labels[None, :]]
        assert np.max(np.abs(cross)) < 1e-8
    assert time.perf_counter() - start < 10.0
    _passed("4 block-diagonal affinity on independent subspaces")


def test_criterion_5_dimension_recovery_under_noise():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        ds, smin = noisy_benchmark(seed)
        svd = pce.skinny_svd(ds.matrix)
        lam = 2.0 / svd.sigma[19] ** 2
        if estimate_dimension(svd.sigma, lam) == 20:
            hits += 1
    assert hits >= 19
    assert time.perf_counter() - start < 30.0
    _passed(f"5 dimension recovery under noise ({hits}/20 seeds)")


def test_criterion_6_embedding_contract():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        m = int(rng.integers(4, 33))
        n = int(rng.integers(4, 33))
        d = rng.standard_normal((m, n))
        lam = 10 ** rng.uniform(-0.5, 1.5)
        svd = pce.skinny_svd(d)
        try:
            vk = pce.principal_coefficients(svd, lam)
        except pce.errors.DegenerateDimension:
            continue
        model = pce.fit(d, lam)
        k, theta = model.k, model.theta
        assert np.allclose(theta.T @ d @ d.T @ theta, np.eye(k), atol=1e-8)
        w = svd.sigma[:, None] * (svd.v.T @ vk)
        values, _ = generalized_top_eigs(
            w @ w.T, np.diag(svd.sigma**2), svd.rank
        )
        assert np.all(np.abs(values[:k] - 1.0) < 1e-6)
        assert int(np.count_nonzero(values > 1e-8)) == k
        reference = svd.u[:, :k] / svd.sigma[:k]
        assert principal_angle(theta, reference) < 1e-6
        checked += 1
    assert time.perf_counter() - start < 20.0
    _passed("6 embedding contract and eigenvalue degeneracy")


def test_criterion_7_end_to_end_classification():
    start = time.perf_counter()
    pce_accs, pca_accs = [], []
    for trial in range(10):
        ds, _ = noisy_benchmark(trial)
        train, test = pce.split(ds, 0.5, trial)
        svd = pce.skinny_svd(train.matrix)
        lam = 2.0 / svd.sigma[19] ** 2
        model = pce.fit(train.matrix, lam)
        predicted = nn_classify(
            pce.transform(model, train.matrix),
            train.labels,
            pce.transform(model, test.matrix),
        )
        pce_accs.append(pce.accuracy(predicted, test.labels))
        baseline = pca_fit(train.matrix, model.k)
        predicted = nn_classify(
            pce.transform(baseline, train.matrix),
            train.labels,
            pce.transform(baseline, test.matrix),
        )
        pca_accs.append(pce.accuracy(predicted, test.labels))
    assert np.mean(pce_accs) >= 0.95
    assert np.mean(pce_accs) >= np.mean(pca_accs)
    assert time.perf_counter() - start < 60.0
    _passed(
        f"7 end-to-end classification (pce {np.mean(pce_accs):.3f} "
        f"vs pca {np.mean(pca_accs):.3f})"
    )


def test_criterion_8_lambda_sweep_monotone(tmp_path):
    start = time.perf_counter()
    ds, _ = noisy_benchmark(0)
    data = tmp_path / "bench.txt"
    pce.save_matrix(ds, data)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(data), "--lambdas", "1:99:2", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        ks = [int(row["k"]) for row in csv.DictReader(fh)]
    assert len(ks) == 50
    assert ks == sorted(ks)
    assert time.perf_counter() - start < 30.0
    _passed("8 lambda sweep yields nondecreasing k")


def test_criterion_9_scaling_sanity(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--sizes",
            "256x500,256x1000,256x2000,256x4000",
            "--repeats",
            "5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = [(int(r["n"]), float(r["fit_s"])) for r in csv.DictReader(fh)]
    (n1, t1), (n2, t2) = rows[0], rows[1]
    # quadratic-in-n model t = a + b n^2 through the first two points
    b = (t2 - t1) / (n2**2 - n1**2)
    a = t1 - b * n1**2
    for n, t in rows[2:]:
        assert t <= 1.2 * (a + b * n**2), f"n={n}: {t:.3f}s vs model"
    assert time.perf_counter() - start < 300.0
    _passed("9 fit time within the quadratic scaling bound")


def test_criterion_10_determinism_and_persistence(tmp_path):
    start = time.perf_counter()
    ds, _ = noisy_benchmark(1)
    data = tmp_path / "data.txt"
    pce.save_matrix(ds, data)
    reloaded = pce.load_matrix(data)
    assert np.array_equal(reloaded.matrix, ds.matrix)
    assert np.array_equal(reloaded.labels, ds.labels)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["fit", str(data), "--lambda", "5", "--output", str(a)]) == 0
    assert main(["fit", str(data), "--lambda", "5", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    model = load_model(a)
    refit = pce.fit(ds.matrix, 5.0)
    assert np.array_equal(model.theta, refit.theta)
    assert np.array_equal(model.spectrum, refit.spectrum)
    assert time.perf_counter() - start < 5.0
    _passed("10 determinism and float-exact persistence")
