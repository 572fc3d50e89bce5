"""Properties of ``describe``, ``transform`` and ``pce spectrum`` on integer
pixel data (0-255) scaled by 10^x for |x| <= 200: k is the count of singular
values above lambda^(-1/2), the features of the training data are
orthonormal rows, and no warning is raised and no ``nan`` is written."""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pce
from pce.cli import main
from pce.linalg import numerical_rank
from pce.model import describe

EPS = np.finfo(float).eps
# the lambda drawn is clamped to this range of log lambda
LOG_LAM = (math.log(1e-300), math.log(1e300))


@st.composite
def pixel_problems(draw):
    """(d, lam): 0-255 integers times 10^x, and a lambda whose threshold
    lambda^(-1/2) falls between two drawn singular values (or past either end)."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pixels = draw(arrays(np.int64, (m, n), elements=st.integers(0, 255)))
    assume(pixels.any())
    exponent = draw(st.one_of(st.just(0.0), st.floats(-200.0, 200.0)))
    d = pixels * 10.0**exponent
    sigma = np.linalg.svd(d, compute_uv=False)
    logs = np.log(sigma[sigma > 0.0])
    # the threshold's log: j/100 of the way from logs[i] to logs[i - 1], with
    # 2 beyond either end as the outer bounds; i counts from the smallest
    bounds = np.concatenate([[logs[0] + 2.0], logs, [logs[-1] - 2.0]])
    i, j = len(logs) - draw(st.integers(0, len(logs))), draw(st.integers(1, 99))
    log_t = bounds[i + 1] + j / 100 * (bounds[i] - bounds[i + 1])
    lam = math.exp(min(max(-2.0 * log_t, LOG_LAM[0]), LOG_LAM[1]))
    return d, lam


def expected_k(d, lam):
    """#{sigma_i > lam^(-1/2)} among the numerical rank, formed in logs, or
    None when a singular value lies within 1e-6 of the threshold or of the
    rank tolerance, where rounding may decide."""
    sigma = np.linalg.svd(d, compute_uv=False)
    positive = sigma[sigma > 0.0]
    margin = np.log(positive) + 0.5 * math.log(lam)
    rank_margin = np.log(positive / (1e-12 * max(d.shape) * sigma[0]))
    if np.abs(margin).min() <= 1e-6 or np.abs(rank_margin).min() <= 1e-6:
        return None
    return int(np.count_nonzero(margin[: numerical_rank(sigma, d.shape)] > 0.0))


@given(problem=pixel_problems())
@settings(max_examples=300, deadline=None)
def test_pixel_data_at_any_scale(problem):
    d, lam = problem
    k = expected_k(d, lam)
    assume(k is not None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svd = pce.skinny_svd(d)
        summary = describe(svd.spectrum, lam, d.shape)
        assert summary.k == k
        assert math.isfinite(summary.error_norm)
        assert np.isfinite(summary.cumulative_energy).all()
        if k == 0:
            return
        model = pce.fit(d, lam)
        z = pce.transform(model, d)
    assert model.k == k
    # Z = Theta' D = V_k' up to rounding of order eps * sigma_1 / sigma_k
    kappa = svd.sigma[0] / svd.sigma[k - 1]
    tol = 100 * max(d.shape) * EPS * kappa
    assert np.abs(z @ z.T - np.eye(k)).max() <= tol


@given(problem=pixel_problems())
@settings(max_examples=100, deadline=None)
def test_pce_spectrum_of_pixel_data_at_any_scale(problem):
    d, lam = problem
    k = expected_k(d, lam)
    assume(k is not None)
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "d.txt", Path(tmp) / "spectrum.csv"
        pce.save_matrix(d, data)
        printed = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(printed):
            warnings.simplefilter("error")
            code = main(["spectrum", str(data), "--lambda", repr(lam), "--output", str(out)])
        assert code == 0
        text = out.read_text()
    assert "nan" not in text and "inf" not in text
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert len(rows) == min(d.shape)
    assert sum(int(row[2]) for row in rows) == k
    assert f"k={k}" in printed.getvalue().splitlines()
