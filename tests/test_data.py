import os
import re
import stat
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pce
from pce import data
from pce.errors import (
    DimensionMismatch,
    NonFinite,
    ParseError,
    PceError,
    TooFewSamples,
)
from pce.model import describe


def test_orthogonal_lines():
    spec = pce.SubspaceSpec(ambient=4, subspaces=((1, 3), (1, 3)))
    ds = pce.generate_union_of_subspaces(spec, seed=1)
    assert ds.matrix.shape == (4, 6)
    assert np.linalg.matrix_rank(ds.matrix) == 2
    assert list(ds.labels) == [0, 0, 0, 1, 1, 1]


def test_independent_subspace_rank():
    spec = pce.SubspaceSpec(ambient=50, subspaces=((4, 20),) * 5)
    ds = pce.generate_union_of_subspaces(spec, seed=3)
    assert np.linalg.matrix_rank(ds.matrix) == 20


def test_generation_deterministic():
    spec = pce.SubspaceSpec(ambient=10, subspaces=((2, 5), (3, 6)))
    a = pce.generate_union_of_subspaces(spec, seed=9)
    b = pce.generate_union_of_subspaces(spec, seed=9)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.labels, b.labels)


def test_random_gaussian_basis_and_coefficient_scale():
    # independent bases may hold more dimensions than the ambient space
    spec = pce.SubspaceSpec(
        ambient=6, subspaces=((2, 5), (3, 6), (4, 8)), coeff_scale=2.5,
        basis_rule="random-gaussian",
    )
    ds = pce.generate_union_of_subspaces(spec, seed=4)
    assert ds.matrix.shape == (6, 19)
    assert list(ds.labels) == [0] * 5 + [1] * 6 + [2] * 8
    for cls, (dim, _) in enumerate(spec.subspaces):
        assert np.linalg.matrix_rank(ds.matrix[:, ds.labels == cls]) == dim
    again = pce.generate_union_of_subspaces(spec, seed=4)
    assert np.array_equal(again.matrix, ds.matrix)
    # the same draws at scale 1: coefficients are uniform on [-scale, scale]
    unit = pce.generate_union_of_subspaces(replace(spec, coeff_scale=1.0), seed=4)
    assert np.allclose(ds.matrix, 2.5 * unit.matrix, rtol=1e-12, atol=1e-12)


def test_infeasible_specs():
    with pytest.raises(ValueError):
        pce.generate_union_of_subspaces(
            pce.SubspaceSpec(ambient=3, subspaces=((2, 4), (2, 4))), seed=0
        )
    with pytest.raises(ValueError):
        pce.generate_union_of_subspaces(
            pce.SubspaceSpec(ambient=8, subspaces=((3, 2),)), seed=0
        )
    with pytest.raises(ValueError, match="at least one subspace"):
        pce.SubspaceSpec(ambient=5, subspaces=())
    # the random-gaussian rule has no sum-of-dims bound to catch these
    for ambient in (0, -5):
        with pytest.raises(ValueError, match=f"ambient dimension {ambient} must be"):
            pce.SubspaceSpec(ambient=ambient, subspaces=((1, 3), (1, 3)),
                             basis_rule="random-gaussian")


def test_gaussian_noise_moments():
    noisy = pce.add_gaussian_noise(np.zeros((100, 10)), rho=1.0, seed=0)
    assert abs(noisy.mean()) < 4 / np.sqrt(1000)
    assert noisy.var() == pytest.approx(1.0, rel=0.1)


def test_gaussian_noise_small_rho_close_to_input():
    d = np.random.default_rng(0).standard_normal((6, 6))
    noisy = pce.add_gaussian_noise(d, rho=1e-12, seed=1)
    assert np.allclose(noisy, d, atol=1e-10)


def test_gaussian_noise_clip():
    d = np.full((20, 20), 254.9)
    noisy = pce.add_gaussian_noise(d, rho=10.0, clip=(0.0, 255.0), seed=2)
    assert noisy.max() <= 255.0
    assert noisy.min() >= 0.0


@pytest.mark.parametrize(
    "clip", [(1.0, -1.0), (float("nan"), 1.0), (0.0, 0.0), (0.0,)],
    ids=["inverted", "nan", "empty", "one-bound"],
)
def test_bad_clip_rejected(clip):
    with pytest.raises(ValueError, match="lo < hi"):
        pce.NoiseSpec("gaussian", 0.1, clip=clip)
    with pytest.raises(ValueError, match="lo < hi"):
        pce.add_gaussian_noise(np.zeros((3, 2)), 0.1, clip=clip)


def test_pixel_noise_refuses_a_clip():
    # pixel corruption never reads clip, so giving one is an input error
    with pytest.raises(ValueError, match="pixel noise takes no clip"):
        pce.NoiseSpec("pixel", 0.1, clip=(0.0, 1.0))


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -0.5],
                         ids=["nan", "inf", "negative"])
def test_bad_gaussian_rho_rejected(rho):
    with pytest.raises(ValueError, match="finite and >= 0"):
        pce.NoiseSpec("gaussian", rho)
    with pytest.raises(ValueError, match="finite and >= 0"):
        pce.add_gaussian_noise(np.zeros((3, 2)), rho)


def test_gaussian_noise_zero_rho_is_identity():
    d = np.arange(6.0).reshape(3, 2)
    pce.NoiseSpec("gaussian", 0.0)
    assert np.array_equal(pce.add_gaussian_noise(d, 0.0, seed=5), d)


def test_gaussian_noise_infinite_clip_bound():
    clip = (0.0, float("inf"))
    pce.NoiseSpec("gaussian", 0.1, clip=clip)
    noisy = pce.add_gaussian_noise(np.zeros((30, 20)), 1.0, clip=clip, seed=4)
    assert noisy.min() == 0.0 and noisy.max() > 0.0


def test_gaussian_noise_overflow_without_clip_is_non_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"rho=1\.7e\+308 overflows"):
            pce.add_gaussian_noise(np.ones((4, 5)), 1.7e308, seed=3)


def test_gaussian_noise_overflow_with_clip_lands_on_the_bounds():
    # the bits of clip(rho * z + d) with each overflow taken as +-inf
    d = np.ones((4, 5))
    z = np.random.default_rng([3, 1]).standard_normal((5, 4)).T
    with np.errstate(over="ignore"):
        expected = np.clip(z * 1.7e308 + d, -5.0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        noisy = pce.add_gaussian_noise(d, 1.7e308, clip=(-5.0, 5.0), seed=3)
    assert noisy.tobytes() == expected.tobytes()
    assert set(np.unique(noisy)) == {-5.0, 5.0}


def test_gaussian_noise_deterministic():
    d = np.ones((8, 5))
    a = pce.add_gaussian_noise(d, 0.3, seed=7)
    b = pce.add_gaussian_noise(d, 0.3, seed=7)
    assert np.array_equal(a, b)


def test_pixel_corruption_full_replacement():
    d = np.random.default_rng(1).uniform(1.0, 9.0, size=(30, 8))
    out = pce.add_pixel_corruption(d, rho=1.0, seed=0)
    pmax = d.max(axis=0)
    assert np.all(out >= 0.0)
    assert np.all(out <= pmax[None, :] + 1e-12)


def test_pixel_corruption_count():
    d = np.random.default_rng(2).standard_normal((100, 12))
    out = pce.add_pixel_corruption(d, rho=0.1, seed=3)
    changed = (out != d).sum(axis=0)
    assert np.all(changed == 10)


def test_pixel_corruption_zero_column_unchanged():
    d = np.zeros((10, 3))
    out = pce.add_pixel_corruption(d, rho=0.5, seed=4)
    assert np.array_equal(out, d)


def test_pixel_corruption_of_negative_columns():
    # a column whose max is negative draws over [max, 0]; one whose max is
    # >= 0 keeps the draw over [0, max], stream and bits
    d = -np.random.default_rng(5).uniform(1.0, 9.0, size=(30, 4))
    d[0, 0] = 2.0
    out = pce.add_pixel_corruption(d, rho=1.0, seed=6)
    pmax = d.max(axis=0)
    assert np.all((out[:, 1:] >= pmax[1:]) & (out[:, 1:] <= 0.0))
    rng = np.random.default_rng([6, 1])
    rows = rng.choice(30, size=30, replace=False)
    expected = np.empty(30)
    expected[rows] = rng.uniform(0.0, 2.0, size=30)
    assert np.array_equal(out[:, 0], expected)


@pytest.mark.parametrize("corrupt", [
    lambda d: pce.add_gaussian_noise(d, 0.1, seed=1),
    lambda d: pce.add_pixel_corruption(d, 0.5, seed=1),
], ids=["gaussian", "pixel"])
def test_noise_of_a_vector_is_dimension_mismatch(corrupt):
    with pytest.raises(DimensionMismatch, match="2-d matrix"):
        corrupt(np.ones(5))


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_noise_does_not_reuse_the_generators_draws(seed):
    # the generator and split draw from default_rng(seed); noise must not
    m = 40
    rng = np.random.default_rng(seed)
    assert not np.array_equal(
        pce.add_gaussian_noise(np.zeros((m, 3)), 1.0, seed=seed)[:, 0],
        rng.standard_normal(m))
    rng = np.random.default_rng(seed)
    rows = rng.choice(m, size=20, replace=False)
    reused = np.ones(m)
    reused[rows] = rng.uniform(0.0, 1.0, size=20)
    out = pce.add_pixel_corruption(np.ones((m, 3)), 0.5, seed=seed)
    assert not np.array_equal(out[:, 0], reused)


@pytest.mark.parametrize("corrupt", [
    lambda d: pce.add_gaussian_noise(d, 0.3, seed=4),
    lambda d: pce.add_gaussian_noise(d, 2.0, clip=(-1.0, 1.0), seed=4),
    lambda d: pce.add_pixel_corruption(d, 0.3, seed=4),
], ids=["gaussian", "gaussian-clipped", "pixel"])
def test_noise_of_leading_columns_is_leading_columns_of_noise(corrupt):
    # column j's noise depends only on (seed, j, m), in either memory order
    d = np.random.default_rng(11).uniform(-2.0, 3.0, size=(25, 12))
    d[:, 4] = -np.abs(d[:, 4]) - 1.0
    d[:, 7] = 0.0
    full = corrupt(d)
    for order in "CF":
        copy = np.array(d, order=order)
        for p in (1, 5, 12):
            assert np.array_equal(corrupt(copy[:, :p]), full[:, :p])


def reference_union(spec, seed):
    """The generator as a C-order stack of per-class blocks."""
    rng = np.random.default_rng(seed)
    dims = [d for d, _ in spec.subspaces]
    if spec.basis_rule == "independent-orthogonal":
        frame, _ = np.linalg.qr(rng.standard_normal((spec.ambient, sum(dims))))
        starts = np.cumsum([0] + dims)
        bases = [frame[:, a:b] for a, b in zip(starts, starts[1:])]
    else:
        bases = [np.linalg.qr(rng.standard_normal((spec.ambient, d)))[0] for d in dims]
    scale = spec.coeff_scale
    blocks = [basis @ rng.uniform(-scale, scale, size=(d, c))
              for basis, (d, c) in zip(bases, spec.subspaces)]
    return np.ascontiguousarray(np.hstack(blocks))


@pytest.mark.parametrize("rule", ["independent-orthogonal", "random-gaussian"])
def test_samples_are_column_major_with_the_reference_bits(rule):
    spec = pce.SubspaceSpec(ambient=30, subspaces=((2, 7), (3, 5), (1, 4)),
                            coeff_scale=3.0, basis_rule=rule)
    ds = pce.generate_union_of_subspaces(spec, seed=8)
    assert ds.matrix.flags.f_contiguous
    assert np.array_equal(ds.matrix, reference_union(spec, 8))
    assert np.array_equal(ds.labels, np.repeat([0, 1, 2], [7, 5, 4]))
    c_order = np.ascontiguousarray(ds.matrix)
    m, n = c_order.shape
    # per-column reference loops over one stream, written into C-order arrays
    noisy = np.empty((m, n))
    rng = np.random.default_rng([9, 1])
    for j in range(n):
        noisy[:, j] = c_order[:, j] + 0.2 * rng.standard_normal(m)
    np.clip(noisy, -1.0, 1.0, out=noisy)
    corrupted = c_order.copy()
    rng = np.random.default_rng([9, 1])
    for j in range(n):
        rows = rng.choice(m, size=6, replace=False)
        pmax = c_order[:, j].max()
        corrupted[rows, j] = rng.uniform(min(0.0, pmax), max(0.0, pmax), size=6)
    for out, expected in [
        (pce.add_gaussian_noise(c_order, 0.2, clip=(-1.0, 1.0), seed=9), noisy),
        (pce.add_pixel_corruption(c_order, 0.2, seed=9), corrupted),
    ]:
        assert out.flags.f_contiguous
        assert np.array_equal(out, expected)


def test_split_keeps_its_bits_in_either_order():
    ds = pce.generate_union_of_subspaces(
        pce.SubspaceSpec(ambient=12, subspaces=((2, 9), (3, 11))), seed=10)
    halves = {}
    for order in "CF":
        copy = pce.LabeledDataset(np.array(ds.matrix, order=order), ds.labels)
        halves[order] = pce.split(copy, 0.5, seed=10)
    for c_half, f_half in zip(halves["C"], halves["F"]):
        assert np.array_equal(c_half.matrix, f_half.matrix)
        assert np.array_equal(c_half.labels, f_half.labels)
        assert f_half.matrix.flags.f_contiguous


def test_a_missing_seed_is_refused():
    # seeds are explicit integers: None does not fall back to fresh entropy
    spec = pce.SubspaceSpec(ambient=4, subspaces=((1, 3), (1, 3)))
    ds = pce.generate_union_of_subspaces(spec, seed=1)
    for call in (lambda: pce.generate_union_of_subspaces(spec, seed=None),
                 lambda: pce.split(ds, 0.5, seed=None),
                 lambda: pce.add_gaussian_noise(ds.matrix, 0.1, seed=None),
                 lambda: pce.add_pixel_corruption(ds.matrix, 0.5, seed=None)):
        with pytest.raises(TypeError):
            call()


def test_split_even():
    ds = pce.LabeledDataset(
        np.arange(40, dtype=float).reshape(2, 20), np.repeat([0, 1], 10)
    )
    train, test = pce.split(ds, 0.5, seed=0)
    for cls in (0, 1):
        assert (train.labels == cls).sum() == 5
        assert (test.labels == cls).sum() == 5
    merged = np.sort(np.concatenate([train.matrix[0], test.matrix[0]]))
    assert np.array_equal(merged, ds.matrix[0])


def test_split_round_half_up():
    ds = pce.LabeledDataset(np.zeros((1, 10)), np.zeros(10, dtype=int))
    train, _ = pce.split(ds, 0.7, seed=1)
    assert train.matrix.shape[1] == 7


def test_split_deterministic_and_small_class():
    ds = pce.LabeledDataset(np.zeros((2, 8)), np.repeat([0, 1], 4))
    a = pce.split(ds, 0.5, seed=5)
    b = pce.split(ds, 0.5, seed=5)
    assert np.array_equal(a[0].labels, b[0].labels)
    tiny = pce.LabeledDataset(np.zeros((2, 3)), np.array([0, 0, 1]))
    with pytest.raises(TooFewSamples):
        pce.split(tiny, 0.5, seed=0)
    with pytest.raises(ParseError, match="split needs a labeled pce-dataset file"):
        pce.split(pce.LabeledDataset(np.zeros((2, 8)), None), 0.5, seed=5)
    with pytest.raises(ValueError, match="train_fraction must lie in"):
        pce.split(ds, 1.0, 0)
    with pytest.raises(DimensionMismatch, match="2 labels for 3 columns"):
        pce.LabeledDataset(np.zeros((2, 3)), [0, 1])


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    ds = pce.LabeledDataset(
        rng.standard_normal((8, 6)), np.array([0, 0, 1, 1, 2, 2]), {"source": "test"}
    )
    path = tmp_path / "ds.txt"
    pce.save_matrix(ds, path)
    loaded = pce.load_matrix(path)
    assert np.array_equal(loaded.matrix, ds.matrix)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.meta["source"] == "test"


def test_meta_value_whitespace_roundtrip(tmp_path):
    # only the key is stripped; the value after '=' reads back as written
    meta = {"source": "  d.txt \t ", "note": " x"}
    ds = pce.LabeledDataset(np.eye(2), np.array([0, 1]), meta)
    path = tmp_path / "ds.txt"
    pce.save_matrix(ds, path)
    assert pce.load_matrix(path).meta == meta


@pytest.mark.parametrize(
    "text, message",
    [("pce-matrix v1 m=1 n=2 m=1\n1 2\n", "line 1: m= is given again (first on line 1)"),
     ("pce-matrix v1 m=1 n=2\n# meta a=x\n# meta a=x\n1 2\n",
      "line 3: a= is given again (first on line 2)")],
    ids=["header", "meta"],
)
def test_repeated_key_names_both_lines(tmp_path, text, message):
    path = tmp_path / "twice.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        pce.load_matrix(path)


def test_matrix_roundtrip(tmp_path):
    m = np.random.default_rng(7).standard_normal((4, 9))
    path = tmp_path / "m.txt"
    pce.save_matrix(m, path)
    loaded = pce.load_matrix(path)
    assert np.array_equal(loaded.matrix, m)
    assert loaded.labels is None


@pytest.mark.parametrize(
    "text",
    ["pce-matrix v1 m=2 n=2\n1.0 -2.5\n3.0 4.0\n",
     "pce-matrix v1 m=2 n=2\n# meta source=d.txt\n# meta unlabeled=false\n1.0 -2.5\n3.0 4.0\n"],
    ids=["plain", "meta"],
)
def test_matrix_file_saves_back_to_its_bytes(tmp_path, text):
    # a pce-matrix file stays one: its '# meta' lines are kept, no labels appear
    path, again = tmp_path / "m.txt", tmp_path / "again.txt"
    path.write_text(text)
    pce.save_matrix(pce.load_matrix(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "matrix, error",
    [(np.array([[1.0, np.nan], [1.0, 1.0]]), NonFinite), (np.ones((2, 0)), DimensionMismatch)],
    ids=["nan", "m-by-0"],
)
@pytest.mark.parametrize("labeled", [False, True])
def test_save_matrix_writes_only_what_load_matrix_reads(tmp_path, matrix, error, labeled):
    # the matrix goes through load_matrix's own rules before a byte is written
    obj = pce.LabeledDataset(matrix, np.zeros(matrix.shape[1], dtype=int)) if labeled else matrix
    path = tmp_path / "m.txt"
    with pytest.raises(error):
        pce.save_matrix(obj, path)
    assert not path.exists()


def test_ragged_row_named(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("pce-matrix v1 m=2 n=3\n1.0 2.0 3.0\n1.0 2.0\n")
    with pytest.raises(ParseError, match="row 1"):
        pce.load_matrix(path)


def test_header_body_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("pce-dataset v1 m=1 n=3 classes=1\n0 0\n1.0 2.0 3.0\n")
    with pytest.raises(ParseError):
        pce.load_matrix(path)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ParseError):
        pce.load_matrix(path)
    for text, message in [
        ("pce-matrix v2 m=1 n=1\n1\n", "line 1: unsupported format version ['v2']"),
        ("pce-matrix v1 m=a n=1\n1\n", "line 1: bad header field 'm=a'"),
        ("pce-matrix v1 n=1\n1\n", "line 1: header missing m="),
        ("# only a comment\n", "line 1: empty file"),
        ("pce-dataset v1 m=1 n=2 classes=1\n", "line 1: missing labels line"),
        ("pce-dataset v1 m=1 n=2 classes=3\n0 1\n1 2\n",
         "line 2: labels imply 2 classes, header says 3"),
        # a header holds m, n and, for pce-dataset, classes; nothing else
        ("# a comment\npce-matrix v1 m=1 n=2 foo=7 classes=3\n1 2\n",
         "line 2: unknown header field foo="),
        ("pce-matrix v1 m=1 n=2 classes=2\n1 2\n", "line 1: unknown header field classes="),
        ("pce-dataset v1 m=1 n=2 classes=2 foo=7\n0 1\n1 2\n",
         "line 1: unknown header field foo="),
    ]:
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            pce.load_matrix(path)
        assert str(info.value) == message


def test_unknown_model_field_is_a_parse_error(tmp_path):
    path = tmp_path / "model.txt"
    data.save_model(pce.fit(np.random.default_rng(0).standard_normal((5, 7)), 3.0), path)
    lines = path.read_text().splitlines()
    at = lines.index("theta:")
    lines.insert(at, "bogus=1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        data.load_model(path)
    assert str(info.value) == f"line {at + 1}: unknown model field bogus="


@pytest.mark.parametrize(
    "header", ["pce-matrix v1 m=0 n=-1", "pce-matrix v1 m=0 n=3",
               "pce-dataset v1 m=2 n=0 classes=1"],
    ids=["negative-cols", "zero-rows", "zero-cols"],
)
def test_nonpositive_header_size(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    with pytest.raises(ParseError, match="must be >= 1"):
        pce.load_matrix(path)


def test_comments_ignored(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# leading comment\npce-matrix v1 m=1 n=2\n# inner\n1.5 -2.25\n")
    loaded = pce.load_matrix(path)
    assert np.array_equal(loaded.matrix, [[1.5, -2.25]])


def test_noise_then_recover_contracts():
    spec = pce.SubspaceSpec(ambient=30, subspaces=((3, 15), (3, 15)))
    ds = pce.generate_union_of_subspaces(spec, seed=11)
    clean = ds.matrix
    rank = np.linalg.matrix_rank(clean)
    noisy = pce.add_gaussian_noise(clean, rho=0.01, seed=12)
    added = noisy - clean
    svd = pce.skinny_svd(noisy)
    assert svd.spectrum[rank] > 0.0
    d0, _ = pce.recover_clean(svd, rank)
    assert np.linalg.norm(d0 - clean) <= np.linalg.norm(added) + 1e-12


def _failing_on_third_call(real):
    calls = []

    def fake(values):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("third row")
        return real(values)

    return fake


@pytest.mark.parametrize("writer", ["save_matrix", "save_model", "write_csv"])
def test_failed_write_keeps_target(tmp_path, monkeypatch, writer):
    # the rows are formatted while the temp file is open: a failure on the
    # third row leaves the old target and no temp file behind
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n")
    fake = _failing_on_third_call(data._format_floats)
    monkeypatch.setattr(data, "_format_floats", fake)
    d = np.arange(20.0).reshape(5, 4)
    with pytest.raises(RuntimeError, match="third row"):
        if writer == "save_matrix":
            data.save_matrix(d, target)
        elif writer == "save_model":
            data.save_model(pce.fit(d), target)
        else:
            data.write_csv(target, ("a", "b"), (data._format_floats(row) for row in d))
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _fitted(shape=(4, 6), **changes):
    """A model ``pce.fit`` makes, with ``changes`` made to its fields."""
    return replace(pce.fit(np.random.default_rng(5).standard_normal(shape)), **changes)


def _save_unchecked(model, path):
    # the file a writer without save_model's model check leaves
    with mock.patch.object(data, "_check_model", lambda model: model):
        data.save_model(model, path)


def _inf_theta():
    model = _fitted()
    theta = model.theta.copy()
    theta[1, 0] = np.inf
    return replace(model, theta=theta)


@pytest.mark.parametrize(
    "model, error",
    [
        (pce.PceModel(1.0, np.ones((4, 3)), np.array([2, 2, 0.5, 0.5]), 4), ParseError),
        (pce.PceModel(1.0, np.arange(20.0).reshape(5, 4), np.ones(4), 4), ParseError),
        (_fitted(lam=float("nan")), ParseError),
        (_inf_theta(), ParseError),
        (_fitted(center=np.ones(3)), ParseError),
    ],
    ids=["k-wider-than-lambda-keeps", "lambda-keeps-none", "nan-lambda", "inf-theta",
         "short-center"],
)
def test_save_model_refuses_what_load_model_refuses(tmp_path, model, error):
    # the error is the one load_model gives the unchecked file (both exit 1 in
    # pce), and it comes before a temp file is made, so the target is kept
    unchecked = tmp_path / "unchecked.txt"
    _save_unchecked(model, unchecked)
    with pytest.raises(error) as loaded:
        data.load_model(unchecked)
    assert type(loaded.value) is error
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(error) as saved:
        data.save_model(model, target)
    assert type(saved.value) is error
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "unchecked.txt"]


def test_save_model_refuses_a_column_count_that_is_not_an_int(tmp_path):
    # "n=8.0" is not an int to load_model; the writer stops before it opens a file
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(ValueError):
        data.save_model(_fitted(shape=(6, 8), train_cols=8.0), target)
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.txt"]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hand_built_models(draw):
    """PceModels with drawn fields, of which a model file admits about a third:
    each field is drawn from its valid values most of the time, and k is
    often the k that describe keeps."""
    def rarely():
        return draw(st.integers(0, 4)) == 0

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = min(m, n) + (draw(st.sampled_from([1, -1])) if rarely() else 0)
    values = st.floats() if rarely() else st.floats(0, 1e300)
    spectrum = np.sort(draw(st.lists(values, min_size=size, max_size=size)))[::-1]
    lam = draw(st.floats() if rarely() else st.floats(1e-300, 1e300))
    try:
        kept = describe(spectrum, lam, (m, n)).k
    except (PceError, ValueError):
        kept = 1
    k = draw(st.integers(0, min(m, n) + 1)) if rarely() else kept
    theta = np.array(draw(st.lists(FINITE, min_size=m * k, max_size=m * k))).reshape(m, k)
    if m * k and rarely():
        theta.flat[draw(st.integers(0, m * k - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    center = None
    if draw(st.booleans()):
        rows = m + (draw(st.sampled_from([1, -1])) if rarely() else 0)
        center = np.array(draw(st.lists(FINITE, min_size=rows, max_size=rows)))
    return pce.PceModel(lam, theta, spectrum, n, center)


@given(model=hand_built_models())
@settings(max_examples=300, deadline=None)
def test_save_model_writes_only_files_that_load_back(model):
    # either save_model raises the error load_model gives the unchecked file,
    # or what it writes loads back bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        path, unchecked = Path(tmp, "model.txt"), Path(tmp, "unchecked.txt")
        _save_unchecked(model, unchecked)
        try:
            data.save_model(model, path)
        except ParseError as exc:
            assert not path.exists()
            with pytest.raises(type(exc)):
                data.load_model(unchecked)
            return
        loaded = data.load_model(path)
    assert np.float64(loaded.lam).tobytes() == np.float64(model.lam).tobytes()
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert loaded.spectrum.tobytes() == model.spectrum.tobytes()
    assert loaded.train_cols == model.train_cols
    if model.center is None:
        assert loaded.center is None
    else:
        assert loaded.center.tobytes() == model.center.tobytes()


@pytest.mark.parametrize(
    "umask, new_mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"]
)
def test_output_mode_as_open_gives(tmp_path, umask, new_mode):
    # a new file gets 0o666 less the umask, an existing one keeps its mode
    new, existing = tmp_path / "new.txt", tmp_path / "existing.txt"
    existing.write_text("old\n")
    existing.chmod(0o640)
    saved = os.umask(umask)
    try:
        data.atomic_write(new, ["x"])
        data.atomic_write(existing, ["x"])
    finally:
        os.umask(saved)
    assert stat.S_IMODE(new.stat().st_mode) == new_mode
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    assert existing.read_text() == "x\n"


def test_not_utf8_names_its_line(tmp_path):
    # the file is decoded line by line, so the error can say where
    path = tmp_path / "bad.txt"
    path.write_bytes(b"pce-matrix v1 m=1 n=1\n" + b"# " + b"x" * 9000 + b"\n1.0 \xff\n")
    with pytest.raises(ParseError, match="line 3: .* is not UTF-8 text"):
        pce.load_matrix(path)


def test_large_save_and_load_memory(tmp_path):
    # writes stream one row at a time; a read holds the lines, not the text too
    d = np.random.default_rng(8).standard_normal((512, 1000))
    fitted = pce.fit(d, 1e6)
    matrix_path, model_path = tmp_path / "d.txt", tmp_path / "m.txt"

    def peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(data.save_matrix, d, matrix_path) < 2**20
    assert peak(data.save_model, fitted, model_path) < 2**20
    assert peak(data.load_matrix, matrix_path) < 1.5 * os.path.getsize(matrix_path)


@pytest.mark.parametrize(
    "brk", [*data._LINE_BREAKS, "\r\n"],
    ids=[f"U+{ord(c):04X}" for c in data._LINE_BREAKS] + ["CRLF"],
)
def test_readers_split_lines_as_splitlines(tmp_path, brk):
    # every break str.splitlines honours ends a line, and line numbers count them
    config = brk.join(["a=1", "# c", "", "b=2", "c=3"]) + brk
    path = tmp_path / "exp.cfg"
    path.write_bytes(config.encode("utf-8"))
    lines = [line for line in config.splitlines() if line and not line.startswith("#")]
    assert data.load_config(path) == dict(line.split("=") for line in lines)
    text = brk.join(["pce-matrix v1 m=2 n=2", "1.0 2.0", "", "3.0 4.0"]) + brk
    path.write_bytes(text.encode("utf-8"))
    assert np.array_equal(pce.load_matrix(path).matrix, [[1.0, 2.0], [3.0, 4.0]])
    ragged = text.replace("3.0 4.0", "3.0")
    path.write_bytes(ragged.encode("utf-8"))
    lineno = ragged.splitlines().index("3.0") + 1
    with pytest.raises(ParseError, match=rf"row 1 \(line {lineno}\)"):
        pce.load_matrix(path)
