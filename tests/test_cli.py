import csv
import re
import subprocess
import sys

import numpy as np
import pytest

import pce
from pce import cli
from pce.cli import load_model, main, save_model


@pytest.fixture
def dataset_file(tmp_path):
    spec = pce.SubspaceSpec(ambient=12, subspaces=((2, 10), (2, 10)))
    ds = pce.generate_union_of_subspaces(spec, seed=0)
    path = tmp_path / "data.txt"
    pce.save_matrix(ds, path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fit_writes_model_and_prints_k(dataset_file, tmp_path, capsys):
    out = tmp_path / "model.txt"
    assert main(["fit", dataset_file, "--lambda", "10", "--output", str(out)]) == 0
    printed = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    model = load_model(out)
    assert int(printed["k"]) == model.k
    ds = pce.load_matrix(dataset_file)
    svd = pce.skinny_svd(ds.matrix)
    assert model.k == pce.estimate_dimension(svd.sigma, 10.0)
    assert int(printed["rank"]) == svd.rank


def test_fit_rejects_nonpositive_lambda(dataset_file, tmp_path, capsys):
    code = main(
        ["fit", dataset_file, "--lambda", "0", "--output", str(tmp_path / "m.txt")]
    )
    assert code == 2
    assert "lambda must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_fit_rejects_nonfinite_lambda(dataset_file, tmp_path, capsys, lam):
    code = main(
        ["fit", dataset_file, "--lambda", lam, "--output", str(tmp_path / "m.txt")]
    )
    assert code == 2
    assert "lambda must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_fit_deterministic_bytes(dataset_file, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["fit", dataset_file, "--output", str(a)]) == 0
    assert main(["fit", dataset_file, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_model_roundtrip_exact(dataset_file, tmp_path):
    ds = pce.load_matrix(dataset_file)
    model = pce.fit(ds.matrix, 3.0)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.lam == model.lam
    assert loaded.k == model.k
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.spectrum, model.spectrum)


def test_transform_roundtrip(dataset_file, tmp_path):
    model_path = tmp_path / "model.txt"
    out = tmp_path / "z.txt"
    assert main(["fit", dataset_file, "--output", str(model_path)]) == 0
    assert main(["transform", str(model_path), dataset_file, "--output", str(out)]) == 0
    z = pce.load_matrix(out).matrix
    ds = pce.load_matrix(dataset_file)
    model = load_model(model_path)
    assert np.array_equal(z, model.theta.T @ ds.matrix)


@pytest.mark.parametrize(
    "pattern, replacement",
    [
        (r"theta:\n\S+", "theta:\nnan"),
        (r"lambda=\S+", "lambda=-3.0"),
        (r"theta:", "center=1.0 2.0\ntheta:"),
        (r"(spectrum=.*)", r"\1 1.0"),
        (r"theta:\n\S+", "theta:\nabc"),
        (r"\nk=\d+", "\nk=-40"),
    ],
    ids=["nan-theta", "negative-lambda", "short-center", "extra-spectrum",
         "bad-literal", "negative-k"],
)
def test_transform_rejects_invalid_model(dataset_file, tmp_path, pattern, replacement):
    model_path = tmp_path / "model.txt"
    fit = ["fit", dataset_file, "--lambda", "10", "--output", str(model_path)]
    assert main(fit) == 0
    text = model_path.read_text()
    mutated = re.sub(pattern, replacement, text, count=1)
    assert mutated != text
    model_path.write_text(mutated)
    out = tmp_path / "z.txt"
    assert main(["transform", str(model_path), dataset_file, "--output", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep", "{data}", "--lambdas", "1:5:0"], None),
        (["bench", "--sizes", "8x16", "--repeats", "0"], None),
        (["bench", "--sizes", "8x16", "--repeats", "-1"], None),
        (["bench", "--sizes", "8xq"], None),
        (["eval", "{config}"], "synthetic=12:2xq\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=gaussian\nnoise_clip=5"),
    ],
    ids=["zero-step", "zero-repeats", "negative-repeats", "bad-size", "bad-subspace",
         "one-clip-bound"],
)
def test_bad_arguments_are_input_errors(dataset_file, tmp_path, argv, config):
    config_path = tmp_path / "exp.cfg"
    if config is not None:
        config_path.write_text(config)
    argv = [a.format(data=dataset_file, config=config_path) for a in argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()


def test_transform_dimension_mismatch(dataset_file, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    assert main(["fit", dataset_file, "--output", str(model_path)]) == 0
    other = tmp_path / "other.txt"
    pce.save_matrix(np.zeros((3, 4)) + 1.0, other)
    assert main(["transform", str(model_path), str(other), "--output", "x"]) == 2
    assert "3" in capsys.readouterr().err


def test_eval_runs_and_reruns_identically(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "synthetic=12:2x10,2x10\nmethod=pce\nlambda=10\ntrials=3\n"
        f"train_fraction=0.5\nseed=0\noutput={tmp_path / 'report.csv'}\n"
    )
    assert main(["eval", str(config)]) == 0
    first = read_csv(tmp_path / "report.csv")
    out = capsys.readouterr().out
    assert "mean=" in out and "std=" in out and "k_mode=" in out
    assert len(first) == 5
    assert main(["eval", str(config)]) == 0
    second = read_csv(tmp_path / "report.csv")
    for a, b in zip(first, second):
        assert a[:3] == b[:3]  # identical apart from timing columns


def test_eval_unknown_method(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("synthetic=12:2x10,2x10\nmethod=magic\n")
    assert main(["eval", str(config)]) == 1
    assert "lle-npe" in capsys.readouterr().err


def test_sweep_monotone_k(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", dataset_file, "--lambdas", "1,3,5", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["lambda", "k", "accuracy"]
    ks = [int(r[1]) for r in rows[1:]]
    assert len(ks) == 3
    assert ks == sorted(ks)


def test_sweep_range_writes_float_lambdas(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", dataset_file, "--lambdas", "1:99:2", "--split-seed", "0",
         "--output", str(out)]
    )
    assert code == 0
    column = [row[0] for row in read_csv(out)[1:]]
    assert [float(v) for v in column] == [float(v) for v in range(1, 100, 2)]
    assert column[:2] == ["1.0", "3.0"]


def test_sweep_single_lambda_matches_fit(dataset_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", dataset_file, "--lambdas", "7", "--output", str(out)]) == 0
    (row,) = read_csv(out)[1:]
    assert (
        main(["fit", dataset_file, "--lambda", "7", "--output", str(tmp_path / "m")])
        == 0
    )
    printed = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert row[1] == printed["k"]


def test_sweep_with_accuracy(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            dataset_file,
            "--lambdas",
            "5,50",
            "--split-seed",
            "0",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)[1:]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0


def test_sweep_with_split_skips_full_data_svd(dataset_file, tmp_path, monkeypatch):
    def unused_svd(d):
        raise AssertionError("the full-data SVD is unused with --split-seed")

    monkeypatch.setattr(cli, "skinny_svd", unused_svd)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", dataset_file, "--lambdas", "5", "--split-seed", "0"]
    assert main(argv + ["--output", str(out)]) == 0


def test_spectrum_output(dataset_file, tmp_path):
    out = tmp_path / "spec.csv"
    svg = tmp_path / "spec.svg"
    code = main(
        ["spectrum", dataset_file, "--lambda", "50", "--output", str(out), "--svg", str(svg)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["index", "sigma_d", "sigma_c", "cumulative_energy"]
    unit = sum(int(r[2]) for r in rows[1:])
    ds = pce.load_matrix(dataset_file)
    svd = pce.skinny_svd(ds.matrix)
    assert unit == pce.estimate_dimension(svd.sigma, 50.0)
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-12)
    assert svg.read_text().startswith("<svg")


def test_spectrum_counts_rank_for_clean_data(tmp_path):
    spec = pce.SubspaceSpec(ambient=20, subspaces=((3, 10), (3, 10)))
    ds = pce.generate_union_of_subspaces(spec, seed=2)
    path = tmp_path / "d.txt"
    pce.save_matrix(ds, path)
    out = tmp_path / "spec.csv"
    svd = pce.skinny_svd(ds.matrix)
    lam = float(2.0 / svd.sigma[-1] ** 2)
    assert main(["spectrum", str(path), "--lambda", repr(lam), "--output", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert sum(int(r[2]) for r in rows) == 6


def test_bench_rows(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--sizes", "24x40,24x80", "--repeats", "1", "--output", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["m", "n", "fit_s"]
    assert len(rows) == 3
    assert all(float(r[2]) > 0 for r in rows[1:])


def test_missing_file_is_input_error(capsys):
    assert main(["fit", "/no/such/file", "--output", "x"]) == 1


def test_console_entry_point(dataset_file, tmp_path):
    out = tmp_path / "model.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "pce.cli", "fit", dataset_file, "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "k=" in proc.stdout
