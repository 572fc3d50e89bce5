import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import noisy_benchmark

import pce
from pce import cli
from pce.cli import load_model, main, save_model
from pce.evaluation import ExperimentConfig


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


@pytest.mark.parametrize(
    "name, escaped",
    [(os.fsdecode(b"d\xff.txt"), r"d\xff.txt"), ("d\nb.txt", r"d\nb.txt"),
     ("d\u2028b.txt", r"d\u2028b.txt"), ("d é.txt", "d é.txt")],
    ids=["not-utf8", "newline", "line-separator", "plain"],
)
def test_fit_meta_source_is_one_line(dataset_file, tmp_path, name, escaped):
    # the data path lands in the model's "# meta source=" line; a plain name as is
    data = tmp_path / name
    os.replace(dataset_file, data)
    model_path = tmp_path / "model.txt"
    data = os.fsdecode(data)
    assert main(["fit", data, "--output", str(model_path)]) == 0
    source = f"# meta source={os.fsdecode(tmp_path)}/{escaped}\n"
    assert source in model_path.read_text(encoding="utf-8")
    out = tmp_path / "z.txt"
    assert main(["transform", str(model_path), data, "--output", str(out)]) == 0
    assert out.exists()


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
        (r"spectrum=\S+", "spectrum=inf"),
        (r"theta:", "center=" + " ".join(["1e400"] * 12) + "\ntheta:"),
        (r"(lambda=\S+)", r"\1\nlambda=5.0"),
        (r"spectrum=.*", "spectrum=" + " ".join(["-1.0"] * 12)),
        (r"spectrum=(\S+) (\S+)", r"spectrum=\2 \1"),
        (r"lambda=\S+", "lambda=1e-300"),
    ],
    ids=["nan-theta", "negative-lambda", "short-center", "extra-spectrum",
         "bad-literal", "negative-k", "inf-spectrum", "overflow-center",
         "repeated-lambda", "negative-spectrum", "increasing-spectrum",
         "k-disagrees-with-lambda"],
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
        (["eval", "{config}"], "data={binary}\ntrials=2\n"),
        (["fit", "{binary}"], None),
        (["sweep", "{data}", "--lambdas", "1,2", "--split-seed", "-1"], None),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nseed=-1\n"),
        (["bench", "--sizes", "8x16", "--seed", "-1"], None),
        (["sweep", "{data}", "--lambdas", "0:1e12:1"], None),
        (["sweep", "{data}", "--lambdas", "1:2:1e-300"], None),
        (["sweep", "{data}", "--lambdas", "0:inf:1"], None),
        (["eval", "{config}"], "data={tmp}/nul\x00x.txt\ntrials=2\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\ntrials=2\noutput={out}\x00\n"),
        (["sweep", "{data}", "--lambdas", "1", "--split-seed", "0",
          "--train-fraction", "1.5"], None),
        (["sweep", "{data}", "--lambdas", "1", "--split-seed", "0",
          "--train-fraction", "nan"], None),
        (["fit", "{config}"], "pce-matrix v1 m=0 n=-1\n"),
        (["fit", "{config}"], "pce-matrix v1 m=0 n=3\n"),
        (["bench", "--sizes", "0x5"], None),
        (["bench", "--sizes", "5x0"], None),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nmethod=pca\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nmethod=lle-npe\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=foo\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=pixel\nnoise_rho=3\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nsynthetic_basis=bogus\n"),
        (["eval", "{config}"], "synthetic=20:0x10,2x10\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nmethod=pca\ndim=0\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nmethod=pca\ndim=-1\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nmethod=lle-npe\ndim=0\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=gaussian\nnoise_clip=1,-1\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=gaussian\nnoise_clip=nan,1\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nlamda=0.001\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\ncenter=yes\n"),
        (["fit", "{config}"], "pce-matrix v1 m=1 n=1000000000000\n1 2 3\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nsynthetic_scale=inf\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nsynthetic_scale=nan\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nsynthetic_scale=1e308\n"),
        (["eval", "{config}"],
         "synthetic=12:2x10,2x10\nlambda=0.001\ntrials=2\nlambda=10\n"),
        (["fit", "{config}"], "pce-matrix v1 m=2 n=3 m=1\n1 2 3\n"),
        (["eval", "{config}"],
         "synthetic=12:2x10,2x10\nmethod=raw\nnoise=gaussian\nnoise_rho=nan\n"),
        (["eval", "{config}"],
         "synthetic=12:2x10,2x10\nmethod=pce\nnoise=gaussian\nnoise_rho=inf\n"),
        (["eval", "{config}"], "synthetic=12:2x10,2x10\nnoise=gaussian\nnoise_rho=-0.5\n"),
        (["sweep", "{data}", "--lambdas", "1:nan:1"], None),
        (["sweep", "{data}", "--lambdas", "nan:5:1"], None),
        (["sweep", "{data}", "--lambdas", "inf:5:1"], None),
        (["sweep", "{data}", "--lambdas", "1:-inf:1"], None),
        (["sweep", "{data}", "--lambdas", "1e308:-1e308:1"], None),
        (["sweep", "{data}", "--lambdas", "0:inf:inf"], None),
        (["eval", "{config}"],
         "synthetic=20:2x10,2x10\nmethod=lle-npe\ndim=2\nneighbors=0\n"),
        (["eval", "{config}"], "synthetic=0:1x3,1x3\nsynthetic_basis=random-gaussian\n"),
        (["eval", "{config}"], "synthetic=-5:1x3,1x3\nsynthetic_basis=random-gaussian\n"),
        (["sweep", "{data}", "--lambdas", "3:1:inf"], None),
    ],
    ids=["zero-step", "zero-repeats", "negative-repeats", "bad-size", "bad-subspace",
         "one-clip-bound", "eval-not-utf8", "fit-not-utf8", "negative-split-seed",
         "negative-config-seed", "negative-bench-seed", "huge-grid", "tiny-step",
         "infinite-grid", "nul-data-path", "nul-output-path", "train-fraction-above-1",
         "train-fraction-nan", "negative-header-size", "zero-header-rows",
         "zero-bench-rows", "zero-bench-cols", "pca-without-dim", "lle-npe-without-dim",
         "unknown-noise", "pixel-rho-above-1", "unknown-basis", "zero-dim-subspace",
         "pca-zero-dim", "pca-negative-dim", "lle-npe-zero-dim", "inverted-clip",
         "nan-clip", "unknown-key", "bad-flag", "huge-header-row", "inf-scale",
         "nan-scale", "overflowing-scale", "repeated-config-key", "repeated-header-key",
         "nan-gaussian-rho", "inf-gaussian-rho", "negative-gaussian-rho",
         "nan-lambda-stop", "nan-lambda-start", "infinite-lambda-start",
         "negative-infinite-lambda-stop", "overflowing-empty-lambda-range",
         "nan-lambda-span", "lle-npe-zero-neighbors", "zero-ambient", "negative-ambient",
         "infinite-step-below-start"],
)
def test_bad_arguments_are_input_errors(dataset_file, tmp_path, capsys, argv, config):
    binary = tmp_path / "latin1.txt"
    text = Path(dataset_file).read_text(encoding="utf-8")
    binary.write_bytes(text.replace("pce-dataset", "pce-dataset \xe9", 1).encode("latin-1"))
    config_path = tmp_path / "exp.cfg"
    out = tmp_path / "out.csv"
    if config is not None:
        config_path.write_text(config.format(binary=binary, tmp=tmp_path, out=out))

    argv = [a.format(data=dataset_file, config=config_path, binary=binary) for a in argv]
    # a config's own output= is read only when --output is not given
    if "output=" not in (config or ""):
        argv += ["--output", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["fit", "transform", "spectrum", "sweep", "eval"])
@pytest.mark.parametrize("literal", ["nan", "inf", "1e400"])
def test_nonfinite_data_value_is_input_error(
    dataset_file, tmp_path, capsys, command, literal
):
    # data rows are checked as model files are: the error names the line
    lines = Path(dataset_file).read_text(encoding="utf-8").splitlines()
    labels = next(i for i, line in enumerate(lines) if not line.startswith(("pce-", "#")))
    tokens = lines[labels + 3].split()  # data row 2
    tokens[1] = literal
    lines[labels + 3] = " ".join(tokens)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path, config, out = tmp_path / "m.txt", tmp_path / "exp.cfg", tmp_path / "out"
    assert main(["fit", dataset_file, "--output", str(model_path)]) == 0
    config.write_text(f"data={bad}\ntrials=2\n")
    argv = {
        "fit": ["fit", str(bad)],
        "transform": ["transform", str(model_path), str(bad)],
        "spectrum": ["spectrum", str(bad)],
        "sweep": ["sweep", str(bad), "--lambdas", "1,10"],
        "eval": ["eval", str(config)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"line {labels + 4}: row 2 holds a non-finite value" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, named",
    [("lamda=0.001", "'lamda'"), ("trails=1", "'trails'"), ("metod=pca", "'metod'"),
     ("center=yes", "center='yes'"), ("noise_after_split=1", "noise_after_split='1'"),
     ("noise_rho=nan", "got nan"), ("noise_rho=inf", "got inf"),
     ("noise_rho=-0.5", "got -0.5"),
     ("method=lle-npe\ndim=2\nneighbors=0", "lle-npe needs neighbors >= 1, got 0"),
     ("center=yes\nnoise_after_split=1", "error: noise_after_split='1'")],
    ids=["lamda", "trails", "metod", "center-yes", "noise-after-split-1",
         "nan-gaussian-rho", "inf-gaussian-rho", "negative-gaussian-rho",
         "lle-npe-zero-neighbors", "first-of-two-bad-flags"],
)
def test_config_keys_and_flags_checked_before_trial_0(
    tmp_path, capsys, monkeypatch, line, named
):
    def no_trials(cfg):
        raise AssertionError("a bad config must be refused before any trial runs")

    monkeypatch.setattr(cli.evaluation, "run_experiment", no_trials)
    config = tmp_path / "exp.cfg"
    config.write_text(f"synthetic=12:2x10,2x10\nnoise=gaussian\n{line}\n")
    assert main(["eval", str(config), "--output", str(tmp_path / "r.csv")]) == 1
    assert named in capsys.readouterr().err


def test_eval_accepts_every_documented_key(tmp_path):
    # data= aside (synthetic= is used instead); dim and neighbors are known
    # keys that pce ignores, and the random-gaussian basis with a coefficient
    # scale runs end to end
    report = tmp_path / "report.csv"
    config = tmp_path / "exp.cfg"
    config.write_text(
        "synthetic=12:2x10,3x10\nsynthetic_scale=2.5\nsynthetic_basis=random-gaussian\n"
        "method=pce\nlambda=10\ndim=3\nneighbors=4\nnoise=gaussian\nnoise_rho=0.01\n"
        "noise_clip=-10,10\nnoise_after_split=true\ntrials=2\ntrain_fraction=0.6\n"
        f"seed=3\ncenter=true\noutput={report}\n"
    )
    assert set(cli.load_config(config)) == set(cli.CONFIG_KEYS) - {"data"}
    assert main(["eval", str(config)]) == 0
    assert [row[0] for row in read_csv(report)] == ["trial", "0", "1", "summary"]


def test_config_keys_set_their_fields_and_omitted_keys_take_defaults():
    spec = pce.SubspaceSpec(ambient=12, subspaces=((2, 10), (3, 10)))
    given = {"synthetic": "12:2x10,3x10"}
    assert cli._config_to_experiment(given) == ExperimentConfig(source=spec)
    given |= {
        "synthetic_scale": "2.5", "synthetic_basis": "random-gaussian",
        "method": "lle-npe", "lambda": "10", "dim": "3", "neighbors": "4",
        "noise_after_split": "true", "trials": "2", "train_fraction": "0.6",
        "seed": "3", "center": "true",
    }
    assert set(given) == {"synthetic", *cli.FIELD_KEYS}
    assert cli._config_to_experiment(given) == ExperimentConfig(
        source=replace(spec, coeff_scale=2.5, basis_rule="random-gaussian"),
        method="lle-npe", lam=10.0, dim=3, neighbors=4, noise_after_split=True,
        trials=2, train_fraction=0.6, base_seed=3, center=True,
    )


def test_output_through_symlink_updates_target(dataset_file, tmp_path):
    plain, target, link = tmp_path / "plain.txt", tmp_path / "target.txt", tmp_path / "link"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["fit", dataset_file, "--output", str(plain)]) == 0
    assert main(["fit", dataset_file, "--output", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["data.txt", "link", "plain.txt", "target.txt"]


@pytest.mark.parametrize("spec", ["0:1e12:1", "1:2:1e-300", "0:inf:1", "0:inf:inf"],
                         ids=["huge-grid", "tiny-step", "infinite-grid", "nan-span"])
def test_refused_lambda_range_is_not_built(monkeypatch, spec):
    # the count is checked before np.arange could allocate the grid
    def no_grid(*args, **kwargs):
        raise AssertionError("a refused lambda range must not be built")

    monkeypatch.setattr(np, "arange", no_grid)
    with pytest.raises(pce.errors.ParseError, match="more than"):
        cli._parse_lambdas(spec)


@pytest.mark.parametrize(
    "spec, named",
    [("1:nan:1", "STOP nan"), ("nan:5:1", "START nan"), ("inf:5:1", "START inf"),
     ("-inf:5:1", "START -inf"), ("1:-inf:1", "STOP -inf")],
    ids=["nan-stop", "nan-start", "inf-start", "negative-inf-start", "negative-inf-stop"],
)
def test_nonfinite_lambda_bound_is_named(spec, named):
    with pytest.raises(pce.errors.ParseError, match=f"{named} is not finite"):
        cli._parse_lambdas(spec)


@pytest.mark.parametrize(
    "spec", ["3:1:1", "1e308:-1e308:1", "3:1:inf", "1:-1:inf", "1:0:1e308"],
    ids=["stop-below-start", "overflowing-stop-below-start", "infinite-step",
         "infinite-step-past-zero", "huge-step"],
)
def test_lambda_range_below_start_is_empty(spec):
    with pytest.raises(pce.errors.ParseError, match="empty lambda list"):
        cli._parse_lambdas(spec)


@pytest.mark.parametrize(
    "spec, values",
    [
        ("1:2.7:1", [1.0, 2.0]),
        ("1:1:1e-300", [1.0]),
        ("1:99:2", [float(v) for v in range(1, 100, 2)]),
        ("0.1:0.3:0.1", [0.1, 0.2, 0.30000000000000004]),
        ("1:2:inf", [1.0]),
    ],
    ids=["stop-between-values", "single-value", "odd-grid", "rounded-step",
         "infinite-step"],
)
def test_lambda_range_is_start_plus_multiples_of_step(spec, values):
    # START + i*STEP for the count the cap check computes; never past STOP
    assert cli._parse_lambdas(spec) == values


def test_trial_error_keeps_type_and_names_trial(tmp_path, capsys):
    # DimensionMismatch (p >= n) stays a numerical error, with the trial noted
    config = tmp_path / "exp.cfg"
    config.write_text("synthetic=12:2x10,2x10\nmethod=lle-npe\ndim=2\nneighbors=50\n")
    assert main(["eval", str(config), "--output", str(tmp_path / "r.csv")]) == 2
    assert "(trial 0, seed 0)" in capsys.readouterr().err


def test_pca_dim_above_centred_rank_exits_2(tmp_path, capsys):
    # two 2-d subspaces: each train half's centred data has rank 4
    config = tmp_path / "exp.cfg"
    config.write_text("synthetic=12:2x10,2x10\nmethod=pca\ndim=5\n")
    assert main(["eval", str(config), "--output", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "dim=5 exceeds the rank 4 of the centred data (trial 0, seed 0)" in err
    assert not (tmp_path / "r.csv").exists()


def test_pca_on_constant_rows_exits_2(tmp_path, capsys):
    data, config = tmp_path / "data.txt", tmp_path / "exp.cfg"
    matrix = np.arange(6.0)[:, None] * np.ones((1, 20))
    pce.save_matrix(pce.LabeledDataset(matrix, np.repeat([0, 1], 10)), data)
    config.write_text(f"data={data}\nmethod=pca\ndim=1\n")
    assert main(["eval", str(config), "--output", str(tmp_path / "r.csv")]) == 2
    assert "matrix is numerically zero" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "noise",
    ["noise=pixel\nnoise_rho=0.2\n",
     "noise=gaussian\nnoise_rho=0.05\nnoise_after_split=true\n"],
    ids=["pixel", "after-split"],
)
def test_eval_noise_paths_rerun_identically(tmp_path, noise):
    config = tmp_path / "exp.cfg"
    config.write_text("synthetic=12:2x10,2x10\nlambda=10\ntrials=3\n" + noise)
    reports = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        assert main(["eval", str(config), "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "summary"]
        reports.append([r[:3] for r in rows])  # timing columns excluded
    assert reports[0] == reports[1]


@pytest.mark.parametrize("meta", ["", "# meta unlabeled=false\n"],
                         ids=["plain", "meta-says-labeled"])
def test_eval_and_sweep_refuse_unlabeled_matrix(tmp_path, capsys, meta):
    # a pce-matrix file has no labels to score, whatever its '# meta' lines say
    data = tmp_path / "m.txt"
    pce.save_matrix(np.random.default_rng(0).standard_normal((6, 20)), data)
    header, body = data.read_text().split("\n", 1)
    data.write_text(f"{header}\n{meta}{body}")
    config = tmp_path / "exp.cfg"
    config.write_text(f"data={data}\nmethod=pce\ntrials=2\n")
    out = tmp_path / "out.csv"
    assert main(["eval", str(config), "--output", str(out)]) == 1
    assert "eval needs a labeled pce-dataset file" in capsys.readouterr().err
    sweep = ["sweep", str(data), "--lambdas", "1", "--split-seed", "0"]
    assert main(sweep + ["--output", str(out)]) == 1
    assert "accuracy sweep needs a labeled pce-dataset file" in capsys.readouterr().err
    assert not out.exists()


def test_eval_ignores_meta_lines_of_a_dataset(dataset_file, tmp_path):
    # '# meta' lines only annotate: the header alone says the file has labels
    path = tmp_path / "d.txt"
    header, body = Path(dataset_file).read_text(encoding="utf-8").split("\n", 1)
    path.write_text(f"{header}\n# meta unlabeled=true\n{body}")
    config = tmp_path / "exp.cfg"
    config.write_text(f"data={path}\nmethod=pce\nlambda=10\ntrials=2\n")
    assert main(["eval", str(config), "--output", str(tmp_path / "r.csv")]) == 0


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


def reference_sweep_rows(ds, lambdas, split_seed=None):
    """CSV rows from the per-lambda refit loop that ``sweep`` used to run: one
    ``fit`` and two ``transform`` calls per lambda with a split, otherwise one
    SVD of the whole matrix and ``estimate_dimension`` per lambda."""
    if split_seed is not None:
        train, test = pce.split(ds, 0.5, split_seed)
    else:
        sigma = pce.skinny_svd(ds.matrix).sigma
    rows = []
    for lam in lambdas:
        if split_seed is not None:
            fitted = pce.fit(train.matrix, lam)
            predicted = pce.nn_classify(
                pce.transform(fitted, train.matrix),
                train.labels,
                pce.transform(fitted, test.matrix),
            )
            acc = pce.accuracy(predicted, test.labels)
            rows.append([repr(float(lam)), str(fitted.k), repr(acc)])
        else:
            k = pce.estimate_dimension(sigma, lam)
            rows.append([repr(float(lam)), str(k), ""])
    return rows


def lambda_sweep_dataset(seed):
    # the shape of the lambda_sweep benchmark workload: 50 x 1000, rho = 0.01
    spec = pce.SubspaceSpec(ambient=50, subspaces=((4, 200),) * 5)
    ds = pce.generate_union_of_subspaces(spec, seed)
    return pce.LabeledDataset(pce.add_gaussian_noise(ds.matrix, 0.01, seed=seed), ds.labels)


GRIDS = {"1,3,5,50": [1.0, 3.0, 5.0, 50.0], "1:99:2": [float(v) for v in range(1, 100, 2)]}


@pytest.mark.parametrize(
    "source, grid, split_seed",
    [("fixture", grid, seed) for grid in GRIDS for seed in (None, 0)]
    + [("criterion-8", "1:99:2", seed) for seed in (None, 0, 1, 2)]
    + [("lambda-sweep", "1:99:2", 1)],
)
def test_sweep_matches_refit_loop(dataset_file, tmp_path, source, grid, split_seed):
    if source == "fixture":
        ds = pce.load_matrix(dataset_file)
    elif source == "criterion-8":
        ds = noisy_benchmark(0)[0]
    else:
        ds = lambda_sweep_dataset(1)
    data = tmp_path / "d.txt"
    pce.save_matrix(ds, data)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", str(data), "--lambdas", grid, "--output", str(out)]
    if split_seed is not None:
        argv += ["--split-seed", str(split_seed)]
    assert main(argv) == 0
    rows = read_csv(out)
    assert rows[0] == ["lambda", "k", "accuracy"]
    assert rows[1:] == reference_sweep_rows(ds, GRIDS[grid], split_seed)


def test_sweep_runs_one_svd_on_the_train_half(dataset_file, tmp_path, monkeypatch):
    shapes = []

    def recording_svd(d, **kwargs):
        shapes.append(d.shape)
        return pce.skinny_svd(d, **kwargs)

    def refit(*args, **kwargs):
        raise AssertionError("sweep reads every lambda from one SVD")

    monkeypatch.setattr(cli, "skinny_svd", recording_svd)
    monkeypatch.setattr(cli.model, "fit", refit)
    monkeypatch.setattr(cli.model, "transform", refit)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", dataset_file, "--lambdas", "1:99:2", "--split-seed", "0"]
    assert main(argv + ["--output", str(out)]) == 0
    train, _ = pce.split(pce.load_matrix(dataset_file), 0.5, 0)
    assert shapes == [train.matrix.shape]


def test_sweep_lambda_keeping_nothing_fails_as_fit(dataset_file, tmp_path, capsys):
    train, _ = pce.split(pce.load_matrix(dataset_file), 0.5, 0)
    with pytest.raises(pce.errors.DegenerateDimension) as fit_error:
        pce.fit(train.matrix, 1e-9)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", dataset_file, "--lambdas", "5,1e-9", "--split-seed", "0"]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {fit_error.value}\n"
    assert not out.exists()


def test_sweep_descending_lambdas_keep_their_order(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", dataset_file, "--lambdas", "1000,0.5", "--output", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert [row[0] for row in rows] == ["1000.0", "0.5"]
    assert int(rows[0][1]) > int(rows[1][1])


def test_sweep_decreasing_k_writes_no_csv(dataset_file, tmp_path, monkeypatch, capsys):
    # estimate_dimension is nondecreasing in lambda; the check guards it
    monkeypatch.setattr(cli.model, "estimate_dimension", lambda sigma, lam: 5 - lam)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", dataset_file, "--lambdas", "2,1", "--output", str(out)]) == 2
    assert "not nondecreasing" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.fixture
def scaled_gaussian(tmp_path):
    """Writes the 20 x 30 standard-gaussian matrix (seed 0) times ``scale``."""

    def write(scale):
        path = tmp_path / f"g{scale:g}.txt"
        pce.save_matrix(np.random.default_rng(0).standard_normal((20, 30)) * scale, path)
        return str(path)

    return write


@pytest.mark.parametrize("scale", [1e155, 1e-155, 1e200, 1e-200, 1e-160])
def test_spectrum_energy_at_extreme_scales(scaled_gaussian, tmp_path, scale):
    # sigma^2 overflows past 1e154 and turns subnormal below 1e-154; the
    # cumulative energy is a ratio, so it must match the one at scale 1
    energies = []
    for data in (scaled_gaussian(1.0), scaled_gaussian(scale)):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", data, "--output", str(out)]) == 0
        energies.append([row[3] for row in read_csv(out)[1:]])
    assert "nan" not in energies[1]
    assert energies[1][-1] == "1.0"
    assert np.allclose(np.array(energies[1], dtype=float),
                       np.array(energies[0], dtype=float), rtol=1e-12, atol=0)


def _fit_lines(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, dict(line.split("=", 1) for line in captured.out.splitlines()), captured.err


def test_fit_at_scale_1e155_keeps_k_between_squared_values(scaled_gaussian, tmp_path, capsys):
    # a lambda between 1/sigma_10^2 and 1/sigma_11^2 keeps 10 directions, and
    # ||E||_F is the finite norm of the other 10 values
    data = scaled_gaussian(1e155)
    sigma = pce.skinny_svd(pce.load_matrix(data).matrix, right=False).spectrum
    e = math.frexp(sigma[0])[1]
    lam = math.ldexp(1.0 / (math.ldexp(sigma[9], -e) * math.ldexp(sigma[10], -e)), -2 * e)
    argv = ["fit", data, "--lambda", repr(lam), "--output", str(tmp_path / "m.txt")]
    code, printed, _ = _fit_lines(argv, capsys)
    assert code == 0
    assert printed["k"] == "10"
    assert float(printed["error_norm"]) == pytest.approx(math.hypot(*sigma[10:]), rel=1e-12)


def test_fit_at_scale_1e155_with_tiny_lambda_keeps_nothing(scaled_gaussian, tmp_path, capsys):
    # 1e-320 * sigma_1^2 < 1: k = 0, a numerical error naming a finite lambda
    model_path = tmp_path / "m.txt"
    argv = ["fit", scaled_gaussian(1e155), "--lambda", "1e-320", "--output", str(model_path)]
    code, _, err = _fit_lines(argv, capsys)
    assert code == 2
    assert "keeps no dimensions for this spectrum; use lambda > 8.93925e-313" in err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "scale, hint",
    [(1e-160, "no finite lambda keeps one"),
     (1e-200, "no finite lambda keeps one"),
     (1e-155, "use lambda > 8.93925e+307")],
    ids=["1e-160", "1e-200", "1e-155-finite"],
)
def test_fit_at_tiny_scale_names_the_least_lambda(
    scaled_gaussian, tmp_path, capsys, scale, hint
):
    # 1 / sigma_1^2 overflows for sigma_1 below about 7.5e-155: no finite lambda then
    argv = ["fit", scaled_gaussian(scale), "--output", str(tmp_path / "m.txt")]
    code, _, err = _fit_lines(argv, capsys)
    assert code == 2
    assert err == f"error: lambda=1 keeps no dimensions for this spectrum; {hint}\n"


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


CLI_COMMANDS = """
import sys
from pce.cli import main
for argv in (
    ["fit", "d.txt", "--lambda", "4", "--output", "m.txt"],
    ["transform", "m.txt", "d.txt", "--output", "z.txt"],
    ["sweep", "d.txt", "--lambdas", "1:99:2", "--split-seed", "0", "--output", "s.csv"],
    ["spectrum", "d.txt", "--lambda", "4", "--output", "spec.csv"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def cli_outputs_at_one_and_all_threads(tmp_path, ambient):
    spec = pce.SubspaceSpec(ambient=ambient, subspaces=((4, 50),) * 8)
    ds = pce.generate_union_of_subspaces(spec, seed=3)
    noisy = pce.add_gaussian_noise(ds.matrix, 0.01, seed=3)
    nproc = len(os.sched_getaffinity(0))
    runs = []
    for i, threads in enumerate(("1", str(nproc))):
        cwd = tmp_path / f"run{i}"
        cwd.mkdir()
        pce.save_matrix(pce.LabeledDataset(noisy, ds.labels), cwd / "d.txt")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", CLI_COMMANDS], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        runs.append({
            "k_lines": [line for line in lines if line.startswith("k=")],
            "theta": load_model(cwd / "m.txt").theta,
            "z": pce.load_matrix(cwd / "z.txt").matrix,
            "sweep_k": [row[1] for row in read_csv(cwd / "s.csv")[1:]],
            "sigma_c": [row[2] for row in read_csv(cwd / "spec.csv")[1:]],
        })
    one, many = runs
    assert one["k_lines"] == many["k_lines"] == ["k=32", "k=32"]  # fit, spectrum
    assert len(set(one["sweep_k"])) > 1  # the grid crosses breakpoints
    for key in ("sweep_k", "sigma_c"):
        assert one[key] == many[key]
    for key in ("theta", "z"):
        assert one[key].shape == many[key].shape
        assert np.abs(one[key] - many[key]).max() < 1e-10


def test_cli_outputs_across_blas_threads(tmp_path):
    # the determinism contract across thread counts: theta and the features
    # agree to 1e-10, and every k (fit, sweep, spectrum) is identical
    cli_outputs_at_one_and_all_threads(tmp_path, 300)


def test_cli_outputs_across_blas_threads_qr_first(tmp_path):
    # the same contract when fit and spectrum take the QR of d' first
    cli_outputs_at_one_and_all_threads(tmp_path, 200)
    data, a, b = (tmp_path / "run0" / name for name in ("d.txt", "a.txt", "b.txt"))
    assert main(["fit", str(data), "--output", str(a)]) == 0
    assert main(["fit", str(data), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SCIPY_GUARD = """
import sys
import pce
from pce.cli import main
commands = [
    ["fit", "d.txt", "--output", "m.txt"],
    ["transform", "m.txt", "d.txt", "--output", "z.txt"],
    ["spectrum", "d.txt", "--output", "spec.csv", "--svg", "spec.svg"],
    ["bench", "--sizes", "8x16", "--repeats", "1", "--output", "b.csv"],
    ["sweep", "d.txt", "--lambdas", "1,10", "--output", "s.csv"],
    ["sweep", "d.txt", "--lambdas", "1,10", "--split-seed", "0", "--output", "a.csv"],
]
commands += [["eval", f"{method}.cfg", "--output", f"{method}.csv"]
             for method in ("pce", "pca", "lle-npe", "raw")]
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    if "scipy" in sys.modules:
        sys.exit(f"{argv} loaded scipy")
"""


def test_no_command_loads_scipy(dataset_file, tmp_path):
    # a fresh process, because other test modules load scipy into this one
    os.replace(dataset_file, tmp_path / "d.txt")
    for method in ("pce", "pca", "lle-npe", "raw"):
        (tmp_path / f"{method}.cfg").write_text(
            f"synthetic=12:2x10,2x10\nmethod={method}\ndim=2\ntrials=2\n"
        )
    done = subprocess.run([sys.executable, "-c", SCIPY_GUARD], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("a", "pce", "pca", "lle-npe", "raw"):
        assert read_csv(tmp_path / f"{name}.csv")[1]
