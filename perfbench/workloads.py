"""The benchmark's workloads.

Each workload makes its inputs from the workload seed in ``setup``, runs one
op at a time in ``run_op`` and checks every op's output in ``check``, which
returns the problems found (an empty list for a good op) and the op's PCE
nearest-neighbour accuracy where the workload has one.  NOTES.md records why
each workload was chosen.
"""

import contextlib
import csv
import io
import math

import numpy as np

from pce import cli, evaluation
from pce.data import (
    LabeledDataset,
    NoiseSpec,
    SubspaceSpec,
    add_gaussian_noise,
    generate_union_of_subspaces,
    load_matrix,
    save_matrix,
    split,
)
from pce.linalg import skinny_svd
from pce.model import estimate_dimension


def derived_seed(seed, index):
    """Seed for op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv):
    """``pce.cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_problems(what, code, err):
    if code == 0:
        return []
    return [f"{what} exited {code}: {err.strip()}"]


class SubspaceEval:
    """k << rank: one PCE trial and one LLE-NPE trial per op, no text I/O."""

    name = "subspace_eval"
    trace_ops = 6
    SPEC = SubspaceSpec(ambient=1024, subspaces=((4, 100),) * 10)
    NOISE = NoiseSpec(kind="gaussian", rho=0.01)
    LAM = 0.25
    K = 40  # ten 4-dim subspaces
    TRAIN_RANK = 500  # noise makes the 1024 x 500 train half full rank

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        """Generate the seed's data set and confirm the k << rank regime on
        its train half; the ops draw their own data inside run_experiment."""
        ds = generate_union_of_subspaces(self.SPEC, self.seed)
        noisy = add_gaussian_noise(ds.matrix, self.NOISE.rho, seed=self.seed)
        train, _ = split(LabeledDataset(noisy, ds.labels), 0.5, self.seed)
        svd = skinny_svd(train.matrix)
        k = estimate_dimension(svd.sigma, self.LAM)
        if (k, svd.rank) != (self.K, self.TRAIN_RANK):
            raise RuntimeError(
                f"expected k={self.K}, rank={self.TRAIN_RANK}; got k={k}, rank={svd.rank}"
            )

    def _config(self, index, **method):
        return evaluation.ExperimentConfig(
            source=self.SPEC,
            noise=self.NOISE,
            trials=1,
            base_seed=derived_seed(self.seed, index),
            **method,
        )

    def run_op(self, index):
        pce_report = evaluation.run_experiment(
            self._config(index, method="pce", lam=self.LAM)
        )
        lle_report = evaluation.run_experiment(
            self._config(index, method="lle-npe", dim=40, neighbors=5)
        )
        return pce_report, lle_report

    def check(self, index, result):
        pce_report, lle_report = result
        problems = []
        if pce_report.ks != [self.K]:
            problems.append(f"pce k={pce_report.ks}, expected [{self.K}]")
        for method, report in (("pce", pce_report), ("lle-npe", lle_report)):
            acc = report.accuracies[0]
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"{method} accuracy {acc!r} outside [0, 1]")
        return problems, pce_report.accuracies[0]


class CliRoundtrip:
    """k = rank through the CLI: ``fit`` then ``transform`` on a 10 MB file."""

    name = "cli_roundtrip"
    trace_ops = 4
    M, N = 512, 1000
    LAM = "1e6"  # keeps every direction of a standard-gaussian 512 x 1000
    GRAM_TOL = 1e-8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.data = str(workdir / "data.txt")
        self.model = str(workdir / "model.txt")
        self.features = str(workdir / "features.txt")

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        save_matrix(rng.standard_normal((self.M, self.N)), self.data)

    def run_op(self, index):
        fit = run_cli(["fit", self.data, "--lambda", self.LAM, "--output", self.model])
        transform = run_cli(
            ["transform", self.model, self.data, "--output", self.features]
        )
        return fit, transform

    def check(self, index, result):
        (fit_code, fit_out, fit_err), (tr_code, _, tr_err) = result
        problems = _cli_problems("fit", fit_code, fit_err)
        problems += _cli_problems("transform", tr_code, tr_err)
        if problems:
            return problems, None
        if f"k={self.M}" not in fit_out.splitlines():
            problems.append(f"fit printed no k={self.M} line")
        if cli.load_model(self.model).k != self.M:
            problems.append(f"reloaded model has k != {self.M}")
        # theta' D D' theta = I for the training D, whatever rotation theta has
        z = load_matrix(self.features).matrix
        err = np.abs(z @ z.T - np.eye(z.shape[0])).max()
        if z.shape != (self.M, self.N) or not err <= self.GRAM_TOL:
            problems.append(f"features {z.shape}: max |Z Z' - I| = {err:.3g}")
        return problems, None


class LambdaSweep:
    """Many small fits: ``sweep --lambdas 1:99:2 --split-seed``, 50 refits per op."""

    name = "lambda_sweep"
    trace_ops = 6
    SPEC = SubspaceSpec(ambient=50, subspaces=((4, 200),) * 5)
    RHO = 0.01
    GRID = "1:99:2"
    LAMBDAS = [float(v) for v in range(1, 100, 2)]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.data = str(workdir / "data.txt")
        self.output = str(workdir / "sweep.csv")
        self._dataset = None

    def setup(self):
        ds = generate_union_of_subspaces(self.SPEC, self.seed)
        noisy = add_gaussian_noise(ds.matrix, self.RHO, seed=self.seed)
        save_matrix(LabeledDataset(noisy, ds.labels, ds.meta), self.data)

    def run_op(self, index):
        split_seed = derived_seed(self.seed, index)
        argv = ["sweep", self.data, "--lambdas", self.GRID,
                "--split-seed", str(split_seed), "--output", self.output]
        code, _, err = run_cli(argv)
        return split_seed, code, err

    def _expected_ks(self, split_seed):
        if self._dataset is None:
            self._dataset = load_matrix(self.data)
        train, _ = split(self._dataset, 0.5, split_seed)
        sigma = skinny_svd(train.matrix).sigma
        return [estimate_dimension(sigma, lam) for lam in self.LAMBDAS]

    def check(self, index, result):
        split_seed, code, err = result
        problems = _cli_problems("sweep", code, err)
        if problems:
            return problems, None
        with open(self.output, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(self.LAMBDAS):
            return [f"{len(rows)} rows, expected {len(self.LAMBDAS)}"], None
        try:
            lambdas = [float(row[0]) for row in rows]
        except ValueError:
            problems.append(f"lambda column is not numeric: {rows[0][0]!r}")
        else:
            if lambdas != self.LAMBDAS:
                problems.append("lambda column differs from the 1:99:2 grid")
        ks = [int(row[1]) for row in rows]
        if any(b < a for a, b in zip(ks, ks[1:])):
            problems.append("k decreases along the grid")
        if ks != self._expected_ks(split_seed):
            problems.append("k differs from estimate_dimension on the train split")
        accuracies = [float(row[2]) for row in rows]
        if not all(0.0 <= a <= 1.0 for a in accuracies):
            problems.append("an accuracy lies outside [0, 1]")
        return problems, sum(accuracies) / len(accuracies)


WORKLOADS = {w.name: w for w in (SubspaceEval, CliRoundtrip, LambdaSweep)}
