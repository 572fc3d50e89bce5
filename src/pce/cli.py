"""Command-line front end: ``pce fit|transform|eval|sweep|spectrum|bench``.

Exit codes are a stable contract: 0 success, 1 input/config errors, 2
numerical/domain errors.  All outputs are written atomically (temp file then
rename) and all floats use shortest-round-trip formatting.
"""

import argparse
import sys
import time

import numpy as np

from . import evaluation, model
from .data import (
    LabeledDataset,
    NoiseSpec,
    SubspaceSpec,
    atomic_write,
    load_matrix,
    save_matrix,
    split,
)
from .errors import ParseError, PceError, ShapeError
from .linalg import rank_tolerance, skinny_svd

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

MODEL_HEADER = "pce-model v1"


def _floats(values):
    return " ".join(repr(float(v)) for v in values)


def save_model(m: model.PceModel, path, meta=None):
    """Serialize a fitted model; the file is byte-reproducible for a given fit."""
    lines = [MODEL_HEADER]
    for key, value in sorted((meta or {}).items()):
        lines.append(f"# meta {key}={value}")
    lines.append(f"lambda={m.lam!r}")
    lines.append(f"k={m.k}")
    lines.append(f"m={m.ambient_dim}")
    lines.append(f"n={m.train_cols}")
    lines.append(f"spectrum={_floats(m.spectrum)}")
    if m.center is not None:
        lines.append(f"center={_floats(m.center)}")
    lines.append("theta:")
    for row in m.theta:
        lines.append(_floats(row))
    atomic_write(path, "\n".join(lines) + "\n")


def load_model(path) -> model.PceModel:
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [
        (i, ln.strip())
        for i, ln in enumerate(raw, start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or lines[0][1] != MODEL_HEADER:
        raise ParseError(
            f"expected header {MODEL_HEADER!r}", line=lines[0][0] if lines else 1
        )
    fields = {}
    theta_rows = []
    in_theta = False
    for lineno, text in lines[1:]:
        if in_theta:
            theta_rows.append((lineno, text))
        elif text == "theta:":
            in_theta = True
        else:
            key, sep, value = text.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {text!r}", line=lineno)
            fields[key] = value
    try:
        lam = float(fields["lambda"])
        k = int(fields["k"])
        m_dim = int(fields["m"])
        n = int(fields["n"])
        spectrum = np.array([float(t) for t in fields["spectrum"].split()])
        center = None
        if "center" in fields:
            center = np.array([float(t) for t in fields["center"].split()])
    except KeyError as exc:
        raise ParseError(f"model file missing field {exc}") from None
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from None
    if len(theta_rows) != m_dim:
        raise ShapeError(f"expected {m_dim} theta rows, found {len(theta_rows)}")
    theta = np.empty((m_dim, k))
    for i, (lineno, text) in enumerate(theta_rows):
        tokens = text.split()
        if len(tokens) != k:
            raise ShapeError(
                f"theta row {i} (line {lineno}) has {len(tokens)} values, expected {k}"
            )
        theta[i] = [float(t) for t in tokens]
    return model.PceModel(
        lam=lam, k=k, theta=theta, spectrum=spectrum, train_cols=n, center=center
    )


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _polyline_svg(xs, ys, width=640, height=400, margin=40):
    """Minimal single-series line chart; no dependencies, best-effort output."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    px = margin + (xs - x0) / xspan * (width - 2 * margin)
    py = height - margin - (ys - y0) / yspan * (height - 2 * margin)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<polyline fill="none" stroke="steelblue" points="{points}"/>\n'
        "</svg>\n"
    )


# --- subcommands ------------------------------------------------------------


def cmd_fit(args):
    ds = load_matrix(args.data)
    t0 = time.perf_counter()
    fitted = model.fit(ds.matrix, args.lam, center=args.center)
    elapsed = time.perf_counter() - t0
    save_model(fitted, args.output, meta={"source": args.data})
    spectrum = fitted.spectrum
    rank = int(np.count_nonzero(spectrum > rank_tolerance(ds.matrix.shape) * spectrum[0]))
    err = float(np.sqrt(np.sum(spectrum[fitted.k :] ** 2)))
    print(f"k={fitted.k}")
    print(f"rank={rank}")
    print(f"error_norm={err!r}")
    print(f"seconds={elapsed:.6f}")
    return EXIT_OK


def cmd_transform(args):
    m = load_model(args.model)
    ds = load_matrix(args.data)
    z = model.transform(m, ds.matrix)
    save_matrix(z, args.output)
    print(f"rows={z.shape[0]}")
    print(f"cols={z.shape[1]}")
    return EXIT_OK


def _parse_config(path):
    fields = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {text!r}", line=lineno)
            fields[key.strip()] = value.strip()
    return fields


def _parse_subspaces(text):
    # "4x20,4x20,..." -> ((4, 20), (4, 20), ...)
    pairs = []
    for tok in text.split(","):
        d, sep, c = tok.partition("x")
        if not sep:
            raise ParseError(f"bad subspace token {tok!r} (want DIMxCOUNT)")
        pairs.append((int(d), int(c)))
    return tuple(pairs)


def _config_to_experiment(fields):
    if "data" in fields:
        source = fields["data"]
    elif "synthetic" in fields:
        ambient, sep, rest = fields["synthetic"].partition(":")
        if not sep:
            raise ParseError("synthetic wants M:D1xC1,D2xC2,...")
        source = SubspaceSpec(
            ambient=int(ambient),
            subspaces=_parse_subspaces(rest),
            coeff_scale=float(fields.get("synthetic_scale", "1.0")),
            basis_rule=fields.get("synthetic_basis", "independent-orthogonal"),
        )
    else:
        raise ParseError("config needs either data= or synthetic=")
    noise = None
    if "noise" in fields:
        clip = None
        if "noise_clip" in fields:
            lo, _, hi = fields["noise_clip"].partition(",")
            clip = (float(lo), float(hi))
        noise = NoiseSpec(
            kind=fields["noise"], rho=float(fields.get("noise_rho", "0.1")), clip=clip
        )
    try:
        return evaluation.ExperimentConfig(
            source=source,
            method=fields.get("method", "pce"),
            lam=float(fields.get("lambda", "1.0")),
            dim=int(fields["dim"]) if "dim" in fields else None,
            neighbors=int(fields.get("neighbors", "5")),
            noise=noise,
            noise_after_split=fields.get("noise_after_split", "false") == "true",
            trials=int(fields.get("trials", "10")),
            train_fraction=float(fields.get("train_fraction", "0.5")),
            base_seed=int(fields.get("seed", "0")),
            center=fields.get("center", "false") == "true",
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def cmd_eval(args):
    fields = _parse_config(args.config)
    cfg = _config_to_experiment(fields)
    report = evaluation.run_experiment(cfg)
    output = args.output or fields.get("output", "report.csv")
    evaluation.write_report_csv(report, output)
    k_mode = "" if report.ks[0] is None else report.k_mode
    print(f"mean={report.mean!r} std={report.std!r} k_mode={k_mode}")
    return EXIT_OK


def _parse_lambdas(text):
    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        values = list(np.arange(start, stop + step / 2, step))
    else:
        values = [float(t) for t in text.split(",")]
    if not values:
        raise ParseError("empty lambda list")
    return values


def cmd_sweep(args):
    ds = load_matrix(args.data)
    lambdas = _parse_lambdas(args.lambdas)
    with_accuracy = args.split_seed is not None
    if with_accuracy and ds.meta.get("unlabeled") == "true":
        raise ParseError("accuracy sweep needs a labeled pce-dataset file")
    if with_accuracy:
        train, test = split(ds, args.train_fraction, args.split_seed)
    svd = skinny_svd(ds.matrix)
    rows = []
    ks = []
    for lam in lambdas:
        if with_accuracy:
            fitted = model.fit(train.matrix, lam)
            predicted = evaluation.nn_classify(
                model.transform(fitted, train.matrix),
                train.labels,
                model.transform(fitted, test.matrix),
            )
            acc = evaluation.accuracy(predicted, test.labels)
            k = fitted.k
            rows.append((repr(float(lam)), k, repr(acc)))
        else:
            k = model.estimate_dimension(svd.sigma, lam)
            rows.append((repr(float(lam)), k, ""))
        ks.append(k)
    _write_csv(args.output, ("lambda", "k", "accuracy"), rows)
    if any(b < a for a, b in zip(ks, ks[1:])):
        print("error: k is not nondecreasing in lambda", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"rows={len(rows)}")
    return EXIT_OK


def cmd_spectrum(args):
    ds = load_matrix(args.data)
    svd = skinny_svd(ds.matrix)
    spectrum = svd.spectrum
    k = model.estimate_dimension(svd.sigma, args.lam)
    energy = np.cumsum(spectrum**2)
    energy /= energy[-1]
    rows = [
        (i + 1, repr(float(s)), 1 if i < k else 0, repr(float(energy[i])))
        for i, s in enumerate(spectrum)
    ]
    _write_csv(args.output, ("index", "sigma_d", "sigma_c", "cumulative_energy"), rows)
    if args.svg:
        atomic_write(
            args.svg, _polyline_svg(np.arange(1, len(spectrum) + 1), spectrum)
        )
    print(f"k={k}")
    print(f"rank={svd.rank}")
    return EXIT_OK


def _parse_sizes(text):
    sizes = []
    for tok in text.split(","):
        m, sep, n = tok.partition("x")
        if not sep:
            raise ParseError(f"bad size token {tok!r} (want MxN)")
        sizes.append((int(m), int(n)))
    return sizes


def cmd_bench(args):
    sizes = _parse_sizes(args.sizes)
    rows = []
    for m_dim, n in sizes:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([args.seed, m_dim, n]))
        )
        d = rng.standard_normal((m_dim, n))
        best = min(
            _timed_fit(d, args.lam) for _ in range(args.repeats)
        )
        rows.append((m_dim, n, f"{best:.6f}"))
        print(f"m={m_dim} n={n} fit_s={best:.6f}")
    _write_csv(args.output, ("m", "n", "fit_s"), rows)
    return EXIT_OK


def _timed_fit(d, lam):
    t0 = time.perf_counter()
    model.fit(d, lam)
    return time.perf_counter() - t0


# --- argument parsing -------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pce",
        description="Subspace learning with automatic dimension estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a projection model from a data file")
    p.add_argument("data")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--center", action="store_true")
    p.add_argument("--output", default="model.txt")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="project a data file through a model")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--output", default="features.txt")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("eval", help="run a repeated-trial classification experiment")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep lambda and record k (and accuracy)")
    p.add_argument("data")
    p.add_argument("--lambdas", required=True, help="START:STOP:STEP or comma list")
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--output", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="singular-value profile and chosen k")
    p.add_argument("data")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--output", default="spectrum.csv")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", help="time fits over generated data sizes")
    p.add_argument("--sizes", required=True, help="comma list of MxN")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--output", default="bench.csv")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
