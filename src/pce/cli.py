"""Command-line front end: ``pce fit|transform|eval|sweep|spectrum|bench``.

Exit codes are a stable contract: 0 success, 1 input/config errors, 2
numerical/domain errors.  All outputs are written atomically (temp file then
rename) and all floats use shortest-round-trip formatting.
"""

import argparse
import math
import sys

import numpy as np

from . import evaluation, model
from .data import (
    NoiseSpec,
    SubspaceSpec,
    _rng,
    atomic_write,
    load_config,
    load_matrix,
    load_model,
    require_labels,
    save_matrix,
    save_model,
    split,
    write_csv,
)
from .errors import InfeasibleSpec, ParseError, PceError, ShapeError
from .linalg import skinny_svd

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

MAX_LAMBDAS = 10_000  # a START:STOP:STEP grid longer than this is refused


def _polyline_svg(xs, ys, width=640, height=400, margin=40):
    """Minimal single-series line chart as SVG lines; no dependencies,
    best-effort output."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    px = margin + (xs - x0) / xspan * (width - 2 * margin)
    py = height - margin - (ys - y0) / yspan * (height - 2 * margin)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline fill="none" stroke="steelblue" points="{points}"/>',
        "</svg>",
    ]


# --- subcommands ------------------------------------------------------------


def cmd_fit(args):
    ds = load_matrix(args.data)
    fitted = model.fit(ds.matrix, args.lam, center=args.center)
    save_model(fitted, args.output, meta={"source": args.data})
    summary = model.describe(fitted.spectrum, fitted.lam, ds.matrix.shape)
    print(f"k={summary.k}")
    print(f"rank={summary.rank}")
    print(f"error_norm={summary.error_norm!r}")
    print(f"seconds={fitted.fit_seconds:.6f}")
    return EXIT_OK


def cmd_transform(args):
    m = load_model(args.model)
    ds = load_matrix(args.data)
    z = model.transform(m, ds.matrix)
    save_matrix(z, args.output)
    print(f"rows={z.shape[0]}")
    print(f"cols={z.shape[1]}")
    return EXIT_OK


def _parse_pairs(text, want):
    # "4x20,4x20,..." -> ((4, 20), (4, 20), ...)
    pairs = []
    for tok in text.split(","):
        a, _, b = tok.partition("x")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ParseError(f"bad token {tok!r} (want {want})") from None
    return tuple(pairs)


# eval config key -> (dataclass, field, type); an omitted key takes the
# field's default, and keys are converted in this order
FIELD_KEYS = {
    "synthetic_scale": (SubspaceSpec, "coeff_scale", float),
    "synthetic_basis": (SubspaceSpec, "basis_rule", str),
    "method": (evaluation.ExperimentConfig, "method", str),
    "lambda": (evaluation.ExperimentConfig, "lam", float),
    "dim": (evaluation.ExperimentConfig, "dim", int),
    "neighbors": (evaluation.ExperimentConfig, "neighbors", int),
    "noise_after_split": (evaluation.ExperimentConfig, "noise_after_split", bool),
    "trials": (evaluation.ExperimentConfig, "trials", int),
    "train_fraction": (evaluation.ExperimentConfig, "train_fraction", float),
    "seed": (evaluation.ExperimentConfig, "base_seed", int),
    "center": (evaluation.ExperimentConfig, "center", bool),
}
CONFIG_KEYS = ("data", "synthetic", *FIELD_KEYS, "noise", "noise_rho", "noise_clip", "output")


def _build(cls, fields, **given):
    """``cls`` from ``given`` and the FIELD_KEYS of ``cls`` that ``fields`` holds."""
    for key, (owner, name, kind) in FIELD_KEYS.items():
        if owner is cls and key in fields:
            value = fields[key]
            if kind is bool and value not in ("true", "false"):
                raise ParseError(f"{key}={value!r} must be true or false")
            given[name] = value == "true" if kind is bool else kind(value)
    return cls(**given)


def _config_to_experiment(fields):
    unknown = [key for key in fields if key not in CONFIG_KEYS]
    if unknown:
        raise ParseError(f"unknown config key {unknown[0]!r}")
    if "data" in fields:
        source = fields["data"]
    elif "synthetic" in fields:
        ambient, sep, rest = fields["synthetic"].partition(":")
        if not sep:
            raise ParseError("synthetic wants M:D1xC1,D2xC2,...")
        ambient, pairs = int(ambient), _parse_pairs(rest, "DIMxCOUNT")
        source = _build(SubspaceSpec, fields, ambient=ambient, subspaces=pairs)
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
    return _build(evaluation.ExperimentConfig, fields, source=source, noise=noise)


def cmd_eval(args):
    fields = load_config(args.config)
    try:
        cfg = _config_to_experiment(fields)
    except (ValueError, InfeasibleSpec) as exc:
        raise ParseError(str(exc)) from None
    report = evaluation.run_experiment(cfg)
    output = args.output or fields.get("output", "report.csv")
    evaluation.write_report_csv(report, output)
    k_mode = "" if report.k_mode is None else report.k_mode
    print(f"mean={report.mean!r} std={report.std!r} k_mode={k_mode}")
    return EXIT_OK


def _parse_lambdas(text):
    try:
        if ":" in text:
            start, stop, step = (float(t) for t in text.split(":"))
            if not step > 0:
                raise ParseError(f"lambda step must be > 0, got {step!r}")
            # a STOP of +inf is an unbounded grid, which the cap below refuses
            for name, value in (("START", start), ("STOP", stop)):
                if not math.isfinite(value) and (name, value) != ("STOP", math.inf):
                    raise ParseError(f"lambda range {text!r}: {name} {value!r} is not finite")
            # START + i*STEP <= STOP; the margin keeps 0.1:0.3:0.1 at 3 values
            span = (stop - start) / step + 1e-9
            # a +inf or NaN span (0:inf:inf) is unbounded; a -inf one is empty
            if not span < MAX_LAMBDAS:
                raise ParseError(
                    f"lambda range {text!r} would hold more than {MAX_LAMBDAS} values"
                )
            # START joins only when START <= STOP; i = 0 gives START itself,
            # as 0 * STEP is nan for an infinite STEP
            count = math.floor(span) + 1 if start <= stop else 0
            values = [start + i * step if i else start for i in range(count)]
        else:
            values = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad lambda list {text!r}: {exc}") from None
    if not values:
        raise ParseError("empty lambda list")
    return values


def _check_seed(seed, flag):
    # SeedSequence refuses negative entropy; that is an input error
    if seed is not None and seed < 0:
        raise ParseError(f"{flag} must be >= 0, got {seed}")


def cmd_sweep(args):
    """Every k from one SVD of the swept matrix (the train half with a split),
    and the features for every k from the first k rows of one projection."""
    _check_seed(args.split_seed, "--split-seed")
    if not 0 < args.train_fraction < 1:
        raise ParseError(f"--train-fraction {args.train_fraction} is not in (0, 1)")
    ds = load_matrix(args.data)
    lambdas = _parse_lambdas(args.lambdas)
    with_accuracy = args.split_seed is not None
    if with_accuracy:
        labeled = require_labels(ds, "accuracy sweep")
        train, test = split(labeled, args.train_fraction, args.split_seed)
    svd = skinny_svd(train.matrix if with_accuracy else ds.matrix, right=False)
    if with_accuracy:  # a lambda that keeps no dimension fails as fit does
        ks = [model._kept_dimension(svd, lam) for lam in lambdas]
    else:
        ks = [model.estimate_dimension(svd.sigma, lam) for lam in lambdas]
    ascending = [k for _, k in sorted(zip(lambdas, ks))]
    if any(b < a for a, b in zip(ascending, ascending[1:])):
        print("error: k is not nondecreasing in lambda", file=sys.stderr)
        return EXIT_NUMERIC
    acc = dict.fromkeys(ks, "")
    if with_accuracy:
        theta = model.closed_form_projection(svd, max(ks))
        z_train, z_test = (model._project(theta, part.matrix) for part in (train, test))
        for k in acc:
            predicted = evaluation.nn_classify(z_train[:k], train.labels, z_test[:k])
            acc[k] = repr(evaluation.accuracy(predicted, test.labels))
    rows = [(repr(float(lam)), k, acc[k]) for lam, k in zip(lambdas, ks)]
    write_csv(args.output, ("lambda", "k", "accuracy"), rows)
    print(f"rows={len(rows)}")
    return EXIT_OK


def cmd_spectrum(args):
    ds = load_matrix(args.data)
    spectrum = skinny_svd(ds.matrix, right=False).spectrum
    summary = model.describe(spectrum, args.lam, ds.matrix.shape)
    rows = [
        (i + 1, repr(float(s)), 1 if i < summary.k else 0, repr(float(energy)))
        for i, (s, energy) in enumerate(zip(spectrum, summary.cumulative_energy))
    ]
    write_csv(args.output, ("index", "sigma_d", "sigma_c", "cumulative_energy"), rows)
    if args.svg:
        atomic_write(args.svg, _polyline_svg(np.arange(1, len(spectrum) + 1), spectrum))
    print(f"k={summary.k}")
    print(f"rank={summary.rank}")
    return EXIT_OK


def cmd_bench(args):
    _check_seed(args.seed, "--seed")
    sizes = _parse_pairs(args.sizes, "MxN")
    if any(side < 1 for pair in sizes for side in pair):
        raise ParseError(f"--sizes sides must be >= 1, got {args.sizes!r}")
    if args.repeats < 1:
        raise ParseError(f"--repeats must be >= 1, got {args.repeats}")
    rows = []
    for m_dim, n in sizes:
        d = _rng(args.seed, m_dim, n).standard_normal((m_dim, n))
        best = min(model.fit(d, args.lam).fit_seconds for _ in range(args.repeats))
        rows.append((m_dim, n, f"{best:.6f}"))
        print(f"m={m_dim} n={n} fit_s={best:.6f}")
    write_csv(args.output, ("m", "n", "fit_s"), rows)
    return EXIT_OK


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


def _fail(exc, code):
    notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
    print(f"error: {exc}{notes}", file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ShapeError, OSError) as exc:
        return _fail(exc, EXIT_INPUT)
    except (PceError, ValueError) as exc:
        return _fail(exc, EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
