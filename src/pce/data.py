"""Synthetic union-of-subspaces data, the two corruption models, stratified
splitting, and every v1 text format: this module alone reads and writes
dataset, matrix and model files, experiment configs and CSV tables.

All randomness flows through numpy's PCG64 generator seeded from explicit
integers, so every operation is a pure function of (inputs, seed).  Per-column
noise uses a (seed, column) seed sequence, making results independent of any
internal parallelization order.
"""

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSpec, ParseError, ShapeError, TooFewSamples
from .model import PceModel

__all__ = [
    "LabeledDataset",
    "SubspaceSpec",
    "NoiseSpec",
    "generate_union_of_subspaces",
    "add_gaussian_noise",
    "add_pixel_corruption",
    "split",
    "save_matrix",
    "load_matrix",
]


def _rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


@dataclass(frozen=True)
class LabeledDataset:
    """A data matrix (columns are samples) with per-column integer class ids."""

    matrix: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        if len(self.labels) != self.matrix.shape[1]:
            raise ShapeError(
                f"{len(self.labels)} labels for {self.matrix.shape[1]} columns"
            )

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1 if len(self.labels) else 0


@dataclass(frozen=True)
class SubspaceSpec:
    """Recipe for a union of linear subspaces in an m-dimensional ambient space.

    ``subspaces`` lists (dimension, sample count) per class.  With the
    independent-orthogonal rule the bases are mutually orthogonal blocks of a
    single orthonormal frame; random-gaussian draws each basis independently.
    """

    ambient: int
    subspaces: tuple
    coeff_scale: float = 1.0
    basis_rule: str = "independent-orthogonal"


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption recipe: additive gaussian (scaled by rho, optionally clipped)
    or per-column random pixel replacement of a rho fraction of entries."""

    kind: str  # "gaussian" | "pixel"
    rho: float
    clip: tuple | None = None


def generate_union_of_subspaces(spec: SubspaceSpec, seed: int) -> LabeledDataset:
    """Sample each class from its own linear subspace; deterministic in seed."""
    dims = [int(d) for d, _ in spec.subspaces]
    counts = [int(c) for _, c in spec.subspaces]
    total_dim = sum(dims)
    if any(d < 1 for d in dims) or any(c < d for d, c in zip(dims, counts)):
        raise InfeasibleSpec("each subspace needs dim >= 1 and count >= dim")
    if spec.basis_rule == "independent-orthogonal" and total_dim > spec.ambient:
        raise InfeasibleSpec(
            f"sum of subspace dims {total_dim} exceeds ambient {spec.ambient}"
        )
    rng = _rng(seed)
    if spec.basis_rule == "independent-orthogonal":
        frame, _ = np.linalg.qr(rng.standard_normal((spec.ambient, total_dim)))
        offsets = np.cumsum([0] + dims)
        bases = [frame[:, offsets[i] : offsets[i + 1]] for i in range(len(dims))]
    elif spec.basis_rule == "random-gaussian":
        bases = [
            np.linalg.qr(rng.standard_normal((spec.ambient, d)))[0] for d in dims
        ]
    else:
        raise InfeasibleSpec(f"unknown basis rule {spec.basis_rule!r}")
    blocks, labels = [], []
    for cls, (basis, d, c) in enumerate(zip(bases, dims, counts)):
        coeffs = rng.uniform(-spec.coeff_scale, spec.coeff_scale, size=(d, c))
        blocks.append(basis @ coeffs)
        labels.extend([cls] * c)
    return LabeledDataset(
        matrix=np.hstack(blocks),
        labels=np.array(labels),
        meta={"source": "union-of-subspaces", "seed": str(seed)},
    )


def add_gaussian_noise(d, rho, clip=None, seed=0):
    """Add rho-scaled standard-normal noise entrywise, clamping to ``clip``."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    for j in range(d.shape[1]):
        g = _rng(seed, j).standard_normal(d.shape[0])
        out[:, j] = d[:, j] + rho * g
    if clip is not None:
        np.clip(out, clip[0], clip[1], out=out)
    return out


def add_pixel_corruption(d, rho, seed=0):
    """Replace a rho fraction of each column's entries (round half up) with
    uniform draws over [0, column max]."""
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    d = np.asarray(d, dtype=float).copy()
    m = d.shape[0]
    count = int(np.floor(rho * m + 0.5))
    for j in range(d.shape[1]):
        rng = _rng(seed, j)
        rows = rng.choice(m, size=count, replace=False)
        pmax = d[:, j].max()
        d[rows, j] = rng.uniform(0.0, pmax, size=count)
    return d


def split(ds: LabeledDataset, train_fraction, seed: int):
    """Per-class stratified split; train size is round-half-up of the fraction,
    clamped so both sides keep every class."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = _rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(ds.labels):
        members = np.nonzero(ds.labels == cls)[0]
        if len(members) < 2:
            raise TooFewSamples(f"class {cls} has {len(members)} sample(s)")
        perm = rng.permutation(len(members))
        take = int(np.floor(train_fraction * len(members) + 0.5))
        take = min(max(take, 1), len(members) - 1)
        train_idx.extend(members[perm[:take]])
        test_idx.extend(members[perm[take:]])
    train_idx = np.sort(train_idx)
    test_idx = np.sort(test_idx)
    meta = dict(ds.meta)
    return (
        LabeledDataset(ds.matrix[:, train_idx], ds.labels[train_idx], meta),
        LabeledDataset(ds.matrix[:, test_idx], ds.labels[test_idx], meta),
    )


# --- text formats -----------------------------------------------------------
#
# pce-dataset v1 m=<m> n=<n> classes=<s>: a labels line, then m rows of n floats.
# pce-matrix v1 m=<m> n=<n>: the same without the labels line.
# pce-model v1: lambda=, k=, m=, n=, spectrum= and optional center= lines, then
#   "theta:" and m rows of k floats.
# Configs are key=value lines.  In all of these '#' starts a comment.

MODEL_HEADER = "pce-model v1"


def atomic_write(path, text):
    """Write ``text`` to ``path`` through a temp file in the same directory and
    a rename, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a comma-separated table with '\\n' line endings, atomically."""
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def _format_floats(values):
    """Space-separated shortest-round-trip floats, so a reload is bit-exact."""
    return " ".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _with_meta(header, meta):
    return [header] + [f"# meta {key}={value}" for key, value in sorted(meta.items())]


def _read_lines(path):
    """Return (meta, lines): the '# meta key=value' comments, and the stripped
    lines that are neither blank nor comments as (1-based lineno, text)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    meta, lines = {}, []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if text.startswith("# meta "):
            key, _, value = text[len("# meta ") :].partition("=")
            meta[key.strip()] = value.strip()
        elif text and not text.startswith("#"):
            lines.append((lineno, text))
    return meta, lines


def _split_field(lineno, text):
    key, sep, value = text.partition("=")
    if not sep:
        raise ParseError(f"expected key=value, got {text!r}", line=lineno)
    return key.strip(), value.strip()


def _parse_floats(lineno, text, count, what):
    """``count`` floats from one line; a ragged line is a ShapeError naming
    ``what``, a bad literal a ParseError."""
    tokens = text.split()
    if len(tokens) != count:
        raise ShapeError(
            f"{what} (line {lineno}) has {len(tokens)} values, expected {count}"
        )
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ParseError("bad float literal", line=lineno) from None


def _parse_rows(rows, count, what):
    matrix = np.empty((len(rows), count))
    for i, (lineno, text) in enumerate(rows):
        matrix[i] = _parse_floats(lineno, text, count, f"{what} {i}")
    return matrix


def save_matrix(obj, path):
    """Write a LabeledDataset or bare matrix to the text format (atomically).

    Floats use shortest-round-trip formatting, so a reload is bit-exact.
    """
    if isinstance(obj, LabeledDataset):
        matrix, labels, meta = obj.matrix, obj.labels, obj.meta
    else:
        matrix, labels, meta = np.asarray(obj, dtype=float), None, {}
    m, n = matrix.shape
    if labels is not None:
        s = int(labels.max()) + 1
        lines = _with_meta(f"pce-dataset v1 m={m} n={n} classes={s}", meta)
        lines.append(" ".join(str(int(x)) for x in labels))
    else:
        lines = [f"pce-matrix v1 m={m} n={n}"]
    lines.extend(map(_format_floats, matrix))
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_header(line, lineno):
    parts = line.split()
    if not parts or parts[0] not in ("pce-dataset", "pce-matrix"):
        raise ParseError("expected a pce-dataset or pce-matrix header", line=lineno)
    if len(parts) < 2 or parts[1] != "v1":
        raise ParseError(f"unsupported format version {parts[1:2] or '?'}", line=lineno)
    fields = {}
    for tok in parts[2:]:
        key, value = _split_field(lineno, tok)
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"bad header field {tok!r}", line=lineno) from None
    for key in ("m", "n"):
        if key not in fields:
            raise ParseError(f"header missing {key}=", line=lineno)
    return parts[0], fields


def load_matrix(path):
    """Load a dataset or matrix file.  Returns a LabeledDataset; bare matrices
    get an all-zeros label vector and meta['unlabeled'] = 'true'."""
    meta, lines = _read_lines(path)
    if not lines:
        raise ParseError("empty file", line=1)
    kind, fields = _parse_header(*reversed(lines[0]))
    m, n = fields["m"], fields["n"]
    body = lines[1:]
    labels = None
    if kind == "pce-dataset":
        if not body:
            raise ParseError("missing labels line", line=lines[0][0])
        lineno, text = body[0]
        try:
            labels = np.array([int(t) for t in text.split()], dtype=int)
        except ValueError:
            raise ParseError("labels must be integers", line=lineno) from None
        if len(labels) != n:
            raise ParseError(
                f"expected {n} labels, found {len(labels)}", line=lineno
            )
        declared = fields.get("classes")
        if declared is not None and labels.size and labels.max() + 1 != declared:
            raise ParseError(
                f"labels imply {labels.max() + 1} classes, header says {declared}",
                line=lineno,
            )
        body = body[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} data rows, found {len(body)}", line=lines[0][0])
    matrix = _parse_rows(body, n, "row")
    if labels is None:
        labels = np.zeros(n, dtype=int)
        meta.setdefault("unlabeled", "true")
    return LabeledDataset(matrix=matrix, labels=labels, meta=meta)


def save_model(model: PceModel, path, meta=None):
    """Serialize a fitted model; the file is byte-reproducible for a given fit."""
    lines = _with_meta(MODEL_HEADER, meta or {})
    lines += [
        f"lambda={model.lam!r}",
        f"k={model.k}",
        f"m={model.ambient_dim}",
        f"n={model.train_cols}",
        f"spectrum={_format_floats(model.spectrum)}",
    ]
    if model.center is not None:
        lines.append(f"center={_format_floats(model.center)}")
    lines.append("theta:")
    lines.extend(map(_format_floats, model.theta))
    atomic_write(path, "\n".join(lines) + "\n")


def load_model(path) -> PceModel:
    """Load a pce-model v1 file, checked as strictly as a data file: lambda is
    finite and > 0, 1 <= k <= min(m, n), the spectrum has min(m, n) values,
    center has m, theta is m x k, and every value is finite."""
    _, lines = _read_lines(path)
    if not lines or lines[0][1] != MODEL_HEADER:
        raise ParseError(
            f"expected header {MODEL_HEADER!r}", line=lines[0][0] if lines else 1
        )
    fields, theta_rows, body = {}, [], lines[1:]
    for i, (lineno, text) in enumerate(body):
        if text == "theta:":
            theta_rows = body[i + 1 :]
            break
        key, value = _split_field(lineno, text)
        fields[key] = (lineno, value)
    try:
        lam = float(fields["lambda"][1])
        k, m, n = (int(fields[key][1]) for key in ("k", "m", "n"))
        spectrum = np.array(_parse_floats(*fields["spectrum"], min(m, n), "spectrum"))
    except KeyError as exc:
        raise ParseError(f"model file missing field {exc}") from None
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from None
    if not (np.isfinite(lam) and lam > 0):
        raise ParseError(f"lambda={lam!r} must be finite and > 0")
    if not 1 <= k <= min(m, n):
        raise ParseError(f"k={k} must lie in [1, min(m, n)] = [1, {min(m, n)}]")
    center = None
    if "center" in fields:
        center = np.array(_parse_floats(*fields["center"], m, "center"))
    if len(theta_rows) != m:
        raise ShapeError(f"expected {m} theta rows, found {len(theta_rows)}")
    theta = _parse_rows(theta_rows, k, "theta row")
    finite = (np.isfinite(v).all() for v in (theta, spectrum, center) if v is not None)
    if not all(finite):
        raise ParseError("model file holds a non-finite value")
    return PceModel(
        lam=lam, k=k, theta=theta, spectrum=spectrum, train_cols=n, center=center
    )


def load_config(path):
    """Read an experiment config: ``key=value`` lines, '#' comments."""
    _, lines = _read_lines(path)
    return dict(_split_field(*line) for line in lines)
