"""Synthetic union-of-subspaces data, the two corruption models, stratified
splitting, and the text file formats.

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
# pce-dataset v1 m=<m> n=<n> classes=<s>
#   labels line, then m rows of n floats; '#' starts a comment.
# pce-matrix v1 m=<m> n=<n>
#   same without the labels line.


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


def _format_row(row):
    return " ".join(repr(float(x)) for x in row)


def save_matrix(obj, path):
    """Write a LabeledDataset or bare matrix to the text format (atomically).

    Floats use shortest-round-trip formatting, so a reload is bit-exact.
    """
    if isinstance(obj, LabeledDataset):
        matrix, labels, meta = obj.matrix, obj.labels, obj.meta
    else:
        matrix, labels, meta = np.asarray(obj, dtype=float), None, {}
    m, n = matrix.shape
    lines = []
    if labels is not None:
        s = int(labels.max()) + 1
        lines.append(f"pce-dataset v1 m={m} n={n} classes={s}")
        for key, value in sorted(meta.items()):
            lines.append(f"# meta {key}={value}")
        lines.append(" ".join(str(int(x)) for x in labels))
    else:
        lines.append(f"pce-matrix v1 m={m} n={n}")
    for i in range(m):
        lines.append(_format_row(matrix[i]))
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_header(line, lineno):
    parts = line.split()
    if not parts or parts[0] not in ("pce-dataset", "pce-matrix"):
        raise ParseError("expected a pce-dataset or pce-matrix header", line=lineno)
    if len(parts) < 2 or parts[1] != "v1":
        raise ParseError(f"unsupported format version {parts[1:2] or '?'}", line=lineno)
    fields = {}
    for tok in parts[2:]:
        key, _, value = tok.partition("=")
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
    meta = {}
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if stripped.startswith("# meta "):
            key, _, value = stripped[len("# meta ") :].partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
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
    matrix = np.empty((m, n))
    for i, (lineno, text) in enumerate(body):
        tokens = text.split()
        if len(tokens) != n:
            raise ShapeError(
                f"row {i} (line {lineno}) has {len(tokens)} values, expected {n}"
            )
        try:
            matrix[i] = [float(t) for t in tokens]
        except ValueError:
            raise ParseError("bad float literal", line=lineno) from None
    if labels is None:
        labels = np.zeros(n, dtype=int)
        meta.setdefault("unlabeled", "true")
    return LabeledDataset(matrix=matrix, labels=labels, meta=meta)
