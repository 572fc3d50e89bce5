"""Synthetic union-of-subspaces data, the two corruption models, stratified
splitting, and every v1 text format: this module alone reads and writes
dataset, matrix and model files, experiment configs and CSV tables.

All randomness flows through numpy's default generator (PCG64) seeded from
explicit integers, so every operation is a pure function of (inputs, seed).
Each noise call draws one stream from ``[seed, 1]``: the generator and
``split`` seed ``[seed]``, which numpy pads to ``[seed, 0]``, so noise never
repeats the draws that built its data, and the noise of ``d[:, :p]`` is the
first p columns of the noise of ``d``.  Samples are columns, kept
column-major (Fortran order) by the generator, ``split`` and both noise
models; ``add_gaussian_noise`` makes one ``standard_normal`` draw, and
``add_pixel_corruption``'s per-column loop reads contiguous memory.
"""

import os
import stat
import tempfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, NonFinite, ParseError, PceError, TooFewSamples
from .linalg import _check_matrix
from .model import PceModel, describe

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


@dataclass(frozen=True)
class LabeledDataset:
    """A data matrix (columns are samples) with integer class ids per column or None."""

    matrix: np.ndarray
    labels: np.ndarray | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.labels is not None:
            object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
            if len(self.labels) != self.matrix.shape[1]:
                msg = f"{len(self.labels)} labels for {self.matrix.shape[1]} columns"
                raise DimensionMismatch(msg)

    @property
    def n_classes(self):
        if self.labels is None or not len(self.labels):
            return 0
        return int(self.labels.max()) + 1


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

    def __post_init__(self):
        if self.basis_rule not in ("independent-orthogonal", "random-gaussian"):
            raise ValueError(f"unknown basis rule {self.basis_rule!r}")
        if not self.subspaces or any(not 1 <= d <= c for d, c in self.subspaces):
            raise ValueError("at least one subspace, each with 1 <= dim <= count")
        total_dim = sum(d for d, _ in self.subspaces)
        if self.basis_rule == "independent-orthogonal" and total_dim > self.ambient:
            raise ValueError(
                f"sum of subspace dims {total_dim} exceeds ambient {self.ambient}"
            )
        if self.ambient < 1:
            raise ValueError(f"ambient dimension {self.ambient} must be >= 1")
        if not np.isfinite(2.0 * self.coeff_scale):
            raise ValueError(
                f"scale {self.coeff_scale!r}: [-scale, scale] needs a finite width"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption recipe: additive gaussian (scaled by rho, optionally clipped)
    or per-column random pixel replacement of a rho fraction of entries."""

    kind: str  # "gaussian" | "pixel"
    rho: float
    clip: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "pixel"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "pixel":
            _check_pixel_fraction(self.rho)
        else:
            _check_gaussian_rho(self.rho)
        if self.clip is not None:
            if self.kind == "pixel":
                raise ValueError(f"pixel noise takes no clip, got {self.clip!r}")
            _check_clip(self.clip)


def generate_union_of_subspaces(spec: SubspaceSpec, seed: int) -> LabeledDataset:
    """Sample each class from its own linear subspace; deterministic in seed."""
    dims = [int(d) for d, _ in spec.subspaces]
    counts = [int(c) for _, c in spec.subspaces]
    rng = np.random.default_rng([seed])
    if spec.basis_rule == "independent-orthogonal":
        frame, _ = np.linalg.qr(rng.standard_normal((spec.ambient, sum(dims))))
        offsets = np.cumsum([0] + dims)
        bases = [frame[:, offsets[i] : offsets[i + 1]] for i in range(len(dims))]
    else:
        bases = [
            np.linalg.qr(rng.standard_normal((spec.ambient, d)))[0] for d in dims
        ]
    matrix = np.empty((spec.ambient, sum(counts)), order="F")
    starts = np.cumsum([0] + counts)
    for basis, d, c, start in zip(bases, dims, counts, starts):
        coeffs = rng.uniform(-spec.coeff_scale, spec.coeff_scale, size=(d, c))
        matrix[:, start : start + c] = basis @ coeffs
    return LabeledDataset(
        matrix=matrix,
        labels=np.repeat(np.arange(len(counts)), counts),
        meta={"source": "union-of-subspaces", "seed": str(seed)},
    )


def add_gaussian_noise(d, rho, clip=None, seed=0):
    """Add rho-scaled standard-normal noise entrywise, clamping to ``clip``; an
    entry that overflows lands on a bound, or without ``clip`` is NonFinite."""
    _check_gaussian_rho(rho)
    if clip is not None:
        _check_clip(clip)
    d = _check_matrix(d)
    # row j of the draw is column j's noise, so its transpose is column-major
    out = np.random.default_rng([seed, 1]).standard_normal(d.shape[::-1]).T
    try:
        with np.errstate(over="raise" if clip is None else "ignore"):
            out *= rho
            out += d
    except FloatingPointError:
        raise NonFinite(f"gaussian noise at rho={rho!r} overflows the float range") from None
    if clip is not None:
        np.clip(out, clip[0], clip[1], out=out)
    return out


def _check_clip(clip):
    # a NaN bound fails lo < hi too; infinite bounds are allowed
    if not (len(clip) == 2 and clip[0] < clip[1]):
        raise ValueError(f"noise clip needs two numbers lo < hi, got {clip!r}")


def _check_gaussian_rho(rho):
    # a NaN rho fails both comparisons
    if not 0 <= rho < np.inf:
        raise ValueError(f"gaussian noise rho must be finite and >= 0, got {rho!r}")


def _check_pixel_fraction(rho):
    if not 0 < rho <= 1:
        raise ValueError(f"pixel rho must lie in (0, 1], got {rho!r}")


def add_pixel_corruption(d, rho, seed=0):
    """Replace a rho fraction of each column's entries (round half up) with
    uniform draws between 0 and the column max: over [0, max] when the max
    is >= 0, and over [max, 0] when every entry is negative."""
    _check_pixel_fraction(rho)
    d = np.array(_check_matrix(d), order="F")  # a copy: the caller's d is kept
    m = d.shape[0]
    count = int(np.floor(rho * m + 0.5))
    rng = np.random.default_rng([seed, 1])
    for j in range(d.shape[1]):
        rows = rng.choice(m, size=count, replace=False)
        pmax = d[:, j].max()
        d[rows, j] = rng.uniform(min(0.0, pmax), max(0.0, pmax), size=count)
    return d


def require_labels(ds: LabeledDataset, purpose):
    """``ds`` itself, or a ParseError naming ``purpose`` when ``ds.labels`` is
    None, as it is for a pce-matrix file: such data has no classes to score."""
    if ds.labels is None:
        raise ParseError(f"{purpose} needs a labeled pce-dataset file")
    return ds


def split(ds: LabeledDataset, train_fraction, seed: int):
    """Per-class stratified split; train size is round-half-up of the fraction,
    clamped so both sides keep every class.  Unlabeled data is a ParseError."""
    require_labels(ds, "split")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng([seed])
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
# Any other header or model field is a ParseError.  Configs are key=value
# lines.  In all of these a line that starts with '#' is a comment.  Every file
# is UTF-8 text; one that does not decode is a ParseError, and so is a float
# that is not finite (nan, inf, or one that overflows, such as 1e400).

MODEL_HEADER = "pce-model v1"
MODEL_FIELDS = ("lambda", "k", "m", "n", "spectrum", "center")


def _check_path(path):
    # open, mkstemp and os.replace raise ValueError on a NUL byte in a path
    if "\0" in os.fsdecode(path):
        raise ParseError(f"path {path!r} holds a NUL byte")


def _output_mode(path):
    """The mode ``open(path, "w")`` would leave: an existing file keeps its
    own, a new one gets 0o666 less the umask (mkstemp alone gives 0o600)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o077)  # the only way to read it; restored at once
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write(path, lines):
    """Write the text ``lines`` to ``path`` one at a time, each ended by '\\n',
    through a temp file in the same directory and a rename, so readers never
    see a partial file.  A symlink at ``path`` is written through, as
    ``open(path, "w")`` would, not replaced."""
    _check_path(path)
    path = os.path.realpath(path)
    mode = _output_mode(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a comma-separated table with '\\n' line endings, atomically."""
    atomic_write(path, (",".join(map(str, row)) for row in chain([header], rows)))


def _format_floats(values):
    """Space-separated shortest-round-trip floats, so a reload is bit-exact."""
    return " ".join(map(repr, np.asarray(values, dtype=float).tolist()))


_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # all that str.splitlines honours
_ESCAPED_BREAKS = str.maketrans(
    {c: c.encode("unicode_escape").decode() for c in _LINE_BREAKS}
)


def _meta_value(value):
    """``value`` as one line of UTF-8: line breaks are escaped, and the bytes of
    a file name that is not UTF-8 (os.fsdecode's surrogates) are written as \\xNN."""
    text = str(value).translate(_ESCAPED_BREAKS)
    return text.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def _with_meta(header, meta):
    return [header] + [
        f"# meta {key}={_meta_value(value)}" for key, value in sorted(meta.items())
    ]


def _read_lines(path):
    """Return (meta, lines): the '# meta key=value' comments, whose values are
    kept exactly as written, and the stripped lines that are neither blank nor
    comments as (1-based lineno, text)."""
    _check_path(path)
    raw = []
    with open(path, "rb") as fh:
        # no other UTF-8 character holds the byte \n, so splitting each piece
        # gives the lines that splitlines gives on the whole text
        for piece in fh:
            try:
                raw.extend(piece.decode("utf-8").splitlines())
            except UnicodeDecodeError as exc:
                msg = f"{path} is not UTF-8 text: {exc}"
                raise ParseError(msg, line=len(raw) + 1) from None
    meta, lines = [], []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if text.startswith("# meta "):
            key, _, value = line.lstrip()[len("# meta ") :].partition("=")
            meta.append((lineno, key.strip(), value))
        elif text and not text.startswith("#"):
            lines.append((lineno, text))
    return _unique_keys(meta), lines


def _split_field(lineno, text):
    key, sep, value = text.partition("=")
    if not sep:
        raise ParseError(f"expected key=value, got {text!r}", line=lineno)
    return key.strip(), value.strip()


def _unique_keys(triples):
    """A dict from (lineno, key, value) triples: the one home of the rule that
    a key in a config, a header, a model file or a '# meta' comment is given
    at most once.  A repeated key is a ParseError that names both lines."""
    fields, first = {}, {}
    for lineno, key, value in triples:
        if key in fields:
            msg = f"{key}= is given again (first on line {first[key]})"
            raise ParseError(msg, line=lineno)
        fields[key], first[key] = value, lineno
    return fields


def _parse_rows(rows, count, what):
    """An array of ``count`` floats per (lineno, text) row: the one parser of
    v1 float lines.  A ragged row is a ParseError naming ``what`` (formatted
    with the row index i); a bad literal or a non-finite value (nan, inf, or a
    literal that overflows, such as 1e400) is a ParseError naming its line."""
    try:
        matrix = np.empty((len(rows), count))
    except MemoryError:  # a header can declare more values than memory holds
        raise ParseError(f"{len(rows)} x {count} floats do not fit in memory") from None
    for i, (lineno, text) in enumerate(rows):
        tokens = text.split()
        if len(tokens) != count:
            raise ParseError(
                f"{what.format(i=i)} (line {lineno}) has {len(tokens)} values, "
                f"expected {count}"
            )
        try:
            matrix[i] = [float(t) for t in tokens]
        except ValueError:
            raise ParseError("bad float literal", line=lineno) from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        msg = f"{what.format(i=i)} holds a non-finite value"
        raise ParseError(msg, line=rows[i][0])
    return matrix


def save_matrix(obj, path):
    """Write a LabeledDataset, or a bare matrix as one without labels, to the
    text format (atomically): pce-matrix when ``labels`` is None, else pce-dataset.

    Floats use shortest-round-trip formatting, so a reload is bit-exact.
    """
    if not isinstance(obj, LabeledDataset):
        obj = LabeledDataset(np.asarray(obj, dtype=float), None)
    m, n = _check_matrix(obj.matrix).shape  # a matrix load_matrix refuses is never written
    lines = _with_meta(f"pce-matrix v1 m={m} n={n}", obj.meta)
    if obj.labels is not None:
        lines[0] = f"pce-dataset v1 m={m} n={n} classes={obj.n_classes}"
        lines.append(" ".join(str(int(x)) for x in obj.labels))
    atomic_write(path, chain(lines, map(_format_floats, obj.matrix)))


def _parse_header(line, lineno):
    parts = line.split()
    if not parts or parts[0] not in ("pce-dataset", "pce-matrix"):
        raise ParseError("expected a pce-dataset or pce-matrix header", line=lineno)
    if len(parts) < 2 or parts[1] != "v1":
        raise ParseError(f"unsupported format version {parts[1:2] or '?'}", line=lineno)
    known = ("m", "n", "classes") if parts[0] == "pce-dataset" else ("m", "n")
    triples = []
    for tok in parts[2:]:
        key, value = _split_field(lineno, tok)
        if key not in known:
            raise ParseError(f"unknown header field {key}=", line=lineno)
        try:
            triples.append((lineno, key, int(value)))
        except ValueError:
            raise ParseError(f"bad header field {tok!r}", line=lineno) from None
    fields = _unique_keys(triples)
    for key in ("m", "n"):
        if key not in fields:
            raise ParseError(f"header missing {key}=", line=lineno)
        if fields[key] < 1:
            raise ParseError(f"header {key}={fields[key]} must be >= 1", line=lineno)
    return parts[0], fields


def load_matrix(path):
    """Load a dataset or matrix file as a LabeledDataset.  Only the header says
    whether there are labels: a pce-matrix file loads with ``labels=None``
    and saves back as the same bytes.  '# meta' lines only annotate."""
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
    matrix = _parse_rows(body, n, "row {i}")
    return LabeledDataset(matrix=matrix, labels=labels, meta=meta)


def _check_model(model: PceModel):
    """``model``, if it keeps the rules of a model file that writer and reader share:
    shapes and finite values as parsing checks them, and 1 <= k == describe's k."""
    (m, k), n = model.theta.shape, model.train_cols
    for name, values, shape in (("spectrum", model.spectrum, (min(m, n),)),
                                ("center", model.center, (m,)), ("theta", model.theta, (m, k))):
        if values is not None and np.shape(values) != shape:
            raise ParseError(f"{name} has shape {np.shape(values)}, expected {shape}")
        if values is not None and not np.isfinite(values).all():
            raise ParseError(f"{name} holds a non-finite value")
    try:  # estimate_dimension's one check of the spectrum and lambda
        kept = describe(model.spectrum, model.lam, (m, n)).k
    except (PceError, ValueError) as exc:
        raise ParseError(f"bad model spectrum or lambda: {exc}") from None
    if not 1 <= k == kept:
        raise ParseError(f"k={k} must be >= 1 and the k={kept} lambda={model.lam!r} keeps")
    return model


def save_model(model: PceModel, path, meta=None):
    """Serialize a model byte-reproducibly; one that ``load_model`` refuses raises first."""
    _check_model(model)
    lines = _with_meta(MODEL_HEADER, meta or {})
    lines += [
        f"lambda={float(model.lam)!r}",
        f"k={model.k}",
        f"m={model.ambient_dim}",
        f"n={model.train_cols:d}",  # a float n raises here, as load_model reads an int
        f"spectrum={_format_floats(model.spectrum)}",
    ]
    if model.center is not None:
        lines.append(f"center={_format_floats(model.center)}")
    lines.append("theta:")
    atomic_write(path, chain(lines, map(_format_floats, model.theta)))


def load_model(path) -> PceModel:
    """Load a pce-model v1 file.  Parsing reads the header, the fields and the
    row counts; ``_check_model`` then applies the rules ``save_model`` applies."""
    _, lines = _read_lines(path)
    if not lines or lines[0][1] != MODEL_HEADER:
        raise ParseError(
            f"expected header {MODEL_HEADER!r}", line=lines[0][0] if lines else 1
        )
    head, theta_rows, body = [], [], lines[1:]
    for i, (lineno, text) in enumerate(body):
        if text == "theta:":
            theta_rows = body[i + 1 :]
            break
        key, value = _split_field(lineno, text)
        if key not in MODEL_FIELDS:
            raise ParseError(f"unknown model field {key}=", line=lineno)
        head.append((lineno, key, (lineno, value)))
    fields = _unique_keys(head)
    try:
        lam = float(fields["lambda"][1])
        k, m, n = (int(fields[key][1]) for key in ("k", "m", "n"))
        spectrum = _parse_rows([fields["spectrum"]], min(m, n), "spectrum")[0]
    except KeyError as exc:
        raise ParseError(f"model file missing field {exc}") from None
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from None
    center = _parse_rows([fields["center"]], m, "center")[0] if "center" in fields else None
    if not 1 <= k <= min(m, n):  # before k sizes theta's parse
        raise ParseError(f"k={k} must lie in [1, min(m, n)] = [1, {min(m, n)}]")
    if len(theta_rows) != m:
        raise ParseError(f"expected {m} theta rows, found {len(theta_rows)}")
    theta = _parse_rows(theta_rows, k, "theta row {i}")
    return _check_model(PceModel(lam, theta, spectrum, n, center))


def load_config(path):
    """Read an experiment config: ``key=value`` lines, '#' comments."""
    _, lines = _read_lines(path)
    return _unique_keys((lineno, *_split_field(lineno, text)) for lineno, text in lines)
