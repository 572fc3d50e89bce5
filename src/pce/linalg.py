"""Dense linear-algebra kernels on numpy alone: the skinny SVD, the rank
tolerance, canonical column signs and eigenvalue order, and ``_check_matrix``,
the one check of a sample matrix.  Every public function that takes one
(``fit``, ``transform``, ``pca_fit``, ``skinny_svd``, ``lle_graph``,
``nn_classify`` and both noise models) passes it through ``_check_matrix``,
as ``embed`` passes its weights: an input that is not 2-d or has no rows or
columns is a DimensionMismatch, and NaN or Inf is NonFinite.

``skinny_svd`` holds the library's one ``np.linalg.svd`` call, and every SVD
but NPE's PCA step (``evaluation._npe_pca``) goes through it: that step keeps
triplets with sigma_1^2 / sigma_r^2 < 50 n, so one ``eigh`` of the n x n Gram
loses about 50 n ulps.  Both follow one scale rule: divide by a power of two
(``_unit_scale``), factor, then scale sigma back and check it
(``_spectrum_of``), so each is exact under d -> 2^j d wherever the input and
sigma are normal floats.  A wide ``d`` takes Chan's R-SVD (see
``skinny_svd``), which agrees with the plain call to rounding, not to the bit.
``u`` is always taken; ``SvdFactors.require_v`` is the one reader of V, and
refuses factors taken without.  ``SvdFactors.sigma`` is ``spectrum[:rank]``,
not a copy, so the truncation is stored once.

Everything here is deterministic: identical inputs produce bitwise-identical
outputs on a given platform and BLAS thread count.  Across thread counts the
bits may differ.  Canonical signs and tie order keep ``fit``'s theta and the
PCA baseline's theta equal to rounding (1e-10); ``embed``'s theta moves
within its eigenvector sensitivity, which is larger where the top eigenvalues
of its pencil lie close together.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, ZeroMatrix

__all__ = [
    "SvdFactors",
    "skinny_svd",
    "canonical_signs",
    "numerical_rank",
]

# n >= QR_RATIO * m takes the QR of d' first; LAPACK dgesdd's own crossover
QR_RATIO = 11 / 6


def numerical_rank(spectrum, shape):
    """Count of the descending singular values ``spectrum`` of a matrix of
    ``shape`` above 1e-12 * max(shape) * sigma_1; the rest count as zero."""
    return int(np.count_nonzero(spectrum > 1e-12 * max(shape) * spectrum[0]))


def _check_matrix(d):
    """``d`` as a float array, checked to be a finite, non-empty matrix."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return d


def _centred(d):
    """(d - mean, mean) for the checked ``d`` and its 1-d row mean; an overflowing
    difference is left as inf, for ``skinny_svd``'s NonFinite."""
    d = _check_matrix(d)
    # each row's mean after dividing it by the power of two at its largest |entry|:
    # no sum overflows, and unless an entry is 2^1022 smaller the bits are d.mean's
    big = np.maximum(d.max(axis=1), -d.min(axis=1))
    e = np.frexp(big)[1]
    mean = np.ldexp(np.ldexp(d, -e[:, None]).mean(axis=1), e)
    with np.errstate(over="ignore"):
        return d - mean[:, None], mean


def _unit_scale(*arrays):
    # divide in place by the power of two at the largest |entry|: exact, and no
    # square overflows; returns e, each array now being its old self times 2^e
    big = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays)
    e = -int(np.frexp(big)[1])
    for a in arrays:
        np.ldexp(a, e, out=a)
    return e


def _spectrum_of(s, e):
    # the spectrum of a matrix whose 2^e multiple has the spectrum s: the one
    # check of sigma_1 for every SVD, made before anything divides by it
    if not s[0] > 0.0:
        raise ZeroMatrix("matrix is numerically zero")
    with np.errstate(over="ignore"):
        s = np.ldexp(s, -e)
    if s[0] == np.inf:
        raise NonFinite("sigma_1 overflows: the matrix norm exceeds the float range")
    return s


@dataclass(frozen=True)
class SvdFactors:
    """Skinny SVD of a matrix, truncated at its numerical rank.

    ``u`` (m x r) and ``v`` (n x r) are column-orthonormal.  ``spectrum`` keeps
    all min(m, n) singular values in descending order, so callers can reason
    about the discarded tail, and ``sigma`` is its head, the r retained ones.
    ``v`` is None when the SVD was taken without right vectors; read it
    through ``require_v``.
    """

    u: np.ndarray
    v: np.ndarray | None
    rank: int
    spectrum: np.ndarray = field(repr=False)

    @property
    def sigma(self):
        return self.spectrum[: self.rank]

    def require_v(self):
        """``v``, or a ValueError when the SVD was taken with ``right=False``."""
        if self.v is None:
            raise ValueError("this SVD has no V; take it with skinny_svd(d, right=True)")
        return self.v


def skinny_svd(d, *, right=True):
    """SVD of ``d`` keeping only singular triplets above the rank tolerance;
    ``right=False`` skips the right vectors (``v`` is None).  The V alone of a
    matrix is the U of its transpose: ``skinny_svd(d.T, right=False).u``.

    For n >= QR_RATIO * m (11/6, LAPACK dgesdd's own crossover) this is
    Chan's R-SVD (ACM TOMS 8, 1982): d' = QR makes d = R'Q', so the m x m SVD
    R = X S Y' gives u = Y and sigma, and v = QX.  Q is formed only for
    ``right``; both QR modes give R the same bits, so ``right=False`` keeps
    the ``u``, ``sigma`` and rank bits.  Any other ``d`` is one LAPACK
    ``gesdd`` call.  A ``d`` whose largest |entry| lies outside (2^-400, 2^400)
    is first divided by a power of two, in a copy, so ``skinny_svd(2^j d)``
    has d's U, V and rank and 2^j times its sigma wherever the input and sigma
    are normal floats.

    Raises ZeroMatrix when every entry is numerically zero (the self-expression
    problem is undefined for the zero matrix) and NonFinite on NaN/Inf or
    when sigma_1 exceeds the float range.
    """
    d, e = _check_matrix(d), 0
    # outside this range gesdd rescales inexactly, and the QR's column norms can overflow
    if not 2.0**-400 < max(d.max(), -d.min()) < 2.0**400:
        d = d.copy()
        e = _unit_scale(d)
    wide = d.shape[1] >= QR_RATIO * d.shape[0]
    q, a = None, d
    if wide:
        q, a = np.linalg.qr(d.T) if right else (None, np.linalg.qr(d.T, mode="r"))
    x, s, yt = np.linalg.svd(a, full_matrices=False)
    spectrum = _spectrum_of(s, e)
    r = numerical_rank(s, d.shape)
    if wide:
        u, v = np.ascontiguousarray(yt.T[:, :r]), None if q is None else q @ x[:, :r]
    else:
        u, v = x[:, :r], np.ascontiguousarray(yt.T[:, :r]) if right else None
    return SvdFactors(u=u, v=v, rank=r, spectrum=spectrum)


def _first_nonzero_index(vec):
    nz = np.nonzero(np.abs(vec) > 1e-10 * np.abs(vec).max())[0]
    return int(nz[0]) if len(nz) else len(vec)


def canonical_signs(vectors):
    """Flip columns in place so each one's largest-magnitude coordinate is
    positive (the first such coordinate on exact ties); returns ``vectors``."""
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def _canonicalize(values, vectors):
    # Descending eigenvalues; exactly equal eigenvalues are ordered by the
    # first nonzero coordinate of their vectors, then by position (the sort
    # is stable).  Only tied eigenvalues need that key.
    neg = -values
    ranked = np.sort(neg)
    tied = np.isin(neg, ranked[1:][ranked[1:] == ranked[:-1]])
    key = np.zeros(len(values), dtype=int)
    for i in np.flatnonzero(tied):
        key[i] = _first_nonzero_index(vectors[:, i])
    order = np.lexsort((key, neg))
    return values[order], canonical_signs(vectors[:, order])

