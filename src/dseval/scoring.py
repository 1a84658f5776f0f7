"""Post-hoc confidence scores computed from stored logits and features.

Every score is oriented so that higher means "more trustworthy / more ID".
Fit artifacts (class templates, Gaussian stats, feature banks, principal
subspaces, combiner parameters) are estimated once on a designated fit split
and are immutable afterwards; scoring distinct samples never mutates them.

:data:`METHODS` is the registry the CLI scores with: each method names its
inputs, fits its artifact once and scores a whole matrix of rows at a time.
The per-row functions (``msp``, ``knn_score``, ...) are the reference the
batched scorers are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .core import DsevalError, Origin

__all__ = [
    "ScoringError",
    "OutOfRange",
    "NonPositiveTemperature",
    "EmptyClassTemplate",
    "SingularCovariance",
    "KTooLarge",
    "ZeroVector",
    "RankDeficient",
    "DegenerateSpread",
    "LogitRecord",
    "FeatureRecord",
    "GaussianStats",
    "FeatureBank",
    "PrincipalBasis",
    "SircParams",
    "softmax",
    "msp",
    "max_logit",
    "energy",
    "neg_entropy",
    "fit_class_templates",
    "klm",
    "fit_gaussian_stats",
    "mahalanobis",
    "build_feature_bank",
    "default_k",
    "knn_score",
    "l1_feature_norm",
    "default_pca_dim",
    "fit_principal_subspace",
    "residual_score",
    "fit_vim_alpha",
    "vim",
    "fit_sirc_params",
    "sirc_combine",
    "LOGITS",
    "FEATURES",
    "FIT_LOGITS",
    "FIT_FEATURES",
    "ScoreOptions",
    "FitSplit",
    "ScoreInputs",
    "ScoreMethod",
    "METHODS",
]

PROB_CLAMP = 1e-12  # floor applied to probabilities before any log


class ScoringError(DsevalError):
    """Base of the scoring errors.

    A batched scorer that fails on one input row sets ``row`` to its index.
    """

    row: int | None = None


class OutOfRange(ScoringError, ValueError):
    """A parameter, fitted value or score outside the range it must lie in."""


class NonPositiveTemperature(ScoringError):
    pass


class EmptyClassTemplate(ScoringError):
    pass


class SingularCovariance(ScoringError):
    pass


class KTooLarge(ScoringError):
    pass


class ZeroVector(ScoringError):
    pass


class RankDeficient(ScoringError):
    pass


class DegenerateSpread(ScoringError):
    pass


@dataclass(frozen=True)
class LogitRecord:
    """Raw classifier logits for one sample; label present iff origin is ID."""

    sample_id: str
    origin: Origin
    label: int | None
    logits: np.ndarray


@dataclass(frozen=True)
class FeatureRecord:
    """Penultimate-layer features for one sample."""

    sample_id: str
    origin: Origin
    label: int | None
    features: np.ndarray


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max-shifted)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def msp(logits) -> float:
    """Maximum softmax probability, in (1/C, 1]."""
    return float(softmax(logits).max())


def max_logit(logits) -> float:
    return float(np.max(np.asarray(logits, dtype=np.float64)))


def energy(logits, temperature: float = 1.0) -> float:
    """T * log-sum-exp(logits / T), computed max-shifted."""
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    m = z.max()
    return float(temperature * (m + np.log(np.exp(z - m).sum())))


def neg_entropy(logits) -> float:
    """Negative softmax entropy, sum p*log(p) with 0*log(0) := 0; in [-ln C, 0]."""
    p = softmax(logits)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask])))


def _clamp_renorm(probs: np.ndarray) -> np.ndarray:
    q = np.clip(probs, PROB_CLAMP, 1.0)
    return q / q.sum()


def fit_class_templates(probs, predictions) -> np.ndarray:
    """Per-class mean softmax vector over fit samples, keyed by predicted class.

    Every class must receive at least one predicted fit sample.
    """
    probs = np.asarray(probs, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.int64)
    n_classes = probs.shape[1]
    templates = np.empty((n_classes, n_classes))
    for k in range(n_classes):
        members = probs[predictions == k]
        if members.shape[0] == 0:
            raise EmptyClassTemplate(f"no fit sample is predicted as class {k}")
        templates[k] = _clamp_renorm(members.mean(axis=0))
    return templates


def klm(probs, class_templates) -> float:
    """Negated minimum KL divergence from the sample to any class template."""
    p = _clamp_renorm(np.asarray(probs, dtype=np.float64))
    templates = np.asarray(class_templates, dtype=np.float64)
    kl = np.sum(p * (np.log(p) - np.log(templates)), axis=1)
    return float(-kl.min())


@dataclass(frozen=True)
class GaussianStats:
    """Per-class means with a shared, regularized inverse covariance."""

    classes: np.ndarray
    means: np.ndarray
    cov_inv: np.ndarray


def fit_gaussian_stats(features, labels) -> GaussianStats:
    """Class means and shared covariance, regularized as cov + 1e-6*tr/D * I."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    classes = np.unique(y)
    d = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.stack([x[y == c].mean(axis=0) for c in classes])
        centered = x.copy()
        for c, mu in zip(classes, means):
            centered[y == c] -= mu
        cov = centered.T @ centered / x.shape[0]
        lam = 1e-6 * np.trace(cov) / d
        reg = cov + lam * np.eye(d)
    # cholesky() does not reject a NaN matrix
    if not np.isfinite(reg).all():
        raise OutOfRange("covariance of the fit features is not finite")
    try:
        np.linalg.cholesky(reg)
        cov_inv = np.linalg.inv(reg)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            "regularized covariance is not positive definite"
        ) from None
    with np.errstate(over="ignore"):
        cov_inv = (cov_inv + cov_inv.T) / 2.0
    if not np.isfinite(cov_inv).all():
        raise OutOfRange("inverse covariance of the fit features is not finite")
    return GaussianStats(classes=classes, means=means, cov_inv=cov_inv)


def mahalanobis(feature, stats: GaussianStats) -> float:
    """Negated squared Mahalanobis distance to the nearest class mean; <= 0."""
    f = np.asarray(feature, dtype=np.float64)
    diff = f - stats.means
    d2 = np.einsum("ij,jk,ik->i", diff, stats.cov_inv, diff)
    return float(-d2.min())


@dataclass(frozen=True)
class FeatureBank:
    """L2-normalized fit features used for nearest-neighbor scoring."""

    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


# Below this norm the squared norm is subnormal and has lost precision; at
# inf it has overflowed. Rows there are divided by their largest magnitude
# first, which leaves their direction and nothing else.
_NORM_MIN = 2.0**-511


def _off_scale(norms):
    """Where a norm (or an array of them) is out of the range where ``x / norm`` is accurate."""
    return (norms < _NORM_MIN) | (norms == np.inf)


def _unit(vec: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if _off_scale(norm):
        scale = np.abs(vec).max()
        if scale == 0.0:
            raise ZeroVector("cannot L2-normalize a zero vector")
        vec = vec / scale
        norm = np.linalg.norm(vec)
    return vec / norm


def build_feature_bank(features) -> FeatureBank:
    x = np.asarray(features, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    odd = np.flatnonzero(_off_scale(norms))
    if odd.size:
        scale = np.abs(x[odd]).max(axis=1)
        if np.any(scale == 0.0):
            raise ZeroVector("feature bank contains a zero vector")
        x = x.copy()
        x[odd] /= scale[:, None]
        norms[odd] = np.linalg.norm(x[odd], axis=1)
    return FeatureBank(vectors=x / norms[:, None])


def default_k(bank_size: int) -> int:
    """k proportional to the bank, floored at 1."""
    return max(1, int(0.005 * bank_size))


def knn_score(feature, bank: FeatureBank, k: int) -> float:
    """Negated Euclidean distance to the k-th nearest normalized bank vector."""
    if not 1 <= k <= bank.size:
        raise KTooLarge(f"k={k} outside [1, {bank.size}]")
    q = _unit(np.asarray(feature, dtype=np.float64))
    dists = np.linalg.norm(bank.vectors - q, axis=1)
    return float(-np.partition(dists, k - 1)[k - 1])


def l1_feature_norm(feature) -> float:
    return float(np.abs(np.asarray(feature, dtype=np.float64)).sum())


def default_pca_dim(feature_dim: int) -> int:
    return min(feature_dim - 1, 256)


@dataclass(frozen=True)
class PrincipalBasis:
    """Data mean plus an orthonormal basis (columns) of the top-d subspace."""

    mean: np.ndarray
    basis: np.ndarray


def fit_principal_subspace(features, d: int) -> PrincipalBasis:
    """Top-d principal directions of the mean-centered fit features.

    They are the right singular vectors of the centered rows, read off the
    SVD of the rows' R factor (at most D x D). A blockwise Householder QR
    (TSQR; Demmel et al., 2012) builds R one block of rows at a time: each
    block of centered rows is stacked under the R so far and the stack is
    factored again.
    The left singular vectors, as large as the rows, are never formed.
    """
    x = np.asarray(features, dtype=np.float64)
    n, dim = x.shape
    if not 1 <= d < dim:
        raise OutOfRange(f"subspace dimension must satisfy 1 <= d < {dim}, got {d}")
    # qr() copies the stack twice (its own copy and LAPACK's), so the stack
    # takes a third of the block budget; blocks of fewer than D rows would
    # spend more on refactoring R than on the rows
    step = max(dim, BLOCK_BYTES // (24 * dim) - dim)
    stack = np.empty((dim + min(step, n), dim))
    height = 0  # rows of R at the top of the stack
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        for lo in range(0, n, step):
            rows = min(step, n - lo)
            np.subtract(x[lo : lo + rows], mean, out=stack[height : height + rows])
            r = np.linalg.qr(stack[: height + rows], mode="r")
            height = r.shape[0]
            stack[:height] = r
    if not np.isfinite(stack[:height]).all():
        raise OutOfRange("the centered fit features overflow")
    _, s, vt = np.linalg.svd(stack[:height], full_matrices=False)
    nonzero = int(np.count_nonzero(s > s[0] * max(n, dim) * np.finfo(np.float64).eps))
    if nonzero < d:
        raise RankDeficient(
            f"centered features have rank {nonzero}, cannot extract {d} directions"
        )
    return PrincipalBasis(mean=mean, basis=vt[:d].T)


def residual_score(feature, basis: PrincipalBasis) -> float:
    """Negated norm of the component outside the principal subspace; <= 0."""
    centered = np.asarray(feature, dtype=np.float64) - basis.mean
    recon = basis.basis @ (basis.basis.T @ centered)
    return float(-np.linalg.norm(centered - recon))


def fit_vim_alpha(logits, features, basis: PrincipalBasis) -> float:
    """Scale balancing the logit term against the residual term.

    alpha = mean max-logit / mean residual norm over the fit set.
    """
    features = np.asarray(features, dtype=np.float64)
    return _vim_alpha(logits, _residual_norms(features, basis))


def _vim_alpha(logits, residual_norms: np.ndarray) -> float:
    """fit_vim_alpha() given the fit features' residual norms."""
    logits = np.asarray(logits, dtype=np.float64)
    # a sum of huge finite values overflows; the checks below name it
    with np.errstate(over="ignore"):
        mean_logit = float(logits.max(axis=1).mean())
        mean_residual = float(np.mean(residual_norms))
    if not np.isfinite(mean_residual):
        raise OutOfRange(
            f"the mean residual norm of the fit features is {mean_residual}: they overflow"
        )
    if not np.isfinite(mean_logit):
        raise OutOfRange(f"the mean max-logit of the fit logits is {mean_logit}: they overflow")
    if mean_residual <= 0.0:
        raise RankDeficient(
            "fit features lie inside the principal subspace; residual scale is zero"
        )
    alpha = mean_logit / mean_residual
    if alpha <= 0.0:
        raise OutOfRange(f"fitted alpha must be positive, got {alpha}")
    return alpha


def vim(logits, feature, basis: PrincipalBasis, vim_alpha: float) -> float:
    """Energy score penalized by the scaled principal-subspace residual."""
    return energy(logits) + vim_alpha * residual_score(feature, basis)


@dataclass(frozen=True)
class SircParams:
    a: float
    b: float


def fit_sirc_params(s2_values) -> SircParams:
    """Location/scale of the secondary score on the ID fit split.

    a = mean - 3*std and b = 1/std, so the gate saturates for typical ID
    samples and opens as s2 drops below the bulk of the fit distribution.
    """
    s2 = np.asarray(s2_values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(s2))
        mean = float(np.mean(s2))
    if std == 0.0:
        raise DegenerateSpread("secondary score has zero spread on the fit split")
    if not np.isfinite([mean, std]).all():
        raise OutOfRange(f"secondary score on the fit split has mean {mean} and std {std}")
    return SircParams(a=mean - 3.0 * std, b=1.0 / std)


def sirc_combine(s1: float, s1_max: float, s2: float, a: float, b: float) -> float:
    """Primary-score deficit gated by the secondary score; higher is better.

    Returns -(s1_max - s1) * (1 + exp(-b * (s2 - a))).
    """
    if s1 > s1_max:
        raise OutOfRange(f"s1={s1} exceeds its stated maximum {s1_max}")
    return -(s1_max - s1) * (1.0 + np.exp(-b * (s2 - a)))


# ---------------------------------------------------------------------------
# Batched scoring: the method registry.
#
# Each scorer takes whole matrices (one row per sample) and returns one score
# per row. It builds its largest temporaries a block of rows at a time, so
# peak memory does not grow with the rows; BLOCK_BYTES bounds one scorer's
# block buffers together, not each of them.

BLOCK_BYTES = 1 << 21


def _block_rows(n_rows: int, row_floats: int) -> int:
    """Rows per block when each row takes ``row_floats`` float64s of block buffers."""
    return max(1, min(n_rows, BLOCK_BYTES // (8 * row_floats)))


def _finite_rows(out: np.ndarray, what: str, why: str | None = None) -> np.ndarray:
    """``out``, or OutOfRange with ``row`` set at its first value that is not
    finite; the message gives that value, or ``why`` where one is given."""
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        exc = OutOfRange(why or f"{what} is {out[bad[0]]}")
        exc.row = int(bad[0])
        raise exc
    return out


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """softmax() of every row, with the same arithmetic."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _l1_rows(x: np.ndarray) -> np.ndarray:
    """l1_feature_norm() of every row, with the same arithmetic, in one reused buffer."""
    step = _block_rows(*x.shape)
    absolute = np.empty((step, x.shape[1]))
    out = np.empty(x.shape[0])
    with np.errstate(over="ignore"):  # an overflowed norm is inf
        for lo in range(0, x.shape[0], step):
            n = min(step, x.shape[0] - lo)
            np.abs(x[lo : lo + n], out=absolute[:n])
            np.add.reduce(absolute[:n], axis=1, out=out[lo : lo + n])
    return out


def _energy_rows(z: np.ndarray, temperature: float) -> np.ndarray:
    """energy() of every row, with the same arithmetic; a row whose energy
    is not finite (its logits overflow at a tiny temperature) is OutOfRange."""
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = z / temperature
        m = z.max(axis=1)
        out = temperature * (m + np.log(np.exp(z - m[:, None]).sum(axis=1)))
    return _finite_rows(out, f"energy at temperature {temperature}")


def _neg_entropy_rows(p: np.ndarray) -> np.ndarray:
    """neg_entropy() of every row, with the same arithmetic."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (p * np.log(p)).sum(axis=1)
    # A row with an underflowed probability sums only its nonzero terms, as
    # neg_entropy() does; summing a 0 in their place could reorder the sum.
    for r in np.flatnonzero((p == 0.0).any(axis=1)):
        nonzero = p[r][p[r] > 0]
        out[r] = np.sum(nonzero * np.log(nonzero))
    return out


def _klm_rows(probs: np.ndarray, class_templates: np.ndarray) -> np.ndarray:
    """klm() of every row, one template at a time (N x C temporaries, not N x C x C)."""
    p = np.clip(probs, PROB_CLAMP, 1.0)
    p /= p.sum(axis=1, keepdims=True)
    log_p = np.log(p)
    best = None
    for log_t in np.log(class_templates):
        kl = np.sum(p * (log_p - log_t), axis=1)
        best = kl if best is None else np.minimum(best, kl)
    return -best


def _mahalanobis_rows(x: np.ndarray, stats: GaussianStats) -> np.ndarray:
    """mahalanobis() of every row, bit for bit.

    A matrix product gives every squared distance d'Cd to the class means;
    it and mahalanobis()'s einsum are both sums of the D^2 products
    d_j C_jk d_k, so they differ by at most about (D^2 + 2D + 3) eps times
    |d|'|C||d| <= || |C| ||_2 |d|^2. Only the classes within ``slack`` (four
    times that) of a row's nearest are recomputed with the einsum, so the
    nearest class is never missed. The result equals mahalanobis() wherever
    numpy's einsum gives a row the same value whatever rows surround it;
    for 2-d features it does not (its summation order follows the row
    count), and the two may differ in the last bit.
    """
    n_classes, dim = stats.means.shape
    cov_inv = stats.cov_inv
    eps = np.finfo(np.float64).eps
    scale = 2 * (dim * dim + 2 * dim + 3) * eps * np.linalg.norm(np.abs(cov_inv), 2)
    # block buffers are allocated once and reused; _knn_rows() says why
    step = max(1, BLOCK_BYTES // (16 * n_classes * dim))
    diffs = np.empty((step, n_classes, dim))
    products = np.empty_like(diffs)
    out = np.empty(x.shape[0])
    # rows far from every mean overflow to an infinite distance, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.shape[0], step):
            n = min(step, x.shape[0] - lo)
            diff = np.subtract(x[lo : lo + n, None, :], stats.means, out=diffs[:n])
            approx = np.einsum("nkd,nkd->nk", np.matmul(diff, cov_inv, out=products[:n]), diff)
            slack = scale * np.einsum("nkd,nkd->nk", diff, diff)
            # `not >` keeps every class a NaN would hide
            near = ~(approx - slack > (approx + slack).min(axis=1, keepdims=True))
            row, cls = np.nonzero(near)
            d = diff[row, cls]
            best = np.full(n, np.inf)
            np.minimum.at(best, row, np.einsum("ij,jk,ik->i", d, cov_inv, d))
            out[lo : lo + n] = -best
    # finite features and inverse covariance give a distance that is not
    # finite only by overflow, and the sum of overflowed products may be nan
    return _finite_rows(out, "the Mahalanobis score", "the Mahalanobis distance overflows")


def _knn_sample(size: int, k: int) -> slice:
    """The bank columns whose k-th nearest bounds every row's: about 40 k, evenly spread."""
    return slice(None, None, size // min(40 * k, size))


def _padded_rows(values: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Each row r < n's values (``rows`` sorted) in row r of an n x max
    matrix, NaN-padded: NaN sorts last in np.sort and np.partition."""
    counts = np.bincount(rows, minlength=n)
    width = counts.max()
    at = (np.arange(n) * width - np.cumsum(counts) + counts)[rows]
    at += np.arange(rows.size)
    padded = np.full((n, width), np.nan, dtype=values.dtype)
    padded.ravel()[at] = values
    return padded


def _knn_rows(x: np.ndarray, bank: FeatureBank, k: int) -> np.ndarray:
    """knn_score() of every row, bit for bit (Sun et al., ICML 2022).

    For unit vectors ||a-b||^2 = 2 - 2a.b, so ``near`` = -a.b orders the bank
    as the distances do. In float32 it errs by under (D + 2) eps32 / 2, so
    values over 2 (D + 4) eps32 apart keep their float64 order; ``margin``
    is eight times that, also for the cuts' rounding and two products
    rounding one ``near`` apart. With N_k a row's k-th smallest ``near``, a
    vector above N_k + margin is never needed, one at or below N_k - margin
    only counts, and the float64 distances of the rest decide: the score is
    their (k - count)-th smallest. A sample's k-th smallest (``_knn_sample``)
    bounds N_k from above: a cut there plus ``margin`` keeps all they need.
    NaN sorts last and is never cut, as in knn_score().

    The float32 bank is held negated, sampled columns first. Per group of
    rows, the sample's product, partitioned in place, gives the bound, a
    sweep over column tiles keeps candidates and one exact stage finishes.
    A row holds 8 + 12 D bytes of queries, 40 per candidate (about k
    stride) and a tile row as large, at 5 a column, or as wide as the
    sample; a group takes half of BLOCK_BYTES. Buffers are reused: glibc
    may map each fresh temporary of 128 KiB or more, faulted in every group.
    """
    vectors = bank.vectors
    size, dim = vectors.shape
    if not 1 <= k <= size:
        raise KTooLarge(f"k={k} outside [1, {size}]")
    x = np.ascontiguousarray(x, dtype=np.float64)
    margin = np.float32(16 * (dim + 4) * np.finfo(np.float32).eps)
    stride = _knn_sample(size, k).step
    sampled = -(-size // stride)
    rest = 8 + 12 * dim + 40 * k * stride
    step = max(1, min(x.shape[0], BLOCK_BYTES // 2 // (rest + 5 * max(sampled, rest // 5))))
    width = min(size, max(sampled, (BLOCK_BYTES // 2 - step * rest) // (5 * step)))
    where = np.argsort(np.arange(size) % stride, kind="stable").astype(np.int32)
    far = np.concatenate([vectors[o::stride].T for o in range(stride)], axis=1, dtype=np.float32)
    np.negative(far, out=far)
    squares = np.empty((step, 1, 1))
    queries = np.empty((step, dim))
    queries32 = np.empty((step, dim), dtype=np.float32)
    tile = np.empty(step * width, dtype=np.float32)
    kept = np.empty(step * width, dtype=bool)
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], step):
        n = min(step, x.shape[0] - lo)
        block = x[lo : lo + n]
        # the same dot and division as _unit(); odd rows are redone by it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.matmul(block[:, None, :], block[:, :, None], out=squares[:n])
            norms = np.sqrt(squares[:n, 0, 0])
            np.divide(block, norms[:, None], out=queries[:n])
        for r in np.flatnonzero(_off_scale(norms)):
            try:
                queries[r] = _unit(block[r])
            except ZeroVector as exc:
                exc.row = lo + r
                raise
        q32 = queries32[:n]
        np.copyto(q32, queries[:n])
        low = np.matmul(q32, far[:, :sampled], out=tile[: n * sampled].reshape(n, sampled))
        low.partition(k - 1, axis=1)
        cut = low[:, k - 1 : k] + margin
        rows, members, values = [], [], []
        for c0 in range(0, size, width):
            w = min(width, size - c0)
            near = np.matmul(q32, far[:, c0 : c0 + w], out=tile[: n * w].reshape(n, w))
            # `not >` keeps every vector a NaN would hide
            np.greater(near, cut, out=kept[: n * w].reshape(n, w))
            flat = np.flatnonzero(np.logical_not(kept[: n * w], out=kept[: n * w]))
            values.append(tile.take(flat))
            r, c = np.divmod(flat.astype(np.int32), w)
            rows.append(r)
            members.append(where[c0 : c0 + w][c])
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        values = np.concatenate(values)[order]
        members = np.concatenate(members)[order]
        del order
        kept_near = _padded_rows(values, rows, n)
        kept_near.partition(k - 1, axis=1)
        kth = kept_near[:, k - 1]
        inner = values <= (kth - margin)[rows]
        band = ~(inner | (values > (kth + margin)[rows]))
        band_rows, members = rows[band], members[band]
        # in blocks: wide vectors may leave a wide band
        dists = np.empty(members.size)
        for at in range(0, members.size, step):
            part = slice(at, at + step)
            dists[part] = np.linalg.norm(vectors[members[part]] - queries[band_rows[part]], axis=1)
        ranks = k - np.bincount(rows[inner], minlength=n)
        dists = _padded_rows(dists, band_rows, n)
        dists.sort(axis=1)
        out[lo : lo + n] = -dists[np.arange(n), ranks - 1]
    return out


def _residual_norms(x: np.ndarray, basis: PrincipalBasis) -> np.ndarray:
    """-residual_score() of every row, as matrix products (equal to about 1e-14).

    The centered, projection and reconstruction buffers are allocated once
    and reused (see _knn_rows()). The norm is np.linalg.norm()'s own
    arithmetic, the square root of the row sums of squares.
    """
    vectors = basis.basis
    dim, d = vectors.shape
    step = _block_rows(x.shape[0], 2 * dim + d)
    centered = np.empty((step, dim))
    projected = np.empty((step, d))
    squares = np.empty((step, dim))  # the reconstruction, then the squares
    out = np.empty(x.shape[0])
    # a row far from the subspace overflows to an infinite norm; the fits
    # and scorers that read the norms refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.shape[0], step):
            n = min(step, x.shape[0] - lo)
            c = np.subtract(x[lo : lo + n], basis.mean, out=centered[:n])
            np.matmul(c, vectors, out=projected[:n])
            c -= np.matmul(projected[:n], vectors.T, out=squares[:n])
            np.add.reduce(np.multiply(c, c, out=squares[:n]), axis=1, out=out[lo : lo + n])
    return np.sqrt(out, out=out)


def _sirc_rows(s1: np.ndarray, s1_max: float, s2: np.ndarray, params: SircParams):
    """sirc_combine() of every row, with the same arithmetic."""
    above = np.flatnonzero(s1 > s1_max)
    if above.size:
        exc = OutOfRange(f"s1={s1[above[0]]} exceeds its stated maximum {s1_max}")
        exc.row = int(above[0])
        raise exc
    with np.errstate(over="ignore", invalid="ignore"):
        out = -(s1_max - s1) * (1.0 + np.exp(-params.b * (s2 - params.a)))
    return _finite_rows(out, "the SIRC score")


# Input names a method can need; the fit ones are the ID rows of the fit split.
LOGITS, FEATURES = "logits", "features"
FIT_LOGITS, FIT_FEATURES = "fit_logits", "fit_features"


@dataclass(frozen=True)
class ScoreOptions:
    """Score settings; a ``None`` k or pca_dim takes its default from the fit split."""

    k: int | None = None
    pca_dim: int | None = None
    temperature: float = 1.0


class ScoreInputs:
    """Stacked rows (logits N x C, features N x D, or ``None``) and the
    columns methods share, computed once."""

    def __init__(self, logits=None, features=None):
        self.logits, self.features, self._residual = logits, features, (None,)

    @cached_property
    def probs(self) -> np.ndarray:
        return _softmax_rows(self.logits)

    @cached_property
    def l1(self) -> np.ndarray:
        return _l1_rows(self.features)

    def residual_norms(self, basis: PrincipalBasis) -> np.ndarray:
        if self._residual[0] is not basis:
            self._residual = basis, _residual_norms(self.features, basis)
        return self._residual[1]


class FitSplit(ScoreInputs):
    """The ID rows of the fit split and the options the fits read.

    ``logits`` is N x C, ``features`` N x D and ``labels`` the N class labels
    of the features file; each is ``None`` when that fit file is absent. The
    principal basis, which three methods share, is fitted once on first use.
    """

    def __init__(self, logits=None, features=None, labels=None, options=ScoreOptions()):
        super().__init__(logits, features)
        self.labels, self.options = labels, options

    @cached_property
    def basis(self) -> PrincipalBasis:
        d = self.options.pca_dim
        if d is None:
            d = default_pca_dim(self.features.shape[1])
        return fit_principal_subspace(self.features, d)


def _no_fit(split: FitSplit) -> None:
    return None


@dataclass(frozen=True)
class ScoreMethod:
    """One score: the inputs it needs, ``fit(split) -> artifact`` and
    ``score_batch(inputs, artifact) -> one score per row``."""

    needs: tuple[str, ...]
    score_batch: Callable[[ScoreInputs, Any], np.ndarray]
    fit: Callable[[FitSplit], Any] = _no_fit


def _fit_templates(split: FitSplit) -> np.ndarray:
    return fit_class_templates(_softmax_rows(split.logits), split.logits.argmax(axis=1))


def _fit_knn(split: FitSplit) -> tuple[FeatureBank, int]:
    bank = build_feature_bank(split.features)
    k = split.options.k
    return bank, default_k(bank.size) if k is None else k


def _fit_vim(split: FitSplit) -> tuple[PrincipalBasis, float]:
    return split.basis, _vim_alpha(split.logits, split.residual_norms(split.basis))


def _fit_sirc_res(split: FitSplit) -> tuple[PrincipalBasis, SircParams]:
    return split.basis, fit_sirc_params(-split.residual_norms(split.basis))


def _vim_batch(x: ScoreInputs, fitted) -> np.ndarray:
    basis, alpha = fitted
    with np.errstate(over="ignore", invalid="ignore"):
        out = _energy_rows(x.logits, 1.0) + alpha * -x.residual_norms(basis)
    return _finite_rows(out, "the vim score")


METHODS: dict[str, ScoreMethod] = {
    "msp": ScoreMethod((LOGITS,), lambda x, _: x.probs.max(axis=1)),
    "mls": ScoreMethod((LOGITS,), lambda x, _: x.logits.max(axis=1)),
    "energy": ScoreMethod(
        (LOGITS,),
        lambda x, temperature: _energy_rows(x.logits, temperature),
        fit=lambda split: split.options.temperature,
    ),
    "neg_entropy": ScoreMethod((LOGITS,), lambda x, _: _neg_entropy_rows(x.probs)),
    "klm": ScoreMethod(
        (LOGITS, FIT_LOGITS),
        lambda x, templates: _klm_rows(x.probs, templates),
        fit=_fit_templates,
    ),
    "mds": ScoreMethod(
        (FEATURES, FIT_FEATURES),
        lambda x, stats: _mahalanobis_rows(x.features, stats),
        fit=lambda split: fit_gaussian_stats(split.features, split.labels),
    ),
    "knn": ScoreMethod(
        (FEATURES, FIT_FEATURES),
        lambda x, fitted: _knn_rows(x.features, *fitted),
        fit=_fit_knn,
    ),
    "l1": ScoreMethod(
        (FEATURES,), lambda x, _: _finite_rows(x.l1, "the L1 norm")
    ),
    "residual": ScoreMethod(
        (FEATURES, FIT_FEATURES),
        lambda x, basis: _finite_rows(-x.residual_norms(basis), "the residual score"),
        fit=lambda split: split.basis,
    ),
    "vim": ScoreMethod(
        (LOGITS, FEATURES, FIT_LOGITS, FIT_FEATURES), _vim_batch, fit=_fit_vim
    ),
    "sirc_msp_l1": ScoreMethod(
        (LOGITS, FEATURES, FIT_FEATURES),
        lambda x, params: _sirc_rows(x.probs.max(axis=1), 1.0, x.l1, params),
        fit=lambda split: fit_sirc_params(split.l1),
    ),
    "sirc_msp_res": ScoreMethod(
        (LOGITS, FEATURES, FIT_FEATURES),
        lambda x, a: _sirc_rows(x.probs.max(axis=1), 1.0, -x.residual_norms(a[0]), a[1]),
        fit=_fit_sirc_res,
    ),
}
