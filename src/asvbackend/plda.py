"""Gaussian PLDA for one embedding type.

Covers the preprocessing chain (centering, whitening, length
normalization), EM parameter estimation, posterior speaker factors,
enrollment averaging, a symmetric log-likelihood-ratio baseline and
covariance-level interpolation between two models.

Every stage brings a side's raw vectors into model space with one call,
`to_model_space(rows, pre, label, models)`: the width rule
`data.check_width` naming `label`, the preprocessing chain a block of
rows at a time, and, given one model id per row, one unit-norm average
per model. The enrollment side passes its ids as the models; training
under `--aggregate` passes the per-row chunk ids of `chunk_models`.
`read_model_space_pair` reads a stack's two vector files through it.

The generative model for a vector w of this type is

    w = mean + speaker_loadings @ y + residual,    y ~ N(0, I_r),
    residual ~ N(0, residual_cov),

with y shared by all vectors of one speaker.

Training works from sufficient statistics: `speaker_stats` reduces a
table's matrix and one speaker code per row, block by block, to
per-speaker counts and sums, the data mean and the scatter about it.
EM, the posterior factors behind the coupling fit and the preprocessor
fit all work from these. A sequence of `SpeakerGroup`s, one speaker per
group, is converted to them once on entry.
"""

from __future__ import annotations

import logging
import os
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import (
    Embedding, EmbeddingTable, SpeakerGroup, _encode, check_width, content_digest, embedding_table, read_embeddings,
    row_blocks,
)
from .exceptions import DimensionMismatchError, DomainError, NumericalError, ParameterError, prefixed

logger = logging.getLogger(__name__)

DEFAULT_MAX_RANK = 200

# Relative eigenvalue floor applied to residual covariances after each
# M-step; the absolute fallback keeps zero-variance corner cases usable.
RESIDUAL_EIG_FLOOR = 1e-6
RESIDUAL_EIG_FLOOR_ABS = 1e-10


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        mat = np.asarray(data, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D data matrix, got shape {mat.shape}")
        bad = ~np.isfinite(mat).all(axis=1)
        if bad.any():
            raise DomainError(f"data row {int(np.argmax(bad))} contains non-finite values")
        return mat
    table = embedding_table(data)
    if not len(table):
        raise ParameterError("no embeddings to stack")
    return table.matrix


def length_normalize(w: np.ndarray, name: Callable[[int], str] | None = None) -> np.ndarray:
    """Scale to unit Euclidean norm (rows of a matrix, or one vector).

    A zero vector, or one whose norm is beyond the float64 range (a
    component above about 1.3e154 overflows its square), raises
    `DomainError` for the first such row, which `name(row)`, if given,
    names.
    """
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(w, axis=-1, keepdims=True)
    bad = (norms == 0.0) | ~np.isfinite(norms)
    if bad.any():
        row = int(np.argmax(bad))
        what = "a zero vector" if norms.flat[row] == 0.0 else "a vector whose norm is beyond the float64 range"
        raise DomainError(("" if name is None else f"{name(row)}: ") + f"cannot length-normalize {what}")
    return w / norms


@dataclass(frozen=True)
class Preprocessor:
    """Centering + whitening transform fitted on one side's training data.

    The whitening maps training data to identity sample covariance.
    `apply` centres, whitens and length-normalizes: the full chain every
    vector passes through before PLDA training or scoring.
    """

    mean: np.ndarray
    whitener: np.ndarray

    def __post_init__(self):
        mean = finite(self.mean, "preprocessor mean")
        whitener = finite(self.whitener, "whitener")
        if mean.ndim != 1 or whitener.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"preprocessor shapes inconsistent: mean {mean.shape}, whitener {whitener.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "whitener", whitener)

    @property
    def dim(self) -> int:
        return self.mean.size

    def apply(self, vectors: np.ndarray, name: Callable[[int], str] | None = None) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        check_width(vectors, self.dim, "preprocessor input")
        # a whitened value beyond the float64 range fails the length normalization, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            whitened = (vectors - self.mean) @ self.whitener
        return length_normalize(whitened, name)


def identity_preprocessor(dim: int) -> Preprocessor:
    return Preprocessor(np.zeros(dim), np.eye(dim))


def fit_preprocessor(data) -> Preprocessor:
    """Fit centering and whitening on training vectors.

    The mean and the scatter about it come from `speaker_stats` with
    every row one speaker. The whitener is the inverse symmetric square
    root of the total sample covariance, so the whitened training data
    has identity covariance. A scatter beyond the float64 range (a
    component above about 1.3e154 overflows its square) raises
    `NumericalError`, and so does a covariance too ill-conditioned to
    whiten: as singular when its correlations are rank deficient, and
    otherwise naming the spread of the component variances (one huge
    outlying component, say).
    """
    mat = _as_matrix(data)
    n, d = mat.shape
    if n < d + 1:
        raise NumericalError(f"whitening needs at least {d + 1} vectors for dimension {d}, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        stats = speaker_stats(mat, ("",), np.zeros(n, dtype=np.intp))
    if not np.isfinite(stats.scatter).all():
        raise NumericalError("training scatter is beyond the float64 range: a vector component is too large")
    cov = stats.scatter / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    floor = d * np.finfo(np.float64).eps
    if evals[0] <= max(evals[-1], 0.0) * floor:
        # the rank is counted on the correlations, which no rescaling of a component changes
        variances = np.diag(cov)
        scale = np.sqrt(np.where(variances > 0.0, variances, 1.0))
        corr = np.linalg.eigvalsh(cov / np.outer(scale, scale))
        rank = int(np.sum(corr > corr[-1] * floor))
        if rank < d:
            raise NumericalError(f"training covariance is singular: rank {rank} < dimension {d}")
        raise NumericalError(f"training covariance is ill-conditioned: component variances run from "
                             f"{variances.min():.3g} to {variances.max():.3g}, too far apart to whiten")
    whitener = (evecs / np.sqrt(evals)) @ evecs.T
    return Preprocessor(stats.mean, whitener)


def to_model_space(rows, pre: Preprocessor, label: str, models: Sequence[str] | None = None) -> EmbeddingTable:
    """One side's raw vectors in model space: the one mapping step of every stage.

    `rows` is a table or a sequence of `Embedding` rows, and `label`
    names them (side and file) in every error. Their width is checked
    first (`data.check_width`). Every row then goes through `pre.apply`
    (centering, whitening and length normalization) one
    `data.row_blocks` block at a time. Without `models` the result keeps
    every row and id in table order. `models` holds one model id per row
    (`table.ids` on the enrollment side, `chunk_models` ids for training
    chunks): the rows of a model are summed by model code as each block
    passes, and each sum is divided by its row count and length-normalized
    again, giving one unit-norm vector per model id in order of first
    appearance. A `models` column of another length raises
    `ParameterError` before any row is mapped. A row that cannot be
    length-normalized raises `DomainError` naming `label`, then the row
    by its own id, `vector '<id>' (row <n>)` counted from 1, and an
    average as `model '<id>'`. Blocks bound the memory used beyond the
    input and output tables.
    """
    table = embedding_table(rows)
    check_width(table, pre.dim, label)
    if models is None:
        ids, codes = table.ids, None
        out = np.empty((len(ids), pre.dim))
    elif len(models) != len(table):
        raise ParameterError(f"{label}: {len(models)} model ids for {len(table)} rows")
    else:
        ids, codes = _encode(models)
        out = np.zeros((len(ids), pre.dim))
    with prefixed(label, DomainError):
        for block in row_blocks(len(table)):
            mapped = pre.apply(
                table.matrix[block], lambda i, at=block.start: f"vector '{table.ids[at + i]}' (row {at + i + 1})"
            )
            if codes is None:
                out[block] = mapped
            else:
                np.add.at(out, codes[block], mapped)
        if codes is not None:
            counts = np.bincount(codes)[:, None]
            for block in row_blocks(len(out)):
                means = out[block] / counts[block]
                out[block] = length_normalize(means, lambda i, at=block.start: f"model '{ids[at + i]}'")
    return EmbeddingTable._make(ids, out)


def enroll_average(sample: SpeakerGroup, pre: Preprocessor) -> Embedding:
    """Reduce a multi-segment enrollment sample to one unit-norm vector.

    Members are preprocessed, each length-normalized, averaged, and the
    average is length-normalized again: `to_model_space` with every
    member in one model.
    """
    return to_model_space(sample.members, pre, "enrollment", [sample.speaker_id] * len(sample.members))[0]


def read_model_space_pair(
    pre_enroll: Preprocessor, pre_test: Preprocessor, enroll_path, test_path, cohort: bool = False,
    tables: dict[int, dict[str, EmbeddingTable]] | None = None,
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """An enrollment and a test vector file in model space, enrollment rows averaged by id.

    The one reader of a stack's vector files (`score`, `snorm` and
    `routing.load_pipelines`). Each file is read, checked and mapped
    before the next is read, so a bad first file decides and, without
    `tables`, one raw table is held at a time. Errors name the files `enrollment (<path>)` and
    `test (<path>)`, or with `cohort` `enrollment-side cohort (<path>)`
    and `test-side cohort (<path>)`.

    `tables`, a dict the caller keeps across calls, lets files with the
    same bytes be parsed once. It maps each byte size that more than one
    of the caller's files has to the raw tables of that size read so
    far, by SHA-256 (`data.content_digest`). A file of such a size is
    hashed and its raw table taken from there, or parsed and kept there;
    a file of any other size is parsed as without `tables`, unhashed and
    unkept. Either way each call maps the raw table through its own
    preprocessors and names its own paths in errors, so the result is
    the one a call without `tables` gives. The caller drops a size once
    no file it will still read has it.
    """
    sides = ("enrollment-side cohort", "test-side cohort") if cohort else ("enrollment", "test")
    enrolls = _shared(tables, enroll_path, lambda: read_embeddings(enroll_path))
    enrolls = to_model_space(enrolls, pre_enroll, f"{sides[0]} ({enroll_path})", enrolls.ids)
    tests = _shared(tables, test_path, lambda: read_embeddings(test_path))
    return enrolls, to_model_space(tests, pre_test, f"{sides[1]} ({test_path})")


def _shared(tables, path, read: Callable[[], EmbeddingTable]) -> EmbeddingTable:
    """`read()`, the raw table of `path`, or the one kept in `tables` for a file with its bytes."""
    same_size = tables.get(os.stat(path).st_size) if tables else None
    if same_size is None:
        return read()
    digest = content_digest(path)
    if digest not in same_size:
        same_size[digest] = read()
    return same_size[digest]


def chunk_models(speaker_ids: Sequence[str], codes: np.ndarray, chunk: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Each row's pseudo enrollment model when each speaker's rows are taken in consecutive chunks.

    Row i belongs to speaker `speaker_ids[codes[i]]`. A speaker's j-th
    row, in row order, belongs to model `<speaker>-agg<j - j % chunk>`.
    Returns each row's model id, the `models` column that makes
    `to_model_space` give one average per chunk, and each model's speaker
    code, models in order of first appearance as their averages come.
    """
    if chunk < 1:
        raise ParameterError(f"chunk size must be positive, got {chunk}")
    counts = np.bincount(codes, minlength=len(speaker_ids))
    order = np.argsort(codes, kind="stable")
    segment = np.empty(len(codes), dtype=np.intp)
    segment[order] = np.arange(len(codes)) - np.repeat(np.cumsum(counts) - counts, counts)
    models = tuple(f"{speaker_ids[c]}-agg{j}" for c, j in zip(codes.tolist(), (segment - segment % chunk).tolist()))
    # a model's rows are all one speaker's, and a dict keeps its keys in order of first appearance
    speakers = dict(zip(models, codes.tolist()))
    return models, np.fromiter(speakers.values(), dtype=np.intp, count=len(speakers))


def chunked_enroll_averages(group: SpeakerGroup, pre: Preprocessor, chunk: int) -> SpeakerGroup:
    """A speaker's segments averaged in consecutive chunks: `chunk_models` on one speaker, then `to_model_space`."""
    models, _ = chunk_models((group.speaker_id,), np.zeros(len(group.members), dtype=np.intp), chunk)
    return SpeakerGroup(group.speaker_id, tuple(to_model_space(group.members, pre, "enrollment", models)))


def finite(values, what: str) -> np.ndarray:
    """The one finiteness rule of model parameters: `values` as float64, every one
    finite (`ParameterError("<what> must be finite")` otherwise)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ParameterError(f"{what} must be finite")
    return values


def symmetric(matrix: np.ndarray, what: str) -> np.ndarray:
    """The one symmetry rule: `matrix` must equal its transpose to within
    1e-10 of its largest entry, or of 1 (`ParameterError("<what> must be
    symmetric")` otherwise); returns the symmetrized matrix."""
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(matrix).max()))):
        raise ParameterError(f"{what} must be symmetric")
    return (matrix + matrix.T) / 2.0


@dataclass(frozen=True)
class PldaModel:
    """Parameters of one side's Gaussian PLDA in preprocessed space."""

    mean: np.ndarray             # (d,)
    speaker_loadings: np.ndarray  # (d, r)
    residual_cov: np.ndarray     # (d, d), symmetric positive definite

    def __post_init__(self):
        mean = finite(self.mean, "PLDA mean")
        loadings = finite(self.speaker_loadings, "speaker loadings")
        cov = finite(self.residual_cov, "residual covariance")
        d = mean.size
        if mean.ndim != 1 or loadings.ndim != 2 or loadings.shape[0] != d or cov.shape != (d, d):
            raise DimensionMismatchError(
                f"inconsistent PLDA shapes: mean {mean.shape}, loadings {loadings.shape}, cov {cov.shape}"
            )
        if loadings.shape[1] > d:
            raise ParameterError(f"rank {loadings.shape[1]} exceeds dimension {d}")
        cov = symmetric(cov, "residual covariance")
        _cholesky(cov, "residual covariance is not positive definite")
        if np.linalg.matrix_rank(loadings) < loadings.shape[1]:
            warnings.warn(
                "speaker loadings are rank deficient; the model carries no "
                "speaker information along some factor directions",
                RuntimeWarning,
                stacklevel=3,  # past the generated __init__, at the line that builds the model
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "speaker_loadings", loadings)
        object.__setattr__(self, "residual_cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def rank(self) -> int:
        return self.speaker_loadings.shape[1]

    def between_cov(self) -> np.ndarray:
        return self.speaker_loadings @ self.speaker_loadings.T


@dataclass(frozen=True)
class SpeakerStats:
    """Sufficient statistics of speaker-labelled vectors, the shape of Kaldi's `PldaStats`.

    Per speaker, in code order: its id (ids repeat where speakers are
    counted by position), its vector count and its raw vector sum. Over
    all vectors: the mean and the scatter, the summed outer products of
    the deviations from that mean. Every speaker has at least one
    vector: a count of 0 raises `ParameterError` naming the speaker.
    """

    speaker_ids: tuple[str, ...]
    counts: np.ndarray   # (speakers,)
    sums: np.ndarray     # (speakers, d)
    mean: np.ndarray     # (d,)
    scatter: np.ndarray  # (d, d)

    def __post_init__(self):
        # with no vectors a speaker's factor is its prior: EM fails inside
        # LAPACK, and the coupling fit silently pairs a zero factor
        empty = np.flatnonzero(self.counts == 0)
        if empty.size:
            raise ParameterError(f"speaker '{self.speaker_ids[empty[0]]}' has no vectors")


def speaker_stats(matrix: np.ndarray, speaker_ids: Sequence[str], codes: np.ndarray) -> SpeakerStats:
    """Statistics of the rows of `matrix`, one `data.row_blocks` block at a time.

    Row i (of an `EmbeddingTable`'s matrix, say) belongs to speaker
    `speaker_ids[codes[i]]`. A first pass counts and sums each speaker's
    rows in row order, which gives the mean; a second pass adds up the
    scatter about that mean, one GEMM per block. Centring first avoids
    the cancellation of XᵀX − n·μμᵀ. Memory beyond the result is a block.
    """
    n, d = matrix.shape
    sums = np.zeros((len(speaker_ids), d))
    for block in row_blocks(n):
        np.add.at(sums, codes[block], matrix[block])
    mean = sums.sum(axis=0) / max(n, 1)  # no rows: zero mean, no 0/0 warning
    scatter = np.zeros((d, d))
    for block in row_blocks(n):
        centred = matrix[block] - mean
        scatter += centred.T @ centred
    counts = np.bincount(codes, minlength=len(speaker_ids))
    return SpeakerStats(tuple(speaker_ids), counts, sums, mean, scatter)


def _as_stats(samples) -> SpeakerStats:
    """Statistics as they are, or a sequence of speaker groups converted once, one speaker per group."""
    if isinstance(samples, SpeakerStats):
        return samples
    groups = list(samples)
    table = EmbeddingTable([m for g in groups for m in g.members])
    codes = np.repeat(np.arange(len(groups)), [len(g.members) for g in groups])
    return speaker_stats(table.matrix, tuple(g.speaker_id for g in groups), codes)


def _floor_cov(cov: np.ndarray, context: str) -> np.ndarray:
    evals, evecs = np.linalg.eigh((cov + cov.T) / 2.0)
    floor = RESIDUAL_EIG_FLOOR * float(np.trace(cov)) / cov.shape[0]
    floor = max(floor, RESIDUAL_EIG_FLOOR_ABS)
    if evals[0] < floor:
        warnings.warn(
            f"{context}: flooring {int(np.sum(evals < floor))} residual eigenvalue(s) to {floor:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )
        evals = np.maximum(evals, floor)
        return (evecs * evals) @ evecs.T
    return (cov + cov.T) / 2.0


def _cholesky(matrix: np.ndarray, error: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    A matrix that is not positive definite, or has a non-finite entry,
    raises `NumericalError(error)`. The finiteness check matters: numpy
    returns a NaN factor for a NaN diagonal instead of raising.
    """
    if not np.isfinite(matrix).all():
        raise NumericalError(error)
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NumericalError(error) from None


def _logdet(factor: np.ndarray) -> float:
    """log det of the matrix whose Cholesky factor is `factor`."""
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def _posterior(loadings, residual_cov, sums, counts):
    """Posterior speaker-factor means from first-order statistics.

    Row s of `sums` is the summed centred sample f_s of counts[s]
    vectors; its posterior mean solves (I + n_s ΦᵀΓ⁻¹Φ) y = ΦᵀΓ⁻¹f_s.
    One solve against Γ serves every row and one solve against the
    precision every distinct count. Returns (factors, projected,
    residual_logdet, precisions) with projected rows ΦᵀΓ⁻¹f_s and
    precisions mapping each count to (number of rows, precision matrix,
    its log-determinant).
    """
    r = loadings.shape[1]
    residual_logdet = _logdet(_cholesky(residual_cov, "residual covariance is not positive definite"))
    solved_loadings = np.linalg.solve(residual_cov, loadings)    # Γ⁻¹Φ, (d, r)
    base = loadings.T @ solved_loadings                          # ΦᵀΓ⁻¹Φ, (r, r)
    projected = sums @ solved_loadings                           # rows: ΦᵀΓ⁻¹f_s

    factors = np.empty((sums.shape[0], r))
    precisions = {}
    for count in np.unique(counts):
        idx = np.flatnonzero(counts == count)
        precision = np.eye(r) + count * base
        logdet = _logdet(_cholesky(precision, "posterior precision is not positive definite"))
        factors[idx] = np.linalg.solve(precision, projected[idx].T).T
        precisions[int(count)] = (len(idx), precision, logdet)
    return factors, projected, residual_logdet, precisions


def _e_step(loadings, residual_cov, sums, counts, scatter, total):
    """Posterior speaker-factor statistics and the marginal log-likelihood.

    Returns (factors, weighted_second_moment, cross_stat, loglik) where
    factors[s] is the posterior mean of speaker s's factor,
    weighted_second_moment = sum_s n_s E[y yᵀ] and
    cross_stat = sum_s E[y] fᵀ_s.
    """
    d = residual_cov.shape[0]
    r = loadings.shape[1]
    factors, projected, logdet_res, precisions = _posterior(loadings, residual_cov, sums, counts)
    second_moment = np.zeros((r, r))
    logdet_sum = 0.0
    for count, (n_rows, precision, logdet) in precisions.items():
        second_moment += count * n_rows * np.linalg.inv(precision)
        logdet_sum += n_rows * logdet
    second_moment += factors.T @ (factors * counts[:, None])
    cross_stat = factors.T @ sums                                # (r, d)

    trace_term = float(np.trace(np.linalg.solve(residual_cov, scatter)))
    quad_term = float(np.sum(factors * projected))
    loglik = -0.5 * (total * d * np.log(2.0 * np.pi) + total * logdet_res + trace_term)
    loglik += -0.5 * logdet_sum + 0.5 * quad_term
    return factors, second_moment, cross_stat, loglik


def _top_loadings(between: np.ndarray, rank: int):
    """Loadings along the top `rank` eigenvectors of a between-speaker covariance, each
    scaled by the root of its eigenvalue floored at 0; and those eigenvalues."""
    evals, evecs = np.linalg.eigh(between)
    top = np.maximum(evals[::-1][:rank], 0.0)
    return evecs[:, ::-1][:, :rank] * np.sqrt(top), top


def train_plda(
    stats,
    rank: int | None = None,
    iterations: int = 10,
    callback: Callable[[int, float], None] | None = None,
) -> PldaModel:
    """Estimate PLDA parameters by EM from speaker statistics.

    `stats` is a `SpeakerStats`, or a sequence of `SpeakerGroup`s
    converted once, each group one speaker by position. The global mean
    is the data mean and stays fixed; loadings and the residual
    covariance are updated from accumulated posterior factor statistics
    each iteration. `callback(iteration, loglik)` receives the marginal
    log-likelihood of the parameters entering each iteration; the
    sequence is non-decreasing.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    stats = _as_stats(stats)
    mean, counts, scatter = stats.mean, stats.counts, stats.scatter
    if len(counts) < 2:
        raise ParameterError(f"PLDA training needs at least 2 speakers, got {len(counts)}")
    d = mean.size
    if rank is None:
        rank = min(d, DEFAULT_MAX_RANK)
    if not 1 <= rank <= d:
        raise ParameterError(f"rank must be in [1, {d}], got {rank}")
    total = int(counts.sum())
    if total < d + rank:
        raise ParameterError(
            f"PLDA training needs at least d + r = {d + rank} vectors, got {total}"
        )
    sums = stats.sums - counts[:, None] * mean

    # Between-speaker scatter seeds the loadings; within-speaker scatter
    # seeds the residual covariance.
    speaker_means = sums / counts[:, None]
    between = (speaker_means * counts[:, None]).T @ speaker_means / total
    within = (scatter - (speaker_means * counts[:, None]).T @ speaker_means) / total
    loadings, _ = _top_loadings(between, rank)
    residual_cov = _floor_cov(within, "PLDA initialization")

    for iteration in range(iterations):
        _, second_moment, cross_stat, loglik = _e_step(
            loadings, residual_cov, sums, counts, scatter, total
        )
        if callback is not None:
            callback(iteration, loglik)
        logger.debug("EM iteration %d: loglik %.6f", iteration, loglik)
        loadings = np.linalg.solve(second_moment, cross_stat).T
        residual_cov = _floor_cov((scatter - loadings @ cross_stat) / total, "PLDA M-step")

    # degenerate data can give (near-)zero loadings: the constructor warns
    return PldaModel(mean, loadings, residual_cov)


def speaker_factors(model: PldaModel, samples) -> np.ndarray:
    """Posterior means of the speaker factor, one row per speaker.

    `samples` is a `SpeakerStats`, or a sequence of `SpeakerGroup`s
    converted once, each group one speaker by position. The mean is the
    ridge-regularized projection of the speaker's summed centered vectors
    onto the speaker subspace; more vectors sharpen the posterior.
    """
    stats = _as_stats(samples)
    check_width(stats.mean, model.dim, "speaker")
    sums = stats.sums - stats.counts[:, None] * model.mean
    return _posterior(model.speaker_loadings, model.residual_cov, sums, stats.counts)[0]


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """log N(x; mean, cov): the log-determinant from a Cholesky factor of
    cov, the quadratic term from one solve against cov."""
    factor = _cholesky(cov, "covariance is not positive definite")
    diff = np.asarray(x, dtype=np.float64) - mean
    if not np.isfinite(diff).all():
        raise NumericalError("log-density of a non-finite vector")
    quad = float(diff @ np.linalg.solve(cov, diff))
    return float(-0.5 * (quad + _logdet(factor) + diff.size * np.log(2.0 * np.pi)))


def plda_llr(model: PldaModel, w1: np.ndarray, w2: np.ndarray) -> float:
    """Symmetric PLDA log-likelihood ratio for a pair of vectors.

    Evaluated directly as a difference of joint Gaussian log-densities
    (same-speaker vs independent-speakers covariance), including the
    log-determinant constant. This is the ablation baseline and the
    collapse case of the asymmetric two-sided scorer.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.shape != (model.dim,) or w2.shape != (model.dim,):
        raise DimensionMismatchError(
            f"expected two vectors of dimension {model.dim}, got {w1.shape} and {w2.shape}"
        )
    between = model.between_cov()
    marginal = between + model.residual_cov
    stacked = np.concatenate([w1, w2])
    mean = np.concatenate([model.mean, model.mean])
    same_cov = np.block([[marginal, between], [between, marginal]])
    zeros = np.zeros_like(marginal)
    indep_cov = np.block([[marginal, zeros], [zeros, marginal]])
    return gaussian_logpdf(stacked, mean, same_cov) - gaussian_logpdf(stacked, mean, indep_cov)


def interpolate_plda(in_domain: PldaModel, out_domain: PldaModel, alpha: float) -> PldaModel:
    """Convex combination of two PLDA models at the covariance level.

    The combined between-speaker covariance is refactorized to the shared
    rank; eigen-mass beyond that rank is folded into the residual
    covariance as a scaled identity. That preserves the trace of the
    total covariance, not the covariance itself: on two side models of
    the README's seed-7 data at alpha 0.5 it moves by 2.9% (relative
    Frobenius norm). Folding the tail matrix exactly keeps it, but scored
    worse in 39 of 40 metric comparisons on the ROADMAP's secondary-language
    runs (raw EER at 60 in-domain speakers: 22.05% here, 22.87% exact).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    if in_domain.dim != out_domain.dim:
        raise DimensionMismatchError(
            f"model dimensions differ: {in_domain.dim} vs {out_domain.dim}"
        )
    if in_domain.rank != out_domain.rank:
        raise ParameterError(
            f"model ranks differ: {in_domain.rank} vs {out_domain.rank}"
        )
    d, r = in_domain.dim, in_domain.rank
    between = alpha * in_domain.between_cov() + (1.0 - alpha) * out_domain.between_cov()
    residual = alpha * in_domain.residual_cov + (1.0 - alpha) * out_domain.residual_cov
    mean = alpha * in_domain.mean + (1.0 - alpha) * out_domain.mean
    loadings, top = _top_loadings(between, r)
    tail = max(float(np.trace(between)) - float(top.sum()), 0.0)
    residual = residual + (tail / d) * np.eye(d)
    return PldaModel(mean, loadings, residual)
