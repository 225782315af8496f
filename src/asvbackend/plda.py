"""Gaussian PLDA for one embedding type.

Covers the preprocessing chain (centering, whitening, length
normalization), EM parameter estimation, posterior speaker factors,
enrollment averaging, a symmetric log-likelihood-ratio baseline and
covariance-level interpolation between two models.

The generative model for a vector w of this type is

    w = mean + speaker_loadings @ y + residual,    y ~ N(0, I_r),
    residual ~ N(0, residual_cov),

with y shared by all vectors of one speaker.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import Embedding, EmbeddingTable, SpeakerGroup, embedding_table, row_blocks
from .exceptions import (
    DimensionMismatchError,
    DomainError,
    NumericalError,
    ParameterError,
)

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
        return mat
    if isinstance(data, SpeakerGroup):
        return data.matrix()
    table = embedding_table(data)
    if not len(table):
        raise ParameterError("no embeddings to stack")
    return table.matrix


def length_normalize(w: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm (rows of a matrix, or one vector)."""
    w = np.asarray(w, dtype=np.float64)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DomainError("cannot length-normalize a zero vector")
    return w / norms


@dataclass(frozen=True)
class Preprocessor:
    """Centering + whitening transform fitted on one side's training data.

    `whiten` maps training data to identity sample covariance; `apply`
    additionally length-normalizes, which is the full chain every vector
    passes through before PLDA training or scoring.
    """

    mean: np.ndarray
    whitener: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        whitener = np.asarray(self.whitener, dtype=np.float64)
        if mean.ndim != 1 or whitener.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"preprocessor shapes inconsistent: mean {mean.shape}, whitener {whitener.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "whitener", whitener)

    @property
    def dim(self) -> int:
        return self.mean.size

    def whiten(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"vector dimension {vectors.shape[-1]} does not match preprocessor dimension {self.dim}"
            )
        return (vectors - self.mean) @ self.whitener

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return length_normalize(self.whiten(vectors))


def identity_preprocessor(dim: int) -> Preprocessor:
    return Preprocessor(np.zeros(dim), np.eye(dim))


def fit_preprocessor(data, within_groups: Sequence[SpeakerGroup] | None = None) -> Preprocessor:
    """Fit centering and whitening on training vectors.

    The whitener is the inverse symmetric square root of the total sample
    covariance, so the whitened training data has identity covariance.
    Passing speaker groups via `within_groups` switches to within-class
    covariance whitening instead (the mean stays the global data mean).
    """
    mat = _as_matrix(data)
    n, d = mat.shape
    if n < d + 1:
        raise NumericalError(f"whitening needs at least {d + 1} vectors for dimension {d}, got {n}")
    mean = mat.mean(axis=0)
    if within_groups is None:
        centered = mat - mean
        cov = centered.T @ centered / (n - 1)
    else:
        within_groups = list(within_groups)
        cov = np.zeros((d, d))
        count = 0
        for group in within_groups:
            rows = group.matrix()
            centered = rows - rows.mean(axis=0)
            cov += centered.T @ centered
            count += rows.shape[0]
        if count < d + 1:
            raise NumericalError(
                f"within-class whitening needs at least {d + 1} vectors, got {count}"
            )
        cov /= max(count - len(within_groups), 1)
    evals, evecs = np.linalg.eigh(cov)
    tol = max(evals[-1], 0.0) * d * np.finfo(np.float64).eps
    if evals[0] <= tol:
        rank = int(np.sum(evals > tol))
        raise NumericalError(f"training covariance is singular: rank {rank} < dimension {d}")
    whitener = (evecs / np.sqrt(evals)) @ evecs.T
    return Preprocessor(mean, whitener)


def to_model_space(
    embeddings, pre: Preprocessor, average: bool = False, normalize_members: bool = True
) -> EmbeddingTable:
    """Bring a table of embeddings into model space, one block of rows at a time.

    Rows go through `pre.apply` (or, with `normalize_members` False,
    through `pre.whiten` alone) one `data.row_blocks` block at a time.
    Without `average` the result keeps every row and id in table order.
    With `average`, rows sharing an id (the segments of a multi-segment
    enrollment model) are summed by id code as each block passes; each
    sum is divided by its row count and length-normalized again, giving
    one unit-norm vector per id in order of first appearance.
    `embeddings` may also be a sequence of `Embedding` rows. Blocks bound
    the memory used beyond the input and output tables.
    """
    table = embedding_table(embeddings)
    transform = pre.apply if normalize_members else pre.whiten
    if average:
        ids, codes = table.id_codes()
        out = np.zeros((len(ids), pre.dim))
    else:
        ids, codes = table.ids, None
        out = np.empty((len(ids), pre.dim))
    for block in row_blocks(len(table)):
        rows = transform(table.matrix[block])
        if codes is None:
            out[block] = rows
        else:
            np.add.at(out, codes[block], rows)
    if codes is not None:
        counts = np.bincount(codes)[:, None]
        for block in row_blocks(len(out)):
            out[block] = length_normalize(out[block] / counts[block])
    return EmbeddingTable._make(ids, out)


def enroll_average(sample: SpeakerGroup, pre: Preprocessor, normalize_members: bool = True) -> Embedding:
    """Reduce a multi-segment enrollment sample to one unit-norm vector.

    Members are preprocessed (including per-member length normalization
    unless `normalize_members` is False), averaged, and the average is
    length-normalized again: the one-sample case of `to_model_space`.
    """
    members = EmbeddingTable.from_columns([sample.speaker_id] * len(sample.members), sample.matrix())
    return to_model_space(members, pre, average=True, normalize_members=normalize_members)[0]


def chunked_enroll_averages(group: SpeakerGroup, pre: Preprocessor, chunk: int) -> SpeakerGroup:
    """Turn a speaker's segments into enrollment-style averaged vectors.

    Consecutive chunks of `chunk` segments each become one unit-norm
    average, with id `<speaker>-agg<first segment index>`; a shorter
    remainder forms a final sample. Used to build enrollment-side PLDA
    training sets that mirror multi-segment enrollment models.
    """
    if chunk < 1:
        raise ParameterError(f"chunk size must be positive, got {chunk}")
    ids = [f"{group.speaker_id}-agg{i - i % chunk}" for i in range(len(group.members))]
    averages = to_model_space(EmbeddingTable.from_columns(ids, group.matrix()), pre, average=True)
    return SpeakerGroup(group.speaker_id, tuple(averages))


@dataclass(frozen=True)
class PldaModel:
    """Parameters of one side's Gaussian PLDA in preprocessed space."""

    mean: np.ndarray             # (d,)
    speaker_loadings: np.ndarray  # (d, r)
    residual_cov: np.ndarray     # (d, d), symmetric positive definite

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        loadings = np.asarray(self.speaker_loadings, dtype=np.float64)
        cov = np.asarray(self.residual_cov, dtype=np.float64)
        d = mean.size
        if mean.ndim != 1 or loadings.ndim != 2 or loadings.shape[0] != d or cov.shape != (d, d):
            raise DimensionMismatchError(
                f"inconsistent PLDA shapes: mean {mean.shape}, loadings {loadings.shape}, cov {cov.shape}"
            )
        if loadings.shape[1] > d:
            raise ParameterError(f"rank {loadings.shape[1]} exceeds dimension {d}")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
            raise ParameterError("residual covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        _cholesky(cov, "residual covariance is not positive definite")
        if np.linalg.matrix_rank(loadings) < loadings.shape[1]:
            warnings.warn(
                "speaker loadings are rank deficient; the model carries no "
                "speaker information along some factor directions",
                RuntimeWarning,
                stacklevel=2,
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

    def marginal_cov(self) -> np.ndarray:
        return self.between_cov() + self.residual_cov


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


def _first_order_stats(samples, mean: np.ndarray):
    """Vector count and summed deviation from `mean` of each sample."""
    mats = [_as_matrix(s) for s in samples]
    for mat in mats:
        if mat.shape[1] != mean.size:
            raise DimensionMismatchError(
                f"sample dimension {mat.shape[1]} does not match model dimension {mean.size}"
            )
    counts = np.array([m.shape[0] for m in mats], dtype=np.int64)
    sums = np.stack([m.sum(axis=0) for m in mats]) - counts[:, None] * mean
    return sums, counts


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


def train_plda(
    groups: Sequence[SpeakerGroup],
    rank: int | None = None,
    iterations: int = 10,
    callback: Callable[[int, float], None] | None = None,
) -> PldaModel:
    """Estimate PLDA parameters by EM over speaker-labeled vectors.

    The global mean is the data mean and stays fixed; loadings and the
    residual covariance are updated from accumulated posterior factor
    statistics each iteration. `callback(iteration, loglik)` receives the
    marginal log-likelihood of the parameters entering each iteration;
    the sequence is non-decreasing.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    groups = list(groups)
    if len(groups) < 2:
        raise ParameterError(f"PLDA training needs at least 2 speakers, got {len(groups)}")
    dims = {g.dim for g in groups}
    if len(dims) != 1:
        raise DimensionMismatchError(f"speaker groups mix dimensions {sorted(dims)}")
    d = dims.pop()
    if rank is None:
        rank = min(d, DEFAULT_MAX_RANK)
    if not 1 <= rank <= d:
        raise ParameterError(f"rank must be in [1, {d}], got {rank}")
    total = sum(len(g.members) for g in groups)
    if total < d + rank:
        raise ParameterError(
            f"PLDA training needs at least d + r = {d + rank} vectors, got {total}"
        )

    mean = np.sum([g.matrix().sum(axis=0) for g in groups], axis=0) / total
    sums, counts = _first_order_stats(groups, mean)
    scatter = np.zeros((d, d))
    for g in groups:
        centered = g.matrix() - mean
        scatter += centered.T @ centered

    # Between-speaker scatter seeds the loadings; within-speaker scatter
    # seeds the residual covariance.
    speaker_means = sums / counts[:, None]
    between = (speaker_means * counts[:, None]).T @ speaker_means / total
    within = (scatter - (speaker_means * counts[:, None]).T @ speaker_means) / total
    evals, evecs = np.linalg.eigh(between)
    top = np.maximum(evals[::-1][:rank], 0.0)
    loadings = evecs[:, ::-1][:, :rank] * np.sqrt(top)
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

    with warnings.catch_warnings():
        # Degenerate data can legitimately produce (near-)zero loadings;
        # the constructor's rank warning already fired where it matters.
        warnings.simplefilter("ignore", RuntimeWarning)
        model = PldaModel(mean, loadings, residual_cov)
    if np.linalg.matrix_rank(model.speaker_loadings) < model.rank:
        warnings.warn(
            "trained speaker loadings are rank deficient (degenerate training data)",
            RuntimeWarning,
            stacklevel=2,
        )
    return model


def speaker_factors(model: PldaModel, samples) -> np.ndarray:
    """Posterior means of the speaker factor, one row per sample.

    Each sample (a speaker group, embedding list or matrix of vectors)
    is treated as one speaker's vectors. The mean is the ridge-regularized
    projection of the summed centered sample onto the speaker subspace;
    more vectors sharpen the posterior.
    """
    sums, counts = _first_order_stats(samples, model.mean)
    return _posterior(model.speaker_loadings, model.residual_cov, sums, counts)[0]


def speaker_factor(model: PldaModel, sample) -> np.ndarray:
    """Posterior mean of the speaker factor given one sample of vectors."""
    return speaker_factors(model, [sample])[0]


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
    covariance as a scaled identity so total covariance is preserved.
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
    evals, evecs = np.linalg.eigh(between)
    top = np.maximum(evals[::-1][:r], 0.0)
    loadings = evecs[:, ::-1][:, :r] * np.sqrt(top)
    tail = max(float(np.trace(between)) - float(top.sum()), 0.0)
    residual = residual + (tail / d) * np.eye(d)
    return PldaModel(mean, loadings, residual)
