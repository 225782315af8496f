"""Asymmetric two-sided scoring with coupled speaker factors.

Enrollment-side and test-side vectors get their own PLDA models; a
linear map with Gaussian residual ties the two speaker factors together:

    y_test = coupling @ y_enroll + eta,    eta ~ N(0, coupling_noise_cov).

Under the same-speaker hypothesis the stacked pair (w_enroll, w_test) is
jointly Gaussian with a cross-covariance induced by that map; under the
different-speakers hypothesis the sides are independent. The trial score
is the exact log-likelihood ratio of the two joint densities, evaluated
through a precomputed quadratic kernel plus the log-determinant constant
(so scores are proper LLRs, not LLRs up to an additive constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Embedding, EmbeddingTable, ScoreSet, TrialList, check_width, embedding_table, row_blocks
from .exceptions import DimensionMismatchError, NumericalError, ParameterError, UnknownIdError
from .plda import PldaModel, SpeakerStats, _as_stats, _cholesky, _logdet, finite, speaker_factors, symmetric


@dataclass(frozen=True)
class FourCovModel:
    """Two side-specific PLDA models plus the factor coupling between them."""

    enroll_plda: PldaModel
    test_plda: PldaModel
    coupling: np.ndarray            # (r_test, r_enroll)
    coupling_noise_cov: np.ndarray  # (r_test, r_test), symmetric PSD

    def __post_init__(self):
        coupling = finite(self.coupling, "coupling")
        noise = finite(self.coupling_noise_cov, "coupling noise covariance")
        r1, r2 = self.enroll_plda.rank, self.test_plda.rank
        if coupling.shape != (r2, r1):
            raise DimensionMismatchError(
                f"coupling shape {coupling.shape} does not match ranks ({r2}, {r1})"
            )
        if noise.shape != (r2, r2):
            raise DimensionMismatchError(
                f"coupling noise covariance shape {noise.shape} does not match rank {r2}"
            )
        noise = symmetric(noise, "coupling noise covariance")
        if noise.size and np.linalg.eigvalsh(noise)[0] < -1e-10 * max(1.0, float(np.abs(noise).max())):
            raise ParameterError("coupling noise covariance must be positive semi-definite")
        if self.enroll_plda.dim != self.test_plda.dim:
            raise DimensionMismatchError(
                f"side dimensions differ: {self.enroll_plda.dim} vs {self.test_plda.dim}"
            )
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "coupling_noise_cov", noise)

    @property
    def dim(self) -> int:
        return self.enroll_plda.dim


@dataclass(frozen=True)
class ScoringKernel:
    """Precomputed quadratic form for trial scoring.

    score(w_e, w_t) = -0.5 * z' W z + offset with z the stacked centered
    pair and W = inv(same_speaker_cov) - inv(independent_cov). The offset
    carries the log-determinant difference so the score is a true LLR.
    """

    enroll_mean: np.ndarray
    test_mean: np.ndarray
    weights: np.ndarray
    offset: float

    def __post_init__(self):
        enroll_mean = np.asarray(self.enroll_mean, dtype=np.float64)
        test_mean = np.asarray(self.test_mean, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        two_d = enroll_mean.size + test_mean.size
        if weights.shape != (two_d, two_d):
            raise DimensionMismatchError(
                f"kernel weights shape {weights.shape} does not match stacked dimension {two_d}"
            )
        object.__setattr__(self, "enroll_mean", enroll_mean)
        object.__setattr__(self, "test_mean", test_mean)
        object.__setattr__(self, "weights", symmetric(weights, "kernel weights"))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.enroll_mean.size


def _pd_inverse(matrix: np.ndarray, what: str):
    """Inverse and log-determinant of a symmetric positive definite matrix."""
    factor = _cholesky(matrix, f"{what} is not positive definite")
    return np.linalg.inv(matrix), _logdet(factor)


def joint_covariances(model: FourCovModel):
    """Same-speaker and independent-speakers covariance of a stacked pair."""
    loadings1 = model.enroll_plda.speaker_loadings
    loadings2 = model.test_plda.speaker_loadings
    between1 = loadings1 @ loadings1.T
    between2 = loadings2 @ loadings2.T
    cross = loadings1 @ model.coupling.T @ loadings2.T
    test_factor_cov = model.coupling @ model.coupling.T + model.coupling_noise_cov
    same = np.block(
        [
            [between1 + model.enroll_plda.residual_cov, cross],
            [cross.T, loadings2 @ test_factor_cov @ loadings2.T + model.test_plda.residual_cov],
        ]
    )
    zeros = np.zeros_like(cross)
    indep = np.block(
        [
            [between1 + model.enroll_plda.residual_cov, zeros],
            [zeros.T, between2 + model.test_plda.residual_cov],
        ]
    )
    return same, indep


def build_kernel(model: FourCovModel) -> ScoringKernel:
    """Materialize the scoring kernel (one 2d x 2d inverse difference)."""
    same, indep = joint_covariances(model)
    inv_same, logdet_same = _pd_inverse(same, "same-speaker joint covariance")
    inv_indep, logdet_indep = _pd_inverse(indep, "independent-speakers joint covariance")
    weights = inv_same - inv_indep
    offset = -0.5 * (logdet_same - logdet_indep)
    return ScoringKernel(model.enroll_plda.mean, model.test_plda.mean, weights, offset)


def symmetric_kernel(model: PldaModel) -> ScoringKernel:
    """Scoring kernel of the symmetric-PLDA collapse (identity coupling)."""
    collapsed = FourCovModel(model, model, np.eye(model.rank), np.zeros((model.rank, model.rank)))
    return build_kernel(collapsed)


def _side_terms(kernel: ScoringKernel, rows: np.ndarray, side: str):
    """Per-vector parts of the quadratic form on one side, each row centred once.

    With W's blocks ee, et, tt, enrollment rows give (z_e' ee z_e,
    z_e' et) and test rows (z_t' tt z_t, z_t); a pair's score is then
    -0.5 * (quad_e + 2 * proj_e . z_t + quad_t) + offset. Nothing else
    reads the kernel's weights. Widths are checked where rows enter.
    """
    d, weights = kernel.dim, kernel.weights
    if side == "enrollment":
        z = rows - kernel.enroll_mean
        return np.sum((z @ weights[:d, :d]) * z, axis=1), z @ weights[:d, d:]
    z = rows - kernel.test_mean
    return np.sum((z @ weights[d:, d:]) * z, axis=1), z


def _grid(offset: float, quad_rows, proj_rows, quad_cols, proj_cols) -> np.ndarray:
    """Scores of every row against every column from `_side_terms` output.

    Either side can be the rows: enrollment rows take (quad_e, proj_e)
    with test columns (quad_t, z_t), and test rows take (quad_t, z_t)
    with enrollment columns (quad_e, proj_e). Each row's scores are one
    contiguous row of the (n, m) output.
    """
    n = len(quad_rows)
    if n == 1:
        # numpy hands a one-row product to gemv, which rounds differently
        # from gemm; score the row twice so every grid row comes from gemm
        proj_rows = np.repeat(proj_rows, 2, axis=0)
    grid = (proj_rows @ proj_cols.T)[:n]
    np.subtract((offset - 0.5 * quad_rows)[:, None], grid, out=grid)
    grid -= 0.5 * quad_cols
    return grid


def score_trial(kernel: ScoringKernel, w_e: np.ndarray, w_t: np.ndarray) -> float:
    """LLR score of one (enrollment, test) pair of preprocessed vectors.

    `score_batch` on rows `Embedding("enrollment", w_e)` and `Embedding("test", w_t)`
    and their one trial: the same bits and errors. A larger batch gives
    the same score up to rounding: BLAS may round a one-row product
    differently from a many-row one. Enrollment-side vectors go first:
    with distinct side models, score(a, b) != score(b, a).
    """
    enroll, test = [Embedding("enrollment", w_e)], [Embedding("test", w_t)]
    trial = TrialList.from_columns(("enrollment",), ("test",), (None,))
    return float(score_batch(kernel, enroll, test, trial).values()[0])


def referenced_rows(kernel: ScoringKernel, table, enrolls, tests):
    """The one entry of the scoring core: (enrollment rows, index, test rows, index).

    `enrolls` and `tests` are tables of model-space vectors; a sequence
    of `Embedding` rows is converted once, here, and must have one width.
    Per side, enrollment first, the rows that the trial or score `table`
    references are kept once each, in table order, with each table row's
    index into them. Where ids repeat, the last row with that id is used.
    An unknown id, then a width other than the kernel's, raises; the
    width rule is `data.check_width`, naming the side.
    """
    sides = (
        ("enrollment", embedding_table(enrolls), table.enroll_ids, table.enroll_codes),
        ("test", embedding_table(tests), table.test_ids, table.test_codes),
    )
    out = []
    for side, vectors, ids, codes in sides:
        index = dict(zip(vectors.ids, range(len(vectors))))
        try:
            positions = np.array([index[i] for i in ids], dtype=np.intp)
        except KeyError as exc:
            raise UnknownIdError(f"trial references unknown {side} id '{exc.args[0]}'") from None
        used, at = np.unique(positions, return_inverse=True)
        # `used` is sorted, so a table whose every row is used is kept as it is
        rows = vectors if len(used) == len(vectors) else vectors.take(used)
        check_width(rows, kernel.dim, side)
        out += [rows, at[codes]]
    return tuple(out)


def score_batch(
    kernel: ScoringKernel,
    enrolls,
    tests,
    trials: TrialList,
) -> ScoreSet:
    """Score a trial list; one aggregated enrollment vector per enroll_id.

    `enrolls` and `tests` are tables of model-space vectors, or sequences
    of `Embedding` rows, taken through `referenced_rows`. Output order
    matches the trial list.
    Each vector that a trial references gets its side terms once, in
    table order. A trial's score is a gather of its rows' terms by id
    code and one row-wise dot product, taken `data.row_blocks` trials at
    a time so the gathers never exceed one block. Vectors that no trial
    references are ignored. Where ids repeat, the last vector with that
    id is used.
    """
    used_e, at_e, used_t, at_t = referenced_rows(kernel, trials, enrolls, tests)
    if not len(trials):
        return trials.with_scores(())
    quad_e, proj_e = _side_terms(kernel, used_e.matrix, "enrollment")
    quad_t, z_t = _side_terms(kernel, used_t.matrix, "test")
    values = np.empty(len(trials))
    for block in row_blocks(len(trials)):
        e, t = at_e[block], at_t[block]
        cross = np.einsum("ij,ij->i", proj_e[e], z_t[t])
        values[block] = (kernel.offset - 0.5 * quad_e[e]) - cross - 0.5 * quad_t[t]
    return trials.with_scores(values)


def cohort_grids(kernel: ScoringKernel, rows: np.ndarray, side: str, cohort: EmbeddingTable):
    """Scores of `side` rows against a cohort of the other side, one row block at a time.

    Each side keeps its slot, so every score is the one `score_trial`
    gives that pair, to rounding: BLAS may round a product of another
    shape differently. Widths are checked at the call (`data.check_width`),
    the cohort's first, an empty array of rows too. The iterator forms
    the side terms when the first grid is asked for and drops them
    after the last, and yields one (rows, cohort) grid per
    `data.row_blocks` block of rows, in row order. Dropping each grid
    before the next bounds memory to one.
    """
    other = "test" if side == "enrollment" else "enrollment"
    check_width(cohort, kernel.dim, f"{other}-side cohort")
    check_width(rows, kernel.dim, side)

    def grids():
        quad, proj = _side_terms(kernel, rows, side)
        cohort_quad, cohort_proj = _side_terms(kernel, cohort.matrix, other)
        for b in row_blocks(len(rows)):
            yield _grid(kernel.offset, quad[b], proj[b], cohort_quad, cohort_proj)

    return grids()


def coupling_from_factors(enroll_factors: np.ndarray, test_factors: np.ndarray):
    """Least-squares coupling map and residual covariance from paired factors.

    Rows are speakers. The map minimizes the summed squared residual
    (no intercept); the residual covariance is the sample covariance of
    the regression residuals.
    """
    y1 = np.asarray(enroll_factors, dtype=np.float64)
    y2 = np.asarray(test_factors, dtype=np.float64)
    if y1.ndim != 2 or y2.ndim != 2 or y1.shape[0] != y2.shape[0]:
        raise DimensionMismatchError(
            f"factor matrices must share the speaker axis, got {y1.shape} and {y2.shape}"
        )
    n = y1.shape[0]
    if n < 2:
        raise ParameterError(f"coupling regression needs at least 2 speakers, got {n}")
    if not np.isfinite(y2).all():
        raise NumericalError("test factors have non-finite values")
    gram = y1.T @ y1
    _cholesky(gram, "enrollment factor Gram matrix is singular; add speakers or lower the PLDA rank")
    coupling = np.linalg.solve(gram, y1.T @ y2).T
    residuals = y2 - y1 @ coupling.T
    centered = residuals - residuals.mean(axis=0)
    noise_cov = centered.T @ centered / (n - 1)
    return coupling, noise_cov


def fit_coupling(plda_enroll: PldaModel, plda_test: PldaModel, paired) -> FourCovModel:
    """Fit the factor coupling from speakers seen on both sides.

    `paired` is a pair of `SpeakerStats` (enrollment side first) over the
    same speakers in the same order, or a sequence of (enrollment group,
    test group) pairs, each pair one speaker. Each side's posterior
    factor means come from one batched `speaker_factors` call; the two
    sides' factors are then regressed against each other.
    """
    if not (isinstance(paired, tuple) and all(isinstance(s, SpeakerStats) for s in paired)):
        pairs = list(paired)
        paired = tuple(_as_stats([pair[side] for pair in pairs]) for side in (0, 1))
    enroll, test = paired
    if len(enroll.counts) < plda_enroll.rank + 1:
        raise ParameterError(
            f"coupling fit needs at least rank+1 = {plda_enroll.rank + 1} speakers, "
            f"got {len(enroll.counts)}"
        )
    for i, (id1, id2) in enumerate(zip(enroll.speaker_ids, test.speaker_ids)):
        if id1 != id2:
            raise ParameterError(
                f"pair at index {i} names different speakers: '{id1}' vs '{id2}'"
            )
    y1 = speaker_factors(plda_enroll, enroll)
    y2 = speaker_factors(plda_test, test)
    coupling, noise_cov = coupling_from_factors(y1, y2)
    return FourCovModel(plda_enroll, plda_test, coupling, noise_cov)
