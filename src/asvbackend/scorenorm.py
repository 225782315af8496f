"""Adaptive symmetric score normalization with side-specific cohorts.

A raw trial score is z-normalized twice — once against the scores of the
enrollment vector versus a test-side impostor cohort, once against an
enrollment-side impostor cohort versus the test vector — and the two
normalized values are averaged. Statistics can be restricted to the
top-k highest cohort scores per side (adaptive variant); values tied at
the k-th score are all kept so selection is order-independent.

Cohort embeddings must live in the same preprocessed space as the trial
vectors; enrollment-side cohort entries may themselves be aggregated
multi-segment pseudo-models.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingTable, ScoreSet, embedding_table, row_blocks
from .exceptions import DimensionMismatchError, NormalizationError, ParameterError
from .fourcov import ScoringKernel, _check_width, _grid, _referenced, _side_terms, score_pair_matrix

DEFAULT_TOP_K = 400

# Cohort-score spreads this small cannot define a meaningful z-scale.
MIN_COHORT_STD = 1e-12


@dataclass(frozen=True)
class CohortSet:
    """Impostor cohorts for the two trial sides, plus the top-k setting.

    Each cohort is a table of model-space vectors; a sequence of
    `Embedding` rows is converted once, here.
    """

    enroll_cohort: EmbeddingTable
    test_cohort: EmbeddingTable
    top_k: int | None = DEFAULT_TOP_K

    def __post_init__(self):
        enroll = _cohort_table(self.enroll_cohort, "enrollment-side")
        test = _cohort_table(self.test_cohort, "test-side")
        if not len(enroll) or not len(test):
            raise ParameterError("both cohorts must be non-empty")
        if self.top_k is not None:
            if isinstance(self.top_k, bool) or not isinstance(self.top_k, numbers.Integral):
                raise ParameterError(f"top_k must be an integer or None, got {self.top_k!r}")
            if self.top_k < 1:
                raise ParameterError(f"top_k must be positive, got {self.top_k}")
            limit = min(len(enroll), len(test))
            if self.top_k > limit:
                raise ParameterError(
                    f"top_k {self.top_k} exceeds the smaller cohort size {limit}"
                )
        object.__setattr__(self, "enroll_cohort", enroll)
        object.__setattr__(self, "test_cohort", test)


def _cohort_table(cohort, side: str) -> EmbeddingTable:
    try:
        return embedding_table(cohort)
    except DimensionMismatchError as exc:
        raise DimensionMismatchError(f"{side} cohort: {exc}") from None


def _check_cohort_dims(cohorts: CohortSet, dim: int) -> None:
    _check_width(cohorts.enroll_cohort, "enrollment-side cohort", dim)
    _check_width(cohorts.test_cohort, "test-side cohort", dim)


def top_score_stats(scores: np.ndarray, top_k: int | None, side: str):
    """Mean and population std of the selected cohort scores.

    With numeric top_k, the k highest scores are selected; ties at the
    boundary are all kept.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if top_k is not None and top_k < scores.size:
        boundary = np.partition(scores, scores.size - top_k)[scores.size - top_k]
        selected = scores[scores >= boundary]
    else:
        selected = scores
    mean = float(selected.mean())
    std = float(selected.std())
    if std < MIN_COHORT_STD:
        raise NormalizationError(
            f"{side} cohort scores are degenerate (std {std:.3e}); "
            "cannot z-normalize against them"
        )
    return mean, std


def combine_normalized(raw, stats_vs_test_cohort, stats_vs_enroll_cohort):
    """Average of the two one-sided z-normalizations of a raw score (or array)."""
    mu1, sd1 = stats_vs_test_cohort
    mu2, sd2 = stats_vs_enroll_cohort
    return 0.5 * (raw - mu1) / sd1 + 0.5 * (raw - mu2) / sd2


def snorm(
    kernel: ScoringKernel,
    cohorts: CohortSet,
    w_e: np.ndarray,
    w_t: np.ndarray,
    raw: float,
) -> float:
    """Normalize one raw trial score against both cohorts.

    Slot order is preserved when scoring cohorts: enrollment-side cohort
    entries always occupy the enrollment slot and test-side entries the
    test slot, which matters because the kernel is asymmetric.
    """
    _check_cohort_dims(cohorts, kernel.dim)
    vs_test_cohort = score_pair_matrix(kernel, w_e, cohorts.test_cohort.matrix)[0]
    vs_enroll_cohort = score_pair_matrix(kernel, cohorts.enroll_cohort.matrix, w_t)[:, 0]
    stats_vs_test = top_score_stats(vs_test_cohort, cohorts.top_k, "test-side")
    stats_vs_enroll = top_score_stats(vs_enroll_cohort, cohorts.top_k, "enroll-side")
    return combine_normalized(float(raw), stats_vs_test, stats_vs_enroll)


def _cohort_stats(offset, quad, proj, cohort_quad, cohort_proj, top_k, side, ids, label):
    """(mean, std) of each row's selected cohort scores, one row block at a time.

    The row and cohort terms come from `_side_terms`; `ids` names the
    rows in a `NormalizationError`. A block of 256 rows against a
    5000-entry cohort is 10 MB of scores.
    """
    stats = np.empty((len(quad), 2))
    for block in row_blocks(len(quad)):
        grid = _grid(offset, quad[block], proj[block], cohort_quad, cohort_proj)
        for row, scores in enumerate(grid, block.start):
            try:
                stats[row] = top_score_stats(scores, top_k, side)
            except NormalizationError as exc:
                raise NormalizationError(f"{exc} ({label} '{ids[row]}')") from None
        del grid  # so the next block's grid does not coexist with this one
    return stats


def snorm_batch(
    kernel: ScoringKernel,
    cohorts: CohortSet,
    enrolls,
    tests,
    scores: ScoreSet,
) -> ScoreSet:
    """Normalize a score set, computing each side's cohort statistics once.

    `enrolls` and `tests` are tables of model-space vectors; a sequence
    of `Embedding` rows is converted once, on entry, and must have one
    width.

    Statistics for a given enrollment (or test) vector are shared by
    every trial that uses it, so the batch matches per-trial `snorm`
    while scoring each vector against each cohort exactly once. The
    per-side terms of the trial vectors and of both cohorts are computed
    once; the referenced trial vectors, in table order, are then scored
    against the opposite cohort one `data.row_blocks` block at a time,
    and each block is reduced to statistics before the next one is
    formed, so memory is O(block x cohort) per side whatever the number
    of trials or ids.
    """
    enrolls, tests = embedding_table(enrolls), embedding_table(tests)
    if not len(scores):
        return scores.with_scores(())
    d = kernel.dim
    used_e, at_e = _referenced(scores.enroll_ids, enrolls, "enrollment", d)
    used_t, at_t = _referenced(scores.test_ids, tests, "test", d)
    _check_cohort_dims(cohorts, d)

    quad_e, proj_e, quad_t, z_t = _side_terms(kernel, used_e.matrix, used_t.matrix)
    cohort_quad_e, cohort_proj_e, cohort_quad_t, cohort_z_t = _side_terms(
        kernel, cohorts.enroll_cohort.matrix, cohorts.test_cohort.matrix
    )
    enroll_stats = _cohort_stats(
        kernel.offset, quad_e, proj_e, cohort_quad_t, cohort_z_t,
        cohorts.top_k, "test-side", used_e.ids, "enrollment",
    )
    test_stats = _cohort_stats(
        kernel.offset, quad_t, z_t, cohort_quad_e, cohort_proj_e,
        cohorts.top_k, "enroll-side", used_t.ids, "test",
    )
    normalized = combine_normalized(
        scores.values(),
        enroll_stats[at_e[scores.enroll_codes]].T,
        test_stats[at_t[scores.test_codes]].T,
    )
    return scores.with_scores(normalized)
