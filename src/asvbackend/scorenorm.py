"""Adaptive symmetric score normalization with side-specific cohorts.

A raw trial score is z-normalized twice — once against the scores of the
enrollment vector versus a test-side impostor cohort, once against an
enrollment-side impostor cohort versus the test vector — and the two
normalized values are averaged. Statistics can be restricted to the
k highest cohort scores per side (adaptive variant): exactly k values
per row. Those are one multiset whichever of several values equal to
the k-th are picked, so the cohort's order changes the statistics by
rounding at most.

Cohort embeddings must live in the same preprocessed space as the trial
vectors; enrollment-side cohort entries may themselves be aggregated
multi-segment pseudo-models.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingTable, ScoreSet, embedding_table
from .exceptions import DimensionMismatchError, NormalizationError, ParameterError, prefixed
from .fourcov import ScoringKernel, cohort_grids, referenced_rows

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
        check_top_k(self.top_k)
        if self.top_k is not None:
            limit = min(len(enroll), len(test))
            if self.top_k > limit:
                raise ParameterError(
                    f"top_k {self.top_k} exceeds the smaller cohort size {limit}"
                )
        object.__setattr__(self, "enroll_cohort", enroll)
        object.__setattr__(self, "test_cohort", test)


def check_top_k(top_k) -> None:
    """Raise unless `top_k` is None (the whole cohort) or an integer of at least 2.

    One value has std 0: a `top_k` of 1 would fail every row as a
    degenerate cohort.
    """
    if top_k is None:
        return
    if isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral):
        raise ParameterError(f"top_k must be an integer or None, got {top_k!r}")
    if top_k < 2:
        raise ParameterError(f"top_k must be at least 2, got {top_k}")


def _cohort_table(cohort, side: str) -> EmbeddingTable:
    with prefixed(f"{side} cohort", DimensionMismatchError):
        return embedding_table(cohort)


def _top_k_stats(grid: np.ndarray, top_k: int | None, cohort_side: str, out: np.ndarray, names) -> None:
    """Write each grid row's (mean, std) of its selected scores into `out`.

    `grid` is scratch space; its values are lost. With numeric top_k
    below the row length m, it is partitioned in place, row by row, and
    the statistics are those of each row's last k columns: its k highest
    scores. A std below `MIN_COHORT_STD` raises `NormalizationError`
    naming the first such row through `names`, a (side, row ids) pair.
    """
    cut = 0 if top_k is None else max(grid.shape[1] - top_k, 0)
    if cut:
        grid.partition(cut, axis=1)
    top = grid[:, cut:]
    # np.mean's and np.std's arithmetic, with the deviations formed in
    # place: np.std would allocate a second `top`, a whole grid for top_k None
    out[:, 0] = top.mean(axis=1)
    top -= out[:, :1]
    top *= top
    out[:, 1] = np.sqrt(top.sum(axis=1) / top.shape[1])
    degenerate = np.flatnonzero(out[:, 1] < MIN_COHORT_STD)
    if degenerate.size:
        i = degenerate[0]
        raise NormalizationError(
            f"{cohort_side} cohort scores are degenerate (std {out[i, 1]:.3e}); "
            f"cannot z-normalize against them ({names[0]} '{names[1][i]}')"
        )


@np.errstate(over="ignore", invalid="ignore")
def combine_normalized(raw, stats_vs_test_cohort, stats_vs_enroll_cohort):
    """Average of the two one-sided z-normalizations of a raw score (or array).

    A value beyond the float64 range comes back infinite, without a
    numpy warning; `snorm_batch`'s score table refuses it (`DomainError`).
    """
    mu1, sd1 = stats_vs_test_cohort
    mu2, sd2 = stats_vs_enroll_cohort
    return 0.5 * (raw - mu1) / sd1 + 0.5 * (raw - mu2) / sd2


def _side_stats(kernel: ScoringKernel, cohorts: CohortSet, enrolls: EmbeddingTable, tests: EmbeddingTable):
    """(mean, std) of each row's selected scores against the opposite cohort, as an (n, 2) array per side.

    Both sides' `cohort_grids` are set up, checking every width, before
    any score is formed. The enrollment side is then reduced, and its
    side terms dropped, before the test side forms its own. Each row
    block's grid is reduced to statistics by `_top_k_stats`, which
    partitions it in place, before the next is formed: 256 rows against
    a 5000-entry cohort is 10 MB of scores. A `NormalizationError` names
    the side and id of the first degenerate row.
    """
    sides = (
        ("enrollment", enrolls, cohort_grids(kernel, enrolls.matrix, "enrollment", cohorts.test_cohort), "test-side"),
        ("test", tests, cohort_grids(kernel, tests.matrix, "test", cohorts.enroll_cohort), "enrollment-side"),
    )
    out = []
    for side, rows, grids, cohort_side in sides:
        stats = np.empty((len(rows), 2))
        start = 0
        for grid in grids:
            block = slice(start, start + len(grid))
            _top_k_stats(grid, cohorts.top_k, cohort_side, stats[block], (side, rows.ids[block]))
            start = block.stop
            del grid  # the next grid must not coexist with this one
        out.append(stats)
    return out


def snorm_batch(
    kernel: ScoringKernel,
    cohorts: CohortSet,
    enrolls,
    tests,
    scores: ScoreSet,
) -> ScoreSet:
    """Normalize a score set, computing each side's cohort statistics once.

    `enrolls` and `tests` are tables of model-space vectors, or sequences
    of `Embedding` rows, taken through `referenced_rows`.

    Statistics for a given enrollment (or test) vector are shared by
    every trial that uses it: each referenced vector is scored, in table
    order, against the opposite cohort exactly once, in its own slot (an
    enrollment vector against the test-side cohort, a test vector against
    the enrollment-side cohort; the kernel is asymmetric). Memory is
    O(block x cohort) per side whatever the number of trials or ids.
    """
    used_e, at_e, used_t, at_t = referenced_rows(kernel, scores, enrolls, tests)
    if not len(scores):
        return scores.with_scores(())
    enroll_stats, test_stats = _side_stats(kernel, cohorts, used_e, used_t)
    normalized = combine_normalized(scores.values(), enroll_stats[at_e].T, test_stats[at_t].T)
    return scores.with_scores(normalized)
