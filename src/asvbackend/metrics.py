"""Verification metrics: EER, minimum normalized DCF and DET points.

All three are computed from the same ROC staircase. A trial is accepted
when its score is >= the threshold; thresholds sit midway between
consecutive distinct scores, plus accept-all and reject-all sentinels.
This makes every metric deterministic under score ties and invariant
under strictly increasing score transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ScoreSet, TrialList, join, score_rows
from .exceptions import DomainError, MetricError, ParameterError


@dataclass(frozen=True)
class DcfParams:
    """Detection cost model: target prior and miss/false-alarm costs."""

    p_target: float = 0.01
    c_miss: float = 10.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ParameterError(f"p_target must be in (0, 1), got {self.p_target}")
        if not all(math.isfinite(c) and c > 0.0 for c in (self.c_miss, self.c_fa)):
            raise ParameterError(f"c_miss and c_fa must be positive and finite, got {self.c_miss} and {self.c_fa}")

    @property
    def normalizer(self) -> float:
        return min(self.p_target * self.c_miss, (1.0 - self.p_target) * self.c_fa)


def _scores_and_labels(scores, labels):
    """Accept two parallel arrays, or a ScoreSet and a TrialList that match one to one."""
    if isinstance(scores, ScoreSet):
        if not isinstance(labels, TrialList):
            raise ParameterError("a ScoreSet must be paired with a labeled TrialList")
        unlabeled = labels.labels < 0
        if unlabeled.any():
            t = labels[int(np.argmax(unlabeled))]
            raise MetricError(f"trial {t.enroll_id} {t.test_id} carries no label")
        rows = join(scores, labels)
        if (rows < 0).any():
            e = scores[int(np.argmax(rows < 0))]
            raise MetricError(f"no label for scored trial {e.enroll_id} {e.test_id}")
        if len(scores) != len(labels):
            # each score matched a distinct trial, so some trial is unscored
            score_rows(labels, scores)
        return scores.values(), labels.labels[rows] == 1
    values = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(labels, dtype=bool)
    if values.shape != flags.shape or values.ndim != 1:
        raise ParameterError(
            f"scores and labels must be parallel 1-D arrays, got {values.shape} and {flags.shape}"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"non-finite score at position {int(np.argmax(bad))}")
    return values, flags


def _roc_points(values: np.ndarray, flags: np.ndarray):
    """(P_fa, P_miss) at every distinct-score boundary, accept-count order.

    Starts at the reject-all point (0, 1) and ends at accept-all (1, 0).
    """
    n_tar = int(flags.sum())
    n_non = int(flags.size - n_tar)
    if n_tar == 0 or n_non == 0:
        raise MetricError(
            f"need both target and nontarget trials, got {n_tar} targets / {n_non} nontargets"
        )
    order = np.argsort(-values, kind="stable")
    sorted_values = values[order]
    sorted_flags = flags[order]
    tar_cum = np.concatenate([[0], np.cumsum(sorted_flags)])
    non_cum = np.concatenate([[0], np.cumsum(~sorted_flags)])
    # valid accept-counts: 0, n, and every i where score i-1 > score i
    boundary = np.concatenate(
        [[True], sorted_values[:-1] > sorted_values[1:], [True]]
    )
    idx = np.flatnonzero(boundary)
    p_fa = non_cum[idx] / n_non
    p_miss = (n_tar - tar_cum[idx]) / n_tar
    return p_fa, p_miss


def compute_eer(scores, labels) -> float:
    """Equal error rate via linear interpolation at the ROC crossing."""
    values, flags = _scores_and_labels(scores, labels)
    p_fa, p_miss = _roc_points(values, flags)
    diff = p_miss - p_fa
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float(p_fa[k])
    t = (p_miss[k - 1] - p_fa[k - 1]) / (
        (p_fa[k] - p_fa[k - 1]) - (p_miss[k] - p_miss[k - 1])
    )
    return float(p_fa[k - 1] + t * (p_fa[k] - p_fa[k - 1]))


def compute_min_dcf(scores, labels, params: DcfParams = DcfParams()) -> float:
    """Minimum normalized detection cost over all thresholds."""
    values, flags = _scores_and_labels(scores, labels)
    p_fa, p_miss = _roc_points(values, flags)
    costs = (
        params.p_target * params.c_miss * p_miss
        + (1.0 - params.p_target) * params.c_fa * p_fa
    ) / params.normalizer
    return float(costs.min())


def det_points(scores, labels) -> list[tuple[float, float]]:
    """The (P_fa, P_miss) staircase from reject-all (0,1) to accept-all (1,0)."""
    values, flags = _scores_and_labels(scores, labels)
    p_fa, p_miss = _roc_points(values, flags)
    return list(zip(p_fa.tolist(), p_miss.tolist()))
