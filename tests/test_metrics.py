import numpy as np
import pytest

from asvbackend.data import ScoredTrial, ScoreSet, Trial, TrialList
from asvbackend.exceptions import DomainError, MetricError, ParameterError, UnknownIdError
from asvbackend.metrics import DcfParams, compute_eer, compute_min_dcf, det_points


def _recount(scores, labels, thresholds):
    """Brute-force false-alarm and miss counts at each threshold: every
    score compared with every threshold; accept iff score >= threshold."""
    accept = scores[None, :] >= np.asarray(thresholds, dtype=np.float64)[:, None]
    return (accept & ~labels).sum(axis=1).tolist(), (~accept & labels).sum(axis=1).tolist()


def oracle_points(scores, labels):
    """O(n^2) recount: thresholds midway between distinct scores plus
    accept-all / reject-all sentinels; accept iff score >= threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_tar = int(labels.sum())
    n_non = int((~labels).sum())
    distinct = np.unique(scores)
    thresholds = [-np.inf]
    thresholds += [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    thresholds += [np.inf]
    fa, miss = _recount(scores, labels, thresholds)
    points = [(f / n_non, m / n_tar) for f, m in zip(fa, miss)]
    # reject-all first, accept-all last, to match the implementation's order
    return sorted(points, key=lambda p: (p[0], -p[1]))


def oracle_eer(scores, labels):
    points = oracle_points(scores, labels)
    p_fa = np.array([p[0] for p in points])
    p_miss = np.array([p[1] for p in points])
    diff = p_miss - p_fa
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float(p_fa[k])
    t = (p_miss[k - 1] - p_fa[k - 1]) / ((p_fa[k] - p_fa[k - 1]) - (p_miss[k] - p_miss[k - 1]))
    return float(p_fa[k - 1] + t * (p_fa[k] - p_fa[k - 1]))


def oracle_min_dcf(scores, labels, params):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_tar = int(labels.sum())
    n_non = int((~labels).sum())
    best = np.inf
    for fa, miss in zip(*_recount(scores, labels, list(scores) + [np.inf, -np.inf])):
        cost = (
            params.p_target * params.c_miss * (miss / n_tar)
            + (1.0 - params.p_target) * params.c_fa * (fa / n_non)
        ) / params.normalizer
        best = min(best, cost)
    return best


class TestEer:
    def test_perfectly_separated(self):
        scores = np.array([3.0, 2.5, -1.0, -2.0])
        labels = np.array([True, True, False, False])
        assert compute_eer(scores, labels) == 0.0

    def test_hand_built_crossing(self):
        # targets 2.0, 0.5; nontargets 1.0, -1.0: EER = 0.5 at the crossing
        scores = np.array([2.0, 0.5, 1.0, -1.0])
        labels = np.array([True, True, False, False])
        assert compute_eer(scores, labels) == 0.5
        assert oracle_eer(scores, labels) == 0.5

    def test_coin_flip_labels(self, rng):
        scores = rng.standard_normal(100_000)
        labels = rng.uniform(size=100_000) < 0.5
        assert abs(compute_eer(scores, labels) - 0.5) < 0.01

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="target"):
            compute_eer(np.array([1.0, 2.0]), np.array([True, True]))

    def test_score_set_interface(self):
        scores = ScoreSet((ScoredTrial("e", "t1", 2.0), ScoredTrial("e", "t2", -1.0)))
        trials = TrialList((Trial("e", "t1", True), Trial("e", "t2", False)))
        assert compute_eer(scores, trials) == 0.0

    def test_unlabeled_trial_rejected(self):
        scores = ScoreSet((ScoredTrial("e", "t1", 2.0),))
        trials = TrialList((Trial("e", "t1", None),))
        with pytest.raises(MetricError, match="no label|carries no label"):
            compute_eer(scores, trials)


class TestTrialKey:
    KEY = TrialList.from_columns(["e"] * 4, ["t1", "t2", "t3", "t4"], [True, False, False, True])

    @pytest.mark.parametrize("metric", [compute_eer, compute_min_dcf, det_points])
    def test_unscored_trial_named(self, metric):
        # the scores cover both classes, so only the key check can object
        scores = ScoreSet((ScoredTrial("e", "t2", -1.0), ScoredTrial("e", "t1", 2.0)))
        with pytest.raises(UnknownIdError, match="^no score for labeled trial e t3$"):
            metric(scores, self.KEY)

    @pytest.mark.parametrize("metric", [compute_eer, compute_min_dcf, det_points])
    def test_score_outside_key_named(self, metric):
        scores = ScoreSet.from_columns(["e"] * 4 + ["x"], ["t1", "t2", "t3", "t4", "t1"], [1.0] * 5)
        with pytest.raises(MetricError, match="^no label for scored trial x t1$"):
            metric(scores, self.KEY)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [compute_eer, compute_min_dcf, det_points])
    def test_non_finite_array_score_named(self, metric, value):
        # an array score gets the finiteness rule of a ScoreSet's scores
        with pytest.raises(DomainError, match="^non-finite score at position 0$"):
            metric(np.array([value, 1.0, 2.0, 0.5]), np.array([True, False, True, False]))


class TestMinDcf:
    def test_perfectly_separated(self):
        scores = np.array([3.0, -1.0, 4.0, -2.0])
        labels = np.array([True, False, True, False])
        assert compute_min_dcf(scores, labels) == 0.0

    def test_identical_scores_cost_one(self):
        scores = np.zeros(10)
        labels = np.array([True] * 5 + [False] * 5)
        assert compute_min_dcf(scores, labels, DcfParams(0.3, 2.0, 1.0)) == 1.0

    def test_small_instance_matches_exhaustive_sweep(self, rng):
        params = DcfParams(0.1, 5.0, 1.0)
        for _ in range(10):
            scores = rng.standard_normal(20)
            labels = rng.uniform(size=20) < 0.4
            if labels.all() or not labels.any():
                continue
            assert compute_min_dcf(scores, labels, params) == oracle_min_dcf(scores, labels, params)

    def test_params_validated(self):
        with pytest.raises(ParameterError):
            DcfParams(p_target=0.0)
        with pytest.raises(ParameterError):
            DcfParams(c_miss=-1.0)
        for bad in (float("nan"), float("inf")):
            for field in ("p_target", "c_miss", "c_fa"):
                with pytest.raises(ParameterError):
                    DcfParams(**{field: bad})


class TestDetPoints:
    def test_endpoints_present(self, rng):
        scores = rng.standard_normal(50)
        labels = rng.uniform(size=50) < 0.5
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        points = det_points(scores, labels)
        assert points[0] == (0.0, 1.0)
        assert points[-1] == (1.0, 0.0)

    def test_monotone_staircase(self, rng):
        scores = rng.standard_normal(200)
        labels = rng.uniform(size=200) < 0.3
        points = det_points(scores, labels)
        p_fa = [p[0] for p in points]
        p_miss = [p[1] for p in points]
        assert all(b >= a for a, b in zip(p_fa, p_fa[1:]))
        assert all(b <= a for a, b in zip(p_miss, p_miss[1:]))

    def test_one_target_above_one_nontarget(self):
        points = det_points(np.array([2.0, 1.0]), np.array([True, False]))
        assert points == [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]

    def test_mirrored_curve_under_negation_and_swap(self, rng):
        scores = rng.standard_normal(60)
        labels = rng.uniform(size=60) < 0.5
        labels[0], labels[1] = True, False
        forward = det_points(scores, labels)
        mirrored = det_points(-scores, ~labels)
        assert sorted(forward) == sorted((pm, pf) for pf, pm in mirrored)

    def test_matches_recount_oracle(self, rng):
        scores = rng.standard_normal(50)
        labels = rng.uniform(size=50) < 0.5
        labels[0], labels[1] = True, False
        assert det_points(scores, labels) == oracle_points(scores, labels)


class TestInvariance:
    def test_increasing_transform_leaves_metrics_unchanged(self, rng):
        scores = rng.standard_normal(300)
        labels = rng.uniform(size=300) < 0.4
        labels[0], labels[1] = True, False
        mapped = np.tanh(scores) * 5.0 + 1.0  # strictly increasing
        assert compute_eer(scores, labels) == compute_eer(mapped, labels)
        params = DcfParams()
        assert compute_min_dcf(scores, labels, params) == compute_min_dcf(mapped, labels, params)
        assert det_points(scores, labels) == det_points(mapped, labels)

    def test_bounds(self, rng):
        # informative scores keep the crossing at or below chance; ties and
        # sampling can push it only marginally past 0.5
        for _ in range(10):
            scores = rng.standard_normal(400)
            labels = rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-2.0 * scores))
            labels[0], labels[1] = True, False
            eer = compute_eer(scores, labels)
            assert 0.0 <= eer <= 0.5 + 1e-9
            dcf = compute_min_dcf(scores, labels)
            assert 0.0 <= dcf <= 1.0 + 1e-12

    def test_all_scores_equal_gives_half(self):
        scores = np.zeros(8)
        labels = np.array([True] * 4 + [False] * 4)
        assert compute_eer(scores, labels) == 0.5
