from contextlib import nullcontext

import numpy as np
import pytest

from asvbackend.calibration import (
    CalibrationModel,
    _sigmoid,
    apply_calibration,
    fit_calibration,
    read_calibration,
    write_calibration,
)
from asvbackend.data import ScoredTrial, ScoreSet, Trial, TrialList
from asvbackend.exceptions import CalibrationFitError, FileFormatError, ParameterError
from asvbackend.metrics import DcfParams, compute_eer, compute_min_dcf
from asvbackend import synth


def labeled_scores(tar, non):
    entries, trials = [], []
    for i, s in enumerate(tar):
        entries.append(ScoredTrial("e", f"tar{i}", float(s)))
        trials.append(Trial("e", f"tar{i}", True))
    for i, s in enumerate(non):
        entries.append(ScoredTrial("e", f"non{i}", float(s)))
        trials.append(Trial("e", f"non{i}", False))
    return ScoreSet(tuple(entries)), TrialList(tuple(trials))


class TestSigmoid:
    POINTS = np.array([-1000.0, -745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0, 1000.0])

    def test_matches_scipy_expit(self):
        from scipy.special import expit

        # at -745 the true value is 2.8e-324, nearer the smallest subnormal
        # (4.9e-324) than 0: the numpy form rounds to that subnormal where
        # expit returns 0, hence an atol of one subnormal
        tiny = np.finfo(np.float64).smallest_subnormal
        np.testing.assert_allclose(_sigmoid(self.POINTS), expit(self.POINTS), rtol=1e-15, atol=tiny)

    def test_finite_and_monotone(self):
        values = _sigmoid(self.POINTS)
        assert np.isfinite(values).all()
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == 0.0 and values[-1] == 1.0 and values[4] == 0.5


class TestFit:
    def test_separable_scores_large_scale_zero_eer(self):
        scores, trials = labeled_scores([10.0 + i * 0.01 for i in range(20)],
                                        [-10.0 - i * 0.01 for i in range(20)])
        model = fit_calibration(scores, trials)
        assert model.scale > 0.5
        calibrated = apply_calibration(model, scores)
        assert compute_eer(calibrated, trials) == 0.0

    def test_shuffled_labels_shrink_scale(self, rng):
        values = rng.standard_normal(2000)
        labels = rng.permutation(np.array([True] * 1000 + [False] * 1000))
        scores, trials = labeled_scores(values[labels], values[~labels])
        model = fit_calibration(scores, trials)
        assert abs(model.scale) < 0.1

    def test_true_llr_scores_recover_identity(self, rng):
        # trials scored by the exact generative LLR: calibration should find
        # close to the identity map
        cfg = synth.GenConfig(
            dim=8, enroll_rank=3, test_rank=3, n_speakers=2000,
            enroll_segments=1, test_segments=1, seed=50, snr=1.0,
        )
        enroll_groups, test_groups, truth = synth.sample_dataset(cfg)
        tar, non = [], []
        for i, (ge, gt) in enumerate(zip(enroll_groups, test_groups)):
            w_e = ge.members[0].vector
            tar.append(synth.true_llr(truth, w_e, gt.members[0].vector))
            other = test_groups[(i + 11) % len(test_groups)].members[0].vector
            non.append(synth.true_llr(truth, w_e, other))
        scores, trials = labeled_scores(tar, non)
        model = fit_calibration(scores, trials)
        assert abs(model.scale - 1.0) < 0.1
        assert abs(model.offset) < 0.1

    def test_objective_monotone_decreasing(self, rng):
        tar = rng.standard_normal(200) + 1.0
        non = rng.standard_normal(300) - 1.0
        scores, trials = labeled_scores(tar, non)
        history = []
        fit_calibration(scores, trials, callback=lambda i, v: history.append(v))
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_single_class_rejected(self, rng):
        scores, trials = labeled_scores(rng.standard_normal(20), [])
        with pytest.raises(CalibrationFitError, match="both classes"):
            fit_calibration(scores, trials)

    def test_too_few_per_class_rejected(self, rng):
        scores, trials = labeled_scores(rng.standard_normal(5), rng.standard_normal(50))
        with pytest.raises(CalibrationFitError, match="at least 10"):
            fit_calibration(scores, trials)


class TestApply:
    def test_identity(self):
        scores = ScoreSet((ScoredTrial("e", "t", 1.5),))
        out = apply_calibration(CalibrationModel(1.0, 0.0), scores)
        assert out == scores

    def test_affine_arithmetic(self):
        scores = ScoreSet((ScoredTrial("e", "t0", 0.0), ScoredTrial("e", "t1", 1.0)))
        out = apply_calibration(CalibrationModel(2.0, -1.0), scores)
        assert [e.score for e in out] == [-1.0, 1.0]

    def test_eer_and_min_dcf_invariant(self, rng):
        tar = rng.standard_normal(100) + 1.5
        non = rng.standard_normal(400) - 0.5
        scores, trials = labeled_scores(tar, non)
        model = CalibrationModel(2.7, -3.1)
        calibrated = apply_calibration(model, scores)
        assert compute_eer(scores, trials) == compute_eer(calibrated, trials)
        params = DcfParams()
        before = compute_min_dcf(scores, trials, params)
        after = compute_min_dcf(calibrated, trials, params)
        assert abs(before - after) < 1e-12


class TestScalePositivity:
    def test_non_positive_scale_warns(self):
        with pytest.warns(RuntimeWarning, match="not positive"):
            CalibrationModel(-0.2, 0.0)
        with pytest.warns(RuntimeWarning, match="not positive"):
            CalibrationModel(0.0, 1.0)


class TestFiles:
    def test_round_trip_with_condition(self, tmp_path):
        path = tmp_path / "c.cal"
        write_calibration(path, CalibrationModel(1.25, -0.5), condition="few-primary")
        model, condition = read_calibration(path)
        assert model == CalibrationModel(1.25, -0.5)
        assert condition == "few-primary"

    def test_round_trip_without_condition(self, tmp_path):
        path = tmp_path / "c.cal"
        write_calibration(path, CalibrationModel(0.75, 2.0))
        model, condition = read_calibration(path)
        assert model == CalibrationModel(0.75, 2.0)
        assert condition is None

    @pytest.mark.parametrize("condition", ["few primary", ""])
    def test_unwritable_condition_rejected_before_writing(self, tmp_path, condition):
        path = tmp_path / "c.cal"
        with pytest.raises(ParameterError, match="cannot be written"):
            write_calibration(path, CalibrationModel(1.0, 0.0), condition=condition)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["scale nan", "scale inf", "scale -inf"])
    def test_non_finite_values_rejected_on_read(self, tmp_path, line):
        path = tmp_path / "bad.cal"
        path.write_text(f"{line}\noffset 0.5\n")
        with pytest.raises(FileFormatError, match="bad.cal.*finite"):
            read_calibration(path)
        path.write_text(f"scale 1.0\noffset {line.split()[1]}\n")
        with pytest.raises(FileFormatError, match="bad.cal.*finite"):
            read_calibration(path)

    @pytest.mark.parametrize("scale, offset", [(float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("-inf"))])
    def test_non_finite_values_rejected_before_writing(self, tmp_path, scale, offset):
        with pytest.warns(RuntimeWarning) if not scale > 0.0 else nullcontext():
            model = CalibrationModel(scale, offset)
        with pytest.raises(ParameterError, match="finite"):
            write_calibration(tmp_path / "c.cal", model)
        assert not any(tmp_path.iterdir())
