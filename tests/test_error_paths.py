"""Error paths that no other test reaches: each raises its class with its message, and cleans up after itself."""

import numpy as np
import pytest

from asvbackend import calibration, data, synth
from asvbackend.data import Embedding, EmbeddingTable, ScoreSet, SpeakerGroup, TrialList
from asvbackend.exceptions import DimensionMismatchError, DomainError, NumericalError, ParameterError
from asvbackend.fourcov import FourCovModel, ScoringKernel, coupling_from_factors, score_batch, symmetric_kernel
from asvbackend.metrics import compute_eer
from asvbackend.plda import (
    PldaModel, fit_preprocessor, identity_preprocessor, interpolate_plda, plda_llr, speaker_factors, to_model_space,
)

# rank-1 side models of dimension 2 and 3, and a rank-2 one of dimension 2
SIDE = PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(2))
WIDE_SIDE = PldaModel(np.zeros(3), np.ones((3, 1)), np.eye(3))
RANK_2_SIDE = PldaModel(np.zeros(2), np.eye(2), np.eye(2))
# 20 random training vectors of dimension 3, one value of row 4 NaN
NAN_DATA = np.random.default_rng(0).standard_normal((20, 3))
NAN_DATA[4, 1] = np.nan


def gen_config(**overrides):
    fields = dict(dim=2, enroll_rank=1, test_rank=1, n_speakers=1, enroll_segments=1, test_segments=1, seed=0)
    return synth.GenConfig(**{**fields, **overrides})


# each: the call, the error class it raises and its whole message
ERRORS = {
    "fourcov-coupling-shape": (
        lambda: FourCovModel(SIDE, SIDE, np.eye(2), np.zeros((1, 1))),
        DimensionMismatchError, "coupling shape (2, 2) does not match ranks (1, 1)"),
    "fourcov-noise-shape": (
        lambda: FourCovModel(SIDE, SIDE, np.eye(1), np.zeros((2, 2))),
        DimensionMismatchError, "coupling noise covariance shape (2, 2) does not match rank 1"),
    "fourcov-side-dimensions": (
        lambda: FourCovModel(SIDE, WIDE_SIDE, np.eye(1), np.zeros((1, 1))),
        DimensionMismatchError, "side dimensions differ: 2 vs 3"),
    "kernel-weights-shape": (
        lambda: ScoringKernel(np.zeros(2), np.zeros(2), np.eye(3), 0.0),
        DimensionMismatchError, "kernel weights shape (3, 3) does not match stacked dimension 4"),
    "coupling-factor-shapes": (
        lambda: coupling_from_factors(np.zeros((3, 1)), np.zeros((2, 1))),
        DimensionMismatchError, "factor matrices must share the speaker axis, got (3, 1) and (2, 1)"),
    "coupling-one-speaker": (
        lambda: coupling_from_factors(np.ones((1, 1)), np.ones((1, 1))),
        ParameterError, "coupling regression needs at least 2 speakers, got 1"),
    "plda-shapes": (
        lambda: PldaModel(np.zeros(2), np.ones((3, 1)), np.eye(2)),
        DimensionMismatchError, "inconsistent PLDA shapes: mean (2,), loadings (3, 1), cov (2, 2)"),
    # the one width rule, `data.check_width`, at the entries that have no width test of their own
    "apply-width": (
        lambda: identity_preprocessor(2).apply(np.ones(3)),
        DimensionMismatchError, "preprocessor input vectors have dimension 3, the model expects 2"),
    "apply-scalar": (
        lambda: identity_preprocessor(2).apply(np.float64(1.0)),
        DimensionMismatchError, "preprocessor input is a scalar, the model expects vectors of dimension 2"),
    "apply-matrix-width": (
        lambda: identity_preprocessor(2).apply(np.ones((0, 3))),
        DimensionMismatchError, "preprocessor input vectors have dimension 3, the model expects 2"),
    "to-model-space-width": (
        lambda: to_model_space([Embedding("a", np.ones(3))], identity_preprocessor(2), "enrollment (e.txt)"),
        DimensionMismatchError, "enrollment (e.txt) vectors have dimension 3, the model expects 2"),
    "score-batch-enrollment-width": (
        lambda: score_batch(symmetric_kernel(SIDE), [Embedding("e", np.ones(3))], [Embedding("t", np.ones(2))],
                            TrialList.from_columns(["e"], ["t"], [None])),
        DimensionMismatchError, "enrollment vectors have dimension 3, the model expects 2"),
    "score-batch-test-width": (
        lambda: score_batch(symmetric_kernel(SIDE), [Embedding("e", np.ones(2))], [Embedding("t", np.ones(3))],
                            TrialList.from_columns(["e"], ["t"], [None])),
        DimensionMismatchError, "test vectors have dimension 3, the model expects 2"),
    "data-matrix-not-2d": (
        lambda: fit_preprocessor(np.zeros(3)),
        DimensionMismatchError, "expected a 2-D data matrix, got shape (3,)"),
    "data-matrix-non-finite": (
        lambda: fit_preprocessor(NAN_DATA),
        DomainError, "data row 4 contains non-finite values"),
    "data-matrix-empty": (
        lambda: fit_preprocessor([]), ParameterError, "no embeddings to stack"),
    "speaker-factors-dimension": (
        lambda: speaker_factors(SIDE, [SpeakerGroup("s", (Embedding("s-1", np.zeros(3)),))]),
        DimensionMismatchError, "speaker vectors have dimension 3, the model expects 2"),
    "plda-llr-dimension": (
        lambda: plda_llr(SIDE, np.zeros(2), np.zeros(3)),
        DimensionMismatchError, "expected two vectors of dimension 2, got (2,) and (3,)"),
    "true-llr-dimension": (
        lambda: synth.true_llr(synth.make_ground_truth(gen_config()), np.zeros(3), np.zeros(2)),
        DimensionMismatchError, "expected two vectors of dimension 2, got (3,) and (2,)"),
    "interpolate-dimensions": (
        lambda: interpolate_plda(SIDE, WIDE_SIDE, 0.5), DimensionMismatchError, "model dimensions differ: 2 vs 3"),
    "interpolate-ranks": (
        lambda: interpolate_plda(SIDE, RANK_2_SIDE, 0.5), ParameterError, "model ranks differ: 1 vs 2"),
    "metrics-score-set-without-trial-list": (
        lambda: compute_eer(ScoreSet.from_columns(["e"], ["t"], [1.0]), [True]),
        ParameterError, "a ScoreSet must be paired with a labeled TrialList"),
    "metrics-array-shapes": (
        lambda: compute_eer([1.0, 2.0], [True]),
        ParameterError, "scores and labels must be parallel 1-D arrays, got (2,) and (1,)"),
    "embedding-not-1d": (
        lambda: Embedding("a", np.zeros((2, 2))),
        DimensionMismatchError, "embedding 'a' must be a non-empty 1-D vector, got shape (2, 2)"),
    "embedding-non-finite": (
        lambda: Embedding("a", [1.0, np.nan]), DomainError, "embedding 'a' contains non-finite values"),
    "table-columns-shape": (
        lambda: EmbeddingTable.from_columns(["a"], np.zeros(3)),
        DimensionMismatchError, "expected a non-empty (1, d) matrix for 1 ids, got shape (3,)"),
    "table-columns-non-finite": (
        lambda: EmbeddingTable.from_columns(["a", "b", "c"], [[0.0, 1.0], [np.inf, 0.0], [np.nan, np.nan]]),
        DomainError, "embedding 'b' contains non-finite values"),
    "speaker-group-dimensions": (
        lambda: SpeakerGroup("s", (Embedding("s-1", np.zeros(2)), Embedding("s-2", np.zeros(3)))),
        DimensionMismatchError, "speaker group 's' mixes dimensions [2, 3]"),
    "gen-config-negative-jitter": (
        lambda: gen_config(test_noise_jitter=-0.1), ParameterError, "test_noise_jitter must be non-negative"),
    "gen-config-negative-augment-copies": (
        lambda: gen_config(augment_copies=-1),
        ParameterError, "augment_copies must be >= 0"),
}


@pytest.mark.parametrize("case", ERRORS)
def test_error_path(case):
    call, error, message = ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_calibration_that_does_not_converge_raises(monkeypatch):
    # overlapping classes, so the fit needs several Newton steps
    n = calibration.MIN_TRIALS_PER_CLASS
    trials = data.TrialList.from_columns([f"e{i}" for i in range(2 * n)], ["t"] * 2 * n, [True] * n + [False] * n)
    scores = trials.with_scores(np.concatenate([np.linspace(-1.0, 3.0, n), np.linspace(-3.0, 1.0, n)]))
    assert calibration.fit_calibration(scores, trials).scale > 0  # converges with the default limit
    monkeypatch.setattr(calibration, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(NumericalError, match=r"^calibration did not converge after 1 Newton iterations \(gradient"):
        calibration.fit_calibration(scores, trials)


def test_atomic_write_that_fails_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="^body failed$"):
        with data.atomic_write(target) as fh:
            fh.write("new\n")
            raise RuntimeError("body failed")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_write_whose_cleanup_fails_raises_the_first_error(tmp_path, monkeypatch):
    # a temp file that cannot be removed is left behind; the body's error is the one raised
    def refuse(path):
        raise OSError(f"cannot remove {path}")

    target = tmp_path / "out.txt"
    target.write_text("old\n")
    monkeypatch.setattr(data.os, "unlink", refuse)
    with pytest.raises(RuntimeError, match="^body failed$"):
        with data.atomic_write(target) as fh:
            fh.write("new\n")
            raise RuntimeError("body failed")
    assert target.read_text() == "old\n"
