import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

from asvbackend import fourcov, metrics, plda, synth
from asvbackend.data import Embedding, SpeakerGroup
from asvbackend.exceptions import ParameterError

def base_config(**overrides):
    params = dict(
        dim=8, enroll_rank=2, test_rank=2, n_speakers=200,
        enroll_segments=4, test_segments=3, seed=11,
    )
    params.update(overrides)
    return synth.GenConfig(**params)


def stack_groups(groups):
    return np.vstack([g.matrix() for g in groups])


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = base_config()
        a_enroll, a_test, a_truth = synth.sample_dataset(cfg)
        b_enroll, b_test, b_truth = synth.sample_dataset(cfg)
        np.testing.assert_array_equal(a_truth.enroll_loadings, b_truth.enroll_loadings)
        for ga, gb in zip(a_enroll + a_test, b_enroll + b_test):
            assert ga.speaker_id == gb.speaker_id
            np.testing.assert_array_equal(ga.matrix(), gb.matrix())

    def test_different_seed_differs(self):
        a = synth.sample_dataset(base_config(seed=1))[0]
        b = synth.sample_dataset(base_config(seed=2))[0]
        assert not np.array_equal(a[0].matrix(), b[0].matrix())


class TestRotation:
    @pytest.mark.parametrize("dim", [2, 16, 200])
    def test_orthogonal_and_equal_to_the_matrix_exponential(self, dim):
        got = synth._rotation(np.random.default_rng(dim), dim, 1.0)
        draws = np.random.default_rng(dim).standard_normal((dim, dim))
        skew = (draws - draws.T) / 2.0
        expected = scipy.linalg.expm(skew / np.linalg.norm(skew, 2))
        assert np.abs(got - expected).max() < 1e-14
        assert np.abs(got.T @ got - np.eye(dim)).max() < 1e-14

    def test_angle_zero_is_exactly_the_identity(self):
        np.testing.assert_array_equal(synth._rotation(np.random.default_rng(3), 16, 0.0), np.eye(16))

    def test_draws_the_same_at_every_angle(self):
        # later draws of the truth must not depend on whether the test loadings were rotated
        states = []
        for angle in (0.0, 0.7):
            rng = np.random.default_rng(3)
            synth._rotation(rng, 16, angle)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestPopulationStatistics:
    def test_identical_sides_statistically_indistinguishable(self):
        cfg = base_config(
            n_speakers=2000, enroll_segments=2, test_segments=2,
            coupling_strength=1.0, test_noise_inflation=1.0,
            test_rotation=0.0, test_mean_shift=0.0, seed=23,
        )
        enroll_groups, test_groups, truth = synth.sample_dataset(cfg)
        np.testing.assert_allclose(truth.coupling, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(truth.coupling_noise_cov, 0.0, atol=1e-12)
        side1 = stack_groups(enroll_groups)
        side2 = stack_groups(test_groups)
        assert np.abs(side1.mean(0) - side2.mean(0)).max() < 0.15
        c1 = np.cov(side1, rowvar=False)
        c2 = np.cov(side2, rowvar=False)
        assert np.linalg.norm(c1 - c2) / np.linalg.norm(c1) < 0.1

    def test_law_of_total_covariance(self):
        cfg = base_config(dim=8, enroll_rank=2, n_speakers=500, enroll_segments=4, seed=29)
        enroll_groups, _, truth = synth.sample_dataset(cfg)
        sample_cov = np.cov(stack_groups(enroll_groups), rowvar=False)
        expected = truth.enroll_loadings @ truth.enroll_loadings.T + truth.enroll_noise_cov
        assert np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected) < 0.10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # degenerate on purpose
    def test_no_speaker_signal_gives_chance_eer(self):
        dim = 6
        rng = np.random.default_rng(5)
        noise = np.eye(dim)
        # vanishing loadings: no usable speaker signal in either side
        tiny = 1e-8 * rng.standard_normal((dim, 2))
        cfg = base_config(
            dim=dim, n_speakers=300, enroll_segments=2, test_segments=2, seed=31,
            truth=synth.GroundTruth(
                np.zeros(dim), tiny, noise, np.zeros(dim), tiny.copy(), noise,
                np.eye(2), np.zeros((2, 2)),
            ),
        )
        enroll_groups, test_groups, gt = synth.sample_dataset(cfg)
        agg = [plda.chunked_enroll_averages(g, plda.identity_preprocessor(dim), 2) for g in enroll_groups]
        model = plda.train_plda(agg, rank=2, iterations=5)
        kernel = fourcov.symmetric_kernel(model)
        scores, labels = [], []
        pre = plda.identity_preprocessor(dim)
        for i, g in enumerate(enroll_groups):
            w_e = plda.enroll_average(g, pre).vector
            scores.append(fourcov.score_trial(kernel, w_e, test_groups[i].members[0].vector))
            labels.append(True)
            other = test_groups[(i + 3) % len(test_groups)].members[0].vector
            scores.append(fourcov.score_trial(kernel, w_e, other))
            labels.append(False)
        eer = metrics.compute_eer(np.array(scores), np.array(labels))
        assert abs(eer - 0.5) < 0.07


class TestTrueLlr:
    def test_matches_kernel_on_truth_model(self, rng):
        cfg = base_config(
            test_rank=3, test_rotation=0.0, test_mean_shift=1.0,
            test_noise_inflation=3.0, seed=41,
        )
        truth = synth.make_ground_truth(cfg)
        kernel = fourcov.build_kernel(truth.as_fourcov())
        for _ in range(50):
            w1 = truth.enroll_mean + rng.standard_normal(cfg.dim)
            w2 = truth.test_mean + rng.standard_normal(cfg.dim)
            assert abs(synth.true_llr(truth, w1, w2) - fourcov.score_trial(kernel, w1, w2)) < 1e-8

    def test_symmetric_truth_matches_plda_llr(self, rng):
        cfg = base_config(
            coupling_strength=1.0, test_noise_inflation=1.0,
            test_rotation=0.0, test_mean_shift=0.0, seed=43,
        )
        truth = synth.make_ground_truth(cfg)
        model = plda.PldaModel(truth.enroll_mean, truth.enroll_loadings, truth.enroll_noise_cov)
        for _ in range(20):
            w1 = truth.enroll_mean + rng.standard_normal(cfg.dim)
            w2 = truth.enroll_mean + rng.standard_normal(cfg.dim)
            assert abs(synth.true_llr(truth, w1, w2) - plda.plda_llr(model, w1, w2)) < 1e-8

    def test_bayes_consistency_by_deciles(self):
        cfg = base_config(n_speakers=4000, enroll_segments=1, test_segments=1, seed=47, snr=0.8)
        enroll_groups, test_groups, truth = synth.sample_dataset(cfg)
        scores, labels = [], []
        for i, (ge, gt) in enumerate(zip(enroll_groups, test_groups)):
            w_e = ge.members[0].vector
            scores.append(synth.true_llr(truth, w_e, gt.members[0].vector))
            labels.append(1.0)
            other = test_groups[(i + 13) % len(test_groups)].members[0].vector
            scores.append(synth.true_llr(truth, w_e, other))
            labels.append(0.0)
        scores = np.array(scores)
        labels = np.array(labels)
        order = np.argsort(scores)
        bins = np.array_split(order, 10)
        target_rate = [labels[b].mean() for b in bins]
        rho, _ = spearmanr(np.arange(10), target_rate)
        assert rho > 0.99


class TestConfigValidation:
    def test_invalid_covariance_rejected(self):
        dim = 3
        bad = -np.eye(dim)
        with pytest.raises(ParameterError, match="positive definite"):
            synth.GroundTruth(
                np.zeros(dim), np.eye(dim, 1), bad,
                np.zeros(dim), np.eye(dim, 1), np.eye(dim),
                np.eye(1), np.zeros((1, 1)),
            )

    def test_truth_follows_the_model_rules(self):
        dim, eye = 3, np.eye(3)

        def truth(loadings=np.eye(dim, 1), residual=eye, noise=np.zeros((1, 1))):
            rank = loadings.shape[1]
            return synth.GroundTruth(
                np.zeros(dim), loadings, residual, np.zeros(dim), loadings, eye, np.eye(rank), noise
            )

        asymmetric = eye.copy()
        asymmetric[0, 1] += 0.5
        with pytest.raises(ParameterError, match="^residual covariance must be symmetric$"):
            truth(residual=asymmetric)
        with pytest.raises(ParameterError, match="^rank 5 exceeds dimension 3$"):
            truth(loadings=np.ones((dim, 5)), noise=np.zeros((5, 5)))
        # within the model's tolerances: an eigenvalue of -5e-11, and an
        # asymmetry of 1e-12 that the truth averages away as the model does
        np.testing.assert_array_equal(truth(noise=np.array([[-5e-11]])).coupling_noise_cov, [[-5e-11]])
        asymmetric[0, 1] = 1e-12
        kept = truth(residual=asymmetric).enroll_noise_cov
        np.testing.assert_array_equal(kept, kept.T)
        np.testing.assert_array_equal(kept, truth(residual=asymmetric).as_fourcov().enroll_plda.residual_cov)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dim": 6}, r"^explicit truth dimension 5 does not match config dim 6$"),
            ({"enroll_rank": 5, "test_rank": 1}, r"^explicit truth ranks \(2, 3\) do not match config ranks \(5, 1\)$"),
            ({"test_rank": 2}, r"^explicit truth ranks \(2, 3\) do not match config ranks \(2, 2\)$"),
        ],
        ids=["dimension", "both-ranks", "test-rank"],
    )
    def test_explicit_truth_must_match_the_config(self, overrides, message):
        # a config value that the truth contradicts would be accepted and then ignored
        matching = dict(dim=5, enroll_rank=2, test_rank=3, n_speakers=2)
        truth = synth.make_ground_truth(base_config(**matching))
        enroll, test, drawn = synth.sample_dataset(base_config(**matching, truth=truth))
        assert drawn is truth and enroll[0].members[0].dim == 5
        with pytest.raises(ParameterError, match=message):
            synth.sample_dataset(base_config(**{**matching, **overrides}, truth=truth))

    def test_explicit_truth_is_checked_when_the_config_is_built(self):
        truth = synth.make_ground_truth(base_config(dim=5, enroll_rank=2, test_rank=3))
        with pytest.raises(ParameterError, match=r"^explicit truth dimension 5 does not match config dim 8$"):
            base_config(truth=truth)
        with pytest.raises(ParameterError, match=r"^explicit truth ranks \(2, 3\) do not match config ranks \(2, 2\)$"):
            base_config(dim=5, truth=truth)

    def test_rotation_needs_equal_ranks(self):
        # test loadings of another rank are drawn on their own, so a rotation would be ignored
        with pytest.raises(ParameterError, match=r"^test_rotation needs test_rank equal to enroll_rank \(2\), got 3$"):
            base_config(test_rank=3, test_rotation=0.5)
        assert base_config(test_rank=3).test_rotation == 0.0
        assert base_config(test_rotation=0.5).test_rank == 2

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError):
            base_config(coupling_strength=1.5)
        with pytest.raises(ParameterError):
            base_config(enroll_segments=0)
        with pytest.raises(ParameterError):
            base_config(speaker_prefix="has-dash")

    @pytest.mark.parametrize(
        "field",
        ["snr", "coupling_strength", "test_noise_inflation", "test_rotation",
         "test_mean_shift", "test_noise_jitter"],
    )
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            base_config(**{field: value})

    def test_augmented_copies_share_speaker(self):
        cfg = base_config(augment_copies=2, enroll_segments=2, n_speakers=3)
        enroll_groups, _, _ = synth.sample_dataset(cfg)
        g = enroll_groups[0]
        assert len(g.members) == 2 + 2 * 2
        assert all(m.id.split("-", 1)[0] == g.speaker_id for m in g.members)


class TestEndToEndRecovery:
    def test_pipeline_eer_close_to_bayes_optimal(self):
        # full trained pipeline must land within 2 absolute points of the
        # EER that the exact generative LLR achieves
        knobs = dict(snr=1.0, coupling_strength=0.9, test_noise_inflation=2.0,
                     test_rotation=0.3, test_mean_shift=0.5)
        train_cfg = synth.GenConfig(
            dim=16, enroll_rank=4, test_rank=4, n_speakers=1000,
            enroll_segments=6, test_segments=3, seed=61, speaker_prefix="tr", **knobs,
        )
        truth = synth.make_ground_truth(train_cfg)
        train_enroll, train_test, _ = synth.sample_dataset(train_cfg)
        eval_cfg = synth.GenConfig(
            dim=16, enroll_rank=4, test_rank=4, n_speakers=300,
            enroll_segments=3, test_segments=1, seed=62, speaker_prefix="ev",
            truth=truth, **knobs,
        )
        eval_enroll, eval_test, _ = synth.sample_dataset(eval_cfg)

        pre1 = plda.fit_preprocessor(stack_groups(train_enroll))
        agg = [plda.chunked_enroll_averages(g, pre1, 3) for g in train_enroll]
        plda1 = plda.train_plda(agg, rank=4, iterations=10)
        pre2 = plda.fit_preprocessor(stack_groups(train_test))
        test_groups = [
            SpeakerGroup(g.speaker_id, tuple(
                Embedding(m.id, v) for m, v in zip(g.members, pre2.apply(g.matrix()))
            ))
            for g in train_test
        ]
        plda2 = plda.train_plda(test_groups, rank=4, iterations=10)
        model = fourcov.fit_coupling(plda1, plda2, list(zip(agg, test_groups)))
        kernel = fourcov.build_kernel(model)

        fitted_scores, oracle_scores, labels = [], [], []
        for i, (ge, gt) in enumerate(zip(eval_enroll, eval_test)):
            w_e = plda.enroll_average(ge, pre1).vector
            raw_members = [gt.members[0].vector,
                           eval_test[(i + 17) % len(eval_test)].members[0].vector]
            for j, raw in enumerate(raw_members):
                fitted_scores.append(fourcov.score_trial(kernel, w_e, pre2.apply(raw)))
                # the oracle scores the raw pair; averaging is part of the
                # fitted pipeline, so use the first raw segment for the oracle
                oracle_scores.append(
                    synth.true_llr(truth, ge.members[0].vector, raw)
                )
                labels.append(j == 0)
        labels = np.array(labels)
        eer_fit = metrics.compute_eer(np.array(fitted_scores), labels)
        eer_opt = metrics.compute_eer(np.array(oracle_scores), labels)
        assert eer_fit <= eer_opt + 0.02
