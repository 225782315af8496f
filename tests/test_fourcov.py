import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from asvbackend import data, synth
from asvbackend.data import Embedding, EmbeddingTable, SpeakerGroup, TrialList
from asvbackend.exceptions import (
    DimensionMismatchError,
    DomainError,
    NumericalError,
    ParameterError,
    UnknownIdError,
)
from asvbackend.fourcov import (
    FourCovModel,
    _pd_inverse,
    build_kernel,
    cohort_grids,
    coupling_from_factors,
    fit_coupling,
    in_model_space,
    joint_covariances,
    score_batch,
    score_trial,
    symmetric_kernel,
)
from asvbackend.plda import PldaModel, fit_preprocessor, to_model_space

from conftest import make_group, random_plda, random_truth, trial_list


def density_llr(model, w_e, w_t):
    """Two-Gaussian log-density oracle, independent of the kernel path."""
    same, indep = joint_covariances(model)
    stacked = np.concatenate([w_e, w_t])
    mean = np.concatenate([model.enroll_plda.mean, model.test_plda.mean])
    return multivariate_normal.logpdf(stacked, mean=mean, cov=same) - multivariate_normal.logpdf(
        stacked, mean=mean, cov=indep
    )


def random_fourcov(rng, dim, r1, r2):
    truth = random_truth(rng, dim, r1, r2)
    return truth.as_fourcov()


class TestCouplingRegression:
    def test_perfect_coupling_gives_identity(self, rng):
        factors = rng.standard_normal((50, 3))
        coupling, noise = coupling_from_factors(factors, factors)
        np.testing.assert_allclose(coupling, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(noise, np.zeros((3, 3)), atol=1e-10)

    def test_recovers_scaled_identity(self, rng):
        y1 = rng.standard_normal((1000, 2))
        y2 = 2.0 * y1 + 0.1 * rng.standard_normal((1000, 2))
        coupling, noise = coupling_from_factors(y1, y2)
        assert np.abs(coupling - 2.0 * np.eye(2)).max() < 5e-2
        assert np.abs(noise - 0.01 * np.eye(2)).max() < 5e-3

    def test_scalar_slope_matches_closed_form(self, rng):
        y1 = rng.standard_normal((200, 1))
        y2 = -1.3 * y1 + 0.2 * rng.standard_normal((200, 1))
        coupling, _ = coupling_from_factors(y1, y2)
        slope = float(np.sum(y1 * y2) / np.sum(y1 * y1))
        np.testing.assert_allclose(coupling, [[slope]], atol=1e-12)

    def test_residual_orthogonality(self, rng):
        y1 = rng.standard_normal((300, 3))
        y2 = y1 @ rng.standard_normal((3, 2)) + 0.3 * rng.standard_normal((300, 2))
        coupling, noise = coupling_from_factors(y1, y2)
        residual = y2 - y1 @ coupling.T
        bound = 1e-8 * np.linalg.norm(y1) * np.linalg.norm(y2)
        assert np.linalg.norm(y1.T @ residual) <= bound
        assert np.linalg.eigvalsh(noise).min() >= -1e-12

    def test_singular_gram_reported(self, rng):
        y1 = np.zeros((20, 2))
        y2 = rng.standard_normal((20, 2))
        with pytest.raises(NumericalError, match="more speakers|lower"):
            coupling_from_factors(y1, y2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_enrollment_factors_reported(self, rng, bad):
        y1 = rng.standard_normal((20, 2))
        y1[3, 1] = bad
        with pytest.raises(NumericalError, match="Gram matrix"):
            coupling_from_factors(y1, rng.standard_normal((20, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_test_factors_reported(self, rng, bad):
        y2 = rng.standard_normal((20, 2))
        y2[3, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            coupling_from_factors(rng.standard_normal((20, 2)), y2)


class TestFitCoupling:
    def test_near_noiseless_embeddings_recover_coupling(self, rng):
        # embeddings carry the factors almost exactly, so the full path
        # (factor extraction + regression) must recover the 2x map
        dim = 2
        eye_plda = PldaModel(np.zeros(dim), np.eye(dim), 1e-6 * np.eye(dim))
        pairs = []
        for i in range(1000):
            y1 = rng.standard_normal(dim)
            y2 = 2.0 * y1 + 0.1 * rng.standard_normal(dim)
            w1 = y1 + 1e-3 * rng.standard_normal(dim)
            w2 = y2 + 1e-3 * rng.standard_normal(dim)
            pairs.append(
                (
                    SpeakerGroup(f"s{i}", (Embedding(f"s{i}-e0", w1),)),
                    SpeakerGroup(f"s{i}", (Embedding(f"s{i}-t0", w2),)),
                )
            )
        model = fit_coupling(eye_plda, eye_plda, pairs)
        assert np.abs(model.coupling - 2.0 * np.eye(dim)).max() < 5e-2
        assert np.abs(model.coupling_noise_cov - 0.01 * np.eye(dim)).max() < 5e-3

    def test_mixed_segment_counts_match_dense_per_speaker_loop(self, rng):
        plda1, plda2 = random_plda(rng, 5, 2), random_plda(rng, 5, 3)
        pairs = []
        for i in range(12):
            n1, n2 = 1 + i % 3, 1 + i % 4
            pairs.append(
                (
                    make_group(f"s{i}", plda1.mean + rng.standard_normal((n1, 5))),
                    make_group(f"s{i}", plda2.mean + rng.standard_normal((n2, 5))),
                )
            )

        def dense_factor(model, group):
            gamma_inv = np.linalg.inv(model.residual_cov)
            phi = model.speaker_loadings
            precision = np.eye(model.rank) + len(group.members) * phi.T @ gamma_inv @ phi
            summed = (group.matrix() - model.mean).sum(axis=0)
            return np.linalg.inv(precision) @ phi.T @ gamma_inv @ summed

        y1 = np.stack([dense_factor(plda1, g1) for g1, _ in pairs])
        y2 = np.stack([dense_factor(plda2, g2) for _, g2 in pairs])
        coupling, noise = coupling_from_factors(y1, y2)
        model = fit_coupling(plda1, plda2, pairs)
        np.testing.assert_allclose(model.coupling, coupling, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(model.coupling_noise_cov, noise, rtol=0.0, atol=1e-10)

    def test_mismatched_speakers_rejected(self, rng):
        plda = random_plda(rng, 3, 2)
        g1 = SpeakerGroup("a", (Embedding("a-e0", rng.standard_normal(3)),))
        g2 = SpeakerGroup("b", (Embedding("b-t0", rng.standard_normal(3)),))
        with pytest.raises(ParameterError, match="different speakers"):
            fit_coupling(plda, plda, [(g1, g2)] * 5)

    def test_too_few_speakers_rejected(self, rng):
        plda = random_plda(rng, 3, 2)
        g = SpeakerGroup("a", (Embedding("a-e0", rng.standard_normal(3)),))
        with pytest.raises(ParameterError, match="rank\\+1"):
            fit_coupling(plda, plda, [(g, g)])


class TestPdInverse:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1.0, 0.0], [0.0, np.nan]]),
            np.array([[1.0, 0.0], [0.0, np.inf]]),
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),   # indefinite
            np.array([[1.0, 1.0], [1.0, 1.0]]),   # singular
        ],
        ids=["nan", "inf", "nan-first", "indefinite", "singular"],
    )
    def test_bad_matrix_rejected(self, matrix):
        with pytest.raises(NumericalError, match="^joint covariance is not positive definite$"):
            _pd_inverse(matrix, "joint covariance")


class TestKernel:
    def test_collapse_matches_symmetric_construction(self, rng):
        plda = random_plda(rng, 4, 2)
        collapsed = FourCovModel(plda, plda, np.eye(2), np.zeros((2, 2)))
        kernel = build_kernel(collapsed)
        same, indep = joint_covariances(collapsed)
        between = plda.between_cov()
        marginal = between + plda.residual_cov
        np.testing.assert_allclose(same[:4, 4:], between, atol=1e-12)
        np.testing.assert_allclose(indep[:4, :4], marginal, atol=1e-12)
        np.testing.assert_allclose(kernel.weights, kernel.weights.T, atol=1e-12)

    def test_hand_toy_model_matches_dense_inverses(self, rng):
        mu1, mu2 = np.array([1.0, -1.0]), np.array([0.5, 0.25])
        phi1 = np.array([[1.0], [0.5]])
        phi2 = np.array([[0.8], [-0.2]])
        gamma1 = np.array([[1.0, 0.2], [0.2, 0.8]])
        gamma2 = np.array([[1.5, -0.1], [-0.1, 0.6]])
        coupling = np.array([[0.7]])
        noise = np.array([[0.51]])
        model = FourCovModel(
            PldaModel(mu1, phi1, gamma1), PldaModel(mu2, phi2, gamma2), coupling, noise
        )
        kernel = build_kernel(model)
        same = np.block(
            [
                [phi1 @ phi1.T + gamma1, phi1 @ coupling.T @ phi2.T],
                [phi2 @ coupling @ phi1.T, phi2 @ (coupling @ coupling.T + noise) @ phi2.T + gamma2],
            ]
        )
        indep = scipy.linalg.block_diag(phi1 @ phi1.T + gamma1, phi2 @ phi2.T + gamma2)
        np.testing.assert_allclose(
            kernel.weights, np.linalg.inv(same) - np.linalg.inv(indep), atol=1e-10
        )
        expected_offset = -0.5 * (np.linalg.slogdet(same)[1] - np.linalg.slogdet(indep)[1])
        np.testing.assert_allclose(kernel.offset, expected_offset, atol=1e-10)

    def test_no_speaker_information_gives_zero_kernel(self, rng):
        # loadings ~ 0 on the enrollment side and a coupling that keeps the
        # test factor marginal standard normal: both hypotheses coincide
        dim = 3
        gamma = np.eye(dim) + 0.1 * np.ones((dim, dim))
        phi2 = rng.standard_normal((dim, 2))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            plda1 = PldaModel(np.zeros(dim), np.zeros((dim, 2)), gamma)
        plda2 = PldaModel(np.zeros(dim), phi2, gamma)
        model = FourCovModel(plda1, plda2, np.zeros((2, 2)), np.eye(2))
        kernel = build_kernel(model)
        np.testing.assert_allclose(kernel.weights, 0.0, atol=1e-10)
        assert abs(kernel.offset) < 1e-10
        w = rng.standard_normal(dim)
        assert abs(score_trial(kernel, w, w)) < 1e-9

    def test_asymmetric_noise_cov_rejected(self, rng):
        plda = random_plda(rng, 3, 2)
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ParameterError, match="symmetric"):
            FourCovModel(plda, plda, np.eye(2), bad)

    def test_indefinite_noise_cov_rejected(self, rng):
        plda = random_plda(rng, 3, 2)
        with pytest.raises(ParameterError, match="semi-definite"):
            FourCovModel(plda, plda, np.eye(2), -np.eye(2))


class TestScoreTrial:
    def test_centered_pair_scores_offset(self, rng):
        model = random_fourcov(rng, 4, 2, 2)
        kernel = build_kernel(model)
        got = score_trial(kernel, model.enroll_plda.mean, model.test_plda.mean)
        np.testing.assert_allclose(got, kernel.offset, atol=1e-12)

    def test_matches_density_oracle(self, rng):
        model = random_fourcov(rng, 6, 2, 3)
        kernel = build_kernel(model)
        for _ in range(100):
            w_e = model.enroll_plda.mean + rng.standard_normal(6)
            w_t = model.test_plda.mean + rng.standard_normal(6)
            assert abs(score_trial(kernel, w_e, w_t) - density_llr(model, w_e, w_t)) < 1e-8

    def test_targets_separate_from_nontargets(self, rng):
        cfg = synth.GenConfig(
            dim=8, enroll_rank=3, test_rank=3, n_speakers=300,
            enroll_segments=1, test_segments=1, seed=99, snr=2.0,
        )
        enroll_groups, test_groups, truth = synth.sample_dataset(cfg)
        kernel = build_kernel(truth.as_fourcov())
        tar, non = [], []
        for i, (ge, gt) in enumerate(zip(enroll_groups, test_groups)):
            w_e = ge.members[0].vector
            tar.append(score_trial(kernel, w_e, gt.members[0].vector))
            other = test_groups[(i + 7) % len(test_groups)].members[0].vector
            non.append(score_trial(kernel, w_e, other))
        assert np.mean(tar) > np.mean(non)

    def test_asymmetry_is_real(self, rng):
        model = random_fourcov(rng, 4, 2, 2)
        kernel = build_kernel(model)
        diffs = []
        for _ in range(20):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            diffs.append(abs(score_trial(kernel, a, b) - score_trial(kernel, b, a)))
        assert max(diffs) > 1e-3

    def test_dimension_mismatch(self, rng):
        model = random_fourcov(rng, 4, 2, 2)
        kernel = build_kernel(model)
        with pytest.raises(DimensionMismatchError, match="^enrollment vector 'enrollment' has dimension 3, kernel dimension is 4$"):
            score_trial(kernel, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_non_finite_vector_raises_naming_side(self, rng, side, value):
        # as a table would reject it, before any arithmetic could warn
        kernel = build_kernel(random_fourcov(rng, 4, 2, 2))
        vectors = {"enrollment": rng.standard_normal(4), "test": rng.standard_normal(4)}
        vectors[side][1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^embedding '{side}' contains non-finite values$"):
                score_trial(kernel, vectors["enrollment"], vectors["test"])


class TestScoreBatch:
    def _setup(self, rng, n_enroll=5, n_test=6):
        model = random_fourcov(rng, 4, 2, 2)
        kernel = build_kernel(model)
        enrolls = [Embedding(f"e{i}", rng.standard_normal(4)) for i in range(n_enroll)]
        tests = [Embedding(f"t{j}", rng.standard_normal(4)) for j in range(n_test)]
        return kernel, enrolls, tests

    def test_singleton_matches_score_trial(self, rng):
        kernel, enrolls, tests = self._setup(rng)
        trials = trial_list([("e0", "t0", None)])
        out = score_batch(kernel, enrolls, tests, trials)
        expected = score_trial(kernel, enrolls[0].vector, tests[0].vector)
        np.testing.assert_array_equal(out.values(), [expected])

    def test_permutation_equivariance(self, rng):
        kernel, enrolls, tests = self._setup(rng)
        pairs = [(f"e{i}", f"t{j}", None) for i in range(5) for j in range(6)]
        forward = score_batch(kernel, enrolls, tests, trial_list(pairs))
        backward = score_batch(kernel, enrolls, tests, trial_list(pairs[::-1]))
        assert list(forward.entries) == list(backward.entries)[::-1]

    def test_large_batch_matches_sequential_loop(self, rng):
        kernel, enrolls, tests = self._setup(rng, n_enroll=100, n_test=100)
        pairs = [(f"e{i}", f"t{j}", None) for i in range(100) for j in range(100)]
        trials = trial_list(pairs)
        batch = score_batch(kernel, enrolls, tests, trials)
        e_map = {e.id: e.vector for e in enrolls}
        t_map = {t.id: t.vector for t in tests}
        for entry in batch:
            expected = score_trial(kernel, e_map[entry.enroll_id], t_map[entry.test_id])
            assert abs(entry.score - expected) < 1e-12

    def test_empty_trial_list(self, rng):
        kernel, enrolls, tests = self._setup(rng)
        assert len(score_batch(kernel, enrolls, tests, trial_list([]))) == 0

    def test_unreferenced_vectors_ignored(self, rng):
        kernel, enrolls, tests = self._setup(rng)
        extra = Embedding("extra", rng.standard_normal(4))
        trials = trial_list([("e0", "t0", None), ("e1", "t2", None)])
        out = score_batch(kernel, enrolls + [extra], [extra] + tests, trials)
        expected = score_batch(kernel, enrolls, tests, trials)
        np.testing.assert_array_equal(out.values(), expected.values())

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_mixed_width_sequence_rejected(self, rng, side):
        # a sequence is converted whole on entry, so even an unreferenced
        # row of another width is an error
        kernel, enrolls, tests = self._setup(rng)
        odd = Embedding("odd", rng.standard_normal(3))
        sides = {"enrollment": enrolls, "test": tests}
        sides[side] = sides[side] + [odd]
        trials = trial_list([("e0", "t0", None)])
        with pytest.raises(DimensionMismatchError, match="'odd' has dimension 3"):
            score_batch(kernel, sides["enrollment"], sides["test"], trials)

    def test_unknown_id_named(self, rng):
        kernel, enrolls, tests = self._setup(rng)
        with pytest.raises(UnknownIdError, match="'missing'"):
            score_batch(kernel, enrolls, tests, trial_list([("missing", "t0", None)]))


class TestCohortGrids:
    def _setup(self, rng, n_rows=5, n_cohort=7):
        kernel = build_kernel(random_fourcov(rng, 4, 2, 2))
        rows = rng.standard_normal((n_rows, 4))
        cohort = EmbeddingTable.from_columns([f"c{j}" for j in range(n_cohort)], rng.standard_normal((n_cohort, 4)))
        return kernel, rows, cohort

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_grids_match_score_trial_with_slots_kept(self, rng, monkeypatch, side):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)  # three blocks of rows
        kernel, rows, cohort = self._setup(rng)
        grids = list(cohort_grids(kernel, rows, side, cohort))
        assert [len(grid) for grid in grids] == [2, 2, 1]
        got = np.vstack(grids)
        assert got.shape == (len(rows), len(cohort))
        for i, row in enumerate(rows):
            for j, entry in enumerate(cohort.matrix):
                pair = (row, entry) if side == "enrollment" else (entry, row)
                assert abs(got[i, j] - score_trial(kernel, *pair)) < 1e-12

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_wrong_dimension_names_side(self, rng, side):
        kernel, rows, cohort = self._setup(rng)
        with pytest.raises(DimensionMismatchError, match=f"^{side} vector has dimension 3, kernel dimension is 4$"):
            cohort_grids(kernel, rows[:, :3], side, cohort)
        other = "test" if side == "enrollment" else "enrollment"
        narrow = EmbeddingTable.from_columns(cohort.ids, cohort.matrix[:, :3])
        with pytest.raises(DimensionMismatchError, match=f"^{other}-side cohort vector 'c0' has dimension 3"):
            cohort_grids(kernel, rows, side, narrow)


class TestInModelSpace:
    def _sides(self, rng, dim=4):
        pre_enroll = fit_preprocessor(rng.standard_normal((30, dim)))
        pre_test = fit_preprocessor(2.0 + rng.standard_normal((30, dim)))
        enrolls = EmbeddingTable.from_columns(["a", "b", "a", "c"], rng.standard_normal((4, dim)))
        tests = EmbeddingTable.from_columns(["t1", "t2", "t1"], rng.standard_normal((3, dim)))
        return pre_enroll, pre_test, enrolls, tests

    def test_enrollment_averaged_test_rows_kept(self, rng):
        pre_enroll, pre_test, enrolls, tests = self._sides(rng)
        got_e = in_model_space(enrolls, pre_enroll, "enrollment", average=True)
        got_t = in_model_space(tests, pre_test, "test")
        assert got_e == to_model_space(enrolls, pre_enroll, average=True)
        assert got_e.ids == ("a", "b", "c")
        assert got_t == to_model_space(tests, pre_test)

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_wrong_width_names_the_side(self, rng, side):
        pre_enroll, pre_test, _, _ = self._sides(rng)
        pre = pre_enroll if side == "enrollment" else pre_test
        wide = EmbeddingTable.from_columns(["x"], rng.standard_normal((1, 5)))
        with pytest.raises(DimensionMismatchError, match=f"^{side} vectors have dimension 5, the model expects 4$"):
            in_model_space(wide, pre, side, average=side == "enrollment")


class TestScoreBatchMemory:
    def test_gathers_hold_one_block_not_every_trial(self, rng):
        # 20,000 trials at dimension 64: one (trials x d) float64 gather is
        # 10.2 MB, one 256-row block of it 131 kB
        n_e, n_t, d = 100, 200, 64
        kernel = build_kernel(random_fourcov(rng, d, 8, 8))
        enrolls = EmbeddingTable.from_columns([f"e{i}" for i in range(n_e)], rng.standard_normal((n_e, d)))
        tests = EmbeddingTable.from_columns([f"t{j}" for j in range(n_t)], rng.standard_normal((n_t, d)))
        trials = TrialList.from_columns(
            [f"e{i}" for i in range(n_e) for _ in range(n_t)],
            [f"t{j}" for _ in range(n_e) for j in range(n_t)],
            [None] * (n_e * n_t),
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            scores = score_batch(kernel, enrolls, tests, trials)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scores) == n_e * n_t
        whole = n_e * n_t * d * 8
        assert peak - held < whole / 4, f"transient peak {(peak - held) / 1e6:.2f} MB"


class TestSerialization:
    def test_fourcov_round_trip(self, rng, tmp_path):
        from asvbackend.modelio import load_fourcov, save_fourcov
        from asvbackend.plda import fit_preprocessor

        model = random_fourcov(rng, 4, 2, 2)
        pre1 = fit_preprocessor(rng.standard_normal((50, 4)))
        pre2 = fit_preprocessor(rng.standard_normal((50, 4)))
        path = tmp_path / "m.npz"
        save_fourcov(path, model, pre1, pre2)
        back, b1, b2 = load_fourcov(path)
        np.testing.assert_array_equal(back.coupling, model.coupling)
        np.testing.assert_array_equal(back.enroll_plda.mean, model.enroll_plda.mean)
        np.testing.assert_array_equal(b1.whitener, pre1.whitener)
        np.testing.assert_array_equal(b2.mean, pre2.mean)

    def test_wrong_magic_rejected(self, rng, tmp_path):
        from asvbackend.exceptions import FileFormatError
        from asvbackend.modelio import load_fourcov, save_plda_side
        from asvbackend.plda import fit_preprocessor

        pre = fit_preprocessor(rng.standard_normal((50, 3)))
        path = tmp_path / "side.npz"
        save_plda_side(path, random_plda(rng, 3, 2), pre)
        with pytest.raises(FileFormatError, match="expected bundle"):
            load_fourcov(path)
