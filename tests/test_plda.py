import tracemalloc
import warnings

import numpy as np
import pytest

from asvbackend import data, fourcov, synth
from asvbackend.data import Embedding, EmbeddingTable, SpeakerGroup
from asvbackend.exceptions import DomainError, NumericalError, ParameterError
from asvbackend.plda import (
    PldaModel,
    Preprocessor,
    _as_stats,
    chunk_averages,
    chunked_enroll_averages,
    enroll_average,
    fit_preprocessor,
    gaussian_logpdf,
    identity_preprocessor,
    interpolate_plda,
    length_normalize,
    plda_llr,
    speaker_factors,
    speaker_stats,
    to_model_space,
    train_plda,
)

from conftest import make_group, random_plda


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_vector_unchanged(self, rng):
        v = rng.standard_normal(6)
        u = length_normalize(v)
        np.testing.assert_allclose(length_normalize(u), u, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            length_normalize(np.zeros(3))

    def test_scale_invariance(self, rng):
        for _ in range(20):
            v = rng.standard_normal(5)
            c = float(rng.uniform(0.01, 100.0))
            np.testing.assert_allclose(length_normalize(c * v), length_normalize(v), atol=1e-12)


class TestPreprocessor:
    def test_whitened_covariance_near_identity(self, rng):
        mean = np.array([1.0, -2.0, 0.5, 3.0])
        chol = np.array(
            [[1.0, 0, 0, 0], [0.5, 1.2, 0, 0], [-0.3, 0.1, 0.8, 0], [0.2, -0.4, 0.3, 1.5]]
        )
        data = mean + rng.standard_normal((10000, 4)) @ chol.T
        pre = fit_preprocessor(data)
        white = pre.whiten(data)
        np.testing.assert_allclose(np.cov(white, rowvar=False), np.eye(4), atol=5e-2)
        # exact identity when measured with the same divisor as the fit
        centered = white - white.mean(axis=0)
        np.testing.assert_allclose(centered.T @ centered / (len(data) - 1), np.eye(4), atol=1e-6)

    def test_already_white_data_is_fixed_point(self, rng):
        data = rng.standard_normal((20000, 3))
        pre = fit_preprocessor(data)
        np.testing.assert_allclose(pre.mean, np.zeros(3), atol=5e-2)
        np.testing.assert_allclose(pre.whitener, np.eye(3), atol=5e-2)

    def test_too_few_vectors(self, rng):
        with pytest.raises(NumericalError, match="at least 5"):
            fit_preprocessor(rng.standard_normal((3, 4)))

    def test_singular_covariance_names_rank(self, rng):
        flat = rng.standard_normal((50, 1)) @ rng.standard_normal((1, 4))
        with pytest.raises(NumericalError, match="rank 1 < dimension 4"):
            fit_preprocessor(flat)

    def test_finite_outlier_is_ill_conditioned_not_singular(self, rng):
        # one component of 1e154 spreads the variances to about 5.6e305: the covariance
        # has full rank, but no relative eigenvalue floor can tell its small eigenvalues from 0
        rows = rng.standard_normal((180, 16))
        rows[4, 1] = 1e154
        with pytest.raises(NumericalError, match=r"^training covariance is ill-conditioned: component variances "
                                                 r"run from \S+ to 5\.\d+e\+305, too far apart to whiten$"):
            fit_preprocessor(rows)


class TestEnrollAverage:
    def test_single_member_is_normalized_member(self, rng):
        pre = identity_preprocessor(4)
        v = rng.standard_normal(4)
        out = enroll_average(make_group("s", [v]), pre)
        np.testing.assert_allclose(out.vector, length_normalize(v), atol=1e-15)

    def test_identical_members_idempotent(self, rng):
        pre = identity_preprocessor(4)
        v = rng.standard_normal(4)
        out = enroll_average(make_group("s", [v, v]), pre)
        np.testing.assert_allclose(out.vector, length_normalize(v), atol=1e-15)

    def test_orthogonal_pair_bisects(self):
        pre = identity_preprocessor(2)
        out = enroll_average(make_group("s", [np.array([1.0, 0.0]), np.array([0.0, 1.0])]), pre)
        np.testing.assert_allclose(out.vector, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_chunked_averages(self, rng):
        pre = identity_preprocessor(3)
        group = make_group("s", [rng.standard_normal(3) for _ in range(7)])
        agg = chunked_enroll_averages(group, pre, 3)
        assert len(agg.members) == 3  # 3 + 3 + remainder of 1
        first = enroll_average(SpeakerGroup("s", group.members[:3]), pre)
        np.testing.assert_allclose(agg.members[0].vector, first.vector)


class TestToModelSpace:
    IDS = ["m2", "m1", "m2", "m3", "m1", "m2", "m3", "m4"]

    @pytest.mark.parametrize("block", [1, 3, 100])  # 100 exceeds the 8 rows
    def test_block_size_keeps_ids_and_values(self, monkeypatch, rng, block):
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        matrix = rng.standard_normal((len(self.IDS), 5))
        pre = fit_preprocessor(rng.standard_normal((40, 5)))
        table = EmbeddingTable.from_columns(self.IDS, matrix)

        rows = to_model_space(table, pre)
        assert rows.ids == tuple(self.IDS)
        expected_rows = [pre.apply(v) for v in matrix]
        np.testing.assert_allclose(rows.matrix, expected_rows, rtol=0, atol=1e-12)

        averages = to_model_space(table, pre, average=True)
        assert averages.ids == ("m2", "m1", "m3", "m4")
        for model_id, vector in zip(averages.ids, averages.matrix):
            members = [pre.apply(v) for v, i in zip(matrix, self.IDS) if i == model_id]
            expected = length_normalize(np.mean(members, axis=0))
            np.testing.assert_allclose(vector, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 3, 100])
    def test_a_row_or_average_that_cannot_be_normalized_is_named(self, monkeypatch, block):
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        pre = identity_preprocessor(2)
        huge = EmbeddingTable.from_columns(["a", "b", "c"], [[1.0, 0.0], [1e155, 1.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match=r"^vector 'b' \(row 2\): cannot length-normalize a vector whose norm"):
            to_model_space(huge, pre)
        # the two rows of model 'b' cancel
        cancelling = EmbeddingTable.from_columns(["a", "b", "b"], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(DomainError, match=r"^model 'b': cannot length-normalize a zero vector$"):
            to_model_space(cancelling, pre, average=True)

    def test_rows_and_tables_give_the_same_result(self, rng):
        pre = fit_preprocessor(rng.standard_normal((40, 4)))
        rows = [Embedding(i, rng.standard_normal(4)) for i in self.IDS]
        assert to_model_space(rows, pre, average=True) == to_model_space(EmbeddingTable(rows), pre, average=True)


def interleaved_speakers(rng, dim=5, speakers=12):
    """Speaker groups with 1-6 rows each, and the same rows as one table in shuffled order.

    The groups are listed in order of each speaker's first row in the table,
    which is the order `data.speaker_codes` gives.
    """
    ids = [f"s{i}-u{j}" for i in range(speakers) for j in range(1 + i % 6)]
    order = rng.permutation(len(ids))
    ids = [ids[i] for i in order]
    table = EmbeddingTable.from_columns(ids, rng.standard_normal((len(ids), dim)) + 100.0)
    speaker_ids, codes = data.speaker_codes(table.ids)
    groups = [
        SpeakerGroup(s, tuple(table[i] for i in np.flatnonzero(codes == c)))
        for c, s in enumerate(speaker_ids)
    ]
    return table, speaker_ids, codes, groups


class TestSpeakerStats:
    def test_table_and_groups_agree(self, rng):
        table, speaker_ids, codes, groups = interleaved_speakers(rng)
        stats = speaker_stats(table.matrix, speaker_ids, codes)
        adapted = _as_stats(groups)
        assert stats.speaker_ids == adapted.speaker_ids == speaker_ids
        np.testing.assert_array_equal(stats.counts, [len(g.members) for g in groups])
        np.testing.assert_array_equal(stats.counts, adapted.counts)
        np.testing.assert_array_equal(stats.sums, adapted.sums)
        np.testing.assert_array_equal(stats.mean, adapted.mean)
        np.testing.assert_allclose(stats.scatter, adapted.scatter, rtol=0, atol=1e-12)
        centred = table.matrix - table.matrix.mean(axis=0)
        np.testing.assert_allclose(stats.scatter, centred.T @ centred, rtol=0, atol=1e-12)
        model = PldaModel(stats.mean, rng.standard_normal((5, 2)), np.eye(5))
        np.testing.assert_allclose(
            speaker_factors(model, stats), speaker_factors(model, groups), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("block", [1, 3, 1000])  # 1000 exceeds the rows
    def test_block_size_independence(self, monkeypatch, rng, block):
        table, speaker_ids, codes, groups = interleaved_speakers(rng, speakers=40)
        reference = train_plda(groups, rank=2, iterations=5)
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        stats = speaker_stats(table.matrix, speaker_ids, codes)
        for c, group in enumerate(groups):
            assert np.array_equal(stats.sums[c], group.matrix().sum(axis=0))
        centred = table.matrix - stats.mean
        np.testing.assert_allclose(stats.scatter, centred.T @ centred, rtol=0, atol=1e-12)
        model = train_plda(stats, rank=2, iterations=5)
        for got, want in [
            (model.mean, reference.mean),
            (model.speaker_loadings, reference.speaker_loadings),
            (model.residual_cov, reference.residual_cov),
        ]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_memory_is_bounded_by_a_block(self, rng):
        n, d, speakers = 20000, 32, 50
        matrix = rng.standard_normal((n, d))
        codes = rng.integers(speakers, size=n)
        speaker_ids = tuple(f"s{i}" for i in range(speakers))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stats = speaker_stats(matrix, speaker_ids, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.counts.sum() == n
        assert peak - before < matrix.nbytes / 4, f"peak {(peak - before) / 1e6:.2f} MB"

    def test_no_rows_give_no_speakers(self):
        # an empty training file reaches train_plda's speaker-count check without a 0/0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = speaker_stats(np.empty((0, 3)), (), np.empty(0, dtype=np.intp))
        assert stats.counts.size == 0 and stats.sums.shape == (0, 3)
        with pytest.raises(ParameterError, match="at least 2 speakers, got 0"):
            train_plda(stats)

    @pytest.mark.parametrize("position", [0, 5, 12])  # first, inside, last
    def test_speaker_without_vectors_is_refused(self, rng, position):
        # a count of 0 made train_plda fail inside LAPACK, and fit_coupling give
        # the speaker a zero factor without a warning
        table, speaker_ids, codes, _ = interleaved_speakers(rng)
        speaker_ids = speaker_ids[:position] + ("ghost",) + speaker_ids[position:]
        codes = codes + (codes >= position)
        with pytest.raises(ParameterError, match="^speaker 'ghost' has no vectors$"):
            speaker_stats(table.matrix, speaker_ids, codes)

    def test_repeated_speaker_id_trains_as_separate_speakers(self, rng):
        groups = [make_group("s", rng.standard_normal((3, 4)) + i) for i in range(10)]
        renamed = [SpeakerGroup(f"s{i}", g.members) for i, g in enumerate(groups)]
        stats = _as_stats(groups)
        assert stats.speaker_ids == ("s",) * 10 and stats.counts.tolist() == [3] * 10
        repeated = train_plda(groups, rank=2, iterations=3)
        distinct = train_plda(renamed, rank=2, iterations=3)
        np.testing.assert_array_equal(repeated.speaker_loadings, distinct.speaker_loadings)
        np.testing.assert_array_equal(repeated.residual_cov, distinct.residual_cov)

    def test_chunk_averages_match_per_speaker_averaging(self, rng):
        table, speaker_ids, codes, groups = interleaved_speakers(rng)
        pre = fit_preprocessor(rng.standard_normal((40, 5)))
        averages, chunk_speakers = chunk_averages(table, speaker_ids, codes, pre, 2)
        expected = {}
        for group in groups:
            for row in chunked_enroll_averages(group, pre, 2).members:
                expected[row.id] = (group.speaker_id, row.vector)
        seen, row_chunks = {}, []
        for row_id in table.ids:
            speaker = row_id.split("-")[0]
            j = seen[speaker] = seen.get(speaker, -1) + 1
            row_chunks.append(f"{speaker}-agg{j - j % 2}")
        # one average per chunk, in order of first appearance in the table
        assert averages.ids == tuple(dict.fromkeys(row_chunks))
        assert sorted(averages.ids) == sorted(expected)
        for chunk_id, vector, c in zip(averages.ids, averages.matrix, chunk_speakers):
            speaker, want = expected[chunk_id]
            assert speaker_ids[c] == speaker
            np.testing.assert_allclose(vector, want, rtol=0, atol=1e-12)


class TestTrainPlda:
    def test_recovers_known_model(self, rng):
        cfg = synth.GenConfig(
            dim=8, enroll_rank=2, test_rank=2, n_speakers=500,
            enroll_segments=10, test_segments=1, seed=31,
        )
        groups, _, truth = synth.sample_dataset(cfg)
        model = train_plda(groups, rank=2, iterations=15)
        true_between = truth.enroll_loadings @ truth.enroll_loadings.T
        rel_b = np.linalg.norm(model.between_cov() - true_between) / np.linalg.norm(true_between)
        rel_g = np.linalg.norm(model.residual_cov - truth.enroll_noise_cov) / np.linalg.norm(
            truth.enroll_noise_cov
        )
        assert rel_b < 0.10
        assert rel_g < 0.10

    def test_loglik_monotone(self, rng):
        cfg = synth.GenConfig(
            dim=6, enroll_rank=2, test_rank=2, n_speakers=80,
            enroll_segments=5, test_segments=1, seed=7,
        )
        groups, _, _ = synth.sample_dataset(cfg)
        lls = []
        train_plda(groups, rank=2, iterations=10, callback=lambda i, ll: lls.append(ll))
        assert len(lls) == 10
        assert all(b - a >= -1e-8 for a, b in zip(lls, lls[1:]))

    def test_mean_is_data_mean(self, rng):
        cfg = synth.GenConfig(
            dim=5, enroll_rank=2, test_rank=2, n_speakers=40,
            enroll_segments=4, test_segments=1, seed=3,
        )
        groups, _, _ = synth.sample_dataset(cfg)
        model = train_plda(groups, rank=2, iterations=2)
        stacked = np.vstack([g.matrix() for g in groups])
        np.testing.assert_allclose(model.mean, stacked.mean(axis=0), atol=1e-12)

    def test_zero_iterations_rejected(self, rng):
        groups = [make_group(f"s{i}", rng.standard_normal((3, 4))) for i in range(10)]
        with pytest.raises(ParameterError, match="iterations"):
            train_plda(groups, rank=2, iterations=0)

    def test_rank_above_dim_rejected(self, rng):
        groups = [make_group(f"s{i}", rng.standard_normal((3, 4))) for i in range(10)]
        with pytest.raises(ParameterError, match="rank"):
            train_plda(groups, rank=5)

    def test_too_little_data_rejected(self, rng):
        groups = [make_group(f"s{i}", rng.standard_normal((2, 8))) for i in range(2)]
        with pytest.raises(ParameterError, match="d \\+ r"):
            train_plda(groups, rank=4)

    def test_side_bundle_round_trip(self, rng, tmp_path):
        from asvbackend.modelio import load_plda_side, save_plda_side

        model = random_plda(rng, 5, 2)
        pre = fit_preprocessor(rng.standard_normal((40, 5)))
        path = tmp_path / "side.npz"
        save_plda_side(path, model, pre)
        back, pre_back = load_plda_side(path)
        np.testing.assert_array_equal(back.mean, model.mean)
        np.testing.assert_array_equal(back.speaker_loadings, model.speaker_loadings)
        np.testing.assert_array_equal(back.residual_cov, model.residual_cov)
        np.testing.assert_array_equal(pre_back.whitener, pre.whitener)

    def test_degenerate_identical_vectors_warn_not_crash(self):
        v = np.array([1.0, 2.0, 3.0])
        groups = [SpeakerGroup(f"s{i}", (Embedding(f"s{i}-u0", v),)) for i in range(8)]
        with pytest.warns(RuntimeWarning):
            model = train_plda(groups, rank=1, iterations=2)
        assert np.all(np.isfinite(model.residual_cov))
        np.testing.assert_array_less(0.0, np.linalg.eigvalsh(model.residual_cov))


class TestSpeakerFactor:
    def test_sample_at_mean_gives_zero(self, rng):
        model = random_plda(rng, 4, 2)
        factor = speaker_factors(model, [make_group("s", [model.mean.copy()])])[0]
        np.testing.assert_allclose(factor, np.zeros(2), atol=1e-12)

    def test_scalar_case(self):
        model = PldaModel(np.zeros(1), np.ones((1, 1)), np.ones((1, 1)))
        factor = speaker_factors(model, [make_group("s", [np.array([2.0])])])[0]
        np.testing.assert_allclose(factor, [1.0])

    def test_matches_dense_formula(self, rng):
        model = random_plda(rng, 4, 2)
        rows = rng.standard_normal((3, 4)) + model.mean
        got = speaker_factors(model, [make_group("s", rows)])[0]
        # direct dense evaluation
        gamma_inv = np.linalg.inv(model.residual_cov)
        phi = model.speaker_loadings
        precision = 3 * phi.T @ gamma_inv @ phi + np.eye(2)
        expected = np.linalg.inv(precision) @ phi.T @ gamma_inv @ (rows - model.mean).sum(axis=0)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_shrinkage_and_precision_growth(self, rng):
        model = random_plda(rng, 5, 2)
        w = model.mean + rng.standard_normal(5)
        posterior = speaker_factors(model, [make_group("s", [w])])[0]
        gamma_inv = np.linalg.inv(model.residual_cov)
        phi = model.speaker_loadings
        base = phi.T @ gamma_inv @ phi
        least_squares = np.linalg.solve(base, phi.T @ gamma_inv @ (w - model.mean))
        assert np.linalg.norm(posterior) <= np.linalg.norm(least_squares) + 1e-12
        for n in range(1, 5):
            step = (np.eye(2) + (n + 1) * base) - (np.eye(2) + n * base)
            assert np.linalg.eigvalsh(step).min() >= -1e-12


class TestGaussianLogpdf:
    def test_matches_scipy(self, rng):
        from scipy.stats import multivariate_normal

        for dim in (1, 4, 9):
            draws = rng.standard_normal((dim, dim + 3))
            cov = draws @ draws.T / (dim + 3)
            mean = rng.standard_normal(dim)
            x = mean + rng.standard_normal(dim)
            expected = multivariate_normal.logpdf(x, mean=mean, cov=cov)
            np.testing.assert_allclose(gaussian_logpdf(x, mean, cov), expected, rtol=1e-10, atol=1e-10)

    def test_singular_covariance_rejected(self):
        with pytest.raises(NumericalError, match="positive definite"):
            gaussian_logpdf(np.zeros(2), np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        # numpy's cholesky returns a NaN factor for a NaN diagonal without raising
        cov = np.eye(2)
        cov[1, 1] = bad
        with pytest.raises(NumericalError, match="positive definite"):
            gaussian_logpdf(np.zeros(2), np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            gaussian_logpdf(np.array([0.0, bad]), np.zeros(2), np.eye(2))


class TestPldaLlr:
    def test_centered_pair_scores_constant(self, rng):
        model = random_plda(rng, 3, 2)
        got = plda_llr(model, model.mean, model.mean)
        between = model.between_cov()
        marginal = between + model.residual_cov
        same = np.block([[marginal, between], [between, marginal]])
        sign, logdet_same = np.linalg.slogdet(same)
        assert sign > 0
        _, logdet_marginal = np.linalg.slogdet(marginal)
        expected = -0.5 * (logdet_same - 2.0 * logdet_marginal)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_collapsed_two_sided_kernel(self, rng):
        model = random_plda(rng, 4, 2)
        kernel = fourcov.symmetric_kernel(model)
        for _ in range(100):
            a = model.mean + rng.standard_normal(4)
            b = model.mean + rng.standard_normal(4)
            assert abs(plda_llr(model, a, b) - fourcov.score_trial(kernel, a, b)) < 1e-9

    def test_targets_score_above_nontargets_on_average(self, rng):
        cfg = synth.GenConfig(
            dim=6, enroll_rank=2, test_rank=2, n_speakers=60,
            enroll_segments=2, test_segments=2, seed=17,
        )
        groups, _, truth = synth.sample_dataset(cfg)
        model = PldaModel(truth.enroll_mean, truth.enroll_loadings, truth.enroll_noise_cov)
        tar, non = [], []
        for i, g in enumerate(groups):
            a, b = g.members[0].vector, g.members[1].vector
            tar.append(plda_llr(model, a, b))
            other = groups[(i + 1) % len(groups)].members[1].vector
            non.append(plda_llr(model, a, other))
        assert np.mean(tar) > np.mean(non)


class TestInterpolate:
    def test_endpoints(self, rng):
        a = random_plda(rng, 4, 2)
        b = random_plda(rng, 4, 2)
        at_one = interpolate_plda(a, b, 1.0)
        np.testing.assert_allclose(at_one.between_cov(), a.between_cov(), atol=1e-10)
        np.testing.assert_allclose(at_one.residual_cov, a.residual_cov, atol=1e-10)
        at_zero = interpolate_plda(a, b, 0.0)
        np.testing.assert_allclose(at_zero.between_cov(), b.between_cov(), atol=1e-10)
        np.testing.assert_allclose(at_zero.residual_cov, b.residual_cov, atol=1e-10)

    def test_full_rank_half_mix_exact(self, rng):
        a = random_plda(rng, 4, 4)
        b = random_plda(rng, 4, 4)
        mixed = interpolate_plda(a, b, 0.5)
        expected = 0.5 * a.between_cov() + 0.5 * b.between_cov()
        np.testing.assert_allclose(mixed.between_cov(), expected, atol=1e-12)
        np.testing.assert_allclose(mixed.mean, 0.5 * (a.mean + b.mean), atol=1e-12)

    def test_psd_preserved_across_alphas(self, rng):
        a = random_plda(rng, 5, 2)
        b = random_plda(rng, 5, 2)
        for alpha in np.linspace(0.0, 1.0, 7):
            mixed = interpolate_plda(a, b, float(alpha))
            assert np.linalg.eigvalsh(mixed.between_cov()).min() >= -1e-10
            assert np.linalg.eigvalsh(mixed.residual_cov).min() > 0.0

    def test_alpha_out_of_range(self, rng):
        a = random_plda(rng, 3, 2)
        with pytest.raises(ParameterError, match="alpha"):
            interpolate_plda(a, a, 1.5)

    def test_total_covariance_preserved_at_lower_rank(self, rng):
        a = random_plda(rng, 6, 2)
        b = random_plda(rng, 6, 2)
        mixed = interpolate_plda(a, b, 0.3)
        want = 0.3 * (a.between_cov() + a.residual_cov) + 0.7 * (b.between_cov() + b.residual_cov)
        np.testing.assert_allclose(
            np.trace(mixed.between_cov() + mixed.residual_cov), np.trace(want), rtol=1e-10
        )


# valid arguments of each type whose array parameters follow the one finiteness rule, `plda.finite`
_SIDE = {"mean": np.zeros(2), "speaker_loadings": np.eye(2, 1), "residual_cov": np.eye(2)}
FINITE_PARAMETERS = {
    Preprocessor: {"mean": np.zeros(2), "whitener": np.eye(2)},
    PldaModel: _SIDE,
    fourcov.FourCovModel: {"enroll_plda": PldaModel(**_SIDE), "test_plda": PldaModel(**_SIDE),
                           "coupling": np.eye(1), "coupling_noise_cov": np.zeros((1, 1))},
    synth.GroundTruth: {"enroll_mean": np.zeros(2), "enroll_loadings": np.eye(2, 1), "enroll_noise_cov": np.eye(2),
                        "test_mean": np.zeros(2), "test_loadings": np.eye(2, 1), "test_noise_cov": np.eye(2),
                        "coupling": np.eye(1), "coupling_noise_cov": np.zeros((1, 1))},
}


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, args in FINITE_PARAMETERS.items() for field, value in args.items()
     if isinstance(value, np.ndarray)],
    ids=lambda p: getattr(p, "__name__", p),
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_model_parameter_must_be_finite(kind, field, value):
    args = FINITE_PARAMETERS[kind]
    kind(**args)  # valid as given
    bad = args[field].copy()
    bad.flat[0] = value
    with pytest.raises(ParameterError, match=" must be finite$"):
        kind(**{**args, field: bad})
