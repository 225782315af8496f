import tracemalloc
import warnings

import numpy as np
import pytest

from asvbackend.data import Embedding, EmbeddingTable, ScoredTrial, ScoreSet, TrialList
from asvbackend.exceptions import DimensionMismatchError, DomainError, NormalizationError, ParameterError
from asvbackend.fourcov import ScoringKernel, build_kernel, score_batch, score_trial, symmetric_kernel
from asvbackend.scorenorm import (
    CohortSet,
    combine_normalized,
    snorm,
    snorm_batch,
    top_score_stats,
)

from conftest import random_plda, random_truth, trial_list


def scaled_kernel(kernel, a, b):
    """Kernel whose every score is a*score + b (affine-invariance helper)."""
    return ScoringKernel(
        kernel.enroll_mean, kernel.test_mean, a * kernel.weights, a * kernel.offset + b
    )


@pytest.fixture
def kernel_and_cohorts(rng):
    truth = random_truth(rng, 5, 2, 2)
    kernel = build_kernel(truth.as_fourcov())
    enroll_cohort = tuple(
        Embedding(f"ce{i}", truth.enroll_mean + rng.standard_normal(5)) for i in range(40)
    )
    test_cohort = tuple(
        Embedding(f"ct{i}", truth.test_mean + rng.standard_normal(5)) for i in range(40)
    )
    return kernel, CohortSet(enroll_cohort, test_cohort, None)


class TestStats:
    def test_hand_arithmetic(self):
        # cohort scores {0, 2}: mu = 1, population sigma = 1; raw 3 -> 2
        stats = top_score_stats(np.array([0.0, 2.0]), None, "test-side")
        assert stats == (1.0, 1.0)
        assert combine_normalized(3.0, stats, stats) == 2.0

    def test_top_k_selects_highest(self):
        scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        mu, sd = top_score_stats(scores, 2, "test-side")
        top = np.array([5.0, 4.0])
        np.testing.assert_allclose([mu, sd], [top.mean(), top.std()])

    def test_boundary_ties_all_kept(self):
        scores = np.array([5.0, 4.0, 4.0, 1.0])
        mu, sd = top_score_stats(scores, 2, "test-side")
        kept = np.array([5.0, 4.0, 4.0])
        np.testing.assert_allclose([mu, sd], [kept.mean(), kept.std()])

    def test_degenerate_scores_rejected(self):
        with pytest.raises(NormalizationError, match="enroll-side"):
            top_score_stats(np.array([1.0, 1.0, 1.0]), None, "enroll-side")

    def test_sort_and_slice_oracle(self, rng):
        for _ in range(25):
            scores = rng.standard_normal(30)
            k = int(rng.integers(2, 30))
            mu, sd = top_score_stats(scores, k, "test-side")
            ranked = np.sort(scores)[::-1]
            boundary = ranked[k - 1]
            kept = scores[scores >= boundary]
            np.testing.assert_allclose([mu, sd], [kept.mean(), kept.std()], atol=1e-12)


class TestCohortSet:
    def test_empty_cohort_rejected(self, rng):
        member = (Embedding("c", rng.standard_normal(3)),)
        with pytest.raises(ParameterError, match="non-empty"):
            CohortSet((), member, None)

    def test_top_k_above_cohort_size_rejected(self, rng):
        members = tuple(Embedding(f"c{i}", rng.standard_normal(3)) for i in range(5))
        with pytest.raises(ParameterError, match="exceeds"):
            CohortSet(members, members, 6)

    @pytest.mark.parametrize("top_k", [1.5, 2.0, True, "2"])
    def test_non_integer_top_k_rejected(self, rng, top_k):
        members = tuple(Embedding(f"c{i}", rng.standard_normal(3)) for i in range(5))
        with pytest.raises(ParameterError, match="integer"):
            CohortSet(members, members, top_k)
        assert CohortSet(members, members, np.int64(2)).top_k == 2


class TestSnorm:
    def test_raw_at_cohort_mean_normalizes_to_zero(self, rng):
        # symmetric model and identical cohorts on both sides make the two
        # cohort score sets equal, so raw = mean gives exactly zero
        plda = random_plda(rng, 4, 2)
        kernel = symmetric_kernel(plda)
        shared = tuple(
            Embedding(f"c{i}", plda.mean + rng.standard_normal(4)) for i in range(30)
        )
        cohorts = CohortSet(shared, shared, None)
        w = plda.mean + rng.standard_normal(4)
        cohort_scores = np.array([score_trial(kernel, w, c.vector) for c in shared])
        raw = float(cohort_scores.mean())
        assert abs(snorm(kernel, cohorts, w, w, raw)) < 1e-9

    def test_full_top_k_equals_plain(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        full = CohortSet(cohorts.enroll_cohort, cohorts.test_cohort, len(cohorts.test_cohort))
        w_e = rng.standard_normal(5)
        w_t = rng.standard_normal(5)
        raw = score_trial(kernel, w_e, w_t)
        assert snorm(kernel, cohorts, w_e, w_t, raw) == snorm(kernel, full, w_e, w_t, raw)

    def test_symmetric_reduction_to_classic_formula(self, rng):
        plda = random_plda(rng, 4, 2)
        kernel = symmetric_kernel(plda)
        shared = tuple(
            Embedding(f"c{i}", plda.mean + rng.standard_normal(4)) for i in range(25)
        )
        cohorts = CohortSet(shared, shared, None)
        w = plda.mean + rng.standard_normal(4)
        raw = score_trial(kernel, w, w) + 1.7
        cohort_scores = np.array([score_trial(kernel, w, c.vector) for c in shared])
        classic = (raw - cohort_scores.mean()) / cohort_scores.std()
        np.testing.assert_allclose(snorm(kernel, cohorts, w, w, raw), classic, atol=1e-9)

    def test_affine_invariance(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        transformed = scaled_kernel(kernel, 3.0, 7.0)
        for _ in range(25):
            w_e = rng.standard_normal(5)
            w_t = rng.standard_normal(5)
            raw = score_trial(kernel, w_e, w_t)
            raw_t = score_trial(transformed, w_e, w_t)
            np.testing.assert_allclose(raw_t, 3.0 * raw + 7.0, atol=1e-9)
            assert (
                abs(snorm(kernel, cohorts, w_e, w_t, raw) - snorm(transformed, cohorts, w_e, w_t, raw_t))
                < 1e-10
            )

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_wrong_dimension_names_side(self, kernel_and_cohorts, rng, side):
        kernel, cohorts = kernel_and_cohorts
        vectors = {"enrollment": rng.standard_normal(5), "test": rng.standard_normal(5)}
        vectors[side] = rng.standard_normal(4)
        with pytest.raises(DimensionMismatchError, match=f"^{side} vector has dimension 4, kernel dimension is 5$"):
            snorm(kernel, cohorts, vectors["enrollment"], vectors["test"], 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", ["enrollment", "test", "raw"])
    def test_non_finite_input_raises_naming_it(self, kernel_and_cohorts, rng, bad, value):
        # as a table would reject it, before any arithmetic could warn
        kernel, cohorts = kernel_and_cohorts
        inputs = {"enrollment": rng.standard_normal(5), "test": rng.standard_normal(5), "raw": 1.0}
        if bad == "raw":
            inputs["raw"] = value
            message = "^non-finite score for trial enrollment test$"
        else:
            inputs[bad][1] = value
            message = f"^embedding '{bad}' contains non-finite values$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                snorm(kernel, cohorts, inputs["enrollment"], inputs["test"], inputs["raw"])

    def test_order_preserved_for_shared_enrollment(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        w_e = rng.standard_normal(5)
        # same test vector, so test-side stats are shared; higher raw must
        # stay higher after normalization
        w_t = rng.standard_normal(5)
        raw = score_trial(kernel, w_e, w_t)
        lo = snorm(kernel, cohorts, w_e, w_t, raw - 0.5)
        hi = snorm(kernel, cohorts, w_e, w_t, raw + 0.5)
        assert hi > lo


class TestSnormBatch:
    def _trials_and_vectors(self, rng, kernel, n_e, n_t):
        enrolls = [Embedding(f"e{i}", rng.standard_normal(5)) for i in range(n_e)]
        tests = [Embedding(f"t{j}", rng.standard_normal(5)) for j in range(n_t)]
        pairs = [(f"e{i}", f"t{j}", None) for i in range(n_e) for j in range(n_t)]
        trials = trial_list(pairs)
        e_map = {e.id: e.vector for e in enrolls}
        t_map = {t.id: t.vector for t in tests}
        raw = ScoreSet(
            tuple(
                ScoredTrial(t.enroll_id, t.test_id, score_trial(kernel, e_map[t.enroll_id], t_map[t.test_id]))
                for t in trials
            )
        )
        return enrolls, tests, raw

    def test_batch_of_one_equals_snorm(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 1, 1)
        batch = snorm_batch(kernel, cohorts, enrolls, tests, raw)
        single = snorm(kernel, cohorts, enrolls[0].vector, tests[0].vector, raw.entries[0].score)
        np.testing.assert_array_equal(batch.values(), [single])

    def test_one_trial_paths_equal_the_batches_to_rounding(self, rng):
        # a batch of one is bit-equal (above); in a batch of 300, BLAS may
        # round a many-row product differently from a one-row one
        d, n = 200, 300
        truth = random_truth(rng, d, 100, 100)
        kernel = build_kernel(truth.as_fourcov())

        def table(prefix, mean, rows):
            ids = [f"{prefix}{i}" for i in range(rows)]
            return EmbeddingTable.from_columns(ids, mean + rng.standard_normal((rows, d)))

        enrolls, tests = table("e", truth.enroll_mean, n), table("t", truth.test_mean, n)
        cohorts = CohortSet(table("ce", truth.enroll_mean, 50), table("ct", truth.test_mean, 50), 20)
        raw = score_batch(kernel, enrolls, tests, TrialList.from_columns(enrolls.ids, tests.ids, [None] * n))
        normalized = snorm_batch(kernel, cohorts, enrolls, tests, raw).values()
        pairs = list(zip(enrolls.matrix, tests.matrix, raw.values()))
        for batch, single in (
            (raw.values(), [score_trial(kernel, e, t) for e, t, _ in pairs]),
            (normalized, [snorm(kernel, cohorts, e, t, score) for e, t, score in pairs]),
        ):
            assert np.all(np.abs(np.array(single) - batch) <= 1e-12 * np.maximum(1.0, np.abs(batch)))

    def test_batch_matches_naive_loop(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 25, 40)  # 1000 trials
        batch = snorm_batch(kernel, cohorts, enrolls, tests, raw)
        e_map = {e.id: e.vector for e in enrolls}
        t_map = {t.id: t.vector for t in tests}
        for got, entry in zip(batch, raw):
            expected = snorm(kernel, cohorts, e_map[entry.enroll_id], t_map[entry.test_id], entry.score)
            assert abs(got.score - expected) < 1e-10

    def test_shared_enrollment_shares_stats(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 1, 2)
        batch = snorm_batch(kernel, cohorts, enrolls, tests, raw)
        # invert the combination: with equal raw input both trials' enroll-side
        # stats must coincide; verify via the per-trial path
        for got, entry in zip(batch, raw):
            expected = snorm(kernel, cohorts, enrolls[0].vector,
                             {t.id: t.vector for t in tests}[entry.test_id], entry.score)
            assert abs(got.score - expected) < 1e-12

    def test_degenerate_cohort_names_trial_side(self, rng):
        plda = random_plda(rng, 3, 2)
        kernel = symmetric_kernel(plda)
        same = Embedding("c0", plda.mean + 0.5)
        cohorts = CohortSet((same, same, same), (same, same, same), None)
        enrolls = [Embedding("e0", rng.standard_normal(3))]
        tests = [Embedding("t0", rng.standard_normal(3))]
        raw = ScoreSet((ScoredTrial("e0", "t0", 1.0),))
        with pytest.raises(NormalizationError, match="test-side.*e0"):
            snorm_batch(kernel, cohorts, enrolls, tests, raw)

    @pytest.mark.parametrize(
        "wrong, message",
        [
            ("enroll", "enrollment vector 'e0' has dimension 6"),
            ("test", "test vector 't0' has dimension 6"),
            ("enroll_cohort", "enrollment-side cohort vector 'ce0' has dimension 6"),
            ("test_cohort", "test-side cohort vector 'ct0' has dimension 6"),
        ],
    )
    def test_wrong_dimension_names_side_and_id(self, kernel_and_cohorts, rng, wrong, message):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 2, 2)

        def wide(prefix):
            return tuple(Embedding(f"{prefix}{i}", rng.standard_normal(6)) for i in range(40))

        if wrong == "enroll":
            enrolls = list(wide("e")[:2])
        elif wrong == "test":
            tests = list(wide("t")[:2])
        elif wrong == "enroll_cohort":
            cohorts = CohortSet(wide("ce"), cohorts.test_cohort, cohorts.top_k)
        else:
            cohorts = CohortSet(cohorts.enroll_cohort, wide("ct"), cohorts.top_k)
        with pytest.raises(DimensionMismatchError, match=message):
            snorm_batch(kernel, cohorts, enrolls, tests, raw)

    @pytest.mark.parametrize("side", ["enroll", "test"])
    def test_mixed_width_sequence_rejected(self, kernel_and_cohorts, rng, side):
        # a sequence is converted whole on entry, so even an unreferenced
        # row of another width is an error
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 2, 2)
        odd = Embedding("odd", rng.standard_normal(6))
        if side == "enroll":
            enrolls.append(odd)
        else:
            tests.append(odd)
        with pytest.raises(DimensionMismatchError, match="'odd' has dimension 6"):
            snorm_batch(kernel, cohorts, enrolls, tests, raw)

    def test_memory_is_one_block_not_one_grid(self, rng):
        # 3000 vectors per side against 2000-entry cohorts: one full
        # (vectors x cohort) grid is 48 MB, one 256-row block 4 MB
        n, m, d = 3000, 2000, 16
        kernel = build_kernel(random_truth(rng, d, 4, 4).as_fourcov())
        enrolls = [Embedding(f"e{i}", v) for i, v in enumerate(rng.standard_normal((n, d)))]
        tests = [Embedding(f"t{i}", v) for i, v in enumerate(rng.standard_normal((n, d)))]
        cohorts = CohortSet(
            tuple(Embedding(f"ce{i}", v) for i, v in enumerate(rng.standard_normal((m, d)))),
            tuple(Embedding(f"ct{i}", v) for i, v in enumerate(rng.standard_normal((m, d)))),
        )
        raw = ScoreSet.from_columns(
            [e.id for e in enrolls], [t.id for t in tests], rng.standard_normal(n)
        )
        tracemalloc.start()
        try:
            snorm_batch(kernel, cohorts, enrolls, tests, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_grid = n * m * 8
        assert peak < full_grid / 4, f"peak {peak / 1e6:.1f} MB"
        # a row of a finished block's grid must not keep that grid alive
        # while the next one is formed: two 256-row grids are 8.2 MB
        assert peak < 2 * 256 * m * 8, f"peak {peak / 1e6:.1f} MB"

    def test_side_terms_are_formed_one_side_at_a_time(self, rng):
        # 2000 vectors per side at dimension 128 against 200-entry cohorts:
        # one side's (vectors x d) terms are 2 MB, a cohort's 0.2 MB and a
        # 256-row grid 0.4 MB. Forming one side's terms holds two (vectors
        # x d) arrays at once; with the other side's terms still alive it
        # would hold three.
        n, m, d = 2000, 200, 128
        kernel = build_kernel(random_truth(rng, d, 4, 4).as_fourcov())

        def table(prefix, rows):
            return EmbeddingTable.from_columns([f"{prefix}{i}" for i in range(rows)], rng.standard_normal((rows, d)))

        enrolls, tests = table("e", n), table("t", n)
        cohorts = CohortSet(table("ce", m), table("ct", m), 50)
        raw = ScoreSet.from_columns(enrolls.ids, tests.ids, rng.standard_normal(n))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            snorm_batch(kernel, cohorts, enrolls, tests, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        side = n * d * 8
        assert peak - held < 2.5 * side, f"transient peak {(peak - held) / 1e6:.2f} MB"
