import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from asvbackend import data, scorenorm
from asvbackend.data import Embedding, EmbeddingTable, ScoredTrial, ScoreSet, TrialList
from asvbackend.exceptions import DimensionMismatchError, DomainError, NormalizationError, ParameterError
from asvbackend.fourcov import ScoringKernel, build_kernel, cohort_grids, score_batch, score_trial, symmetric_kernel
from asvbackend.scorenorm import (
    MIN_COHORT_STD,
    CohortSet,
    _top_k_stats,
    combine_normalized,
    snorm_batch,
)

from conftest import random_plda, random_truth, trial_list


def scaled_kernel(kernel, a, b):
    """Kernel whose every score is a*score + b (affine-invariance helper)."""
    return ScoringKernel(
        kernel.enroll_mean, kernel.test_mean, a * kernel.weights, a * kernel.offset + b
    )


def cross_kernel(d):
    """Kernel whose score is -z_e . z_t: vectors with integer entries give exact, often tied, scores."""
    weights = np.zeros((2 * d, 2 * d))
    weights[:d, d:] = weights[d:, :d] = np.eye(d)
    return ScoringKernel(np.zeros(d), np.zeros(d), weights, 0.0)


# integers force ties at the boundary; distinct values 1e-3 apart keep
# every non-zero std far above MIN_COHORT_STD, so the oracle and the
# reducer agree on which rows are degenerate
values = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3).map(lambda v: round(v, 3))


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


def one_row_stats(scores, top_k, cohort_side):
    """`_top_k_stats` of one row of scores, the row named `test 't'`, as a (mean, std) tuple."""
    out = np.empty((1, 2))
    _top_k_stats(np.array([scores], dtype=np.float64), top_k, cohort_side, out, ("test", ("t",)))
    return float(out[0, 0]), float(out[0, 1])


class TestStats:
    def test_hand_arithmetic(self):
        # cohort scores {0, 2}: mu = 1, population sigma = 1; raw 3 -> 2
        stats = one_row_stats(np.array([0.0, 2.0]), None, "test-side")
        assert stats == (1.0, 1.0)
        assert combine_normalized(3.0, stats, stats) == 2.0

    def test_top_k_selects_highest(self):
        scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        mu, sd = one_row_stats(scores, 2, "test-side")
        top = np.array([5.0, 4.0])
        np.testing.assert_allclose([mu, sd], [top.mean(), top.std()])

    def test_boundary_tie_keeps_exactly_k(self):
        # either 4.0 completes the top 2; the statistics are those of {5, 4}
        scores = np.array([5.0, 4.0, 4.0, 1.0])
        mu, sd = one_row_stats(scores, 2, "test-side")
        kept = np.array([5.0, 4.0])
        np.testing.assert_allclose([mu, sd], [kept.mean(), kept.std()])

    def test_degenerate_scores_rejected(self):
        with pytest.raises(NormalizationError, match="enroll-side"):
            one_row_stats(np.array([1.0, 1.0, 1.0]), None, "enroll-side")

    def test_sort_and_slice_oracle(self, rng):
        for _ in range(25):
            scores = rng.standard_normal(30)
            k = int(rng.integers(2, 30))
            mu, sd = one_row_stats(scores, k, "test-side")
            ranked = np.sort(scores)[::-1]
            boundary = ranked[k - 1]
            kept = scores[scores >= boundary]
            np.testing.assert_allclose([mu, sd], [kept.mean(), kept.std()], atol=1e-12)


class TestBlockStats:
    """`_top_k_stats` reduces a block of score rows at once, each row as it reduces that row alone."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_match_sort_and_slice_oracle(self, source):
        n, m = source.draw(st.integers(1, 6)), source.draw(st.integers(1, 12))
        grid = source.draw(arrays(np.float64, (n, m), elements=values))
        top_k = source.draw(st.none() | st.integers(1, m))
        expected = []
        for scores in grid:
            kept = scores if top_k is None else np.sort(scores)[-top_k:]
            expected.append((kept.mean(), kept.std()))
        expected = np.array(expected)
        ids = tuple(f"r{i}" for i in range(n))
        out = np.empty((n, 2))
        degenerate = np.flatnonzero(expected[:, 1] < MIN_COHORT_STD)
        if degenerate.size:
            with pytest.raises(NormalizationError, match=rf"against them \(test 'r{degenerate[0]}'\)$"):
                _top_k_stats(grid.copy(), top_k, "enroll-side", out, ("test", ids))
            return
        _top_k_stats(grid.copy(), top_k, "enroll-side", out, ("test", ids))
        assert np.all(np.abs(out - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        for scores, stats in zip(grid, out):
            assert one_row_stats(scores, top_k, "enroll-side") == tuple(stats)


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
        raw = ScoreSet.from_columns(["e"], ["t"], [cohort_scores.mean()])
        normalized = snorm_batch(kernel, cohorts, [Embedding("e", w)], [Embedding("t", w)], raw)
        assert abs(normalized.values()[0]) < 1e-9

    def test_full_top_k_equals_plain(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        full = CohortSet(cohorts.enroll_cohort, cohorts.test_cohort, len(cohorts.test_cohort))
        enrolls = EmbeddingTable.from_columns(["e0", "e1"], rng.standard_normal((2, 5)))
        tests = EmbeddingTable.from_columns(["t0", "t1", "t2"], rng.standard_normal((3, 5)))
        trials = TrialList.from_columns(["e0", "e0", "e1", "e1"], ["t0", "t1", "t1", "t2"], [None] * 4)
        raw = score_batch(kernel, enrolls, tests, trials)
        np.testing.assert_array_equal(
            snorm_batch(kernel, cohorts, enrolls, tests, raw).values(),
            snorm_batch(kernel, full, enrolls, tests, raw).values(),
        )

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
        scores = ScoreSet.from_columns(["e"], ["t"], [raw])
        normalized = snorm_batch(kernel, cohorts, [Embedding("e", w)], [Embedding("t", w)], scores)
        np.testing.assert_allclose(normalized.values()[0], classic, atol=1e-9)

    def test_affine_invariance(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        transformed = scaled_kernel(kernel, 3.0, 7.0)
        n = 25
        enrolls = EmbeddingTable.from_columns([f"e{i}" for i in range(n)], rng.standard_normal((n, 5)))
        tests = EmbeddingTable.from_columns([f"t{i}" for i in range(n)], rng.standard_normal((n, 5)))
        trials = TrialList.from_columns(enrolls.ids, tests.ids, [None] * n)
        raw = score_batch(kernel, enrolls, tests, trials)
        raw_t = score_batch(transformed, enrolls, tests, trials)
        np.testing.assert_allclose(raw_t.values(), 3.0 * raw.values() + 7.0, atol=1e-9)
        normalized = snorm_batch(kernel, cohorts, enrolls, tests, raw).values()
        normalized_t = snorm_batch(transformed, cohorts, enrolls, tests, raw_t).values()
        assert np.all(np.abs(normalized - normalized_t) < 1e-10)

    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_wrong_dimension_names_side(self, kernel_and_cohorts, rng, side):
        # a batch of one whose rows are named after their sides
        kernel, cohorts = kernel_and_cohorts
        vectors = {"enrollment": rng.standard_normal(5), "test": rng.standard_normal(5)}
        vectors[side] = rng.standard_normal(4)
        raw = ScoreSet.from_columns(["enrollment"], ["test"], [0.0])
        with pytest.raises(DimensionMismatchError, match=f"^{side} vector '{side}' has dimension 4, kernel dimension is 5$"):
            snorm_batch(kernel, cohorts, [Embedding("enrollment", vectors["enrollment"])],
                        [Embedding("test", vectors["test"])], raw)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", ["enrollment", "test", "raw"])
    def test_non_finite_input_raises_naming_it(self, kernel_and_cohorts, rng, bad, value):
        # a batch of one's rows and score set refuse it, before any arithmetic could warn
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
                snorm_batch(kernel, cohorts, [Embedding("enrollment", inputs["enrollment"])],
                            [Embedding("test", inputs["test"])],
                            ScoreSet.from_columns(["enrollment"], ["test"], [inputs["raw"]]))

    def test_order_preserved_for_shared_enrollment(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        w_e = rng.standard_normal(5)
        # one test vector under two ids, so the two trials share both sides'
        # stats; higher raw must stay higher after normalization
        w_t = rng.standard_normal(5)
        raw = score_trial(kernel, w_e, w_t)
        tests = [Embedding("t0", w_t), Embedding("t1", w_t)]
        scores = ScoreSet.from_columns(["e", "e"], ["t0", "t1"], [raw - 0.5, raw + 0.5])
        lo, hi = snorm_batch(kernel, cohorts, [Embedding("e", w_e)], tests, scores).values()
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

    def test_one_trial_paths_equal_the_batches_to_rounding(self, rng):
        # a batch of one is bit-equal (test_properties); in a batch of 300,
        # BLAS may round a many-row product differently from a one-row one
        d, n = 200, 300
        truth = random_truth(rng, d, 100, 100)
        kernel = build_kernel(truth.as_fourcov())

        def table(prefix, mean, rows):
            ids = [f"{prefix}{i}" for i in range(rows)]
            return EmbeddingTable.from_columns(ids, mean + rng.standard_normal((rows, d)))

        enrolls, tests = table("e", truth.enroll_mean, n), table("t", truth.test_mean, n)
        cohorts = CohortSet(table("ce", truth.enroll_mean, 50), table("ct", truth.test_mean, 50), 20)
        raw = score_batch(kernel, enrolls, tests, TrialList.from_columns(enrolls.ids, tests.ids, [None] * n))
        batch = raw.values()
        single = [score_trial(kernel, e, t) for e, t in zip(enrolls.matrix, tests.matrix)]
        assert np.all(np.abs(np.array(single) - batch) <= 1e-12 * np.maximum(1.0, np.abs(batch)))

    def test_batch_matches_naive_loop(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 25, 40)  # 1000 trials
        batch = snorm_batch(kernel, cohorts, enrolls, tests, raw).values()
        for i, got in enumerate(batch):
            expected = snorm_batch(kernel, cohorts, enrolls, tests, raw.take([i])).values()[0]
            assert abs(got - expected) < 1e-10

    def test_shared_enrollment_shares_stats(self, kernel_and_cohorts, rng):
        kernel, cohorts = kernel_and_cohorts
        enrolls, tests, raw = self._trials_and_vectors(rng, kernel, 1, 2)
        batch = snorm_batch(kernel, cohorts, enrolls, tests, raw).values()
        # invert the combination: with equal raw input both trials' enroll-side
        # stats must coincide; verify via each trial alone
        for i, got in enumerate(batch):
            expected = snorm_batch(kernel, cohorts, enrolls, tests, raw.take([i])).values()[0]
            assert abs(got - expected) < 1e-12

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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_block_size_and_row_order_do_not_change_scores(self, source):
        # the same values, or the same error naming the same first degenerate row
        d = 2
        kernel = cross_kernel(d)

        def table(prefix, rows):
            matrix = source.draw(arrays(np.float64, (rows, d), elements=values))
            return EmbeddingTable.from_columns([f"{prefix}{i}" for i in range(rows)], matrix)

        enrolls, tests = (table(prefix, source.draw(st.integers(1, 8))) for prefix in ("e", "t"))
        cohort_pair = [table(prefix, source.draw(st.integers(2, 10))) for prefix in ("ce", "ct")]
        top_k = source.draw(st.none() | st.integers(2, min(map(len, cohort_pair))))
        cohorts = CohortSet(*cohort_pair, top_k)
        pairs = [(e, t) for e in enrolls.ids for t in tests.ids]
        order = source.draw(st.permutations(range(len(pairs))))

        def outcome(block, rows):
            raw = ScoreSet.from_columns([pairs[i][0] for i in rows], [pairs[i][1] for i in rows],
                                        [float(i) for i in rows])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(data, "_BLOCK_ROWS", block)
                try:
                    return snorm_batch(kernel, cohorts, enrolls, tests, raw).values()
                except NormalizationError as exc:
                    return str(exc)

        expected = outcome(256, range(len(pairs)))
        for block in (1, 2, 3):
            np.testing.assert_array_equal(outcome(block, range(len(pairs))), expected)
        permuted = expected if isinstance(expected, str) else expected[list(order)]
        np.testing.assert_array_equal(outcome(256, order), permuted)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cohort_order_does_not_change_scores(self, source):
        # integer vectors give integer scores, so rows often hold several values equal to
        # their k-th: whichever of them the partition keeps, the k values are one multiset
        d = 2
        kernel = cross_kernel(d)

        def table(prefix, rows):
            matrix = source.draw(arrays(np.float64, (rows, d), elements=st.integers(-3, 3).map(float)))
            return EmbeddingTable.from_columns([f"{prefix}{i}" for i in range(rows)], matrix)

        enrolls, tests = (table(prefix, source.draw(st.integers(1, 6))) for prefix in ("e", "t"))
        cohort_pair = [table(prefix, source.draw(st.integers(2, 12))) for prefix in ("ce", "ct")]
        top_k = source.draw(st.none() | st.integers(2, min(map(len, cohort_pair))))
        permuted = [cohort.take(source.draw(st.permutations(range(len(cohort))))) for cohort in cohort_pair]
        raw = ScoreSet.from_columns([e for e in enrolls.ids for _ in tests.ids], tests.ids * len(enrolls),
                                    np.arange(len(enrolls) * len(tests), dtype=np.float64))

        def outcome(enroll_cohort, test_cohort):
            try:
                return snorm_batch(kernel, CohortSet(enroll_cohort, test_cohort, top_k), enrolls, tests, raw).values()
            except NormalizationError as exc:
                return str(exc)

        expected = outcome(*cohort_pair)
        for cohorts in ((permuted[0], cohort_pair[1]), (cohort_pair[0], permuted[1])):
            got = outcome(*cohorts)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        for rows, side, other in ((enrolls, "enrollment", 1), (tests, "test", 0)):
            for members in (cohort_pair[other], permuted[other]):
                (grid,) = cohort_grids(kernel, rows.matrix, side, members)
                kept = np.sort(grid, axis=1)[:, -(top_k or grid.shape[1]):]
                oracle = np.stack([kept.mean(axis=1), kept.std(axis=1)], axis=1)
                out = np.empty((len(rows), 2))
                try:
                    _top_k_stats(grid, top_k, "side", out, (side, rows.ids))
                except NormalizationError:
                    assert (oracle[:, 1] < MIN_COHORT_STD).any()
                    continue
                assert np.all(np.abs(out - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))

    @pytest.mark.parametrize("block", [2, 256])
    def test_first_degenerate_row_is_named_after_tie_rows(self, monkeypatch, block):
        # rows e0-e4 tie at the boundary (integer scores against a cohort
        # with repeated first entries); e5 and e7 score every cohort entry
        # alike. With two-row blocks e5 sits in the third block.
        kernel = cross_kernel(2)
        rows = [(1.0, 0.0)] * 5 + [(0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
        enrolls = EmbeddingTable.from_columns([f"e{i}" for i in range(8)], np.array(rows))
        tests = EmbeddingTable.from_columns(["t0"], np.array([[1.0, 1.0]]))
        cohort = EmbeddingTable.from_columns(
            [f"c{i}" for i in range(6)], np.array([[v, 0.5 * i] for i, v in enumerate([0, 1, 1, 1, 2, 3])])
        )
        cohorts = CohortSet(cohort, cohort, 3)
        raw = ScoreSet.from_columns(enrolls.ids, ["t0"] * 8, np.zeros(8))
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        with pytest.raises(NormalizationError, match=r"^test-side cohort scores are degenerate \(std 0.000e\+00\); "
                                                     r"cannot z-normalize against them \(enrollment 'e5'\)$"):
            snorm_batch(kernel, cohorts, enrolls, tests, raw)

    def test_statistics_are_reduced_one_block_at_a_time(self, rng, monkeypatch):
        # 600 rows per side are three 256-row blocks: one reduction per
        # block, not one per row
        calls = []
        reduce_block = scorenorm._top_k_stats

        def counted(grid, top_k, cohort_side, out, names=None):
            calls.append(cohort_side)
            return reduce_block(grid, top_k, cohort_side, out, names)

        monkeypatch.setattr(scorenorm, "_top_k_stats", counted)
        n, d = 600, 4
        kernel = build_kernel(random_truth(rng, d, 2, 2).as_fourcov())

        def table(prefix, rows):
            return EmbeddingTable.from_columns([f"{prefix}{i}" for i in range(rows)], rng.standard_normal((rows, d)))

        enrolls, tests = table("e", n), table("t", n)
        raw = ScoreSet.from_columns(enrolls.ids, tests.ids, rng.standard_normal(n))
        snorm_batch(kernel, CohortSet(table("ce", 50), table("ct", 50), 20), enrolls, tests, raw)
        assert calls == ["test-side"] * 3 + ["enrollment-side"] * 3

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

    def test_whole_cohort_statistics_hold_one_grid(self, rng):
        # with top_k None a block's statistics cover the whole 4.1 MB grid;
        # np.std would hold a second grid of deviations beside it
        n, m, d = 600, 2000, 16
        kernel = build_kernel(random_truth(rng, d, 4, 4).as_fourcov())

        def table(prefix, rows):
            return EmbeddingTable.from_columns([f"{prefix}{i}" for i in range(rows)], rng.standard_normal((rows, d)))

        enrolls, tests = table("e", n), table("t", n)
        cohorts = CohortSet(table("ce", m), table("ct", m), None)
        raw = ScoreSet.from_columns(enrolls.ids, tests.ids, rng.standard_normal(n))
        tracemalloc.start()
        try:
            snorm_batch(kernel, cohorts, enrolls, tests, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 256 * m * 8, f"peak {peak / 1e6:.1f} MB"

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
