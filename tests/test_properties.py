"""Property tests for the embedding, trial and score tables, the stages built on them, and the model rules."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asvbackend import calibration, data, fourcov, scorenorm, synth
from asvbackend.data import (
    Embedding,
    EmbeddingTable,
    ScoreSet,
    TrialList,
    read_embeddings,
    read_scores,
    read_trials,
    write_embeddings,
    write_scores,
    write_trials,
)
from asvbackend.exceptions import BackendError, ParameterError
from asvbackend.metrics import compute_eer, compute_min_dcf, det_points
from asvbackend.plda import PldaModel
from asvbackend.routing import CONDITIONS, route_and_score

from conftest import random_truth
from test_routing import metadata_config, tiny_pipeline

# any id a text file can hold: one non-empty whitespace-free token not starting with '#'
ids = st.text(
    alphabet=st.characters(exclude_categories=("Cs", "Cc")), min_size=1, max_size=6
).filter(lambda s: s.split() == [s] and not s.startswith("#"))


def pair_rows(value):
    return st.lists(st.tuples(ids, ids, value), unique_by=lambda r: (r[0], r[1]), max_size=25)


def columns(rows):
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


class TestTextRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(pair_rows(st.sampled_from([True, False, None])))
    def test_trials(self, rows):
        trials = TrialList.from_columns(*columns(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.trials")
            write_trials(path, trials)
            back = read_trials(path)
        assert back == trials
        assert [(t.enroll_id, t.test_id, t.is_target) for t in back] == rows

    @settings(max_examples=60, deadline=None)
    @given(pair_rows(st.floats(allow_nan=False, allow_infinity=False)))
    def test_scores(self, rows):
        scores = ScoreSet.from_columns(*columns(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.scores")
            write_scores(scores, path)
            back = read_scores(path)
        assert back == scores
        # bit-exact, so -0.0 stays -0.0
        assert back.values().tobytes() == scores.values().tobytes()


@st.composite
def embedding_tables(draw, id_strategy, values):
    """A table of up to 12 rows over a few ids, so ids repeat."""
    pool = draw(st.lists(id_strategy, min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 5))
    row_ids = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    matrix = draw(st.lists(values, min_size=n * d, max_size=n * d))
    return EmbeddingTable.from_columns(row_ids, np.array(matrix, dtype=np.float64).reshape(n, d))


def read_back(table, binary):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.embs")
        write_embeddings(path, table, binary=binary)
        return read_embeddings(path)


def assert_same_rows(back, table):
    assert back == table
    assert back.ids == table.ids
    # bit-exact, so -0.0 stays -0.0
    assert back.matrix.tobytes() == table.matrix.tobytes()


class TestEmbeddingRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(embedding_tables(ids, st.floats(allow_nan=False, allow_infinity=False)))
    def test_text(self, table):
        assert_same_rows(read_back(table, binary=False), table)

    # the binary format takes any UTF-8 id and stores float32
    @settings(max_examples=60, deadline=None)
    @given(
        embedding_tables(
            st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=6),
            st.floats(width=32, allow_nan=False, allow_infinity=False),
        )
    )
    def test_binary(self, table):
        assert_same_rows(read_back(table, binary=True), table)


class TestAnyId:
    """A text writer given any id, lone surrogates included, raises `ParameterError` and writes
    nothing, or writes a file that reads back exactly; the binary writer likewise."""

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=10), st.text(max_size=3))
    @example("\udce9", "t")  # a command-line é decoded under a C locale
    @example("XVECBIN1", "t")  # the binary magic at the start of a text file
    def test_writers_refuse_or_read_back(self, a, b):
        table = EmbeddingTable.from_columns([a, b], np.eye(2))
        trials = TrialList.from_columns([a], [b], [True])
        scores = ScoreSet.from_columns([a], [b], [-0.0])
        writers = {
            "text.embs": (lambda p: write_embeddings(p, table), read_embeddings, table),
            "binary.embs": (lambda p: write_embeddings(p, table, binary=True), read_embeddings, table),
            "t.trials": (lambda p: write_trials(p, trials), read_trials, trials),
            "s.scores": (lambda p: write_scores(scores, p), read_scores, scores),
            "m.txt": (lambda p: data.write_id_map(p, {a: b}), data.read_id_map, {a: b}),
            "c.cal": (lambda p: calibration.write_calibration(p, calibration.CalibrationModel(1.5, -0.0), a),
                      calibration.read_calibration, (calibration.CalibrationModel(1.5, -0.0), a)),
        }
        for name, (write, read, expected) in writers.items():
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, name)
                try:
                    write(path)
                except ParameterError:
                    assert os.listdir(tmp) == [], name
                    continue
                back = read(path)
            assert back == expected, name
            if name.endswith(".embs"):
                assert back.ids == table.ids and back.matrix.tobytes() == table.matrix.tobytes()
            if name.endswith(".scores"):
                assert back.values().tobytes() == scores.values().tobytes()


@st.composite
def labeled_scores(draw):
    n = draw(st.integers(2, 40))
    # few distinct values, so ties are common
    values = draw(st.lists(st.integers(-4, 4).map(float), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[0], flags[1] = True, False
    order = draw(st.permutations(range(n)))
    return np.array(values), np.array(flags), order


class TestMetricsJoin:
    @settings(max_examples=80, deadline=None)
    @given(labeled_scores())
    def test_score_rows_permuted_against_trial_rows(self, case):
        values, flags, order = case
        enroll = [f"e{i % 3}" for i in range(values.size)]
        test = [f"t{i}" for i in range(values.size)]
        trials = TrialList.from_columns(enroll, test, flags.tolist())
        scores = ScoreSet.from_columns(
            [enroll[i] for i in order], [test[i] for i in order], values[order]
        )
        assert compute_eer(scores, trials) == compute_eer(values, flags)
        assert compute_min_dcf(scores, trials) == compute_min_dcf(values, flags)
        assert det_points(scores, trials) == det_points(values, flags)


GRID = [(f"e{i}", f"t{j}") for i in range(6) for j in range(7)]
_rng = np.random.default_rng(31)
KERNEL = fourcov.build_kernel(random_truth(_rng, 5, 2, 2).as_fourcov())
ENROLLS = [Embedding(f"e{i}", _rng.standard_normal(5)) for i in range(6)]
TESTS = [Embedding(f"t{j}", _rng.standard_normal(5)) for j in range(7)]
PIPELINES = {tag: tiny_pipeline(_rng, offset=float(k)) for k, tag in enumerate(CONDITIONS)}
ROUTING = metadata_config(
    {f"e{i}": 1 + 2 * i for i in range(6)},
    {f"t{j}": ("primary", "secondary")[j % 2] for j in range(7)},
)


def unlabeled(pairs):
    return TrialList.from_columns([e for e, _ in pairs], [t for _, t in pairs], [None] * len(pairs))


class TestScoresFollowTrialOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.permutations(GRID))
    def test_score_batch(self, pairs):
        expected = fourcov.score_batch(KERNEL, ENROLLS, TESTS, unlabeled(GRID)).values()
        got = fourcov.score_batch(KERNEL, ENROLLS, TESTS, unlabeled(pairs)).values()
        np.testing.assert_array_equal(got, expected[[GRID.index(p) for p in pairs]])

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(GRID))
    def test_route_and_score(self, pairs):
        expected = route_and_score(ROUTING, PIPELINES, ENROLLS, TESTS, unlabeled(GRID)).values()
        got = route_and_score(ROUTING, PIPELINES, ENROLLS, TESTS, unlabeled(pairs)).values()
        # each condition scores the referenced vectors in table order, so a
        # permutation of the trials leaves every BLAS product as it was
        np.testing.assert_array_equal(got, expected[[GRID.index(p) for p in pairs]])


class TestScoreBatchBlocks:
    """`score_batch` gathers and scores the trials in `data.row_blocks` blocks."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(GRID), min_size=1, unique=True), st.sampled_from([1, 3, None]))
    def test_block_size_does_not_change_scores(self, pairs, block):
        expected = fourcov.score_batch(KERNEL, ENROLLS, TESTS, unlabeled(pairs)).values()
        with pytest.MonkeyPatch.context() as patch:
            # None: one block larger than the trial list
            patch.setattr(data, "_BLOCK_ROWS", block or len(pairs) + 1)
            got = fourcov.score_batch(KERNEL, ENROLLS, TESTS, unlabeled(pairs)).values()
        np.testing.assert_array_equal(got, expected)


COHORTS = scorenorm.CohortSet(
    tuple(Embedding(f"ce{i}", _rng.standard_normal(5)) for i in range(40)),
    tuple(Embedding(f"ct{i}", _rng.standard_normal(5)) for i in range(40)),
    10,
)
RAW = {pair: float(k) for k, pair in enumerate(GRID)}


def raw_scores(pairs):
    return ScoreSet.from_columns(
        [e for e, _ in pairs], [t for _, t in pairs], [RAW[p] for p in pairs]
    )


class TestSnormBatch:
    """`snorm_batch` scores the trial vectors against each cohort in row blocks."""

    # Bit-identity needs the BLAS to round each product row the same
    # whatever the number of rows. OpenBLAS 0.3.31 on an AVX-512 Xeon does
    # at these shapes, but not at every shape: with a 257-entry cohort at
    # d=16, normalized scores moved by up to 5e-14 between block sizes.
    @pytest.mark.parametrize("block", [1, 3, 8])  # 8 exceeds both sides' 6 and 7 rows
    def test_block_size_does_not_change_scores(self, monkeypatch, block):
        expected = scorenorm.snorm_batch(KERNEL, COHORTS, ENROLLS, TESTS, raw_scores(GRID)).values()
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        got = scorenorm.snorm_batch(KERNEL, COHORTS, ENROLLS, TESTS, raw_scores(GRID)).values()
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(GRID))
    def test_follows_score_row_order(self, pairs):
        expected = scorenorm.snorm_batch(KERNEL, COHORTS, ENROLLS, TESTS, raw_scores(GRID)).values()
        got = scorenorm.snorm_batch(KERNEL, COHORTS, ENROLLS, TESTS, raw_scores(pairs)).values()
        np.testing.assert_array_equal(got, expected[[GRID.index(p) for p in pairs]])


class TestOneTrialIsABatchOfOne:
    """`score_trial` is `score_batch` on one trial's tables, errors included."""

    D = 200
    TRUTH = random_truth(np.random.default_rng(19), D, 100, 100)
    KERNEL = fourcov.build_kernel(TRUTH.as_fourcov())
    # what is done to one side's vector: nothing, one value fewer or more, a
    # non-finite value, or the vector as a (1, d) or a (2, d/2) array
    CASES = ("valid", "narrow", "wide", "nan", "inf", "row", "folded")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(CASES),
        side=st.sampled_from(["enrollment", "test"]),
        at=st.integers(0, D - 1),
    )
    def test_same_bits_and_errors(self, seed, case, side, at):
        rng = np.random.default_rng(seed)
        kernel, d = self.KERNEL, self.D
        vectors = {"enrollment": self.TRUTH.enroll_mean + rng.standard_normal(d),
                   "test": self.TRUTH.test_mean + rng.standard_normal(d)}
        w = vectors[side]
        vectors[side] = {
            "valid": w, "narrow": w[:-1], "wide": np.append(w, 0.5),
            "nan": np.where(np.arange(d) == at, np.nan, w), "inf": np.where(np.arange(d) == at, np.inf, w),
            "row": w[None, :], "folded": w.reshape(2, d // 2),
        }[case]
        w_e, w_t = vectors["enrollment"], vectors["test"]

        def outcome(call):
            # a score's exact bits, or an error's class and message
            try:
                return "score", float(call()).hex()
            except BackendError as exc:
                return type(exc).__name__, str(exc)

        def rows():
            # the batch of one's rows, built inside each call so that their errors are its errors
            return [Embedding("enrollment", w_e)], [Embedding("test", w_t)]

        trial = TrialList.from_columns(["enrollment"], ["test"], [None])
        single = outcome(lambda: fourcov.score_trial(kernel, w_e, w_t))
        assert single == outcome(lambda: fourcov.score_batch(kernel, *rows(), trial).values()[0])
        assert (single[0] == "score") == (case == "valid")


@st.composite
def perturbed_truths(draw, case):
    """The eight `GroundTruth` arrays of a small two-sided model with one perturbation `case`:
    an asymmetry of up to 1e-6 in one covariance, one side's loadings wider than the
    dimension, or the coupling noise's smallest eigenvalue moved from 0 by up to 1e-9."""
    d = draw(st.integers(2, 4))
    ranks = [draw(st.integers(1, d)), draw(st.integers(1, d))]
    if case == "wide":
        ranks[draw(st.integers(0, 1))] = d + draw(st.integers(1, 2))
    r1, r2 = ranks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a magnitude spread over orders, so that both sides of every tolerance are drawn
    exponent = draw(st.floats(-13.0, -9.0 if case == "eigenvalue" else -6.0))
    shift = draw(st.sampled_from([-1.0, 1.0])) * 10.0**exponent

    def residual(n):
        draws = rng.standard_normal((n, n))
        return draws @ draws.T / n + np.eye(n)

    evals = np.concatenate([[shift if case == "eigenvalue" else 0.0], rng.uniform(0.1, 1.0, r2 - 1)])
    basis = np.linalg.qr(rng.standard_normal((r2, r2)))[0]
    noise = (basis * evals) @ basis.T
    p = [
        rng.standard_normal(d), rng.standard_normal((d, r1)), residual(d),
        rng.standard_normal(d), rng.standard_normal((d, r2)), residual(d),
        rng.standard_normal((r2, r1)), (noise + noise.T) / 2.0,
    ]
    if case == "asymmetry":
        target = draw(st.sampled_from([2, 5, 7] if r2 > 1 else [2, 5]))
        p[target][0, 1] += shift
    return p


class TestGroundTruthRule:
    """A `GroundTruth` accepts exactly the parameters its `FourCovModel` accepts."""

    @pytest.mark.parametrize("case", ["asymmetry", "wide", "eigenvalue"])
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_truth_raises_exactly_when_the_model_does(self, case, draws):
        p = draws.draw(perturbed_truths(case))

        def error(build):
            try:
                build()
            except BackendError as exc:
                return str(exc)
            return None

        model_error = error(lambda: fourcov.FourCovModel(PldaModel(*p[0:3]), PldaModel(*p[3:6]), *p[6:8]))
        assert error(lambda: synth.GroundTruth(*p)) == model_error
