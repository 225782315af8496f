"""Property tests for the embedding, trial and score tables, the stages built on them, the model rules
and the whole recipe."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asvbackend import calibration, cli, data, fourcov, plda, scorenorm, synth
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


@st.composite
def model_columns(draw):
    """A column of 1-40 model ids: interleaved, each model's rows together (repeated), or all distinct."""
    kind = draw(st.sampled_from(["interleaved", "repeated", "distinct"]))
    n = draw(st.integers(1, 40))
    codes = list(range(n)) if kind == "distinct" else draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return [f"m{c}" for c in (sorted(codes) if kind == "repeated" else codes)]


class TestModelSpaceAveraging:
    """`plda.to_model_space` averages the rows of each model in row order, whatever the block size."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(model_columns(), st.sampled_from([1, 2, 3, 256]), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_average_is_the_row_order_sum_of_mapped_rows(self, models, block, dim, seed):
        rng = np.random.default_rng(seed)
        pre = plda.fit_preprocessor(rng.standard_normal((3 * dim, dim)))
        ids = [f"r{i}" for i in range(len(models))]
        table = EmbeddingTable.from_columns(ids, rng.standard_normal((len(models), dim)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_ROWS", block)
            averages = plda.to_model_space(table, pre, "enrollment", models)
            rows = plda.to_model_space(table, pre, "enrollment")
        assert averages.ids == tuple(dict.fromkeys(models))
        for model_id, got in zip(averages.ids, averages.matrix):
            total = np.zeros(dim)
            for row, owner in zip(rows.matrix, models):
                if owner == model_id:
                    total += row
            want = plda.length_normalize(total / models.count(model_id))
            assert got.tobytes() == want.tobytes()


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


RECIPE_FILES = ("train_enroll", "train_test", "eval_enroll", "eval_test", "cohort_enroll", "cohort_test")


def run_cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def recipe_scores(files, trials, rank=2, aggregate=3, top_k=10):
    """Raw and S-norm scores of the README recipe, through the calls its stages make on these tables.

    As `train-plda` (the enrollment side on chunks of `aggregate`
    segments), `fit-fourcov`, `score` and `snorm` do, each side's
    preprocessor is fitted on its training file and every file of that
    side is mapped through it.
    """
    sides = []
    for name, chunk in (("train_enroll", aggregate), ("train_test", 0)):
        pre = plda.fit_preprocessor(files[name])
        side = cli._training_rows(files[name], name, None, pre, chunk)
        stats = plda.speaker_stats(side[0].matrix, *side[1:])
        sides.append((stats, plda.train_plda(stats, rank=rank, iterations=10), pre))
    (stats1, model1, pre1), (stats2, model2, pre2) = sides
    shared = sorted(set(stats1.speaker_ids) & set(stats2.speaker_ids))
    paired = (stats1.subset(shared), stats2.subset(shared))
    kernel = fourcov.build_kernel(fourcov.fit_coupling(model1, model2, paired))

    def model_space(prefix):
        enrolls = files[f"{prefix}_enroll"]
        return (plda.to_model_space(enrolls, pre1, "enrollment", enrolls.ids),
                plda.to_model_space(files[f"{prefix}_test"], pre2, "test"))

    enrolls, tests = model_space("eval")
    raw = fourcov.score_batch(kernel, enrolls, tests, trials)
    normalized = scorenorm.snorm_batch(kernel, scorenorm.CohortSet(*model_space("cohort"), top_k), enrolls, tests, raw)
    return raw.values(), normalized.values()


def synth_recipe(directory, dim=6, rank=2, speakers=60, seed=7):
    """The vector files, as tables, and the trials of a `synth` run of the README recipe's kind in `directory`."""
    run_cli("synth", "--out-dir", directory, "--dim", dim, "--rank", rank, "--train-speakers", speakers,
            "--eval-speakers", 20, "--cohort-speakers", 30, "--nontargets", 10, "--kappa", 4.0, "--rotation", 1.0,
            "--eval-jitter", 0.9, "--seed", seed)
    return ({name: read_embeddings(os.path.join(directory, f"{name}.embs")) for name in RECIPE_FILES},
            read_trials(os.path.join(directory, "eval.trials")))


@pytest.fixture(scope="module")
def recipe(tmp_path_factory):
    """A small dataset of the README recipe's kind: its directory, its vector files as tables, its
    trials and their raw and S-norm scores."""
    base = tmp_path_factory.mktemp("recipe")
    files, trials = synth_recipe(base)
    return base, files, trials, recipe_scores(files, trials)


@st.composite
def recipes(draw):
    """A dataset of the README recipe's kind under a drawn `synth` config (dimension 4-8, rank 2-3,
    30-60 training speakers) and `--aggregate` (1-3): its vector files as tables, its trials, the
    config that trains it, `(rank, aggregate)`, and its raw and S-norm scores."""
    dim, rank, speakers = draw(st.integers(4, 8)), draw(st.integers(2, 3)), draw(st.integers(30, 60))
    config = (rank, draw(st.integers(1, 3)))
    with tempfile.TemporaryDirectory() as directory:
        files, trials = synth_recipe(directory, dim, rank, speakers, draw(st.integers(0, 2**16)))
    return files, trials, config, recipe_scores(files, trials, *config)


def affine_map(rng, dim, condition):
    """An invertible (dim, dim) matrix with the given condition number, and a shift."""
    left, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    right, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    singular = condition ** rng.permutation(np.linspace(0.0, 1.0, dim))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return scale * (left * singular) @ right.T, 3.0 * rng.standard_normal(dim)


def affine_tolerance(condition):
    """How far an affine map of condition number `condition` may move a score, relative to max(1, |s|).

    The whitener comes from the training covariance, whose condition
    number is the map's squared: on the recipe's data, 1000 maps with
    condition numbers up to 1e3 moved scores by at most 0.29 of this.
    """
    return max(1e-12, 2e-14 * condition**2)


def assert_close(got, want, rtol):
    """Each of `got` within rtol * max(1, |want|) of `want`."""
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))) <= rtol


class TestRecipeInvariance:
    """What the recipe's raw and S-norm scores do not depend on.

    Each side's preprocessor whitens its own training data, so an
    invertible affine map of the vectors rotates every model-space vector
    and model alike; speakers are coded in order of first appearance and
    the coupling fit pairs them in sorted order; and a vector that no
    trial references is never scored.
    """

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(recipes(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_affine_map_of_every_file(self, drawn, seed, log_condition):
        files, trials, config, scores = drawn
        dim = files["train_enroll"].dim
        matrix, shift = affine_map(np.random.default_rng(seed), dim, 10.0 ** log_condition)
        mapped = {name: EmbeddingTable.from_columns(t.ids, t.matrix @ matrix.T + shift) for name, t in files.items()}
        assert_close(recipe_scores(mapped, trials, *config), scores, affine_tolerance(10.0 ** log_condition))

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(recipes(), st.integers(0, 2**32 - 1))
    def test_interleaved_speakers(self, drawn, seed):
        # each file's speakers interleaved at random, each speaker's rows kept in order,
        # so every chunk and every enrollment average holds the same rows in the same order
        files, trials, config, scores = drawn
        rng = np.random.default_rng(seed)

        def interleaved(table):
            _, codes = data.speaker_codes(table.ids)
            slots = codes[rng.permutation(len(codes))]
            order = np.empty(len(codes), dtype=np.intp)
            for c in np.unique(codes):
                order[slots == c] = np.flatnonzero(codes == c)
            return table.take(order)

        assert_close(recipe_scores({name: interleaved(t) for name, t in files.items()}, trials, *config), scores, 1e-11)

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(recipes(), st.data())
    def test_renamed_ids_give_the_same_bits(self, drawn, draws):
        # speakers renamed in their sort order, which orders the coupling fit; the part
        # of an id after the speaker renamed to any other token
        files, trials, config, scores = drawn
        old = [i.split("-", 1) for t in files.values() for i in t.ids]
        speakers, suffixes = sorted({s for s, _ in old}), sorted({x for _, x in old})
        token = st.text(st.characters(exclude_categories=("Cs", "Cc", "Z")), min_size=1, max_size=3)
        new_speakers = draws.draw(st.lists(token.filter(lambda s: "-" not in s), min_size=len(speakers),
                                           max_size=len(speakers), unique=True))
        new_suffixes = draws.draw(st.lists(token, min_size=len(suffixes), max_size=len(suffixes), unique=True))
        speaker_map = dict(zip(speakers, sorted(new_speakers)))
        suffix_map = dict(zip(suffixes, new_suffixes))

        def rename(i):
            speaker, suffix = i.split("-", 1)
            return f"{speaker_map[speaker]}-{suffix_map[suffix]}"

        renamed = {name: EmbeddingTable.from_columns([rename(i) for i in t.ids], t.matrix) for name, t in files.items()}
        renamed_trials = TrialList.from_columns(
            *zip(*((rename(t.enroll_id), rename(t.test_id), t.is_target) for t in trials))
        )
        for got, want in zip(recipe_scores(renamed, renamed_trials, *config), scores):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(recipes(), st.sampled_from(["eval_enroll", "eval_test"]), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
    def test_unreferenced_vector_changes_scores_by_rounding_only(self, drawn, name, at, seed):
        files, trials, config, scores = drawn
        table = files[name]
        at %= len(table) + 1
        vector = 3.0 * np.random.default_rng(seed).standard_normal(table.dim)
        extra = EmbeddingTable.from_columns(table.ids[:at] + ("unreferenced",) + table.ids[at:],
                                            np.insert(table.matrix, at, vector, axis=0))
        assert_close(recipe_scores({**files, name: extra}, trials, *config), scores, 1e-12)

    def test_affine_map_through_the_cli(self, recipe, tmp_path):
        base, files, _, _ = recipe
        matrix, shift = affine_map(np.random.default_rng(3), 6, 1e3)
        for name, table in files.items():
            mapped = EmbeddingTable.from_columns(table.ids, table.matrix @ matrix.T + shift)
            write_embeddings(tmp_path / f"{name}.embs", mapped)

        def scores(d):
            run_cli("train-plda", "--embeddings", d / "train_enroll.embs", "--aggregate", 3, "--rank", 2,
                    "--out", tmp_path / "side1.npz")
            run_cli("train-plda", "--embeddings", d / "train_test.embs", "--rank", 2, "--out", tmp_path / "side2.npz")
            run_cli("fit-fourcov", "--enroll-model", tmp_path / "side1.npz", "--test-model", tmp_path / "side2.npz",
                    "--enroll-embeddings", d / "train_enroll.embs", "--enroll-aggregate", 3,
                    "--test-embeddings", d / "train_test.embs", "--out", tmp_path / "fourcov.npz")
            run_cli("score", "--model", tmp_path / "fourcov.npz", "--enroll", d / "eval_enroll.embs",
                    "--test", d / "eval_test.embs", "--trials", base / "eval.trials", "--out", tmp_path / "raw.scores")
            run_cli("snorm", "--model", tmp_path / "fourcov.npz", "--scores", tmp_path / "raw.scores",
                    "--enroll", d / "eval_enroll.embs", "--test", d / "eval_test.embs",
                    "--cohort-enroll", d / "cohort_enroll.embs", "--cohort-test", d / "cohort_test.embs",
                    "--top-k", 10, "--out", tmp_path / "sn.scores")
            return [read_scores(tmp_path / name).values() for name in ("raw.scores", "sn.scores")]

        assert_close(scores(tmp_path), scores(base), affine_tolerance(1e3))
