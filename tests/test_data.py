import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asvbackend import data
from asvbackend.data import (
    BINARY_MAGIC,
    Embedding,
    EmbeddingTable,
    ScoredTrial,
    ScoreSet,
    SpeakerGroup,
    Trial,
    TrialList,
    join,
    read_embeddings,
    read_id_map,
    read_scores,
    read_trials,
    speaker_codes,
    write_embeddings,
    write_id_map,
    write_scores,
    write_trials,
)
from asvbackend.exceptions import (
    BackendError,
    DimensionMismatchError,
    DomainError,
    FileFormatError,
    ParameterError,
    UnknownIdError,
)
from asvbackend.plda import fit_preprocessor, to_model_space
from asvbackend.scorenorm import CohortSet


class TestEmbeddingFiles:
    def test_parse_two_rows(self, tmp_path):
        path = tmp_path / "x.embs"
        path.write_text("spkA-utt1  0.1 0.2\nspkA-utt2  0.3 0.4\n")
        embs = read_embeddings(path)
        assert len(embs) == 2
        assert embs[0].id == "spkA-utt1"
        assert embs[0].dim == 2
        np.testing.assert_allclose(embs[1].vector, [0.3, 0.4])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.embs"
        path.write_text("")
        assert read_embeddings(path) == []

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.embs"
        path.write_text("# header\n\nspk-a 1.0 2.0\n")
        assert len(read_embeddings(path)) == 1

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "x.embs"
        path.write_text("a-1 1.0 2.0\nb-1 1.0 2.0 3.0\n")
        with pytest.raises(DimensionMismatchError, match="dimension 3.*dimension 2"):
            read_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "x.embs"
        path.write_text("a-1 1.0 oops\n")
        with pytest.raises(FileFormatError, match=":1:"):
            read_embeddings(path)

    def test_non_finite_rejected_with_line(self, tmp_path):
        path = tmp_path / "x.embs"
        path.write_text("a-1 1.0 2.0\na-2 nan 2.0\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_embeddings(path)

    def test_text_round_trip_exact(self, tmp_path, rng):
        embs = [Embedding(f"s{i}-u0", rng.standard_normal(7)) for i in range(5)]
        path = tmp_path / "rt.embs"
        write_embeddings(path, embs)
        back = read_embeddings(path)
        for a, b in zip(embs, back):
            assert a.id == b.id
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        # binary stores float32; use float32-representable vectors
        embs = [
            Embedding(f"s{i}-u0", rng.standard_normal(9).astype(np.float32).astype(np.float64))
            for i in range(4)
        ]
        path = tmp_path / "rt.bembs"
        write_embeddings(path, embs, binary=True)
        back = read_embeddings(path)
        for a, b in zip(embs, back):
            assert a.id == b.id
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_binary_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "t.bembs"
        write_embeddings(path, [Embedding("a-1", rng.standard_normal(4))], binary=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FileFormatError, match="truncated"):
            read_embeddings(path)

    def test_binary_record_under_dimension_zero_rejected(self, tmp_path):
        path = tmp_path / "z.bembs"
        path.write_bytes(BINARY_MAGIC + struct.pack("<I", 0) + struct.pack("<I", 1) + b"a")
        with pytest.raises(FileFormatError, match="dimension 0"):
            read_embeddings(path)

    def test_binary_empty_file_of_dimension_zero_reads_empty(self, tmp_path):
        path = tmp_path / "e.bembs"
        write_embeddings(path, [], binary=True)
        assert path.read_bytes() == BINARY_MAGIC + struct.pack("<I", 0)
        assert read_embeddings(path) == []

    def test_binary_value_beyond_float32_rejected_before_writing(self, tmp_path):
        path = tmp_path / "big.bembs"
        embs = [Embedding("a", [1.0, 2.0]), Embedding("b", [1e39, 0.0])]
        with pytest.raises(ParameterError, match="'b'.*float32"):
            write_embeddings(path, embs, binary=True)
        assert list(tmp_path.iterdir()) == []

    def test_binary_float32_max_accepted(self, tmp_path):
        path = tmp_path / "max.bembs"
        top = float(np.finfo(np.float32).max)
        write_embeddings(path, [Embedding("a", [top, -top])], binary=True)
        np.testing.assert_array_equal(read_embeddings(path)[0].vector, [top, -top])

    def test_binary_non_finite_record_names_record(self, tmp_path):
        path = tmp_path / "nan.bembs"
        record = struct.pack("<I", 1) + b"a" + np.array([1.0, 2.0], "<f4").tobytes()
        bad = struct.pack("<I", 1) + b"b" + np.array([np.inf, 2.0], "<f4").tobytes()
        path.write_bytes(BINARY_MAGIC + struct.pack("<I", 2) + record + bad)
        with pytest.raises(FileFormatError, match="record 2: .*'b'.*non-finite"):
            read_embeddings(path)


def binary_records(rows):
    """Binary embedding file bytes for (id, values) rows of one dimension."""
    out = BINARY_MAGIC + struct.pack("<I", len(rows[0][1]))
    for embedding_id, values in rows:
        out += struct.pack("<I", len(embedding_id)) + embedding_id.encode() + np.array(values, "<f4").tobytes()
    return out


class TestBlockBoundaries:
    """Errors past the first block of rows still name their record or line."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)

    def test_binary_truncated_record(self, tmp_path):
        path = tmp_path / "t.bembs"
        raw = binary_records([(f"r{i}", [float(i), 1.0]) for i in range(1, 8)])
        record = 4 + 2 + 8
        path.write_bytes(raw[: 12 + 4 * record + 5])  # cut inside record 5 of 7
        with pytest.raises(FileFormatError, match="truncated record 5$"):
            read_embeddings(path)

    def test_binary_non_finite_record(self, tmp_path):
        path = tmp_path / "n.bembs"
        rows = [(f"r{i}", [float(i), 1.0]) for i in range(1, 8)]
        rows[4] = ("r5", [1.0, np.inf])
        path.write_bytes(binary_records(rows))
        with pytest.raises(FileFormatError, match="record 5: embedding 'r5' contains non-finite"):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("e6 1.0 oops", FileFormatError, ":8: non-numeric vector component"),
            ("e6 1.0 2.0 3.0", DimensionMismatchError, ":8: dimension 3 does not match dimension 2 established at line 2"),
            ("e6 1.0 nan", FileFormatError, ":8: embedding 'e6' contains non-finite values"),
        ],
    )
    def test_text_bad_line_after_first_blocks(self, tmp_path, line, error, message):
        path = tmp_path / "x.embs"
        good = [f"e{i} {i}.0 1.0" for i in range(1, 6)]
        path.write_text("# header\n" + "\n".join(good[:3]) + "\n\n" + "\n".join(good[3:]) + f"\n{line}\ne7 1.0 2.0\n")
        with pytest.raises(error, match=message):
            read_embeddings(path)

    @pytest.mark.parametrize("side", ["enrollment-side", "test-side"])
    def test_wrong_dimension_cohort_entry(self, rng, side):
        rows = [Embedding(f"c{i}", rng.standard_normal(5)) for i in range(7)]
        rows[4] = Embedding("c4", rng.standard_normal(6))
        good = [Embedding(f"g{i}", rng.standard_normal(5)) for i in range(7)]
        cohorts = (rows, good) if side == "enrollment-side" else (good, rows)
        with pytest.raises(DimensionMismatchError, match=f"{side} cohort: embedding 'c4' has dimension 6"):
            CohortSet(*cohorts, None)


class TestBlockMemory:
    def test_reading_and_preparing_holds_blocks_not_file_copies(self, tmp_path, rng):
        # 6000 records of dimension 64: one float64 copy of the file's
        # vectors is 3.1 MB, one 256-row block 131 kB
        n, d = 6000, 64
        path = tmp_path / "big.bembs"
        ids = [f"m{i // 3}" for i in range(n)]
        write_embeddings(path, EmbeddingTable.from_columns(ids, rng.standard_normal((n, d))), binary=True)
        pre = fit_preprocessor(rng.standard_normal((500, d)))

        def transient(step):
            """The result of `step` and its peak memory beyond what is held after it."""
            tracemalloc.reset_peak()
            result = step()
            held, peak = tracemalloc.get_traced_memory()
            return result, peak - held

        tracemalloc.start()
        try:
            table, reading = transient(lambda: read_embeddings(path))
            averages, averaging = transient(lambda: to_model_space(table, pre, "enrollment", table.ids))
            rows, preprocessing = transient(lambda: to_model_space(table, pre, "test"))
        finally:
            tracemalloc.stop()
        assert (len(table), len(averages), len(rows)) == (n, n // 3, n)
        whole = n * d * 8
        # beyond the tables each step returns, only blocks were allocated
        for step, extra in [("read", reading), ("average", averaging), ("preprocess", preprocessing)]:
            assert extra < whole / 4, f"{step}: transient peak {extra / 1e6:.2f} MB"


class TestTrialAndScoreFiles:
    def test_labels_parsed(self, tmp_path):
        path = tmp_path / "t.trials"
        path.write_text("e1 t1 tgt\ne1 t2 non\n")
        trials = read_trials(path)
        assert trials.entries[0].is_target is True
        assert trials.entries[1].is_target is False

    def test_unlabeled_trials_allowed(self, tmp_path):
        path = tmp_path / "t.trials"
        path.write_text("e1 t1\ne1 t2\n")
        trials = read_trials(path)
        assert all(t.is_target is None for t in trials)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "t.trials"
        path.write_text("e1 t1 target\n")
        with pytest.raises(FileFormatError, match="unknown label"):
            read_trials(path)

    def test_duplicate_trial_rejected(self, tmp_path):
        path = tmp_path / "t.trials"
        path.write_text("e1 t1 tgt\ne1 t1 non\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_trials(path)

    def test_trials_round_trip(self, tmp_path):
        trials = TrialList((Trial("e1", "t1", True), Trial("e2", "t2", None)))
        path = tmp_path / "t.trials"
        write_trials(path, trials)
        assert read_trials(path) == trials

    def test_scores_round_trip_exact(self, tmp_path):
        scores = ScoreSet(
            (
                ScoredTrial("e1", "t1", 0.1),
                ScoredTrial("e1", "t2", -3.721233459999e-7),
                ScoredTrial("e2", "t1", 12345.6789),
            )
        )
        path = tmp_path / "s.scores"
        write_scores(scores, path)
        back = read_scores(path)
        assert back == scores

    def test_non_finite_score_rejected(self):
        with pytest.raises(DomainError):
            ScoreSet((ScoredTrial("e", "t", float("inf")),))

    def test_score_file_bad_value(self, tmp_path):
        path = tmp_path / "s.scores"
        path.write_text("e1 t1 abc\n")
        with pytest.raises(FileFormatError, match="non-numeric score"):
            read_scores(path)

    def test_reading_embeddings_holds_one_block_of_lines(self, tmp_path, rng):
        # 3000 rows of dimension 200: the matrix is 4.8 MB, one block of 256
        # lines about 1 MB of text and 0.4 MB of values
        n, d = 3000, 200
        path = tmp_path / "f.embs"
        write_embeddings(path, EmbeddingTable.from_columns([f"spk{i // 3:05d}-u{i}" for i in range(n)],
                                                           rng.standard_normal((n, d))))
        tracemalloc.start()
        try:
            table = read_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.matrix.shape == (n, d)
        extra = peak - table.matrix.nbytes
        assert extra < 2e6, f"peak {extra / 1e6:.2f} MB above the matrix"

    @pytest.mark.parametrize("kind", ["trials", "scores"])
    def test_reading_holds_no_per_line_copies(self, tmp_path, kind):
        # 200 models x 100 tests; a reader that keeps every line's fields
        # (about 500 B a row) before building the table peaks far above
        # one that encodes ids as it reads
        path = tmp_path / f"f.{kind}"
        with open(path, "w") as fh:
            for m in range(200):
                for t in range(100):
                    value = ("tgt" if m == t else "non") if kind == "trials" else repr((m * 7919 + t) / 3.0)
                    fh.write(f"spk{m:05d}-model spk{t:05d}-t0 {value}\n")
        read = read_trials if kind == "trials" else read_scores
        tracemalloc.start()
        try:
            table = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 20_000
        assert peak / len(table) < 200, f"peak {peak / len(table):.0f} B per row"

    def test_id_map_round_trip_and_duplicates(self, tmp_path):
        path = tmp_path / "m.txt"
        write_id_map(path, {"a": "spk1", "b": "spk2"})
        assert read_id_map(path) == {"a": "spk1", "b": "spk2"}
        path.write_text("a spk1\na spk2\n")
        with pytest.raises(FileFormatError, match="duplicate key"):
            read_id_map(path)


class TestUnwritableIds:
    """Text writers reject ids that would not read back as written."""

    def test_empty_id_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot be written"):
            write_trials(tmp_path / "t.trials", TrialList((Trial("", "t1", True),)))

    def test_id_with_whitespace_rejected(self, tmp_path, rng):
        with pytest.raises(ParameterError, match="cannot be written"):
            write_embeddings(tmp_path / "x.embs", [Embedding("a b", rng.standard_normal(2))])
        with pytest.raises(ParameterError, match="cannot be written"):
            write_scores(ScoreSet((ScoredTrial("e1", "t\t1", 0.5),)), tmp_path / "s.scores")

    def test_id_starting_with_hash_rejected(self, tmp_path):
        path = tmp_path / "t.trials"
        with pytest.raises(ParameterError, match="cannot be written"):
            write_trials(path, TrialList((Trial("#e", "t1", True),)))
        assert not path.exists()
        with pytest.raises(ParameterError, match="cannot be written"):
            write_id_map(tmp_path / "m.txt", {"#a": "spk1"})


def grouped_by_loop(ids, speaker_map=None):
    """Reference: each speaker's row positions, speakers in order of first appearance."""
    groups = {}
    for row, embedding_id in enumerate(ids):
        speaker = speaker_map[embedding_id] if speaker_map is not None else embedding_id.split("-", 1)[0]
        groups.setdefault(speaker, []).append(row)
    return groups


def grouped_by_codes(speakers, codes):
    return {s: np.flatnonzero(codes == c).tolist() for c, s in enumerate(speakers)}


class TestGrouping:
    def test_prefix_grouping_preserves_multiset(self, rng):
        ids = [f"spk{i % 3}-u{i}" for i in range(12)]
        speakers, codes = speaker_codes(ids)
        assert speakers == ("spk0", "spk1", "spk2")
        assert grouped_by_codes(speakers, codes) == grouped_by_loop(ids)
        # repeated ids and interleaved speakers keep first-appearance order
        ids = ["b-2", "a-1", "b-2", "c-9", "a-3", "b-1"]
        speakers, codes = speaker_codes(ids)
        assert speakers == ("b", "a", "c") and codes.tolist() == [0, 1, 0, 2, 1, 0]
        assert grouped_by_codes(speakers, codes) == grouped_by_loop(ids)

    def test_explicit_map_grouping(self, rng):
        ids = ["x", "y", "z", "x"]
        speaker_map = {"x": "s1", "y": "s2", "z": "s1"}
        speakers, codes = speaker_codes(ids, speaker_map)
        assert speakers == ("s1", "s2") and codes.tolist() == [0, 1, 0, 0]
        assert grouped_by_codes(speakers, codes) == grouped_by_loop(ids, speaker_map)
        with pytest.raises(UnknownIdError, match="'y'"):
            speaker_codes(["x", "y", "z"], {"x": "s1"})


class TestTables:
    def test_columns_and_rows_build_the_same_table(self):
        rows = (Trial("e1", "t1", True), Trial("e2", "t1", None), Trial("e1", "t2", False))
        trials = TrialList.from_columns(["e1", "e2", "e1"], ["t1", "t1", "t2"], [True, None, False])
        assert trials == TrialList(rows)
        assert trials.entries == rows
        assert trials.enroll_ids == ("e1", "e2") and trials.test_ids == ("t1", "t2")
        assert trials.labels.tolist() == [1, -1, 0]

    def test_take_renumbers_ids_by_first_appearance(self):
        trials = TrialList.from_columns(["a", "b", "c"], ["x", "y", "x"], [None] * 3)
        subset = trials.take([2, 1])
        assert subset == TrialList((Trial("c", "x"), Trial("b", "y")))
        assert subset.enroll_ids == ("c", "b") and subset.enroll_codes.tolist() == [0, 1]
        with pytest.raises(ParameterError, match="duplicate"):
            trials.take([0, 0])

    def test_join_finds_rows_by_id_pair(self):
        trials = TrialList.from_columns(["a", "a", "b"], ["x", "y", "x"], [True, False, True])
        scores = ScoreSet.from_columns(["b", "a", "c", "a"], ["x", "y", "x", "z"], [1.0, 2.0, 3.0, 4.0])
        assert join(scores, trials).tolist() == [2, 1, -1, -1]
        assert join(trials, scores).tolist() == [-1, 1, 0]

    def test_with_scores_checks_the_column(self):
        trials = TrialList.from_columns(["a", "b"], ["x", "x"], [None, None])
        assert trials.with_scores([0.5, -1.0]) == ScoreSet(
            (ScoredTrial("a", "x", 0.5), ScoredTrial("b", "x", -1.0))
        )
        with pytest.raises(ParameterError, match="one entry per row"):
            trials.with_scores([0.5])
        with pytest.raises(DomainError, match="non-finite score for trial b x"):
            trials.with_scores([0.5, float("nan")])

    def test_columns_are_read_only(self):
        scores = ScoreSet.from_columns(["a"], ["x"], [1.0])
        with pytest.raises(ValueError):
            scores.values()[0] = 2.0


class TestInvariants:
    def test_empty_group_rejected(self):
        with pytest.raises(ParameterError):
            SpeakerGroup("s", ())

    def test_duplicate_trials_rejected_in_memory(self):
        with pytest.raises(ParameterError):
            TrialList((Trial("e", "t"), Trial("e", "t")))

    def test_embedding_is_readonly(self, rng):
        emb = Embedding("a-1", rng.standard_normal(3))
        with pytest.raises(ValueError):
            emb.vector[0] = 5.0

    def test_write_failure_carries_path_context(self, tmp_path):
        scores = ScoreSet((ScoredTrial("e", "t", 1.0),))
        target = tmp_path / "missing-dir" / "x.scores"
        with pytest.raises(OSError) as err:
            write_scores(scores, target)
        assert "missing-dir" in str(err.value)


def _grammar(token: str) -> float:
    """`float(token)` under the number grammar's character rule: ASCII only, no '_'."""
    if not (token.isascii() and "_" not in token):
        raise ValueError(token)
    return float(token)


def _oracle_lines(path):
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise FileFormatError(f"{path}:{lineno}: line is not valid UTF-8") from None
            if line and not line.startswith("#"):
                yield lineno, line.split()


def oracle_read_embeddings(path):
    """The line-by-line text reader that the block reader replaced, under the number grammar.

    Rows are checked for finiteness 256 at a time, in the blocks of the
    file's data rows, as that reader checked them.
    """
    ids, rows, lines = [], [], []

    def check(start):
        for i in range(start, len(rows)):
            if not all(map(math.isfinite, rows[i])):
                raise FileFormatError(f"{path}:{lines[i]}: embedding '{ids[i]}' contains non-finite values")

    for lineno, parts in _oracle_lines(path):
        if len(parts) < 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'id v1 ... vd', got {len(parts)} fields")
        try:
            values = [_grammar(p) for p in parts[1:]]
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric vector component") from None
        if not rows:
            dim, first_line = len(values), lineno
        elif len(values) != dim:
            raise DimensionMismatchError(
                f"{path}:{lineno}: dimension {len(values)} does not match "
                f"dimension {dim} established at line {first_line}"
            )
        ids.append(parts[0])
        rows.append(values)
        lines.append(lineno)
        if len(rows) % 256 == 0:
            check(len(rows) - 256)
    check(len(rows) // 256 * 256)
    return EmbeddingTable.from_columns(ids, rows) if rows else EmbeddingTable()


def oracle_read_scores(path):
    """The line-by-line score reader that the block reader replaced, under the number grammar."""
    enrolls, tests, values = [], [], []
    for lineno, parts in _oracle_lines(path):
        if len(parts) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 'enroll_id test_id score'")
        try:
            values.append(_grammar(parts[2]))
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric score '{parts[2]}'") from None
        enrolls.append(parts[0])
        tests.append(parts[1])
    try:
        return ScoreSet.from_columns(enrolls, tests, values)
    except (ParameterError, DomainError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _outcome(read, path):
    """What `read` makes of `path`: the table's ids and value bits, or the error's class and message."""
    try:
        table = read(path)
    except BackendError as exc:
        return type(exc), str(exc)
    if isinstance(table, EmbeddingTable):
        return table.ids, table.matrix.shape, table.matrix.tobytes()
    return (table.enroll_ids, table.test_ids, table.enroll_codes.tobytes(), table.test_codes.tobytes(),
            table.values().tobytes())


EDGE_TOKENS = ["1_0", "\u0663", "\uff11", "inf", "-Infinity", "nan", "1e400", "-0", "1e-320"]
SEPARATORS = [" ", "\t", "\r", "\x0b", "\xa0", "  "]
TOKENS = st.one_of(st.sampled_from(EDGE_TOKENS), st.floats().map(repr), st.text(max_size=6))


@st.composite
def drawn_line(draw, fields):
    """A data line of `fields` tokens after its id (or of a drawn count, a ragged row), a
    comment, a blank line, a lone id or a line that is not UTF-8, as bytes."""
    kind = draw(st.sampled_from(["row", "row", "ragged", "comment", "blank", "id-only", "not-utf8"]))
    if kind == "comment":
        return ("#" + draw(st.text(max_size=4))).encode()
    if kind in ("blank", "id-only", "not-utf8"):
        return {"blank": draw(st.sampled_from([b"", b"  ", b"\t"])), "id-only": b"x", "not-utf8": b"x \xff"}[kind]
    count = fields if kind == "row" else draw(st.integers(1, fields + 2))
    tokens = draw(st.lists(TOKENS, min_size=count, max_size=count))
    separators = draw(st.lists(st.sampled_from(SEPARATORS), min_size=count, max_size=count))
    return "".join(s + t for s, t in zip(separators, tokens)).encode()


@st.composite
def text_files(draw, kind):
    """An embedding or score file of 1, 255, 256 or 257 good lines, some replaced by drawn
    lines and some drawn lines inserted, which moves the later rows across block boundaries."""
    n = draw(st.sampled_from([1, 255, 256, 257]))
    if kind == "embeddings":
        dim = draw(st.integers(1, 3))
        lines = [f"r{i} " + " ".join(repr(i + j / 7) for j in range(dim)) for i in range(n)]
        prefix, fields = (lambda i: f"x{i}".encode()), dim
    else:
        lines = [f"e{i % 16} t{i} {repr(i / 7)}" for i in range(n)]
        prefix, fields = (lambda i: f"e{i % 16} y{i}".encode()), 1
    lines = [line.encode() for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        line = draw(drawn_line(fields))
        if line.startswith(b"#") or line.strip() in (b"", b"x") or line == b"x \xff":
            new = line
        else:
            new = prefix(at) + line
        if draw(st.booleans()) and at < len(lines):
            lines[at] = new
        else:
            lines.insert(at, new)
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=text_files("embeddings"))
def test_block_reader_reads_embeddings_as_the_line_reader(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("oracle") / "x.embs"
    path.write_bytes(content)
    assert _outcome(read_embeddings, path) == _outcome(oracle_read_embeddings, path)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=text_files("scores"))
def test_block_reader_reads_scores_as_the_line_reader(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("oracle") / "x.scores"
    path.write_bytes(content)
    assert _outcome(read_scores, path) == _outcome(oracle_read_scores, path)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
def test_tokens_that_float_reads_but_the_grammar_refuses(tmp_path, token):
    path = tmp_path / "x.embs"
    path.write_text(f"a 1.0 2.0\nb 1.0 {token}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=":2: non-numeric vector component"):
        read_embeddings(path)
    path.write_text(f"e t {token}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=f":1: non-numeric score '{token}'"):
        read_scores(path)


def test_any_str_split_separator_separates_components(tmp_path):
    path = tmp_path / "x.embs"
    path.write_text("a 1.0\r2.0\x0b3.0\n b\xa01.0\u30002.0\x1c3.0 \n", encoding="utf-8")
    assert read_embeddings(path) == [Embedding("a", [1.0, 2.0, 3.0]), Embedding("b", [1.0, 2.0, 3.0])]


# -0.0, subnormals and the ends of the float64 range, whose `repr`s differ most in length
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308])


@st.composite
def written_rows(draw):
    """(enrollment id, test id, value) rows, as many as cross 0 to 2 block boundaries, from drawn
    ids of mixed lengths and drawn values; the test id's row number keeps every pair unique."""
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 513]))
    ids = draw(st.lists(st.text(st.characters(categories=("L", "N")), min_size=1, max_size=12), min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=1, max_size=6))
    return [(ids[i % len(ids)], f"{ids[-1 - i % len(ids)]}-{i}", values[i % len(values)]) for i in range(n)]


@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=written_rows(), dim=st.integers(1, 3))
def test_block_writers_write_the_bytes_of_line_by_line_formatting(tmp_path_factory, rows, dim):
    # the text writers join a block of lines per write; the reference formats and writes one line at a time
    path = tmp_path_factory.mktemp("writers")
    enrolls, tests, values = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    labels = [(True, False, None)[i % 3] for i in range(len(rows))]
    matrix = np.array([[values[(i + j) % len(values)] for j in range(dim)] for i in range(len(rows))]).reshape(-1, dim)
    write_scores(ScoreSet.from_columns(enrolls, tests, values), path / "x.scores")
    write_trials(path / "x.trials", TrialList.from_columns(enrolls, tests, labels))
    write_embeddings(path / "x.embs", EmbeddingTable.from_columns(tests, matrix))
    suffix = {True: " tgt", False: " non", None: ""}
    assert (path / "x.scores").read_bytes() == "".join(f"{e} {t} {v!r}\n" for e, t, v in rows).encode()
    assert (path / "x.trials").read_bytes() == "".join(
        f"{e} {t}{suffix[label]}\n" for e, t, label in zip(enrolls, tests, labels)).encode()
    assert (path / "x.embs").read_bytes() == "".join(
        i + "  " + " ".join(map(repr, row)) + "\n" for i, row in zip(tests, matrix.tolist())).encode()
