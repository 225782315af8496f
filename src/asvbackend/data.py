"""Data model and file I/O for embeddings, trials and scores.

Embeddings, trials and scores are column tables. An `EmbeddingTable`
holds each row's id, in file order (ids may repeat: the rows of one
multi-segment enrollment model share its id, and `plda.to_model_space`
averages them when given the ids as its `models` column), and one
read-only (n, d) float64 matrix of the vectors. `Embedding` is its row
view, and a sequence of `Embedding` rows converts to a table once, with
`embedding_table`, wherever a table is expected. `TrialList` and
`ScoreSet` hold each side's unique ids and one integer code per row.
Training labels are id-coded the same way: `speaker_codes` gives a
table's speaker ids and one speaker code per row. `SpeakerGroup` is
only an input adapter for the training entries, which convert a
sequence of groups once.

Text formats are whitespace-separated UTF-8 with LF line endings; lines
starting with ``#`` are comments and blank lines are skipped:

    embeddings   id  v1 v2 ... vd
    trials       enroll_id  test_id  [tgt|non]
    scores       enroll_id  test_id  score
    id maps      key  value            (speaker maps, routing metadata)

For large cohorts a binary embedding format is available: an 8-byte magic
string, the dimension as a little-endian u32, then one record per vector
(u32 id byte length, UTF-8 id bytes, d little-endian float32 values).
``read_embeddings`` sniffs the magic and handles both formats. Both
readers fill the matrix `_BLOCK_ROWS` rows at a time and check each
block for finiteness as a whole.

Every number the program reads, from a file or an option, follows one
grammar: a token is ASCII only, holds no ``_``, and is otherwise a
decimal, exponent, ``inf`` or ``nan`` form that ``float()`` takes (an
integer is ASCII ``[+-]?[0-9]+``). So ``1_0``, ``٣`` and ``１`` are not
numbers. The text readers take a block of up to `_BLOCK_ROWS` data
lines, split each line's id (or ids) off its own, and convert all the
block's numbers with one ``np.loadtxt`` call, which parses exactly this
grammar to the bits ``float()`` gives. When that call fails, the same
call on each line of the block in turn names the first bad line, so
errors and their order are those of a line-by-line reader.

All writers are atomic (temp file in the target directory, then rename).
Score values are written with ``repr`` so text round-trips are exact for
float64. The binary format stores float32, so its round-trip is bit-exact
for vectors that are float32-representable.
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
from array import array
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    DomainError,
    FileFormatError,
    ParameterError,
    UnknownIdError,
)

BINARY_MAGIC = b"XVECBIN1"

# Embedding rows read, converted and checked (and preprocessed, in
# `plda.to_model_space`) at a time: 256 x 200 float64 values is 400 kB.
_BLOCK_ROWS = 256


def open_input(path):
    """Open input `path` for binary reading; a path that is missing or is not a regular file raises
    `FileNotFoundError` naming it."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{path} (not a regular file)" if os.path.exists(path) else path)
    return open(path, "rb")


def check_output(path) -> str:
    """The directory of output `path`; a path that is a directory, or whose directory does not exist,
    raises `FileNotFoundError` naming it."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(directory):
        problem = "it is a directory" if os.path.isdir(path) else "no such directory"
        raise FileNotFoundError(f"cannot write {path}: {problem}")
    return directory


@contextmanager
def atomic_write(path, mode="w"):
    """Open a temp file next to `path` (a file in an existing directory), rename over it on success.
    A text file is written as UTF-8 with LF line endings, whatever the locale."""
    directory = check_output(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    text = "b" not in mode
    try:
        with os.fdopen(fd, mode, encoding="utf-8" if text else None, newline="\n" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Embedding:
    """A fixed-dimension embedding with an identity label (an `EmbeddingTable` row)."""

    id: str
    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise DimensionMismatchError(
                f"embedding '{self.id}' must be a non-empty 1-D vector, got shape {vec.shape}"
            )
        if not np.all(np.isfinite(vec)):
            raise DomainError(f"embedding '{self.id}' contains non-finite values")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


class EmbeddingTable:
    """Embeddings as columns: each row's id and one matrix of all vectors.

    `ids` holds one id per row, in row order; ids may repeat. `matrix`
    is the read-only (n, d) float64 matrix of the vectors, finite
    throughout. Indexing and iteration give `Embedding` row views, whose
    vectors are read-only views of the matrix rows, not copies.
    Build a table from rows, `EmbeddingTable([Embedding(...), ...])`,
    or from columns, `EmbeddingTable.from_columns(ids, matrix)`.
    """

    def __init__(self, rows=()):
        rows = list(rows)
        dim = rows[0].dim if rows else 0
        for row in rows:
            if row.dim != dim:
                raise DimensionMismatchError(
                    f"embedding '{row.id}' has dimension {row.dim}, "
                    f"embedding '{rows[0].id}' has dimension {dim}"
                )
        matrix = np.stack([row.vector for row in rows]) if rows else np.empty((0, 0))
        self._fill(tuple(row.id for row in rows), matrix)

    @classmethod
    def from_columns(cls, ids: Sequence[str], matrix) -> EmbeddingTable:
        """A table of per-row ids and a copy of an (n, d) matrix of finite values."""
        ids = tuple(ids)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or (ids and not matrix.shape[1]):
            raise DimensionMismatchError(
                f"expected a non-empty ({len(ids)}, d) matrix for {len(ids)} ids, got shape {matrix.shape}"
            )
        bad = ~np.isfinite(matrix).all(axis=1)
        if bad.any():
            raise DomainError(f"embedding '{ids[int(np.argmax(bad))]}' contains non-finite values")
        return cls._make(ids, matrix)

    @classmethod
    def _make(cls, ids: tuple[str, ...], matrix: np.ndarray) -> EmbeddingTable:
        """A table over `matrix` itself, for callers that have checked it."""
        table = cls.__new__(cls)
        table._fill(ids, matrix)
        return table

    def _fill(self, ids, matrix) -> None:
        matrix.setflags(write=False)
        self.ids, self.matrix = ids, matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Embedding:
        return _row_view(self.ids[i], self.matrix[i])

    def __iter__(self):
        return map(_row_view, self.ids, self.matrix)

    def __eq__(self, other):
        """Row by row, against a table or a sequence of `Embedding` rows."""
        if not isinstance(other, (EmbeddingTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a.id == b.id and np.array_equal(a.vector, b.vector) for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"EmbeddingTable({len(self)} rows, dimension {self.dim})"

    def take(self, rows) -> EmbeddingTable:
        """The rows at these positions, in this order, as a new table."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._make(tuple(self.ids[i] for i in rows.tolist()), self.matrix[rows])


def _row_view(embedding_id: str, vector: np.ndarray) -> Embedding:
    """An `Embedding` over a row of a table's matrix, which is checked and read-only already."""
    row = object.__new__(Embedding)
    object.__setattr__(row, "id", embedding_id)
    object.__setattr__(row, "vector", vector)
    return row


def row_blocks(n: int):
    """Slices covering rows 0..n, `_BLOCK_ROWS` rows at a time."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def embedding_table(embeddings) -> EmbeddingTable:
    """`embeddings` as a table: a table as it is, `Embedding` rows converted once."""
    return embeddings if isinstance(embeddings, EmbeddingTable) else EmbeddingTable(embeddings)


def check_width(rows, dim: int, label: str) -> None:
    """The one width rule of vectors entering a model: `rows` must be `dim` wide.

    A table with no rows passes: an empty file has no width. An array,
    a matrix or one vector, is checked by its last axis whatever its row
    count. Any other width raises `DimensionMismatchError("<label>
    vectors have dimension <w>, the model expects <dim>")`.
    """
    if isinstance(rows, EmbeddingTable):
        if not len(rows):
            return
        rows = rows.matrix
    if rows.shape[-1] != dim:
        raise DimensionMismatchError(f"{label} vectors have dimension {rows.shape[-1]}, the model expects {dim}")


@dataclass(frozen=True)
class SpeakerGroup:
    """All embeddings of one speaker (or one enrollment sample): an input
    adapter that the training entries convert to statistics once."""

    speaker_id: str
    members: tuple[Embedding, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ParameterError(f"speaker group '{self.speaker_id}' has no members")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"speaker group '{self.speaker_id}' mixes dimensions {sorted(dims)}"
            )
        object.__setattr__(self, "members", members)

    def matrix(self) -> np.ndarray:
        return np.stack([m.vector for m in self.members])


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    is_target: bool | None = None


@dataclass(frozen=True)
class ScoredTrial:
    enroll_id: str
    test_id: str
    score: float


def _encode(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Unique ids in order of first appearance, and each row's code into them."""
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(i, len(index)) for i in ids), dtype=np.intp, count=len(ids))
    return tuple(index), codes


class _PairTable:
    """Rows of (enrollment id, test id, value), stored as columns.

    Each side keeps its unique ids once, in order of first appearance,
    and each row holds an integer code into both id tables. No id pair
    repeats, and the columns are read-only. Subclasses name the row view
    and the value column.
    """

    _row: type  # row view: (enroll_id, test_id, value)
    _field: str  # name of the value in the row view
    _duplicate: str  # how errors name a repeated pair

    def __init__(self, entries=()):
        rows = tuple(entries)
        values = [getattr(r, self._field) for r in rows]
        self._fill(
            _encode([r.enroll_id for r in rows]), _encode([r.test_id for r in rows]), self._column(values)
        )

    @classmethod
    def from_columns(cls, enroll_ids: Sequence[str], test_ids: Sequence[str], values: Sequence):
        """A table from three parallel per-row columns."""
        return cls._make(_encode(enroll_ids), _encode(test_ids), cls._column(values))

    @classmethod
    def _make(cls, enroll, test, column):
        table = cls.__new__(cls)
        table._fill(enroll, test, column)
        return table

    def _fill(self, enroll, test, column: np.ndarray) -> None:
        """Set (id table, codes) per side and the value column, then check them."""
        (self.enroll_ids, self.enroll_codes), (self.test_ids, self.test_codes) = enroll, test
        self._values = column
        if not self.enroll_codes.shape == self.test_codes.shape == column.shape:
            raise ParameterError("columns must hold one entry per row")
        for array in (self.enroll_codes, self.test_codes, column):
            array.setflags(write=False)
        _, first = np.unique(self.enroll_codes * len(self.test_ids) + self.test_codes, return_index=True)
        if first.size < len(self):
            repeats = np.ones(len(self), dtype=bool)
            repeats[first] = False
            row = self[int(np.argmax(repeats))]
            raise ParameterError(f"{self._duplicate} {row.enroll_id} {row.test_id}")
        self._check_values()

    def _check_values(self) -> None:
        pass

    def __len__(self) -> int:
        return self.enroll_codes.size

    def __getitem__(self, i: int):
        return self._row(
            self.enroll_ids[self.enroll_codes[i]],
            self.test_ids[self.test_codes[i]],
            self._view(self._values[i].item()),
        )

    def _rows(self):
        """(enrollment id, test id, stored value) per row."""
        return zip(
            map(self.enroll_ids.__getitem__, self.enroll_codes.tolist()),
            map(self.test_ids.__getitem__, self.test_codes.tolist()),
            self._values.tolist(),
        )

    def __iter__(self):
        return (self._row(e, t, self._view(v)) for e, t, v in self._rows())

    @property
    def entries(self) -> tuple:
        return tuple(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return list(self._rows()) == list(other._rows())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"

    def take(self, rows) -> _PairTable:
        """The rows at these positions, in this order, as a new table."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._make(
            _encode([self.enroll_ids[c] for c in self.enroll_codes[rows].tolist()]),
            _encode([self.test_ids[c] for c in self.test_codes[rows].tolist()]),
            self._values[rows],
        )

    def with_scores(self, scores) -> ScoreSet:
        """These rows with a new score column."""
        ids = (self.enroll_ids, self.enroll_codes), (self.test_ids, self.test_codes)
        return ScoreSet._make(*ids, ScoreSet._column(scores))


class TrialList(_PairTable):
    """Trials, each labeled target (True), nontarget (False) or not (None)."""

    _row, _field, _duplicate = Trial, "is_target", "duplicate trial"
    # stored label codes 0, 1, -1 read back as False, True, None
    _view = staticmethod((False, True, None).__getitem__)

    @staticmethod
    def _column(values) -> np.ndarray:
        return np.array([-1 if v is None else 1 if v else 0 for v in values], dtype=np.int8)

    @property
    def labels(self) -> np.ndarray:
        """Per-row label codes: 1 target, 0 nontarget, -1 unlabeled."""
        return self._values


class ScoreSet(_PairTable):
    """Trials with one finite float64 score each."""

    _row, _field, _duplicate = ScoredTrial, "score", "duplicate score for trial"
    _view = float

    @staticmethod
    def _column(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    def _check_values(self) -> None:
        bad = ~np.isfinite(self._values)
        if bad.any():
            row = self[int(np.argmax(bad))]
            raise DomainError(f"non-finite score for trial {row.enroll_id} {row.test_id}")

    def values(self) -> np.ndarray:
        """The score column (read-only)."""
        return self._values


def join(left: _PairTable, right: _PairTable) -> np.ndarray:
    """For each row of `left`, the row of `right` with the same id pair, or -1."""

    def codes_in_right(ids, right_ids):
        index = dict(zip(right_ids, range(len(right_ids))))
        return np.array([index.get(i, -1) for i in ids], dtype=np.intp)

    n_test = len(right.test_ids)
    enroll = codes_in_right(left.enroll_ids, right.enroll_ids)[left.enroll_codes]
    test = codes_in_right(left.test_ids, right.test_ids)[left.test_codes]
    keys = np.where((enroll < 0) | (test < 0), -1, enroll * n_test + test)
    right_keys = right.enroll_codes * n_test + right.test_codes
    _, inverse = np.unique(np.concatenate([right_keys, keys]), return_inverse=True)
    row = np.full(inverse.size, -1, dtype=np.intp)
    row[inverse[: len(right)]] = np.arange(len(right))
    return row[inverse[len(right):]]


def score_rows(trials: TrialList, scores: ScoreSet) -> np.ndarray:
    """For each trial, its row in `scores` (-1 if none); an unscored labeled trial raises."""
    rows = join(trials, scores)
    missing = (trials.labels >= 0) & (rows < 0)
    if missing.any():
        t = trials[int(np.argmax(missing))]
        raise UnknownIdError(f"no score for labeled trial {t.enroll_id} {t.test_id}")
    return rows


def _utf8(path, token: str) -> bytes:
    """`token` encoded as UTF-8; a lone surrogate, as a command-line value decoded
    under a C locale holds, raises `ParameterError` naming `path` and the id."""
    try:
        return token.encode("utf-8")
    except UnicodeEncodeError:
        raise ParameterError(f"{path}: id {token!r} cannot be encoded as UTF-8") from None


def _check_tokens(path, tokens: Iterable[str]) -> None:
    """Reject ids a text reader would not read back as written.

    Files are UTF-8, readers split lines on whitespace and skip lines
    starting with '#', so an id must encode as UTF-8 and be one non-empty
    whitespace-free token not starting with '#'.
    """
    for token in tokens:
        _utf8(path, token)
        if token.startswith("#") or token.split() != [token]:
            raise ParameterError(
                f"{path}: id {token!r} cannot be written as text "
                "(empty, contains whitespace or starts with '#')"
            )


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _plain(text: str) -> bool:
    """The number grammar's character rule: ASCII only, no '_'."""
    return text.isascii() and "_" not in text


def _number_rows(texts: Sequence[str]) -> np.ndarray:
    """The numbers in each of `texts`, one row per text, converted by one `np.loadtxt` call.

    Numbers are separated by whatever `str.split` splits on. A token
    that breaks the number grammar, or rows of different lengths,
    raise `ValueError`.
    """
    # `np.loadtxt` refuses a '\r' inside a line; the other separators it splits on already
    rows = [text if text.isascii() and "\r" not in text else " ".join(text.split()) for text in texts]
    if not all(map(_plain, rows)):
        raise ValueError("a token breaks the number grammar")
    return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)


def parse_float(text: str) -> float:
    """`text` as one number under the number grammar, surrounding whitespace ignored as `float()`
    ignores it; anything else raises `ValueError`."""
    token = text.strip()
    if not token:
        raise ValueError("no number")
    return _number_rows([token]).item()


def parse_int(text: str) -> int:
    """`text` as an integer, ASCII `[+-]?[0-9]+`, surrounding whitespace ignored as `int()` ignores
    it; anything else raises `ValueError`."""
    token = text.strip()
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {text!r}")
    return int(token)


def _data_lines(path, fh=None):
    """(line number, stripped line) of each data line of `path`, read from `fh` if it is open
    already; a line that is not UTF-8 raises `FileFormatError`."""
    with fh or open_input(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise FileFormatError(f"{path}:{lineno}: line is not valid UTF-8") from None
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _read_blocks(rows, convert, store) -> None:
    """`store(convert(block))` for each block of up to `_BLOCK_ROWS` of `rows`.

    An error that `rows` raises comes after `convert` has checked the
    rows before it, so errors come in line order, as a line-by-line
    reader raises them. No block is held while the next is read.
    """
    block = []
    try:
        for row in rows:
            block.append(row)
            if len(block) == _BLOCK_ROWS:
                store(convert(block))
                block = []
    except FileFormatError:
        if block:
            convert(block)
        raise
    if block:
        store(convert(block))


class _Rows:
    """An embedding table filled by a reader, a checked block of rows at a time.

    `store` checks each block for finiteness as a whole and copies it
    into the float64 matrix. The matrix starts with room for `capacity`
    rows, grows if needed and is cut to the rows read at the end.
    """

    def __init__(self, dim: int, capacity: int):
        self.matrix = np.empty((capacity, dim))
        self.ids: list[str] = []

    def store(self, ids: Sequence[str], block: np.ndarray, locate) -> None:
        """Append rows `ids` with values `block`; `locate(i)` names row i of the block in an error."""
        bad = ~np.isfinite(block).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise FileFormatError(f"{locate(row)}: embedding '{ids[row]}' contains non-finite values")
        start = len(self.ids)
        self.ids.extend(ids)
        if len(self.ids) > len(self.matrix):
            # a text file's rows are not counted ahead: grow by a block, or by a sixteenth
            # once that is more, so that the room beyond the last row stays small
            self._resize(max(len(self.ids), len(self.matrix) + max(len(self.matrix) // 16, _BLOCK_ROWS)))
        self.matrix[start : len(self.ids)] = block

    def _resize(self, rows: int) -> None:
        # in place (realloc): no view of the matrix exists while it is filled
        self.matrix.resize((rows, self.matrix.shape[1]), refcheck=False)

    def table(self) -> EmbeddingTable:
        self._resize(len(self.ids))
        return EmbeddingTable._make(tuple(self.ids), self.matrix)


def read_embeddings(path) -> EmbeddingTable:
    """Read an embedding file (text or binary, detected by magic bytes) as one table in file order."""
    with open_input(path) as fh:
        if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC:
            return _read_embeddings_binary(path, fh)
        fh.seek(0)
        return _read_embeddings_text(path, fh)


def _vector_lines(path, fh):
    """(line number, id, vector text) of each data line of text embedding file `path`."""
    for lineno, line in _data_lines(path, fh):
        fields = line.split(None, 1)
        if len(fields) < 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'id v1 ... vd', got 1 fields")
        yield lineno, *fields


def _read_embeddings_text(path, fh) -> EmbeddingTable:
    """The rows of text embedding file `path`, read from `fh`, a block of lines at a time."""
    rows = first_line = None  # set by the first line, which sets the dimension

    def convert(block):
        nonlocal rows, first_line
        linenos, ids, texts = zip(*block)
        if rows is None:
            rows, first_line = _Rows(len(_vector(path, linenos[0], texts[0])), _BLOCK_ROWS), linenos[0]
        values = _vectors(path, linenos, texts, rows.matrix.shape[1], first_line)
        return ids, values, lambda i: f"{path}:{linenos[i]}"

    _read_blocks(_vector_lines(path, fh), convert, lambda block: rows.store(*block))
    return rows.table() if rows is not None else EmbeddingTable()


def _vectors(path, linenos, texts, dim, first_line) -> np.ndarray:
    """The (len(texts), dim) values of a block's vector texts, the dimension set at `first_line`."""
    try:
        values = _number_rows(texts)
        if values.shape[1] == dim:
            return values
    except ValueError:
        pass
    # the first bad line of the block raises
    return np.array([_vector(path, lineno, text, dim, first_line) for lineno, text in zip(linenos, texts)])


def _vector(path, lineno, text, dim=None, first_line=None) -> np.ndarray:
    """The values of one line's vector `text`, of dimension `dim` (set at `first_line`) if given."""
    try:
        (values,) = _number_rows([text])
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: non-numeric vector component") from None
    if dim is not None and len(values) != dim:
        raise DimensionMismatchError(
            f"{path}:{lineno}: dimension {len(values)} does not match "
            f"dimension {dim} established at line {first_line}"
        )
    return values


def write_embeddings(path, embeddings, binary: bool = False) -> None:
    """Write a table, or a sequence of `Embedding` rows, in row order."""
    table = embedding_table(embeddings)
    if binary:
        _write_embeddings_binary(path, table)
        return
    _check_tokens(path, set(table.ids))
    if table.ids and table.ids[0].startswith(BINARY_MAGIC.decode()):
        # `read_embeddings` would take the file for a binary one
        raise ParameterError(f"{path}: id {table.ids[0]!r} cannot start a text file: it begins with the binary magic")
    with atomic_write(path) as fh:
        for embedding_id, vector in zip(table.ids, table.matrix):
            fh.write(embedding_id + "  " + " ".join(map(repr, vector.tolist())) + "\n")


def _read_embeddings_binary(path, fh) -> EmbeddingTable:
    """The records of binary embedding file `path`, read from `fh`, open just past the magic bytes."""
    header = fh.read(4)
    if len(header) != 4:
        raise FileFormatError(f"{path}: truncated header")
    (dim,) = struct.unpack("<I", header)
    width = 4 * dim
    # every record holds a 4-byte id length and its vector, so the
    # file size bounds the number of records
    capacity = (os.fstat(fh.fileno()).st_size - fh.tell()) // (4 + width) if dim else 0
    rows = _Rows(dim, capacity)
    # each record's vector bytes are read straight into its row of the
    # block; an empty block cannot be cast, so its slots are one empty buffer
    block = np.empty((min(_BLOCK_ROWS, capacity), dim), dtype="<f4")
    slots = memoryview(block).cast("B") if block.size else memoryview(bytearray())
    ids: list[str] = []

    def store():
        start = len(rows.ids)
        rows.store(ids, block[: len(ids)], lambda i: f"{path}: record {start + i + 1}")
        ids.clear()

    while True:
        lenbytes = fh.read(4)
        if not lenbytes:
            break
        record = len(rows.ids) + len(ids) + 1
        if len(lenbytes) != 4:
            raise FileFormatError(f"{path}: truncated record {record}")
        if dim == 0:
            raise FileFormatError(f"{path}: record {record} under a header of dimension 0")
        (id_len,) = struct.unpack("<I", lenbytes)
        id_bytes = fh.read(id_len)
        slot = slots[len(ids) * width : (len(ids) + 1) * width]
        if len(id_bytes) != id_len or fh.readinto(slot) != width:
            raise FileFormatError(f"{path}: truncated record {record}")
        try:
            ids.append(id_bytes.decode("utf-8"))
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: record {record}: id is not valid UTF-8") from None
        if len(ids) == len(block):
            store()
    store()
    return rows.table()


def _write_embeddings_binary(path, table: EmbeddingTable) -> None:
    with np.errstate(over="ignore"):
        values = table.matrix.astype("<f4")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ParameterError(
            f"{path}: embedding '{table.ids[int(np.argmax(bad))]}' has a value beyond the float32 range"
        )
    encoded = [_utf8(path, embedding_id) for embedding_id in table.ids]
    with atomic_write(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", table.dim))
        for id_bytes, vector in zip(encoded, values):
            fh.write(struct.pack("<I", len(id_bytes)) + id_bytes + vector.tobytes())


_LABELS = {"tgt": True, "non": False}


def _read_pairs(path, table, field, convert=None):
    """A trial or score file as `table`, read a block of lines at a time, encoding each side's ids.

    `field(path, lineno, fields)` checks a data line's fields and gives
    its value field; `convert(path, linenos, values)`, if given,
    converts a block's value fields at once.
    """
    index, codes, values = ({}, {}), (array("q"), array("q")), []

    def rows():
        for lineno, line in _data_lines(path):
            parts = line.split()
            value = field(path, lineno, parts)
            yield lineno, parts[0], parts[1], value

    def convert_block(block):
        linenos, enrolls, tests, fields = zip(*block)
        return enrolls, tests, convert(path, linenos, fields) if convert else fields

    def store(block):
        *sides, block_values = block
        values.extend(block_values)
        for ids, side_codes, side in zip(index, codes, sides):
            side_codes.extend(ids.setdefault(i, len(ids)) for i in side)

    _read_blocks(rows(), convert_block, store)
    sides = [(tuple(ids), np.array(side_codes, dtype=np.intp)) for ids, side_codes in zip(index, codes)]
    try:
        return table._make(*sides, table._column(values))
    except (ParameterError, DomainError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _trial_label(path, lineno, parts):
    if len(parts) not in (2, 3):
        raise FileFormatError(f"{path}:{lineno}: expected 'enroll_id test_id [tgt|non]'")
    if len(parts) == 3 and parts[2] not in _LABELS:
        raise FileFormatError(f"{path}:{lineno}: unknown label '{parts[2]}' (want tgt or non)")
    return _LABELS[parts[2]] if len(parts) == 3 else None


def _score_field(path, lineno, parts):
    if len(parts) != 3:
        raise FileFormatError(f"{path}:{lineno}: expected 'enroll_id test_id score'")
    return parts[2]


def _score_values(path, linenos, tokens) -> list[float]:
    """The scores of a block's score tokens; the first bad token raises, naming its line."""
    try:
        (scores,) = _number_rows(tokens).T  # one column, as a token holds no separator
        return scores.tolist()
    except ValueError:
        return [_score(path, lineno, token) for lineno, token in zip(linenos, tokens)]


def _score(path, lineno, token) -> float:
    try:
        return parse_float(token)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: non-numeric score '{token}'") from None


def read_trials(path) -> TrialList:
    return _read_pairs(path, TrialList, _trial_label)


def _write_table(path, table: TrialList | ScoreSet, suffix) -> None:
    """One 'enroll_id test_id<suffix(value)>' line per row."""
    _check_tokens(path, table.enroll_ids + table.test_ids)
    with atomic_write(path) as fh:
        fh.writelines(f"{e} {t}{suffix(v)}\n" for e, t, v in table._rows())


def write_trials(path, trials: TrialList) -> None:
    # label codes 0, 1, -1 are written as non, tgt and nothing
    _write_table(path, trials, (" non", " tgt", "").__getitem__)


def read_scores(path) -> ScoreSet:
    return _read_pairs(path, ScoreSet, _score_field, _score_values)


def write_scores(scores: ScoreSet, path) -> None:
    _write_table(path, scores, lambda v: f" {v!r}")


def read_id_map(path) -> dict[str, str]:
    """Read a two-column key/value file (speaker maps, routing metadata)."""
    out: dict[str, str] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'key value'")
        if parts[0] in out:
            raise FileFormatError(f"{path}:{lineno}: duplicate key '{parts[0]}'")
        out[parts[0]] = parts[1]
    return out


def write_id_map(path, mapping: dict[str, str]) -> None:
    _check_tokens(path, [*mapping.keys(), *mapping.values()])
    with atomic_write(path) as fh:
        for key, value in mapping.items():
            fh.write(f"{key} {value}\n")


def speaker_of(embedding_id: str) -> str:
    """Synthetic-data convention: speaker id is the part before the first '-'."""
    return embedding_id.split("-", 1)[0]


def speaker_codes(
    ids: Sequence[str], speaker_map: dict[str, str] | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Each row's speaker: the speaker ids in order of first appearance, and each row's code into them.

    Without an explicit map, the speaker is the id prefix before the first
    '-'. Real datasets should always pass a map; the prefix convention is
    for synthetic/test data only. Each distinct id is looked up once; an
    id missing from the map raises `UnknownIdError`, naming the first
    such id in row order.
    """
    unique, codes = _encode(ids)
    if speaker_map is None:
        speakers = [speaker_of(i) for i in unique]
    else:
        try:
            speakers = [speaker_map[i] for i in unique]
        except KeyError as exc:
            raise UnknownIdError(f"embedding id '{exc.args[0]}' missing from speaker map") from None
    speaker_ids, speaker_of_id = _encode(speakers)
    return speaker_ids, speaker_of_id[codes]
