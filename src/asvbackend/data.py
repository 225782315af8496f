"""Data model and file I/O for embeddings, trials and scores.

Text formats are whitespace-separated UTF-8 with LF line endings; lines
starting with ``#`` are comments and blank lines are skipped:

    embeddings   id  v1 v2 ... vd
    trials       enroll_id  test_id  [tgt|non]
    scores       enroll_id  test_id  score
    id maps      key  value            (speaker maps, routing metadata)

For large cohorts a binary embedding format is available: an 8-byte magic
string, the dimension as a little-endian u32, then one record per vector
(u32 id byte length, UTF-8 id bytes, d little-endian float32 values).
``read_embeddings`` sniffs the magic and handles both formats.

All writers are atomic (temp file in the target directory, then rename).
Score values are written with ``repr`` so text round-trips are exact for
float64. The binary format stores float32, so its round-trip is bit-exact
for vectors that are float32-representable.
"""

from __future__ import annotations

import os
import struct
import tempfile
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


@contextmanager
def atomic_write(path, mode="w"):
    """Open a temp file next to `path`, rename over it on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, mode, newline="\n" if "b" not in mode else None) as fh:
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
    """A fixed-dimension embedding with an identity label."""

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


@dataclass(frozen=True)
class SpeakerGroup:
    """All embeddings belonging to one speaker (or one enrollment sample)."""

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

    @property
    def dim(self) -> int:
        return self.members[0].dim

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


def _check_tokens(path, tokens: Iterable[str]) -> None:
    """Reject ids a text reader would not read back as written.

    Readers split lines on whitespace and skip lines starting with '#',
    so an id must be one non-empty whitespace-free token not starting
    with '#'.
    """
    for token in tokens:
        if token.startswith("#") or token.split() != [token]:
            raise ParameterError(
                f"{path}: id {token!r} cannot be written as text "
                "(empty, contains whitespace or starts with '#')"
            )


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def read_embeddings(path) -> list[Embedding]:
    """Read an embedding file (text or binary, detected by magic bytes)."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        return _read_embeddings_binary(path)

    out: list[Embedding] = []
    dim = None
    first_line = None
    for lineno, parts in _data_lines(path):
        if len(parts) < 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'id v1 ... vd', got {len(parts)} fields")
        try:
            values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric vector component") from None
        if dim is None:
            dim, first_line = values.size, lineno
        elif values.size != dim:
            raise DimensionMismatchError(
                f"{path}:{lineno}: dimension {values.size} does not match "
                f"dimension {dim} established at line {first_line}"
            )
        try:
            out.append(Embedding(parts[0], values))
        except DomainError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return out


def write_embeddings(path, embeddings: Sequence[Embedding], binary: bool = False) -> None:
    if binary:
        _write_embeddings_binary(path, embeddings)
        return
    _check_tokens(path, {emb.id for emb in embeddings})
    with atomic_write(path) as fh:
        for emb in embeddings:
            fh.write(emb.id + "  " + " ".join(repr(float(v)) for v in emb.vector) + "\n")


def _read_embeddings_binary(path) -> list[Embedding]:
    out: list[Embedding] = []
    with open(path, "rb") as fh:
        magic = fh.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise FileFormatError(f"{path}: bad magic bytes for binary embedding file")
        header = fh.read(4)
        if len(header) != 4:
            raise FileFormatError(f"{path}: truncated header")
        (dim,) = struct.unpack("<I", header)
        record = 0
        while True:
            lenbytes = fh.read(4)
            if not lenbytes:
                break
            record += 1
            if len(lenbytes) != 4:
                raise FileFormatError(f"{path}: truncated record {record}")
            if dim == 0:
                raise FileFormatError(f"{path}: record {record} under a header of dimension 0")
            (id_len,) = struct.unpack("<I", lenbytes)
            id_bytes = fh.read(id_len)
            vec_bytes = fh.read(4 * dim)
            if len(id_bytes) != id_len or len(vec_bytes) != 4 * dim:
                raise FileFormatError(f"{path}: truncated record {record}")
            vector = np.frombuffer(vec_bytes, dtype="<f4").astype(np.float64)
            try:
                out.append(Embedding(id_bytes.decode("utf-8"), vector))
            except DomainError as exc:
                raise FileFormatError(f"{path}: record {record}: {exc}") from None
    return out


def _write_embeddings_binary(path, embeddings: Sequence[Embedding]) -> None:
    embeddings = list(embeddings)
    dim = embeddings[0].dim if embeddings else 0
    records = []
    for emb in embeddings:
        if emb.dim != dim:
            raise DimensionMismatchError(
                f"embedding '{emb.id}' has dimension {emb.dim}, file has {dim}"
            )
        with np.errstate(over="ignore"):
            values = emb.vector.astype("<f4")
        if not np.all(np.isfinite(values)):
            raise ParameterError(
                f"{path}: embedding '{emb.id}' has a value beyond the float32 range"
            )
        id_bytes = emb.id.encode("utf-8")
        records.append(struct.pack("<I", len(id_bytes)) + id_bytes + values.tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", dim))
        fh.writelines(records)


_LABELS = {"tgt": True, "non": False}


def read_trials(path) -> TrialList:
    rows = list(_data_lines(path))
    labels = []
    for lineno, parts in rows:
        if len(parts) not in (2, 3):
            raise FileFormatError(f"{path}:{lineno}: expected 'enroll_id test_id [tgt|non]'")
        if len(parts) == 3 and parts[2] not in _LABELS:
            raise FileFormatError(f"{path}:{lineno}: unknown label '{parts[2]}' (want tgt or non)")
        labels.append(_LABELS[parts[2]] if len(parts) == 3 else None)
    try:
        return TrialList.from_columns([p[0] for _, p in rows], [p[1] for _, p in rows], labels)
    except ParameterError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _write_table(path, table: TrialList | ScoreSet, suffix) -> None:
    """One 'enroll_id test_id<suffix(value)>' line per row."""
    _check_tokens(path, table.enroll_ids + table.test_ids)
    with atomic_write(path) as fh:
        fh.writelines(f"{e} {t}{suffix(v)}\n" for e, t, v in table._rows())


def write_trials(path, trials: TrialList) -> None:
    # label codes 0, 1, -1 are written as non, tgt and nothing
    _write_table(path, trials, (" non", " tgt", "").__getitem__)


def read_scores(path) -> ScoreSet:
    rows = list(_data_lines(path))
    values = []
    for lineno, parts in rows:
        if len(parts) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 'enroll_id test_id score'")
        try:
            values.append(float(parts[2]))
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric score '{parts[2]}'") from None
    try:
        return ScoreSet.from_columns([p[0] for _, p in rows], [p[1] for _, p in rows], values)
    except (ParameterError, DomainError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def write_scores(scores: ScoreSet, path) -> None:
    _write_table(path, scores, lambda v: f" {v!r}")


def read_id_map(path) -> dict[str, str]:
    """Read a two-column key/value file (speaker maps, routing metadata)."""
    out: dict[str, str] = {}
    for lineno, parts in _data_lines(path):
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


def group_by_speaker(
    embeddings: Sequence[Embedding], speaker_map: dict[str, str] | None = None
) -> list[SpeakerGroup]:
    """Partition embeddings into speaker groups, preserving input order.

    Without an explicit map, the speaker is the id prefix before the first
    '-'. Real datasets should always pass a map; the prefix convention is
    for synthetic/test data only.
    """
    ordered: dict[str, list[Embedding]] = {}
    for emb in embeddings:
        if speaker_map is not None:
            try:
                spk = speaker_map[emb.id]
            except KeyError:
                raise UnknownIdError(f"embedding id '{emb.id}' missing from speaker map") from None
        else:
            spk = speaker_of(emb.id)
        ordered.setdefault(spk, []).append(emb)
    return [SpeakerGroup(spk, tuple(members)) for spk, members in ordered.items()]


def group_by_id(embeddings: Sequence[Embedding]) -> list[SpeakerGroup]:
    """Group rows sharing an id (multi-segment enrollment samples)."""
    ordered: dict[str, list[Embedding]] = {}
    for emb in embeddings:
        ordered.setdefault(emb.id, []).append(emb)
    return [SpeakerGroup(eid, tuple(members)) for eid, members in ordered.items()]


def stack_embeddings(embeddings: Sequence[Embedding]) -> np.ndarray:
    if not embeddings:
        raise ParameterError("no embeddings to stack")
    dims = {e.dim for e in embeddings}
    if len(dims) != 1:
        raise DimensionMismatchError(f"embeddings mix dimensions {sorted(dims)}")
    return np.stack([e.vector for e in embeddings])
