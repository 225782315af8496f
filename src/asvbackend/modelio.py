"""Versioned on-disk bundles for trained models.

Each bundle is a single .npz holding a magic/version string and the
arrays its loader reads, nothing else: dimensions and ranks are the
arrays' shapes. A side bundle carries one PLDA model together with the
preprocessor it was trained in, the one home of a preprocessor
(`train-plda --pre` trains in a side bundle's space), and the speaker
statistics the model was trained on with the key that produced them
(`SIDE_KEY`), the one source of a side's statistics in `fit-fourcov`;
a two-sided bundle carries both sides plus the factor coupling;
a ground-truth file, which no loader reads, the eight `GroundTruth`
fields. Each kind's entry names are one layout that its writer and
reader share; text entries (`TEXT_ENTRIES`) are strings and the others
real arrays. Writes are atomic. A file that is not a readable bundle of
its kind, or whose arrays its model rejects, raises `FileFormatError`
naming the file, and a warning its model gives names the file too. A
bundle's preprocessors and stored statistics have its model's
dimension: a writer refuses other parts with `DimensionMismatchError`,
and a reader rejects such a file.
"""

from __future__ import annotations

import warnings
import zipfile
import zlib
from dataclasses import fields, is_dataclass

import numpy as np

from .data import atomic_write, open_input
from .exceptions import BackendError, DimensionMismatchError, FileFormatError, ParameterError
from .fourcov import FourCovModel
from .plda import PldaModel, Preprocessor, SpeakerStats
from .synth import GroundTruth

SIDE_MAGIC = "asvbackend/plda-side/2"
FOURCOV_MAGIC = "asvbackend/fourcov/1"
TRUTH_MAGIC = "asvbackend/ground-truth/1"
# the side bundle version before side bundles stored their training statistics
SIDE_MAGIC_1 = "asvbackend/plda-side/1"

SIDE_LAYOUT = (
    "mean", "speaker_loadings", "residual_cov", "pre_mean", "pre_whitener",
    "speaker_ids", "speaker_counts", "speaker_sums", "train_digest", "map_digest", "aggregate",
)
FOURCOV_LAYOUT = (
    "enroll_mean", "enroll_loadings", "enroll_residual_cov", "test_mean", "test_loadings", "test_residual_cov",
    "coupling", "coupling_noise_cov", "pre_enroll_mean", "pre_enroll_whitener", "pre_test_mean", "pre_test_whitener",
)
TRUTH_LAYOUT = tuple(field.name for field in fields(GroundTruth))
TEXT_ENTRIES = frozenset({"speaker_ids", "train_digest", "map_digest"})
# the key of a side's statistics: the SHA-256 of its training vector file and of its speaker map
# ("" for none), and its `--aggregate`; a bundle that stores no statistics has the empty key
SIDE_KEY = tuple[str, str, int]
NO_KEY: SIDE_KEY = ("", "", 0)


def _arrays(*parts) -> list[np.ndarray]:
    """`parts` in layout order, each model or preprocessor replaced by its fields' arrays, depth first."""
    return [a for p in parts for a in (_arrays(*(getattr(p, f.name) for f in fields(p))) if is_dataclass(p) else [p])]


def _save_npz(path, magic: str, layout: tuple[str, ...], arrays) -> None:
    with atomic_write(path, "wb") as fh:
        np.savez(fh, magic=magic, **dict(zip(layout, arrays, strict=True)))


def _load_npz(path, magic: str, *names: str) -> list[np.ndarray]:
    """Entries `names` of a `magic` bundle, text entries as strings and the others as float64; a bad file,
    kind or entry is a `FileFormatError`. The file is opened here because `np.load` leaves a file it
    opened open when it is no zip archive."""
    try:
        with open_input(path) as fh, np.load(fh, allow_pickle=False) as bundle:
            stored = str(bundle["magic"]) if "magic" in bundle else "<missing>"
            if stored != magic:
                retrain = " (a side bundle without training statistics: retrain it with train-plda)"
                raise FileFormatError(f"{path}: expected bundle '{magic}', found '{stored}'"
                                      + retrain * (stored == SIDE_MAGIC_1))
            for name in names:
                if name not in bundle:
                    raise FileFormatError(f"{path}: bundle is missing entry '{name}'")
            entries = []
            for name in names:
                entry = np.asarray(bundle[name])
                if name not in TEXT_ENTRIES:
                    entry = entry.astype(np.float64, casting="same_kind", copy=False)
                elif entry.dtype.kind != "U":
                    raise FileFormatError(f"{path}: entry '{name}' is not text")
                entries.append(entry)
            return entries
    except FileNotFoundError:  # a missing bundle is a missing file, not an unreadable one
        raise
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
        raise FileFormatError(f"{path}: not a readable model bundle ({exc})") from None


def _load(path, magic: str, layout: tuple[str, ...], build):
    """`build(*entries)` of a bundle's layout; an error or a warning from the model it builds names the file."""
    entries = _load_npz(path, magic, *layout)
    try:
        with warnings.catch_warnings(record=True) as caught:
            built = build(*entries)
    except BackendError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    for warning in caught:
        warnings.warn(f"{path}: {warning.message}", warning.category, stacklevel=3)
    return built


def _matched(model, *pres) -> tuple:
    """`(model, *pres)`: the one cross-part rule of a bundle, that each preprocessor has its model's dimension."""
    for pre in pres:
        if pre.dim != model.dim:
            raise DimensionMismatchError(f"preprocessor dimension {pre.dim} does not match model dimension {model.dim}")
    return model, *pres


def _whole(values, low: int) -> np.ndarray:
    """Which of `values` are integers in [low, 2**63), the range of an int64 count."""
    values = np.asarray(values, dtype=np.float64)
    return np.isfinite(values) & (values >= low) & (values < 2.0**63) & (values == np.floor(values))


def _training(dim: int, speaker_ids, counts, sums, digest, map_digest, aggregate) -> tuple[SpeakerStats, SIDE_KEY]:
    """A side's stored statistics and their key, checked: the rules they keep on write and on read."""
    counts, sums = np.asarray(counts), np.asarray(sums, dtype=np.float64)
    seen = set()
    for speaker in speaker_ids:
        if speaker in seen:
            raise ParameterError(f"training statistics name speaker '{speaker}' twice")
        seen.add(speaker)
    if counts.shape != (len(speaker_ids),) or sums.ndim != 2 or len(sums) != len(speaker_ids):
        raise ParameterError(f"training statistics hold {len(speaker_ids)} speaker ids, counts of shape "
                             f"{counts.shape} and sums of shape {sums.shape}")
    if sums.shape[1] != dim:
        raise DimensionMismatchError(f"training statistics have dimension {sums.shape[1]}, the model has {dim}")
    for bad, problem in ((~_whole(counts, 1), "a vector count that is not a positive integer"),
                         (~np.isfinite(sums).all(axis=1), "a non-finite vector sum")):
        if bad.any():
            raise ParameterError(f"speaker '{speaker_ids[np.flatnonzero(bad)[0]]}' has {problem}")
    if np.ndim(digest) or np.ndim(map_digest):
        raise ParameterError("a training file digest must be one string")
    if np.ndim(aggregate) or not _whole(aggregate, 0):
        raise ParameterError(f"aggregate must be a non-negative integer, got {aggregate}")
    key = (str(digest), str(map_digest), int(aggregate))
    return SpeakerStats(tuple(speaker_ids), counts.astype(np.int64), sums), key


def save_plda_side(path, model: PldaModel, pre: Preprocessor, stats: SpeakerStats | None = None,
                   key: SIDE_KEY = NO_KEY) -> None:
    """Write a side bundle; `stats`, if given, are the statistics `model` was trained on and `key` what gave them."""
    model, pre = _matched(model, pre)
    if stats is None:
        stats = SpeakerStats((), np.zeros(0, dtype=np.int64), np.zeros((0, model.dim)))
    stats, key = _training(model.dim, stats.speaker_ids, stats.counts, stats.sums, *key)
    ids = np.array(stats.speaker_ids, dtype=str)
    for speaker, kept in zip(stats.speaker_ids, ids.tolist()):
        if speaker != kept:  # a text array drops trailing NULs
            raise ParameterError(f"{path}: speaker id {speaker!r} ends in a NUL character, which no bundle holds")
    _save_npz(path, SIDE_MAGIC, SIDE_LAYOUT, [*_arrays(model, pre), ids, stats.counts, stats.sums, *key])


def load_plda_side(path) -> tuple[PldaModel, Preprocessor, SpeakerStats, SIDE_KEY]:
    """A side bundle's model, preprocessor, training statistics and their key (`NO_KEY` if it stores none)."""
    def build(*e):
        model, pre = _matched(PldaModel(*e[:3]), Preprocessor(*e[3:5]))
        if e[5].ndim != 1:
            raise ParameterError(f"speaker ids must be a list, got an array of shape {e[5].shape}")
        return model, pre, *_training(model.dim, e[5].tolist(), *e[6:])

    return _load(path, SIDE_MAGIC, SIDE_LAYOUT, build)


def save_fourcov(path, model: FourCovModel, pre_enroll: Preprocessor, pre_test: Preprocessor) -> None:
    _save_npz(path, FOURCOV_MAGIC, FOURCOV_LAYOUT, _arrays(*_matched(model, pre_enroll, pre_test)))


def load_fourcov(path) -> tuple[FourCovModel, Preprocessor, Preprocessor]:
    return _load(path, FOURCOV_MAGIC, FOURCOV_LAYOUT, lambda *e: _matched(
        FourCovModel(PldaModel(*e[0:3]), PldaModel(*e[3:6]), *e[6:8]), Preprocessor(*e[8:10]), Preprocessor(*e[10:])
    ))


def save_ground_truth(path, truth: GroundTruth) -> None:
    _save_npz(path, TRUTH_MAGIC, TRUTH_LAYOUT, _arrays(truth))
