"""Versioned on-disk bundles for trained models.

Each bundle is a single .npz holding a magic/version string and the
arrays its loader reads, nothing else: dimensions and ranks are the
arrays' shapes. A side bundle carries one PLDA model together with its
preprocessor; a two-sided bundle carries both sides plus the factor
coupling; a ground-truth file, which no loader reads, the eight
`GroundTruth` fields. Each kind's entry names are one layout that its
writer and reader share. Writes are atomic. A file that is not a
readable bundle of its kind, or whose arrays its model rejects, raises
`FileFormatError` naming the file.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import fields, is_dataclass

import numpy as np

from .data import atomic_write
from .exceptions import BackendError, FileFormatError
from .fourcov import FourCovModel
from .plda import PldaModel, Preprocessor
from .synth import GroundTruth

PREPROCESSOR_MAGIC = "asvbackend/preprocessor/1"
SIDE_MAGIC = "asvbackend/plda-side/1"
FOURCOV_MAGIC = "asvbackend/fourcov/1"
TRUTH_MAGIC = "asvbackend/ground-truth/1"

PREPROCESSOR_LAYOUT = ("mean", "whitener")
SIDE_LAYOUT = ("mean", "speaker_loadings", "residual_cov", "pre_mean", "pre_whitener")
FOURCOV_LAYOUT = (
    "enroll_mean", "enroll_loadings", "enroll_residual_cov", "test_mean", "test_loadings", "test_residual_cov",
    "coupling", "coupling_noise_cov", "pre_enroll_mean", "pre_enroll_whitener", "pre_test_mean", "pre_test_whitener",
)
TRUTH_LAYOUT = tuple(field.name for field in fields(GroundTruth))


def _arrays(*parts) -> list[np.ndarray]:
    """`parts` in layout order, each model or preprocessor replaced by its fields' arrays, depth first."""
    return [a for p in parts for a in (_arrays(*(getattr(p, f.name) for f in fields(p))) if is_dataclass(p) else [p])]


def _save_npz(path, magic: str, layout: tuple[str, ...], arrays) -> None:
    with atomic_write(path, "wb") as fh:
        np.savez(fh, magic=magic, **dict(zip(layout, arrays, strict=True)))


def _load_npz(path, magic: str, *names: str) -> list[np.ndarray]:
    """Entries `names` of a `magic` bundle as float64; a bad file, kind or non-real entry is a `FileFormatError`.
    The file is opened here because `np.load` leaves a file it opened open when it is no zip archive."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as bundle:
            stored = str(bundle["magic"]) if "magic" in bundle else "<missing>"
            if stored != magic:
                raise FileFormatError(f"{path}: expected bundle '{magic}', found '{stored}'")
            for name in names:
                if name not in bundle:
                    raise FileFormatError(f"{path}: bundle is missing entry '{name}'")
            return [np.asarray(bundle[name]).astype(np.float64, casting="same_kind", copy=False) for name in names]
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
        raise FileFormatError(f"{path}: not a readable model bundle ({exc})") from None


def _load(path, magic: str, layout: tuple[str, ...], build):
    """`build(*entries)` of a bundle's layout; an error from the model it builds names the file."""
    entries = _load_npz(path, magic, *layout)
    try:
        return build(*entries)
    except BackendError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_preprocessor(path, pre: Preprocessor) -> None:
    _save_npz(path, PREPROCESSOR_MAGIC, PREPROCESSOR_LAYOUT, _arrays(pre))


def load_preprocessor(path) -> Preprocessor:
    return _load(path, PREPROCESSOR_MAGIC, PREPROCESSOR_LAYOUT, Preprocessor)


def save_plda_side(path, model: PldaModel, pre: Preprocessor) -> None:
    _save_npz(path, SIDE_MAGIC, SIDE_LAYOUT, _arrays(model, pre))


def load_plda_side(path) -> tuple[PldaModel, Preprocessor]:
    return _load(path, SIDE_MAGIC, SIDE_LAYOUT, lambda *e: (PldaModel(*e[:3]), Preprocessor(*e[3:])))


def save_fourcov(path, model: FourCovModel, pre_enroll: Preprocessor, pre_test: Preprocessor) -> None:
    _save_npz(path, FOURCOV_MAGIC, FOURCOV_LAYOUT, _arrays(model, pre_enroll, pre_test))


def load_fourcov(path) -> tuple[FourCovModel, Preprocessor, Preprocessor]:
    return _load(path, FOURCOV_MAGIC, FOURCOV_LAYOUT, lambda *e: (
        FourCovModel(PldaModel(*e[0:3]), PldaModel(*e[3:6]), *e[6:8]), Preprocessor(*e[8:10]), Preprocessor(*e[10:])
    ))


def save_ground_truth(path, truth: GroundTruth) -> None:
    _save_npz(path, TRUTH_MAGIC, TRUTH_LAYOUT, _arrays(truth))
