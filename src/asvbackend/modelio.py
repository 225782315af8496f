"""Versioned on-disk bundles for trained models.

Each bundle is a single .npz holding a magic/version string and the
arrays its loader reads, nothing else: dimensions and ranks are the
arrays' shapes. A side bundle carries one PLDA model together with its
preprocessor; a two-sided bundle carries both sides plus the factor
coupling; a ground-truth file, which no loader reads, the eight
`GroundTruth` fields. Writes are atomic.
"""

from __future__ import annotations

import numpy as np

from .data import atomic_write
from .exceptions import FileFormatError
from .fourcov import FourCovModel
from .plda import PldaModel, Preprocessor
from .synth import GroundTruth

PREPROCESSOR_MAGIC = "asvbackend/preprocessor/1"
SIDE_MAGIC = "asvbackend/plda-side/1"
FOURCOV_MAGIC = "asvbackend/fourcov/1"
TRUTH_MAGIC = "asvbackend/ground-truth/1"


def _save_npz(path, **arrays) -> None:
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def _load_npz(path, magic: str, *names: str) -> list[np.ndarray]:
    """Entries `names` of a `magic` bundle; a bad file, kind or entry is a `FileFormatError`."""
    try:
        bundle = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"{path}: not a readable model bundle ({exc})") from None
    stored = str(bundle["magic"]) if "magic" in bundle else "<missing>"
    if stored != magic:
        raise FileFormatError(f"{path}: expected bundle '{magic}', found '{stored}'")
    for name in names:
        if name not in bundle:
            raise FileFormatError(f"{path}: bundle is missing entry '{name}'")
    return [bundle[name] for name in names]


def save_preprocessor(path, pre: Preprocessor) -> None:
    _save_npz(path, magic=PREPROCESSOR_MAGIC, mean=pre.mean, whitener=pre.whitener)


def load_preprocessor(path) -> Preprocessor:
    return Preprocessor(*_load_npz(path, PREPROCESSOR_MAGIC, "mean", "whitener"))


def save_plda_side(path, model: PldaModel, pre: Preprocessor) -> None:
    _save_npz(
        path,
        magic=SIDE_MAGIC,
        mean=model.mean,
        speaker_loadings=model.speaker_loadings,
        residual_cov=model.residual_cov,
        pre_mean=pre.mean,
        pre_whitener=pre.whitener,
    )


def load_plda_side(path) -> tuple[PldaModel, Preprocessor]:
    mean, loadings, residual, pre_mean, pre_whitener = _load_npz(
        path, SIDE_MAGIC, "mean", "speaker_loadings", "residual_cov", "pre_mean", "pre_whitener"
    )
    return PldaModel(mean, loadings, residual), Preprocessor(pre_mean, pre_whitener)


def save_fourcov(path, model: FourCovModel, pre_enroll: Preprocessor, pre_test: Preprocessor) -> None:
    _save_npz(
        path,
        magic=FOURCOV_MAGIC,
        enroll_mean=model.enroll_plda.mean,
        enroll_loadings=model.enroll_plda.speaker_loadings,
        enroll_residual_cov=model.enroll_plda.residual_cov,
        test_mean=model.test_plda.mean,
        test_loadings=model.test_plda.speaker_loadings,
        test_residual_cov=model.test_plda.residual_cov,
        coupling=model.coupling,
        coupling_noise_cov=model.coupling_noise_cov,
        pre_enroll_mean=pre_enroll.mean,
        pre_enroll_whitener=pre_enroll.whitener,
        pre_test_mean=pre_test.mean,
        pre_test_whitener=pre_test.whitener,
    )


def load_fourcov(path) -> tuple[FourCovModel, Preprocessor, Preprocessor]:
    entries = _load_npz(
        path, FOURCOV_MAGIC,
        "enroll_mean", "enroll_loadings", "enroll_residual_cov",
        "test_mean", "test_loadings", "test_residual_cov",
        "coupling", "coupling_noise_cov",
        "pre_enroll_mean", "pre_enroll_whitener", "pre_test_mean", "pre_test_whitener",
    )
    model = FourCovModel(PldaModel(*entries[0:3]), PldaModel(*entries[3:6]), *entries[6:8])
    return model, Preprocessor(*entries[8:10]), Preprocessor(*entries[10:12])


def save_ground_truth(path, truth: GroundTruth) -> None:
    _save_npz(
        path,
        magic=TRUTH_MAGIC,
        enroll_mean=truth.enroll_mean,
        enroll_loadings=truth.enroll_loadings,
        enroll_noise_cov=truth.enroll_noise_cov,
        test_mean=truth.test_mean,
        test_loadings=truth.test_loadings,
        test_noise_cov=truth.test_noise_cov,
        coupling=truth.coupling,
        coupling_noise_cov=truth.coupling_noise_cov,
    )
