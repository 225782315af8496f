"""Generative sampler for two-sided embedding datasets.

Implements the coupled latent-variable model directly: per speaker an
enrollment-side factor is drawn from a standard Gaussian, the test-side
factor is a linear map of it plus Gaussian noise, and every segment is
its side's mean plus loadings-times-factor plus residual noise. Datasets
are fully determined by the config seed (per-speaker substreams), so
every downstream check can rely on bit-identical regeneration.

Mismatch knobs mirror the two real-world axes this back-end targets:
residual inflation on the test side plays the role of shorter/noisier
test utterances, and a rotation of the test loadings plus a mean shift
plays the role of a language change. Optional per-segment noise jitter
makes test segments heterogeneous, which is what adaptive score
normalization exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import Embedding, SpeakerGroup, _check_tokens
from .exceptions import DimensionMismatchError, NumericalError, ParameterError
from .fourcov import FourCovModel
from .plda import PldaModel, gaussian_logpdf


@dataclass(frozen=True)
class GroundTruth:
    """Exact generative parameters for both sides and their coupling.

    Accepts exactly what its `as_fourcov()` model accepts (a residual covariance that is not
    positive definite raises `ParameterError`) and keeps that model's symmetrized covariances."""

    enroll_mean: np.ndarray
    enroll_loadings: np.ndarray
    enroll_noise_cov: np.ndarray
    test_mean: np.ndarray
    test_loadings: np.ndarray
    test_noise_cov: np.ndarray
    coupling: np.ndarray
    coupling_noise_cov: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, np.asarray(getattr(self, field.name), dtype=np.float64))
        try:
            model = self.as_fourcov()
        except NumericalError as exc:
            raise ParameterError(str(exc)) from None
        object.__setattr__(self, "enroll_noise_cov", model.enroll_plda.residual_cov)
        object.__setattr__(self, "test_noise_cov", model.test_plda.residual_cov)
        object.__setattr__(self, "coupling_noise_cov", model.coupling_noise_cov)

    @property
    def dim(self) -> int:
        return self.enroll_mean.size

    def as_fourcov(self) -> FourCovModel:
        """Package the true parameters as a scoring model (no fitting)."""
        return FourCovModel(
            PldaModel(self.enroll_mean, self.enroll_loadings, self.enroll_noise_cov),
            PldaModel(self.test_mean, self.test_loadings, self.test_noise_cov),
            self.coupling,
            self.coupling_noise_cov,
        )


# residual scale of the perturbed copies that `augment_copies` adds
AUGMENT_NOISE = 0.5


@dataclass(frozen=True)
class GenConfig:
    """Sampler configuration; explicit `truth` overrides the random draws.

    An explicit truth must have the config's `dim` and ranks, and a
    `test_rotation` needs equal ranks: a config that breaks either rule
    raises `ParameterError` when it is built. With an explicit truth the
    knobs that only shape the drawn truth (`snr`, `coupling_strength`,
    `test_noise_inflation`, `test_rotation` and `test_mean_shift`) are
    unused; every other value shapes the sample.
    """

    dim: int
    enroll_rank: int
    test_rank: int
    n_speakers: int
    enroll_segments: int
    test_segments: int
    seed: int
    snr: float = 1.0
    coupling_strength: float = 0.9
    test_noise_inflation: float = 1.0   # scales the test residual covariance
    test_rotation: float = 0.0          # radians of rotation applied to test loadings
    test_mean_shift: float = 0.0        # norm of the offset added to the test mean
    test_noise_jitter: float = 0.0      # lognormal sigma of per-segment residual scale
    augment_copies: int = 0             # extra perturbed copies per enrollment segment
    speaker_prefix: str = "s"
    truth: GroundTruth | None = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise ParameterError(f"{field.name} must be finite, got {value}")
        if self.dim < 1 or self.n_speakers < 1:
            raise ParameterError("dim and n_speakers must be positive")
        if not 1 <= self.enroll_rank <= self.dim or not 1 <= self.test_rank <= self.dim:
            raise ParameterError("ranks must be in [1, dim]")
        if self.enroll_segments < 1 or self.test_segments < 1:
            raise ParameterError("per-speaker segment counts must be positive")
        if not 0.0 <= self.coupling_strength <= 1.0:
            raise ParameterError("coupling_strength must be in [0, 1]")
        if self.snr <= 0.0 or self.test_noise_inflation <= 0.0:
            raise ParameterError("snr and test_noise_inflation must be positive")
        if self.test_noise_jitter < 0.0:
            raise ParameterError("test_noise_jitter must be non-negative")
        if self.augment_copies < 0:
            raise ParameterError("augment_copies must be >= 0")
        if self.test_rotation != 0.0 and self.test_rank != self.enroll_rank:
            # test loadings of another rank are drawn on their own: there is nothing to rotate
            raise ParameterError(
                f"test_rotation needs test_rank equal to enroll_rank ({self.enroll_rank}), got {self.test_rank}"
            )
        # an id's speaker ends at its first '-', and every id it starts is written as text
        if "-" in self.speaker_prefix:
            raise ParameterError(f"speaker_prefix {self.speaker_prefix!r} must not contain '-'")
        if self.speaker_prefix:
            _check_tokens("speaker_prefix", [self.speaker_prefix])
        if self.truth is not None:
            truth = self.truth
            r1, r2 = truth.enroll_loadings.shape[1], truth.test_loadings.shape[1]
            if truth.dim != self.dim:
                raise ParameterError(f"explicit truth dimension {truth.dim} does not match config dim {self.dim}")
            if (r1, r2) != (self.enroll_rank, self.test_rank):
                raise ParameterError(
                    f"explicit truth ranks ({r1}, {r2}) do not match config ranks ({self.enroll_rank}, {self.test_rank})"
                )


def _wishart_unit_cov(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Well-conditioned random covariance with unit mean eigenvalue."""
    draws = rng.standard_normal((dim, dim + 2))
    cov = draws @ draws.T / (dim + 2)
    return cov * (dim / np.trace(cov))

def _scaled_loadings(rng: np.random.Generator, dim: int, rank: int, target_trace: float) -> np.ndarray:
    loadings = rng.standard_normal((dim, rank))
    return loadings * np.sqrt(target_trace / np.trace(loadings @ loadings.T))


def _rotation(rng: np.random.Generator, dim: int, angle: float) -> np.ndarray:
    draws = rng.standard_normal((dim, dim))
    skew = (draws - draws.T) / 2.0
    norm = np.linalg.norm(skew, 2)
    # checked after the draw, so every later draw is the same at any angle;
    # in dimension 1 the only skew matrix is zero, and the only rotation the identity
    if angle == 0.0 or norm == 0.0:
        return np.eye(dim)
    # 1j * skew is Hermitian with real eigenvalues lam and unitary
    # eigenvectors V, so exp(angle * skew) = V diag(exp(-1j * angle * lam)) V^H
    lam, vecs = np.linalg.eigh(1j * (skew / norm))
    return ((vecs * np.exp(-1j * angle * lam)) @ vecs.conj().T).real


def make_ground_truth(config: GenConfig) -> GroundTruth:
    """Draw generative parameters from the config knobs (seeded)."""
    if config.truth is not None:
        return config.truth
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
    d, r1, r2 = config.dim, config.enroll_rank, config.test_rank

    enroll_noise = _wishart_unit_cov(rng, d)
    enroll_loadings = _scaled_loadings(rng, d, r1, config.snr * np.trace(enroll_noise))
    enroll_mean = rng.standard_normal(d)

    test_noise = config.test_noise_inflation * enroll_noise
    if r2 == r1:
        test_loadings = _rotation(rng, d, config.test_rotation) @ enroll_loadings
    else:
        test_loadings = _scaled_loadings(rng, d, r2, config.snr * np.trace(enroll_noise))
    shift = rng.standard_normal(d)
    test_mean = enroll_mean + config.test_mean_shift * shift / np.linalg.norm(shift)

    # Rectangular identity coupling keeps the test factor marginal N(0, I):
    # coupling @ couplingᵀ + noise = I exactly.
    coupling = config.coupling_strength * np.eye(r2, r1)
    coupling_noise = np.eye(r2) - coupling @ coupling.T
    return GroundTruth(
        enroll_mean, enroll_loadings, enroll_noise, test_mean, test_loadings, test_noise, coupling, coupling_noise
    )


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(cov)
    return evecs * np.sqrt(np.maximum(evals, 0.0))


def sample_dataset(config: GenConfig):
    """Draw a two-sided dataset: (enroll groups, test groups, ground truth).

    Speaker s gets ids '<prefix><s>-e<k>' on the enrollment side and
    '<prefix><s>-t<k>' on the test side, so the id prefix before the
    first '-' is the speaker. Each speaker has its own RNG substream,
    which makes the draw deterministic for a given config.
    """
    truth = make_ground_truth(config)
    r1, r2 = config.enroll_rank, config.test_rank
    enroll_noise_sqrt = _psd_sqrt(truth.enroll_noise_cov)
    test_noise_sqrt = _psd_sqrt(truth.test_noise_cov)
    coupling_noise_sqrt = _psd_sqrt(truth.coupling_noise_cov)

    seeds = np.random.SeedSequence(config.seed).spawn(2)[1].spawn(config.n_speakers)
    width = max(5, len(str(config.n_speakers)))
    enroll_groups: list[SpeakerGroup] = []
    test_groups: list[SpeakerGroup] = []
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        speaker = f"{config.speaker_prefix}{s:0{width}d}"
        factor1 = rng.standard_normal(r1)
        factor2 = truth.coupling @ factor1 + coupling_noise_sqrt @ rng.standard_normal(r2)

        enroll_noise = rng.standard_normal((config.enroll_segments, truth.dim))
        enroll_rows = (
            truth.enroll_mean
            + truth.enroll_loadings @ factor1
            + enroll_noise @ enroll_noise_sqrt.T
        )
        test_noise = rng.standard_normal((config.test_segments, truth.dim))
        if config.test_noise_jitter > 0.0:
            scales = np.exp(config.test_noise_jitter * rng.standard_normal(config.test_segments))
            test_noise = test_noise * scales[:, None]
        test_rows = (
            truth.test_mean + truth.test_loadings @ factor2 + test_noise @ test_noise_sqrt.T
        )

        members = [Embedding(f"{speaker}-e{k}", row) for k, row in enumerate(enroll_rows)]
        if config.augment_copies > 0:
            for k, row in enumerate(enroll_rows):
                perturb = rng.standard_normal((config.augment_copies, truth.dim))
                copies = row + AUGMENT_NOISE * perturb @ enroll_noise_sqrt.T
                members.extend(
                    Embedding(f"{speaker}-e{k}a{j}", crow) for j, crow in enumerate(copies)
                )
        enroll_groups.append(SpeakerGroup(speaker, tuple(members)))
        test_groups.append(
            SpeakerGroup(
                speaker,
                tuple(Embedding(f"{speaker}-t{k}", row) for k, row in enumerate(test_rows)),
            )
        )
    return enroll_groups, test_groups, truth


def _joint_covariances(truth: GroundTruth):
    """Same/independent stacked-pair covariances straight from the truth."""
    between1 = truth.enroll_loadings @ truth.enroll_loadings.T
    between2 = truth.test_loadings @ truth.test_loadings.T
    cross = truth.enroll_loadings @ truth.coupling.T @ truth.test_loadings.T
    test_factor_cov = truth.coupling @ truth.coupling.T + truth.coupling_noise_cov
    same = np.block(
        [
            [between1 + truth.enroll_noise_cov, cross],
            [
                cross.T,
                truth.test_loadings @ test_factor_cov @ truth.test_loadings.T
                + truth.test_noise_cov,
            ],
        ]
    )
    zeros = np.zeros_like(cross)
    indep = np.block(
        [
            [between1 + truth.enroll_noise_cov, zeros],
            [zeros.T, between2 + truth.test_noise_cov],
        ]
    )
    return same, indep


def true_llr(truth: GroundTruth, w1: np.ndarray, w2: np.ndarray) -> float:
    """Exact LLR under the generative model, via explicit joint densities.

    Independent of the kernel-based scorer on purpose: this is the oracle
    the fast path is checked against.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.shape != (truth.dim,) or w2.shape != (truth.dim,):
        raise DimensionMismatchError(
            f"expected two vectors of dimension {truth.dim}, got {w1.shape} and {w2.shape}"
        )
    same, indep = _joint_covariances(truth)
    stacked = np.concatenate([w1, w2])
    mean = np.concatenate([truth.enroll_mean, truth.test_mean])
    return gaussian_logpdf(stacked, mean, same) - gaussian_logpdf(stacked, mean, indep)
