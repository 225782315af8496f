import numpy as np
import pytest

from asvbackend import synth
from asvbackend.data import Embedding, SpeakerGroup, Trial, TrialList
from asvbackend.plda import PldaModel


@pytest.fixture
def rng():
    return np.random.default_rng(20240616)


def random_plda(rng, dim, rank, noise_scale=1.0):
    """A well-conditioned random PLDA model for kernel/scoring tests."""
    draws = rng.standard_normal((dim, dim + 2))
    noise = noise_scale * draws @ draws.T / (dim + 2)
    loadings = rng.standard_normal((dim, rank))
    return PldaModel(rng.standard_normal(dim), loadings, noise)


def random_truth(rng, dim, rank_enroll, rank_test):
    """Random coupled ground truth with PSD coupling noise."""
    cfg = synth.GenConfig(
        dim=dim,
        enroll_rank=rank_enroll,
        test_rank=rank_test,
        n_speakers=1,
        enroll_segments=1,
        test_segments=1,
        seed=int(rng.integers(2**31)),
        snr=2.0,
        coupling_strength=0.8,
        test_noise_inflation=2.0,
        test_rotation=0.5 if rank_enroll == rank_test else 0.0,  # another rank has nothing to rotate
        test_mean_shift=0.7,
    )
    return synth.make_ground_truth(cfg)


def make_group(speaker, rows):
    return SpeakerGroup(
        speaker, tuple(Embedding(f"{speaker}-u{i}", row) for i, row in enumerate(rows))
    )


def trial_list(pairs):
    return TrialList(tuple(Trial(e, t, lab) for e, t, lab in pairs))
