"""Speaker-verification back-end over fixed-dimension embeddings.

Two side-specific Gaussian PLDA models coupled through their speaker
factors score asymmetric enrollment/test trials as exact LLRs; adaptive
symmetric score normalization, trial-dependent model routing, affine
calibration and EER/minDCF evaluation complete the pipeline. A seeded
generative sampler provides ground truth for end-to-end verification.
"""

from .calibration import CalibrationModel, apply_calibration, fit_calibration
from .data import (
    Embedding,
    EmbeddingTable,
    ScoredTrial,
    ScoreSet,
    SpeakerGroup,
    Trial,
    TrialList,
    read_embeddings,
    read_scores,
    read_trials,
    write_embeddings,
    write_scores,
    write_trials,
)
from .fourcov import (
    FourCovModel,
    ScoringKernel,
    build_kernel,
    coupling_from_factors,
    fit_coupling,
    score_batch,
    score_trial,
)
from .metrics import DcfParams, compute_eer, compute_min_dcf, det_points
from .plda import (
    PldaModel,
    Preprocessor,
    chunked_enroll_averages,
    enroll_average,
    fit_preprocessor,
    interpolate_plda,
    length_normalize,
    plda_llr,
    to_model_space,
    train_plda,
)
from .routing import CONDITIONS, RoutingConfig, classify_trials, route_and_score
from .scorenorm import CohortSet, snorm_batch
from .synth import GenConfig, GroundTruth, make_ground_truth, sample_dataset, true_llr

__version__ = "0.1.0"

__all__ = [
    "CONDITIONS",
    "CalibrationModel",
    "CohortSet",
    "DcfParams",
    "Embedding",
    "EmbeddingTable",
    "FourCovModel",
    "GenConfig",
    "GroundTruth",
    "PldaModel",
    "Preprocessor",
    "RoutingConfig",
    "ScoreSet",
    "ScoredTrial",
    "ScoringKernel",
    "SpeakerGroup",
    "Trial",
    "TrialList",
    "apply_calibration",
    "build_kernel",
    "chunked_enroll_averages",
    "classify_trials",
    "compute_eer",
    "compute_min_dcf",
    "coupling_from_factors",
    "det_points",
    "enroll_average",
    "fit_calibration",
    "fit_coupling",
    "fit_preprocessor",
    "interpolate_plda",
    "length_normalize",
    "make_ground_truth",
    "plda_llr",
    "read_embeddings",
    "read_scores",
    "read_trials",
    "route_and_score",
    "sample_dataset",
    "score_batch",
    "score_trial",
    "snorm_batch",
    "to_model_space",
    "train_plda",
    "true_llr",
    "write_embeddings",
    "write_scores",
    "write_trials",
]
