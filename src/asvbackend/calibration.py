"""Affine score calibration fitted on labeled development trials.

Linear logistic regression: find scale a and offset b so that
sigmoid(a*s + b) predicts the trial label under a prior-weighted
cross-entropy (effective target prior 0.5), with a small L2 penalty on
the scale. The objective is convex; a damped Newton iteration solves it
to tight gradient tolerance. Applying the model is s -> a*s + b, which
preserves score order (and hence EER and min-over-threshold DCF)
whenever a > 0.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import ScoreSet, TrialList, _check_tokens, atomic_write, parse_float, read_id_map, score_rows
from .exceptions import CalibrationFitError, FileFormatError, NumericalError, ParameterError

SCALE_PENALTY = 1e-4
GRADIENT_TOL = 1e-8
MAX_NEWTON_ITERS = 200
MIN_TRIALS_PER_CLASS = 10


@dataclass(frozen=True)
class CalibrationModel:
    """Affine score map; scale must be positive for deployment use.

    A non-positive scale would reverse score order, so deployment paths
    (a routing `ConditionPipeline`) reject it; construction only warns, because a
    fit on uninformative development trials legitimately lands near zero.
    """

    scale: float
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset", float(self.offset))
        if not self.scale > 0.0:
            warnings.warn(
                f"calibration scale {self.scale:.3g} is not positive; "
                "applying it will not preserve score order",
                RuntimeWarning,
                stacklevel=2,
            )

    def transform(self, values: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(values, dtype=np.float64) + self.offset


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-u)), without overflow for any finite u."""
    return np.exp(-np.logaddexp(0.0, -u))


def _objective_terms(theta: np.ndarray, tar: np.ndarray, non: np.ndarray):
    """Value, gradient and Hessian of the regularized weighted cross-entropy."""
    a, b = theta
    u_tar = a * tar + b
    u_non = a * non + b
    # softplus(-u) for targets, softplus(u) for nontargets, numerically stable
    value = 0.5 * np.mean(np.logaddexp(0.0, -u_tar)) + 0.5 * np.mean(
        np.logaddexp(0.0, u_non)
    )
    value += 0.5 * SCALE_PENALTY * a * a

    sig_tar = _sigmoid(u_tar)
    sig_non = _sigmoid(u_non)
    g_tar = sig_tar - 1.0
    grad_a = 0.5 * np.mean(g_tar * tar) + 0.5 * np.mean(sig_non * non) + SCALE_PENALTY * a
    grad_b = 0.5 * np.mean(g_tar) + 0.5 * np.mean(sig_non)

    h_tar = sig_tar * (1.0 - sig_tar)
    h_non = sig_non * (1.0 - sig_non)
    h_aa = 0.5 * np.mean(h_tar * tar * tar) + 0.5 * np.mean(h_non * non * non) + SCALE_PENALTY
    h_ab = 0.5 * np.mean(h_tar * tar) + 0.5 * np.mean(h_non * non)
    h_bb = 0.5 * np.mean(h_tar) + 0.5 * np.mean(h_non)
    grad = np.array([grad_a, grad_b])
    hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
    return float(value), grad, hess


# a value beyond the float64 range is a non-finite objective, which the fit refuses, not a warning
@np.errstate(over="ignore", invalid="ignore")
def fit_calibration(
    scores: ScoreSet,
    trials: TrialList,
    callback: Callable[[int, float], None] | None = None,
) -> CalibrationModel:
    """Fit the affine calibration on labeled development trials.

    `callback(iteration, objective)` sees the objective after each Newton
    update; the sequence decreases monotonically. Every labeled trial
    needs a score; the target and nontarget scores are taken in trial order.
    An objective beyond the float64 range (a score above about 1e154
    overflows its square) raises `NumericalError`, as a fit that does not
    converge does.
    """
    rows, values = score_rows(trials, scores), scores.values()
    tar, non = values[rows[trials.labels == 1]], values[rows[trials.labels == 0]]
    if tar.size == 0 or non.size == 0:
        raise CalibrationFitError(
            f"calibration needs both classes, got {tar.size} targets / {non.size} nontargets"
        )
    if tar.size < MIN_TRIALS_PER_CLASS or non.size < MIN_TRIALS_PER_CLASS:
        raise CalibrationFitError(
            f"calibration needs at least {MIN_TRIALS_PER_CLASS} trials per class, "
            f"got {tar.size} targets / {non.size} nontargets"
        )

    theta = np.array([1.0, 0.0])
    value, grad, hess = _objective_terms(theta, tar, non)
    for iteration in range(MAX_NEWTON_ITERS):
        if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise NumericalError("calibration objective is beyond the float64 range: a score is too large")
        if np.linalg.norm(grad) <= GRADIENT_TOL:
            break
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess + 1e-12 * np.eye(2), -grad)
        # backtracking line search keeps the update a strict descent step
        t = 1.0
        descent = float(grad @ step)
        for _ in range(60):
            candidate = theta + t * step
            cand_value, cand_grad, cand_hess = _objective_terms(candidate, tar, non)
            if cand_value <= value + 1e-4 * t * descent:
                break
            t *= 0.5
        theta, value, grad, hess = candidate, cand_value, cand_grad, cand_hess
        if callback is not None:
            callback(iteration, value)
    else:
        raise NumericalError(
            f"calibration did not converge after {MAX_NEWTON_ITERS} Newton iterations "
            f"(gradient norm {np.linalg.norm(grad):.3e}, objective {value:.6e})"
        )
    return CalibrationModel(float(theta[0]), float(theta[1]))


@np.errstate(over="ignore", invalid="ignore")
def apply_calibration(model: CalibrationModel, scores: ScoreSet) -> ScoreSet:
    """Map every score through the affine calibration, preserving order.

    A calibrated score beyond the float64 range raises `DomainError`, as
    the score table refuses it, without a numpy warning.
    """
    return scores.with_scores(model.transform(scores.values()))


def write_calibration(path, model: CalibrationModel, condition: str | None = None) -> None:
    """Two-number text file: scale, offset, plus an optional condition tag; both numbers finite."""
    if not (math.isfinite(model.scale) and math.isfinite(model.offset)):
        raise ParameterError(f"{path}: calibration scale {model.scale} and offset {model.offset} must be finite")
    if condition is not None:
        _check_tokens(path, [condition])
    with atomic_write(path) as fh:
        fh.write("# asvbackend calibration v1\n")
        fh.write(f"scale {repr(model.scale)}\n")
        fh.write(f"offset {repr(model.offset)}\n")
        if condition is not None:
            fh.write(f"condition {condition}\n")


def read_calibration(path) -> tuple[CalibrationModel, str | None]:
    """The model and condition tag (or None) of a file `write_calibration` wrote.

    The file holds `scale` and `offset` lines with finite numbers and at
    most a `condition` line besides; any other key, such as a misspelt
    `conditon`, raises `FileFormatError` naming the file and the key
    rather than loading the file as untagged.
    """
    fields = read_id_map(path)
    unknown = [key for key in fields if key not in ("scale", "offset", "condition")]
    if unknown:
        raise FileFormatError(f"{path}: unknown key '{unknown[0]}'")
    try:
        scale, offset = parse_float(fields["scale"]), parse_float(fields["offset"])
    except (KeyError, ValueError):
        raise FileFormatError(f"{path}: expected 'scale <a>' and 'offset <b>' lines") from None
    if not (math.isfinite(scale) and math.isfinite(offset)):
        raise FileFormatError(f"{path}: calibration scale {scale} and offset {offset} must be finite")
    return CalibrationModel(scale, offset), fields.get("condition")
