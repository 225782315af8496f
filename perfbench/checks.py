"""The benchmark's own readers and correctness checks.

Nothing here imports asvbackend: outputs are parsed with small readers
of the documented file formats, and raw scores are checked against an
independent joint-Gaussian oracle built from a model bundle's arrays.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import scipy.linalg

BINARY_MAGIC = b"XVECBIN1"


def text_rows(path):
    """Token lists of a whitespace-separated text file, skipping comments."""
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line.split()


def read_trial_pairs(path) -> list[tuple[str, str]]:
    return [(row[0], row[1]) for row in text_rows(path)]


def read_score_file(path) -> tuple[list[tuple[str, str]], np.ndarray]:
    pairs, values = [], []
    for row in text_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: expected 'enroll_id test_id score', got {row!r}")
        pairs.append((row[0], row[1]))
        values.append(float(row[2]))
    return pairs, np.asarray(values, dtype=np.float64)


def read_embedding_file(path) -> tuple[list[str], np.ndarray]:
    """Ids and float64 rows of a text or binary embedding file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(BINARY_MAGIC):
        ids, rows = [], []
        for row in text_rows(path):
            ids.append(row[0])
            rows.append(row[1:])
        return ids, np.asarray(rows, dtype=np.float64)
    (dim,) = struct.unpack_from("<I", blob, len(BINARY_MAGIC))
    pos = len(BINARY_MAGIC) + 4
    ids, rows = [], []
    while pos < len(blob):
        (id_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        ids.append(blob[pos : pos + id_len].decode("utf-8"))
        pos += id_len
        rows.append(np.frombuffer(blob, dtype="<f4", count=dim, offset=pos))
        pos += 4 * dim
    return ids, np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)


def write_binary_embeddings(path, ids, matrix) -> None:
    """Write the documented binary embedding format (float32 values)."""
    matrix = np.asarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", matrix.shape[1]))
        for ident, row in zip(ids, matrix):
            encoded = ident.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(row.tobytes())


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_scores_follow_trials(score_path, trial_pairs) -> str | None:
    """Check (a): one finite score per trial, in trial order.

    Returns None when the check passes, else a one-line reason.
    """
    try:
        pairs, values = read_score_file(score_path)
    except (OSError, ValueError) as exc:
        return f"{score_path}: unreadable ({exc})"
    if len(pairs) != len(trial_pairs):
        return f"{score_path}: {len(pairs)} scores for {len(trial_pairs)} trials"
    for i, (got, want) in enumerate(zip(pairs, trial_pairs)):
        if got != want:
            return f"{score_path}: line {i + 1} scores {got}, trial is {want}"
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        return f"{score_path}: non-finite score at line {bad[0] + 1}"
    return None


def _unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=-1, keepdims=True)


class JointGaussianOracle:
    """Exact LLR of the coupled two-sided model from a bundle's arrays.

    One Cholesky factor per hypothesis (same speaker, independent
    speakers) of the stacked 2d x 2d pair covariance; preprocessing is
    recomputed from the bundle's centering and whitening arrays.
    """

    def __init__(self, bundle_path):
        with np.load(bundle_path, allow_pickle=False) as z:
            b = {key: z[key] for key in z.files}
        l1, l2 = b["enroll_loadings"], b["test_loadings"]
        marginal1 = l1 @ l1.T + b["enroll_residual_cov"]
        cross = l1 @ b["coupling"].T @ l2.T
        test_factor_cov = b["coupling"] @ b["coupling"].T + b["coupling_noise_cov"]
        same = np.block([[marginal1, cross], [cross.T, l2 @ test_factor_cov @ l2.T + b["test_residual_cov"]]])
        indep = scipy.linalg.block_diag(marginal1, l2 @ l2.T + b["test_residual_cov"])
        self._chol_same = np.linalg.cholesky(same)
        self._chol_indep = np.linalg.cholesky(indep)
        self._half_logdet_diff = float(
            np.sum(np.log(np.diag(self._chol_same))) - np.sum(np.log(np.diag(self._chol_indep)))
        )
        self._mean = np.concatenate([b["enroll_mean"], b["test_mean"]])
        self._pre = {
            "enroll": (b["pre_enroll_mean"], b["pre_enroll_whitener"]),
            "test": (b["pre_test_mean"], b["pre_test_whitener"]),
        }

    def preprocess(self, side, rows):
        mean, whitener = self._pre[side]
        return _unit_rows((np.atleast_2d(rows) - mean) @ whitener)

    def enroll_vector(self, rows):
        return _unit_rows(self.preprocess("enroll", rows).mean(axis=0))

    def llr(self, enroll_vectors, test_vectors) -> np.ndarray:
        stacked = (np.hstack([enroll_vectors, test_vectors]) - self._mean).T
        quad_same = np.sum(scipy.linalg.solve_triangular(self._chol_same, stacked, lower=True) ** 2, axis=0)
        quad_indep = np.sum(scipy.linalg.solve_triangular(self._chol_indep, stacked, lower=True) ** 2, axis=0)
        return -0.5 * (quad_same - quad_indep) - self._half_logdet_diff


def check_raw_scores_against_oracle(
    bundle_path, enroll_path, test_path, trial_pairs, score_path, sample
) -> tuple[str | None, float]:
    """Check (b): sampled raw scores equal the oracle within 1e-8*max(1,|llr|).

    Returns (None or a one-line reason, largest relative error).
    """
    oracle = JointGaussianOracle(bundle_path)
    enroll_ids, enroll_rows = read_embedding_file(enroll_path)
    test_ids, test_rows = read_embedding_file(test_path)
    enroll_index: dict[str, list[int]] = {}
    for i, ident in enumerate(enroll_ids):
        enroll_index.setdefault(ident, []).append(i)
    test_index = {ident: i for i, ident in enumerate(test_ids)}
    _, scores = read_score_file(score_path)
    picked = [trial_pairs[i] for i in sample]
    w_e = np.stack([oracle.enroll_vector(enroll_rows[enroll_index[e]]) for e, _ in picked])
    w_t = oracle.preprocess("test", np.stack([test_rows[test_index[t]] for _, t in picked]))
    expected = oracle.llr(w_e, w_t)
    got = scores[np.asarray(sample)]
    err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    worst = int(np.argmax(err))
    if not err[worst] <= 1e-8:
        e, t = picked[worst]
        return (
            f"{score_path}: score {float(got[worst])!r} for {e} {t} differs from oracle "
            f"{float(expected[worst])!r} (relative {err[worst]:.3e})"
        ), float(err[worst])
    return None, float(err[worst])


def parse_evaluate_output(text) -> tuple[float, float] | None:
    """EER (%) and minDCF from the evaluate stage's printed lines."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("EER%", "minDCF"):
            try:
                found[parts[0]] = float(parts[1])
            except ValueError:
                return None
    if len(found) != 2 or not all(math.isfinite(v) for v in found.values()):
        return None
    return found["EER%"], found["minDCF"]
