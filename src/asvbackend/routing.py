"""Trial-dependent model selection and the per-condition scoring pipeline.

Trials are classified on two axes: how many segments the enrollment
sample has (few = below the threshold, default 5) and which language the
test segment carries (primary or secondary). Language comes from caller
metadata — this package never detects it. Each of the four conditions
owns a complete scoring stack (two-sided model, cohorts, calibration);
a mixed trial list is partitioned, each partition scored, normalized and
calibrated by its own stack, and the streams merged back in input order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationModel, apply_calibration, read_calibration
from .data import ScoreSet, TrialList, embedding_table, read_embeddings, read_id_map
from .exceptions import ConfigError, FileFormatError, ParameterError, RoutingError
from .fourcov import FourCovModel, build_kernel, model_space_pair, score_batch
from .modelio import load_fourcov
from .plda import Preprocessor
from .scorenorm import DEFAULT_TOP_K, CohortSet, snorm_batch

ENROLL_BUCKETS = ("few", "many")
TEST_LANGUAGES = ("primary", "secondary")
DEFAULT_SEG_THRESHOLD = 5
# the files each condition of a routing config names, and every key the
# document and a condition may hold
CONDITION_FILES = ("model", "cohort_enroll", "cohort_test", "calibration")
DOCUMENT_KEYS = ("enroll_seg_threshold", "enroll_segments", "test_language", "conditions")
CONDITION_KEYS = CONDITION_FILES + ("top_k",)
_JSON_TYPES = {dict: "a JSON object", int: "an integer", str: "a string"}


@dataclass(frozen=True)
class ConditionKey:
    """One cell of the enrollment-size x test-language grid."""

    enroll_bucket: str
    test_language: str

    def __post_init__(self):
        if self.enroll_bucket not in ENROLL_BUCKETS:
            raise ParameterError(
                f"enroll_bucket must be one of {ENROLL_BUCKETS}, got '{self.enroll_bucket}'"
            )
        if self.test_language not in TEST_LANGUAGES:
            raise ParameterError(
                f"test_language must be one of {TEST_LANGUAGES}, got '{self.test_language}'"
            )

    @property
    def tag(self) -> str:
        return f"{self.enroll_bucket}-{self.test_language}"


ALL_CONDITIONS = tuple(
    ConditionKey(bucket, language) for bucket in ENROLL_BUCKETS for language in TEST_LANGUAGES
)


def parse_condition_tag(tag: str) -> ConditionKey:
    parts = tag.split("-")
    if len(parts) != 2:
        raise ParameterError(f"condition tag must look like 'few-primary', got '{tag}'")
    return ConditionKey(parts[0], parts[1])


@dataclass(frozen=True)
class ConditionPipeline:
    """Everything needed to score one condition's trials end to end."""

    model: FourCovModel
    pre_enroll: Preprocessor
    pre_test: Preprocessor
    cohorts: CohortSet          # already in preprocessed (model) space
    calibration: CalibrationModel


@dataclass
class RoutingConfig:
    """Condition pipelines plus the trial metadata needed to classify."""

    pipelines: dict[ConditionKey, ConditionPipeline]
    enroll_segments: dict[str, int]
    test_language: dict[str, str]
    enroll_seg_threshold: int = DEFAULT_SEG_THRESHOLD

    def __post_init__(self):
        if self.enroll_seg_threshold < 1:
            raise ParameterError(
                f"enroll_seg_threshold must be positive, got {self.enroll_seg_threshold}"
            )
        for tid, language in self.test_language.items():
            if language not in TEST_LANGUAGES:
                raise ConfigError(
                    f"test id '{tid}' has unknown language '{language}' "
                    f"(want one of {TEST_LANGUAGES})"
                )
        for cal in (p.calibration for p in self.pipelines.values()):
            if not cal.scale > 0.0:
                raise ConfigError(
                    f"calibration scale must be positive for routing, got {cal.scale}"
                )


def classify_trials(config: RoutingConfig, trials: TrialList) -> np.ndarray:
    """Each trial's index into ALL_CONDITIONS.

    The enrollment bucket comes from the segment count (few below the
    threshold, many from it up), the language from the test id's label;
    each unique id is looked up once.
    """
    try:
        buckets = [
            int(config.enroll_segments[i] >= config.enroll_seg_threshold)
            for i in trials.enroll_ids
        ]
    except KeyError as exc:
        raise RoutingError(f"no segment count for enrollment id '{exc.args[0]}'") from None
    try:
        languages = [TEST_LANGUAGES.index(config.test_language[i]) for i in trials.test_ids]
    except KeyError as exc:
        raise RoutingError(f"no language label for test id '{exc.args[0]}'") from None
    # ALL_CONDITIONS runs over languages within each bucket
    return (
        len(TEST_LANGUAGES) * np.array(buckets, dtype=np.intp)[trials.enroll_codes]
        + np.array(languages, dtype=np.intp)[trials.test_codes]
    )


def condition_pipeline_scores(
    pipeline: ConditionPipeline,
    enrolls,
    tests,
    trials: TrialList,
) -> ScoreSet:
    """Score raw embeddings through one condition's full stack.

    `enrolls` and `tests` are tables, or sequences of `Embedding` rows,
    brought into the condition's model space by `model_space_pair`.
    Vectors that no trial references are ignored; where ids repeat, the
    last vector with that id is used, as in `score_batch`.
    """
    kernel = build_kernel(pipeline.model)
    enroll_vectors, test_vectors = model_space_pair(pipeline.pre_enroll, pipeline.pre_test, enrolls, tests)
    raw = score_batch(kernel, enroll_vectors, test_vectors, trials)
    normalized = snorm_batch(kernel, pipeline.cohorts, enroll_vectors, test_vectors, raw)
    return apply_calibration(pipeline.calibration, normalized)


def route_and_score(
    config: RoutingConfig,
    enrolls,
    tests,
    trials: TrialList,
) -> ScoreSet:
    """Partition trials by condition, score each partition, merge in order.

    `enrolls` and `tests` are tables of raw embeddings, or sequences of
    `Embedding` rows, converted to tables once. Each condition's trials
    are scored by `condition_pipeline_scores` against the whole tables,
    so a routed trial gets the score that `score`, `snorm` and
    `calibrate` give it with the same stack, repeated ids included.
    """
    conditions = classify_trials(config, trials)
    needed = np.unique(conditions).tolist()
    missing = [ALL_CONDITIONS[c].tag for c in needed if ALL_CONDITIONS[c] not in config.pipelines]
    if missing:
        raise ConfigError(f"no pipeline configured for condition(s): {', '.join(sorted(missing))}")

    enrolls, tests = embedding_table(enrolls), embedding_table(tests)
    merged = np.empty(len(trials))
    for c in needed:
        rows = np.flatnonzero(conditions == c)
        pipeline = config.pipelines[ALL_CONDITIONS[c]]
        merged[rows] = condition_pipeline_scores(pipeline, enrolls, tests, trials.take(rows)).values()
    return trials.with_scores(merged)


def read_segment_counts(path) -> dict[str, int]:
    """Two-column metadata file: enroll_id  n_segments."""
    raw = read_id_map(path)
    out = {}
    for key, value in raw.items():
        try:
            count = int(value)
        except ValueError:
            raise FileFormatError(f"{path}: segment count for '{key}' is not an integer") from None
        if count < 1:
            raise FileFormatError(f"{path}: segment count for '{key}' must be positive")
        out[key] = count
    return out


def read_language_map(path) -> dict[str, str]:
    """Two-column metadata file: test_id  language (primary|secondary)."""
    raw = read_id_map(path)
    for key, value in raw.items():
        if value not in TEST_LANGUAGES:
            raise FileFormatError(
                f"{path}: language for '{key}' must be one of {TEST_LANGUAGES}, got '{value}'"
            )
    return raw


def load_routing_config(path) -> RoutingConfig:
    """Load the declarative routing file (JSON).

    Schema:
        {
          "enroll_seg_threshold": 5,
          "enroll_segments": "enroll_meta.txt",
          "test_language": "test_meta.txt",
          "conditions": {
            "few-primary": {
              "model": "few_primary.npz",
              "cohort_enroll": "cohort_enroll.embs",
              "cohort_test": "cohort_test.embs",
              "calibration": "few_primary.cal",
              "top_k": 400
            }, ...
          }
        }

    The document, `conditions` and each condition are JSON objects that
    hold no keys but those above, each condition is named by the tag of
    one cell of the grid (`few-primary`, ..., `many-secondary`), paths
    are strings, and `enroll_seg_threshold` and `top_k` are integers
    (`top_k` may be null, for the whole cohort); anything else raises
    `ConfigError` before any referenced file is read. A calibration
    file tagged with a condition (`calibrate --condition`) must be
    configured under that condition. Relative paths resolve against the
    config file's directory. Every referenced path is checked before
    anything heavy is loaded.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    base = os.path.dirname(os.path.abspath(path))

    def require(value, kind, what):
        # JSON true and false parse to bool, which Python counts as an int
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: {what} must be {_JSON_TYPES[kind]}, got {value!r:.40}")
        return value

    def resolve(p):
        p = require(p, str, "a file path")
        return p if os.path.isabs(p) else os.path.join(base, p)

    def known(spec, keys, what):
        unknown = sorted(set(spec) - set(keys))
        if unknown:
            raise ConfigError(f"{path}: {what} has unknown key(s) {', '.join(map(repr, unknown))}")

    require(doc, dict, "the routing config")
    known(doc, DOCUMENT_KEYS, "the routing config")
    for field_name in ("enroll_segments", "test_language", "conditions"):
        if field_name not in doc:
            raise ConfigError(f"{path}: missing required field '{field_name}'")
    require(doc["conditions"], dict, "'conditions'")
    threshold = require(doc.get("enroll_seg_threshold", DEFAULT_SEG_THRESHOLD), int, "'enroll_seg_threshold'")

    referenced = [resolve(doc["enroll_segments"]), resolve(doc["test_language"])]
    condition_docs = {}
    for tag, spec in doc["conditions"].items():
        try:
            key = parse_condition_tag(tag)
        except ParameterError as exc:
            raise ConfigError(f"{path}: unknown condition '{tag}' ({exc})") from None
        require(spec, dict, f"condition '{tag}'")
        known(spec, CONDITION_KEYS, f"condition '{tag}'")
        for required in CONDITION_FILES:
            if required not in spec:
                raise ConfigError(f"{path}: condition '{tag}' is missing '{required}'")
        if spec.get("top_k") is not None:
            require(spec["top_k"], int, f"condition '{tag}' top_k")
        condition_docs[key] = spec
        referenced += [resolve(spec[field_name]) for field_name in CONDITION_FILES]
    missing = [p for p in referenced if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"{path}: referenced file(s) do not exist: {', '.join(missing)}")

    pipelines = {}
    for key, spec in condition_docs.items():
        cal_model, cal_tag = read_calibration(resolve(spec["calibration"]))
        if cal_tag not in (None, key.tag):
            raise ConfigError(
                f"{path}: condition '{key.tag}' names calibration {spec['calibration']!r}, "
                f"which is tagged '{cal_tag}'"
            )
        model, pre_enroll, pre_test = load_fourcov(resolve(spec["model"]))
        cohort_enroll, cohort_test = resolve(spec["cohort_enroll"]), resolve(spec["cohort_test"])
        cohort_pair = model_space_pair(
            pre_enroll, pre_test, read_embeddings(cohort_enroll), read_embeddings(cohort_test),
            (f"enrollment-side cohort ({cohort_enroll})", f"test-side cohort ({cohort_test})"),
        )
        cohorts = CohortSet(*cohort_pair, spec.get("top_k", DEFAULT_TOP_K))
        pipelines[key] = ConditionPipeline(model, pre_enroll, pre_test, cohorts, cal_model)
    return RoutingConfig(
        pipelines=pipelines,
        enroll_segments=read_segment_counts(resolve(doc["enroll_segments"])),
        test_language=read_language_map(resolve(doc["test_language"])),
        enroll_seg_threshold=threshold,
    )
