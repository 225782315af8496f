"""Trial-dependent model selection and the per-condition scoring pipeline.

Trials are classified on two axes: how many segments the enrollment
sample has (few = below the threshold, default 5) and which language the
test segment carries (primary or secondary). Language comes from caller
metadata — this package never detects it. Each of the four conditions
owns a complete scoring stack (two-sided model, cohorts, calibration);
a mixed trial list is partitioned, each partition scored, normalized and
calibrated by its own stack, and the streams merged back in input order.
A routing config loads in two steps: `load_routing_config` checks the
document and reads the metadata, and `load_pipelines` reads each
condition's stack from what it returns. A stack's cohorts come through
`plda.read_model_space_pair`, the reader `score` and `snorm` use, and
the evaluation tables through `plda.to_model_space`, the call that
reader makes, so a routed trial gets the score those stages give it
with the same stack, to rounding: a condition's subset changes the
shapes of BLAS products.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationModel, apply_calibration, read_calibration
from .data import ScoreSet, TrialList, embedding_table, open_input, parse_int, read_id_map
from .exceptions import BackendError, ConfigError, FileFormatError, ParameterError, RoutingError, prefixed
from .fourcov import FourCovModel, build_kernel, score_batch
from .modelio import load_fourcov
from .plda import Preprocessor, read_model_space_pair, to_model_space
from .scorenorm import DEFAULT_TOP_K, CohortSet, check_top_k, snorm_batch

ENROLL_BUCKETS = ("few", "many")
TEST_LANGUAGES = ("primary", "secondary")
# A condition is its tag; buckets run outer and languages inner, and
# `classify_trials` gives each trial an index into this tuple.
CONDITIONS = tuple(f"{bucket}-{language}" for bucket in ENROLL_BUCKETS for language in TEST_LANGUAGES)
DEFAULT_SEG_THRESHOLD = 5
# the files each condition of a routing config names, and every key the
# document and a condition may hold
CONDITION_FILES = ("model", "cohort_enroll", "cohort_test", "calibration")
DOCUMENT_KEYS = ("enroll_seg_threshold", "enroll_segments", "test_language", "conditions")
CONDITION_KEYS = CONDITION_FILES + ("top_k",)
_JSON_TYPES = {dict: "a JSON object", int: "an integer", str: "a string"}


@dataclass(frozen=True)
class ConditionPipeline:
    """Everything needed to score one condition's trials end to end."""

    model: FourCovModel
    pre_enroll: Preprocessor
    pre_test: Preprocessor
    cohorts: CohortSet          # already in preprocessed (model) space
    calibration: CalibrationModel

    def __post_init__(self):
        # a scale that is not positive would reverse this condition's score order
        if not self.calibration.scale > 0.0:
            raise ConfigError(
                f"calibration scale must be positive for routing, got {self.calibration.scale}"
            )


@dataclass(frozen=True)
class RoutingConfig:
    """The trial metadata needed to classify, and what each condition's stack is read from.

    `conditions` maps each configured tag to its resolved `CONDITION_FILES`
    paths and its `top_k`; `path` is the config file, which errors from
    `load_pipelines` name. `load_routing_config` checks every field.
    """

    enroll_segments: dict[str, int]
    test_language: dict[str, str]
    enroll_seg_threshold: int = DEFAULT_SEG_THRESHOLD
    conditions: dict[str, dict] = field(default_factory=dict)
    path: str = ""


def classify_trials(config: RoutingConfig, trials: TrialList) -> np.ndarray:
    """Each trial's index into CONDITIONS.

    The enrollment bucket comes from the segment count (few below the
    threshold, many from it up), the language from the test id's label;
    each unique id is looked up once.
    """
    try:
        buckets = [int(config.enroll_segments[i] >= config.enroll_seg_threshold) for i in trials.enroll_ids]
    except KeyError as exc:
        raise RoutingError(f"no segment count for enrollment id '{exc.args[0]}'") from None
    try:
        languages = [TEST_LANGUAGES.index(config.test_language[i]) for i in trials.test_ids]
    except KeyError as exc:
        raise RoutingError(f"no language label for test id '{exc.args[0]}'") from None
    # CONDITIONS runs over languages within each bucket
    return (
        len(TEST_LANGUAGES) * np.array(buckets, dtype=np.intp)[trials.enroll_codes]
        + np.array(languages, dtype=np.intp)[trials.test_codes]
    )


def condition_pipeline_scores(
    pipeline: ConditionPipeline, enrolls, tests, trials: TrialList, labels=("enrollment", "test")
) -> ScoreSet:
    """Score raw embeddings through one condition's full stack.

    `enrolls` and `tests` are tables, or sequences of `Embedding` rows,
    brought into the condition's model space by `to_model_space`, whose
    errors name them by `labels`: enrollment rows averaged by id, test
    rows kept. Vectors that no trial references are ignored; where test
    ids repeat, the last vector with that id is used, as in `score_batch`.
    """
    kernel = build_kernel(pipeline.model)
    enrolls = embedding_table(enrolls)
    enroll_vectors = to_model_space(enrolls, pipeline.pre_enroll, labels[0], enrolls.ids)
    test_vectors = to_model_space(tests, pipeline.pre_test, labels[1])
    raw = score_batch(kernel, enroll_vectors, test_vectors, trials)
    normalized = snorm_batch(kernel, pipeline.cohorts, enroll_vectors, test_vectors, raw)
    return apply_calibration(pipeline.calibration, normalized)


def used_conditions(conditions: np.ndarray, configured) -> list[int]:
    """The indices into CONDITIONS that `conditions` holds, each once, in order.

    Raises `ConfigError` naming every used condition whose tag is not
    in `configured`.
    """
    used = np.unique(conditions).tolist()
    missing = [CONDITIONS[c] for c in used if CONDITIONS[c] not in configured]
    if missing:
        raise ConfigError(f"no pipeline configured for condition(s): {', '.join(missing)}")
    return used


def route_and_score(
    config: RoutingConfig, pipelines: dict[str, ConditionPipeline], enrolls, tests, trials: TrialList,
    labels=("enrollment", "test"),
) -> ScoreSet:
    """Partition trials by condition, score each partition, merge in order.

    `pipelines` maps condition tags to stacks, as `load_pipelines`
    gives them. `enrolls` and `tests` are tables of raw embeddings, or
    sequences of `Embedding` rows, converted to tables once. Each
    condition's trials are scored by `condition_pipeline_scores` against
    the whole tables, so a routed trial gets the score that `score`,
    `snorm` and `calibrate` give it with the same stack, repeated ids
    included, to rounding (ROADMAP direction 6). A condition's error
    keeps its class, so its exit code, and gains the prefix
    `condition '<tag>': `; `labels` name the two tables in it.
    """
    conditions = classify_trials(config, trials)
    needed = used_conditions(conditions, pipelines)
    enrolls, tests = embedding_table(enrolls), embedding_table(tests)
    merged = np.empty(len(trials))
    for c in needed:
        rows = np.flatnonzero(conditions == c)
        tag = CONDITIONS[c]
        with prefixed(f"condition '{tag}'", BackendError):
            merged[rows] = condition_pipeline_scores(pipelines[tag], enrolls, tests, trials.take(rows), labels).values()
    return trials.with_scores(merged)


def read_segment_counts(path) -> dict[str, int]:
    """Two-column metadata file: enroll_id  n_segments."""
    raw = read_id_map(path)
    out = {}
    for key, value in raw.items():
        try:
            count = parse_int(value)
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
    """Load and check the declarative routing file (JSON), reading no stack.

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
    hold no keys but those above, each condition is named by one of the
    CONDITIONS tags, paths are strings, `enroll_seg_threshold` is a
    positive integer and `top_k` an integer of at least 2 or null (the
    whole cohort); anything else raises `ConfigError` before any
    referenced file is read. Relative paths resolve against the config
    file's directory, and every referenced path must be a regular file. Of
    those files only the two metadata maps are read; `load_pipelines`
    reads the rest.
    """
    with open_input(path) as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{line}: line is not valid UTF-8") from None
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

    def check_keys(spec, allowed, required, what):
        unknown = sorted(set(spec) - set(allowed))
        if unknown:
            raise ConfigError(f"{path}: {what} has unknown key(s) {', '.join(map(repr, unknown))}")
        missing = [key for key in required if key not in spec]
        if missing:
            raise ConfigError(f"{path}: {what} is missing key(s) {', '.join(map(repr, missing))}")

    require(doc, dict, "the routing config")
    check_keys(doc, DOCUMENT_KEYS, ("enroll_segments", "test_language", "conditions"), "the routing config")
    require(doc["conditions"], dict, "'conditions'")
    threshold = require(doc.get("enroll_seg_threshold", DEFAULT_SEG_THRESHOLD), int, "'enroll_seg_threshold'")
    if threshold < 1:
        raise ConfigError(f"{path}: 'enroll_seg_threshold' must be positive, got {threshold}")

    referenced = [resolve(doc["enroll_segments"]), resolve(doc["test_language"])]
    conditions = {}
    for tag, spec in doc["conditions"].items():
        if tag not in CONDITIONS:
            raise ConfigError(f"{path}: unknown condition '{tag}' (want one of {', '.join(CONDITIONS)})")
        require(spec, dict, f"condition '{tag}'")
        check_keys(spec, CONDITION_KEYS, CONDITION_FILES, f"condition '{tag}'")
        top_k = spec.get("top_k", DEFAULT_TOP_K)
        try:
            check_top_k(top_k)
        except ParameterError as exc:
            raise ConfigError(f"{path}: condition '{tag}' {exc}") from None
        conditions[tag] = {**{f: resolve(spec[f]) for f in CONDITION_FILES}, "top_k": top_k}
        referenced += [conditions[tag][f] for f in CONDITION_FILES]
    missing = [p for p in referenced if not os.path.isfile(p)]
    if missing:
        raise ConfigError(f"{path}: referenced file(s) do not exist or are not files: {', '.join(missing)}")
    return RoutingConfig(
        enroll_segments=read_segment_counts(referenced[0]),
        test_language=read_language_map(referenced[1]),
        enroll_seg_threshold=threshold,
        conditions=conditions,
        path=str(path),
    )


def load_pipelines(config: RoutingConfig) -> dict[str, ConditionPipeline]:
    """Each configured condition's stack, read from the files the config names.

    The cohorts are read by `read_model_space_pair`, as `snorm` reads
    them. A calibration file tagged with a condition (`calibrate
    --condition`) must be configured under that condition. A stack that
    cannot be built, such as one whose `top_k` exceeds a cohort's size
    or whose calibration scale is not positive, raises `ConfigError`
    naming the config file and the condition.
    """
    pipelines = {}
    for tag, spec in config.conditions.items():
        cal_model, cal_tag = read_calibration(spec["calibration"])
        if cal_tag not in (None, tag):
            raise ConfigError(
                f"{config.path}: condition '{tag}' names calibration {spec['calibration']!r}, "
                f"which is tagged '{cal_tag}'"
            )
        model, pre_enroll, pre_test = load_fourcov(spec["model"])
        cohort_pair = read_model_space_pair(
            pre_enroll, pre_test, spec["cohort_enroll"], spec["cohort_test"], cohort=True
        )
        try:
            cohorts = CohortSet(*cohort_pair, spec["top_k"])
            pipelines[tag] = ConditionPipeline(model, pre_enroll, pre_test, cohorts, cal_model)
        except (ParameterError, ConfigError) as exc:
            raise ConfigError(f"{config.path}: condition '{tag}': {exc}") from None
    return pipelines
