"""Span tracing of asvbackend from outside the program.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper under every module attribute that refers to the
original, so callers that imported a function by name (routing's
`score_batch`, scorenorm's `score_pair_matrix`, fourcov's
`speaker_factor`, ...) reach the wrapper too. The two row-table classes
get their constructor wrapped in place, so `isinstance` keeps working.

Spans (id, parent id, name, start, end) are kept in memory and written
out by the caller at the end. A function that does not exist is simply
not wrapped; the report lists it as absent. Spans assume one thread,
which holds because the benchmark runs every stage at its default
thread count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "data", "plda", "fourcov", "scorenorm", "calibration", "metrics", "routing", "modelio")
TABLE_CLASSES = (("data", "TrialList"), ("data", "ScoreSet"))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _score_batch_counts(args, kwargs, result):
    unique = len(_arg(args, kwargs, 1, "enrolls")) + len(_arg(args, kwargs, 2, "tests"))
    return {"trials": len(result), "unique": unique}


def _snorm_batch_counts(args, kwargs, result):
    cohorts = _arg(args, kwargs, 1, "cohorts")
    enrolls, tests = _arg(args, kwargs, 2, "enrolls"), _arg(args, kwargs, 3, "tests")
    pairs = len(enrolls) * len(cohorts.test_cohort) + len(cohorts.enroll_cohort) * len(tests)
    return {"cohort_pairs": pairs}


# Work counts taken at the layer boundary, from arguments and results.
COUNTERS = {
    "data.read_embeddings": lambda a, k, r: {"rows": len(r)},
    "data.read_trials": lambda a, k, r: {"rows": len(r)},
    "data.read_scores": lambda a, k, r: {"rows": len(r)},
    "data.write_scores": lambda a, k, r: {"rows": len(_arg(a, k, 0, "scores"))},
    "fourcov.score_batch": _score_batch_counts,
    "fourcov.score_pair_matrix": lambda a, k, r: {"pairs": int(r.size)},
    "scorenorm.snorm_batch": _snorm_batch_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.counter_errors: dict[str, str] = {}
        self.wrapped: list[str] = []
        self._stack = [0]
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name):
        span_id, parent = self._next_id, self._stack[-1]
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Inlined span(): this wrapper runs tens of thousands of times per job.
            span_id, parent = self._next_id, stack[-1]
            self._next_id += 1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
                except Exception as exc:  # an API change must not fail the run
                    self.counter_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self):
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"asvbackend.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                replacements[obj] = self._wrap(f"{layer}.{attr}", obj)
                self.wrapped.append(f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "asvbackend" or mod_name.startswith("asvbackend.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
        for layer, cls_name in TABLE_CLASSES:
            cls = getattr(sys.modules.get(f"asvbackend.{layer}"), cls_name, None)
            if inspect.isclass(cls):
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", cls.__init__)
                self.wrapped.append(f"{layer}.{cls_name}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(stats)
