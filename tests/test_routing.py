import json
import os

import numpy as np
import pytest

from asvbackend import cli, plda
from asvbackend.calibration import CalibrationModel
from asvbackend.data import Embedding, Trial, TrialList
from asvbackend.exceptions import ConfigError, FileFormatError, RoutingError
from asvbackend.routing import (
    CONDITIONS,
    ConditionPipeline,
    RoutingConfig,
    classify_trials,
    condition_pipeline_scores,
    load_pipelines,
    load_routing_config,
    read_language_map,
    read_segment_counts,
    route_and_score,
)
from asvbackend.scorenorm import CohortSet

from conftest import random_truth


def tiny_pipeline(rng, dim=5, offset=0.0):
    truth = random_truth(rng, dim, 2, 2)
    model = truth.as_fourcov()
    pre1 = plda.fit_preprocessor(truth.enroll_mean + rng.standard_normal((60, dim)))
    pre2 = plda.fit_preprocessor(truth.test_mean + rng.standard_normal((60, dim)))
    cohorts = CohortSet(
        tuple(Embedding(f"ce{i}", pre1.apply(truth.enroll_mean + rng.standard_normal(dim))) for i in range(20)),
        tuple(Embedding(f"ct{i}", pre2.apply(truth.test_mean + rng.standard_normal(dim))) for i in range(20)),
        None,
    )
    return ConditionPipeline(model, pre1, pre2, cohorts, CalibrationModel(1.0, offset))


def metadata_config(enroll_segments, test_language, threshold=5):
    return RoutingConfig(
        enroll_segments=enroll_segments,
        test_language=test_language,
        enroll_seg_threshold=threshold,
    )


class TestConditions:
    def test_exactly_four_conditions(self):
        assert len(CONDITIONS) == 4
        assert len(set(CONDITIONS)) == 4

    def test_buckets_outer_languages_inner(self):
        assert CONDITIONS == ("few-primary", "few-secondary", "many-primary", "many-secondary")


def classify_trial(config, enroll_id, test_id):
    """The condition tag of a single trial."""
    return CONDITIONS[classify_trials(config, TrialList((Trial(enroll_id, test_id),)))[0]]


class TestClassify:
    def _config(self):
        return metadata_config(
            {"e3": 3, "e5": 5, "e12": 12},
            {"t_p": "primary", "t_s": "secondary"},
        )

    def test_below_threshold_is_few(self):
        assert classify_trial(self._config(), "e3", "t_p") == "few-primary"

    def test_boundary_is_many(self):
        assert classify_trial(self._config(), "e5", "t_s") == "many-secondary"

    def test_unknown_ids_named(self):
        with pytest.raises(RoutingError, match="'ghost'"):
            classify_trial(self._config(), "ghost", "t_p")
        with pytest.raises(RoutingError, match="'t_x'"):
            classify_trial(self._config(), "e3", "t_x")

    def test_partition_is_total_and_disjoint(self):
        config = metadata_config(
            {f"e{n}": n for n in range(1, 10)},
            {"tp": "primary", "ts": "secondary"},
        )
        seen = {}
        for eid in config.enroll_segments:
            for tid in config.test_language:
                seen.setdefault(classify_trial(config, eid, tid), []).append((eid, tid))
        assert set(seen) <= set(CONDITIONS)
        assert sum(len(v) for v in seen.values()) == 18

    def test_threshold_monotonicity(self):
        counts = {f"e{n}": n for n in range(1, 12)}
        lang = {"t": "primary"}
        for lo in range(2, 10):
            few_lo = {
                eid
                for eid in counts
                if classify_trial(metadata_config(counts, lang, lo), eid, "t").startswith("few-")
            }
            few_hi = {
                eid
                for eid in counts
                if classify_trial(metadata_config(counts, lang, lo + 1), eid, "t").startswith("few-")
            }
            assert few_lo <= few_hi


class TestRouteAndScore:
    def _setup(self, rng):
        pipelines = {
            "few-primary": tiny_pipeline(rng, offset=0.0),
            "many-secondary": tiny_pipeline(rng, offset=10.0),  # deliberately different calibration
        }
        enrolls = [Embedding("eA", rng.standard_normal(5)) for _ in range(2)]
        enrolls += [Embedding("eB", rng.standard_normal(5)) for _ in range(6)]
        tests = [Embedding("tP", rng.standard_normal(5)), Embedding("tS", rng.standard_normal(5))]
        config = metadata_config({"eA": 2, "eB": 6}, {"tP": "primary", "tS": "secondary"})
        return config, pipelines, enrolls, tests

    def test_splice_equality(self, rng):
        config, pipelines, enrolls, tests = self._setup(rng)
        trials = TrialList((Trial("eA", "tP"), Trial("eB", "tS")))
        merged = route_and_score(config, pipelines, enrolls, tests, trials)

        only_a = TrialList((Trial("eA", "tP"),))
        manual_a = condition_pipeline_scores(pipelines["few-primary"], enrolls, tests, only_a)
        only_b = TrialList((Trial("eB", "tS"),))
        manual_b = condition_pipeline_scores(pipelines["many-secondary"], enrolls, tests, only_b)
        assert merged.entries[0].score == manual_a.entries[0].score
        assert merged.entries[1].score == manual_b.entries[1 - 1].score

    def test_calibration_offsets_applied_per_condition(self, rng):
        config, pipelines, enrolls, tests = self._setup(rng)
        trials = TrialList((Trial("eA", "tP"), Trial("eB", "tS")))
        merged = route_and_score(config, pipelines, enrolls, tests, trials)
        no_cal_pipelines = {
            tag: ConditionPipeline(p.model, p.pre_enroll, p.pre_test, p.cohorts, CalibrationModel(1.0, 0.0))
            for tag, p in pipelines.items()
        }
        uncal = route_and_score(config, no_cal_pipelines, enrolls, tests, trials)
        assert merged.entries[0].score == uncal.entries[0].score  # offset 0
        np.testing.assert_allclose(merged.entries[1].score, uncal.entries[1].score + 10.0, atol=1e-12)

    def test_missing_condition_reported(self, rng):
        config, pipelines, enrolls, tests = self._setup(rng)
        trials = TrialList((Trial("eA", "tS"),))  # few-secondary has no pipeline
        with pytest.raises(ConfigError, match="few-secondary"):
            route_and_score(config, pipelines, enrolls, tests, trials)

    def test_output_order_is_input_order(self, rng):
        config, pipelines, enrolls, tests = self._setup(rng)
        trials = TrialList((Trial("eB", "tS"), Trial("eA", "tP")))
        merged = route_and_score(config, pipelines, enrolls, tests, trials)
        assert [(s.enroll_id, s.test_id) for s in merged] == [("eB", "tS"), ("eA", "tP")]

    def test_repeated_test_id_scored_as_condition_pipeline(self, rng):
        # route_and_score resolves ids as score_batch and snorm_batch do:
        # the last row of a repeated id is used
        config, pipelines, enrolls, tests = self._setup(rng)
        tests = tests + [Embedding("tP", rng.standard_normal(5))]
        trials = TrialList((Trial("eA", "tP"), Trial("eB", "tS")))
        routed = route_and_score(config, pipelines, enrolls, tests, trials).values()
        for row, tag in enumerate(("few-primary", "many-secondary")):
            subset = trials.take([row])
            direct = condition_pipeline_scores(pipelines[tag], enrolls, tests, subset)
            assert routed[row] == direct.values()[0]
        last_only = condition_pipeline_scores(pipelines["few-primary"], enrolls, tests[1:], trials.take([0]))
        assert routed[0] == last_only.values()[0]

    def test_four_condition_partition(self, rng):
        pipelines = {tag: tiny_pipeline(rng, offset=i) for i, tag in enumerate(CONDITIONS)}
        enrolls = [Embedding("few_e", rng.standard_normal(5)), Embedding("many_e", rng.standard_normal(5))]
        tests = [Embedding("tp", rng.standard_normal(5)), Embedding("ts", rng.standard_normal(5))]
        config = metadata_config({"few_e": 1, "many_e": 9}, {"tp": "primary", "ts": "secondary"})
        trials = TrialList(tuple(Trial(e, t) for e in ("few_e", "many_e") for t in ("tp", "ts")))
        merged = route_and_score(config, pipelines, enrolls, tests, trials)
        assert len(merged) == 4


class TestMetadataFiles:
    def test_segment_counts(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("e1 3\ne2 12\n")
        assert read_segment_counts(path) == {"e1": 3, "e2": 12}
        path.write_text("e1 three\n")
        with pytest.raises(FileFormatError, match="not an integer"):
            read_segment_counts(path)

    def test_language_map(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("t1 primary\nt2 secondary\n")
        assert read_language_map(path) == {"t1": "primary", "t2": "secondary"}
        path.write_text("t1 tertiary\n")
        with pytest.raises(FileFormatError, match="language"):
            read_language_map(path)


class TestConfigValidation:
    def test_nonpositive_calibration_scale_rejected(self, rng):
        pipe = tiny_pipeline(rng)
        with pytest.warns(RuntimeWarning, match="not positive"):
            flipped = CalibrationModel(-0.5, 0.0)
        with pytest.raises(ConfigError, match="positive"):
            ConditionPipeline(pipe.model, pipe.pre_enroll, pipe.pre_test, pipe.cohorts, flipped)
        with pytest.warns(RuntimeWarning, match="not positive"):
            undefined = CalibrationModel(float("nan"), 0.0)
        with pytest.raises(ConfigError, match="positive"):
            ConditionPipeline(pipe.model, pipe.pre_enroll, pipe.pre_test, pipe.cohorts, undefined)

    def test_missing_referenced_file_reported(self, tmp_path):
        doc = {
            "enroll_segments": "missing_enroll.txt",
            "test_language": "missing_lang.txt",
            "conditions": {},
        }
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="do not exist"):
            load_routing_config(path)

    STACK = {"model": "m.npz", "cohort_enroll": "ce.embs", "cohort_test": "ct.embs", "calibration": "c.cal"}
    DOC = {"enroll_segments": "segs.txt", "test_language": "lang.txt", "conditions": {"few-primary": STACK}}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({**DOC, "enroll_seg_threshold": "abc"}, "'enroll_seg_threshold' must be an integer"),
            ({**DOC, "enroll_seg_threshold": 5.0}, "'enroll_seg_threshold' must be an integer"),
            ({**DOC, "enroll_seg_threshold": True}, "'enroll_seg_threshold' must be an integer"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": "abc"}}}, "top_k must be an integer"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": 1.5}}}, "top_k must be an integer"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": True}}}, "top_k must be an integer"),
            ({**DOC, "conditions": {"few-primary": 5}}, "condition 'few-primary' must be a JSON object"),
            ({**DOC, "conditions": []}, "'conditions' must be a JSON object"),
            ({**DOC, "enroll_segments": 5}, "a file path must be a string, got 5"),
            ([DOC], "must be a JSON object"),
            ("routing", "must be a JSON object"),
            (7, "must be a JSON object"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "topk": 7}}},
             "condition 'few-primary' has unknown key(s) 'topk'"),
            ({**DOC, "enroll_seg_treshold": 99}, "the routing config has unknown key(s) 'enroll_seg_treshold'"),
            ({**DOC, "conditions": {"few-tertiary": STACK}}, "routing.json: unknown condition 'few-tertiary'"),
            ({**DOC, "enroll_seg_threshold": 0}, "routing.json: 'enroll_seg_threshold' must be positive, got 0"),
            ({**DOC, "enroll_seg_threshold": -2}, "routing.json: 'enroll_seg_threshold' must be positive, got -2"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": 0}}},
             "routing.json: condition 'few-primary' top_k must be at least 2, got 0"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": -1}}},
             "routing.json: condition 'few-primary' top_k must be at least 2, got -1"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": 100000}}},
             "routing.json: condition 'few-primary': top_k 100000 exceeds the smaller cohort size 3"),
            ({k: v for k, v in DOC.items() if k != "test_language"},
             "routing.json: the routing config is missing key(s) 'test_language'"),
            ({**DOC, "conditions": {"few-primary": {"model": "m.npz", "calibration": "c.cal"}}},
             "routing.json: condition 'few-primary' is missing key(s) 'cohort_enroll', 'cohort_test'"),
            ({**DOC, "conditions": {"few-primary": {**STACK, "top_k": 1}}},
             "routing.json: condition 'few-primary' top_k must be at least 2, got 1"),
        ],
    )
    def test_wrongly_typed_fields_exit_8(self, rng, tmp_path, capsys, doc, message):
        # every file the config names exists, so only the stack's own
        # sizes can reject the last case
        self._stack_files(rng, tmp_path)
        for name in ("e.embs", "t.embs", "x.trials"):
            (tmp_path / name).write_text("")
        config = tmp_path / "routing.json"
        config.write_text(json.dumps(doc))
        code = cli.main([
            "route-score", "--config", str(config), "--enroll", str(tmp_path / "e.embs"),
            "--test", str(tmp_path / "t.embs"), "--trials", str(tmp_path / "x.trials"),
            "--out", str(tmp_path / "o.scores"),
        ])
        err = capsys.readouterr().err
        assert code == 8, err
        assert err.startswith("asvbackend: config:") and message in err

    @staticmethod
    def _stack_files(rng, tmp_path):
        """One condition's model, cohort and untagged calibration files, and the metadata files."""
        from asvbackend.calibration import write_calibration
        from asvbackend.data import write_embeddings, write_id_map
        from asvbackend.modelio import save_fourcov

        pipe = tiny_pipeline(rng)
        save_fourcov(tmp_path / "m.npz", pipe.model, pipe.pre_enroll, pipe.pre_test)
        write_calibration(tmp_path / "c.cal", pipe.calibration)
        write_embeddings(tmp_path / "ce.embs", [Embedding(f"ce{i}", rng.standard_normal(5)) for i in range(3)])
        write_embeddings(tmp_path / "ct.embs", [Embedding(f"ct{i}", rng.standard_normal(5)) for i in range(3)])
        write_id_map(tmp_path / "segs.txt", {"e1": "3"})
        write_id_map(tmp_path / "lang.txt", {"t1": "primary"})
        return pipe

    def test_alpha_is_an_unknown_key(self, rng, tmp_path):
        # an interpolation weight would be accepted and never read, so the
        # key is refused like any other unknown key, before files are read
        self._stack_files(rng, tmp_path)
        path = tmp_path / "routing.json"
        stack = {**self.STACK, "top_k": 2}
        path.write_text(json.dumps({**self.DOC, "conditions": {"few-primary": stack}}))
        assert "few-primary" in load_routing_config(path).conditions
        path.write_text(json.dumps({**self.DOC, "conditions": {"few-primary": {**stack, "alpha": 0.25}}}))
        with pytest.raises(ConfigError, match="condition 'few-primary' has unknown key\\(s\\) 'alpha'"):
            load_routing_config(path)

    def test_calibration_tag_must_name_its_condition(self, rng, tmp_path):
        from asvbackend.calibration import write_calibration

        pipe = self._stack_files(rng, tmp_path)
        path = tmp_path / "routing.json"
        path.write_text(json.dumps({**self.DOC, "conditions": {"few-primary": {**self.STACK, "top_k": 2}}}))
        write_calibration(tmp_path / "c.cal", pipe.calibration, "few-primary")
        assert "few-primary" in load_pipelines(load_routing_config(path))
        write_calibration(tmp_path / "c.cal", pipe.calibration, "many-secondary")
        with pytest.raises(ConfigError, match=f"condition 'few-primary' names calibration '{tmp_path / 'c.cal'}', "
                                              "which is tagged 'many-secondary'"):
            load_pipelines(load_routing_config(path))

    def test_metadata_step_reads_no_stack(self, rng, tmp_path, monkeypatch):
        import asvbackend.routing as routing

        self._stack_files(rng, tmp_path)
        path = tmp_path / "routing.json"
        path.write_text(json.dumps({**self.DOC, "conditions": {"few-primary": {**self.STACK, "top_k": 2}}}))

        def refuse(*args, **kwargs):
            raise AssertionError("a stack file was read")

        for name in ("load_fourcov", "read_model_space_pair", "read_calibration"):
            monkeypatch.setattr(routing, name, refuse)
        config = load_routing_config(path)
        assert config.conditions["few-primary"] == {
            **{key: str(tmp_path / name) for key, name in self.STACK.items()}, "top_k": 2
        }
        assert classify_trials(config, TrialList((Trial("e1", "t1"),))).tolist() == [0]
        with pytest.raises(AssertionError, match="stack file"):
            load_pipelines(config)

    @pytest.mark.parametrize(
        "enroll_id, message",
        [("e1", "config: no pipeline configured for condition(s): few-primary"),
         ("ghost", "routing: no segment count for enrollment id 'ghost'")],
        ids=["unconfigured-condition", "id-without-metadata"],
    )
    def test_route_score_checks_trials_before_reading_a_stack(self, rng, tmp_path, capsys, enroll_id, message):
        # the trial is few-primary and only few-secondary is configured; its
        # model file is unreadable, so reading it would exit 4
        self._stack_files(rng, tmp_path)
        (tmp_path / "m.npz").write_bytes(b"not a bundle")
        for name in ("e.embs", "t.embs"):
            (tmp_path / name).write_text("")
        (tmp_path / "x.trials").write_text(f"{enroll_id} t1\n")
        config = tmp_path / "routing.json"
        config.write_text(json.dumps({**self.DOC, "conditions": {"few-secondary": self.STACK}}))
        code = cli.main([
            "route-score", "--config", str(config), "--enroll", str(tmp_path / "e.embs"),
            "--test", str(tmp_path / "t.embs"), "--trials", str(tmp_path / "x.trials"),
            "--out", str(tmp_path / "o.scores"),
        ])
        err = capsys.readouterr().err
        assert code == 8, err
        assert err == f"asvbackend: {message}\n"
        assert not (tmp_path / "o.scores").exists()


class TestCohortReuse:
    """`load_pipelines` parses each distinct cohort content once, and each condition maps it itself."""

    @staticmethod
    def _write_config(rng, tmp_path, cohorts):
        """A routing config whose conditions, in CONDITIONS order, name the (enroll, test) cohort
        files in `cohorts`; each condition has its own model, so its own preprocessors."""
        from asvbackend.calibration import write_calibration
        from asvbackend.data import write_id_map
        from asvbackend.modelio import save_fourcov

        write_id_map(tmp_path / "segs.txt", {"e1": "3"})
        write_id_map(tmp_path / "lang.txt", {"t1": "primary"})
        conditions = {}
        for tag, (enroll, test) in zip(CONDITIONS, cohorts):
            pipe = tiny_pipeline(rng)
            save_fourcov(tmp_path / f"{tag}.npz", pipe.model, pipe.pre_enroll, pipe.pre_test)
            write_calibration(tmp_path / f"{tag}.cal", pipe.calibration)
            conditions[tag] = {"model": f"{tag}.npz", "cohort_enroll": enroll, "cohort_test": test,
                               "calibration": f"{tag}.cal", "top_k": 2}
        path = tmp_path / "routing.json"
        path.write_text(json.dumps({"enroll_segments": "segs.txt", "test_language": "lang.txt",
                                    "conditions": conditions}))
        return path

    @staticmethod
    def _write_cohort(rng, path, rows=4):
        from asvbackend.data import write_embeddings

        write_embeddings(path, [Embedding(f"c{i // 2}", rng.standard_normal(5)) for i in range(rows)])
        return path.read_bytes()

    @staticmethod
    def _count_parses(monkeypatch):
        """The names of the files `plda`'s reader parses from now on, in order."""
        from asvbackend.data import read_embeddings

        parsed = []

        def counted(path):
            parsed.append(os.path.basename(path))
            return read_embeddings(path)

        monkeypatch.setattr(plda, "read_embeddings", counted)
        return parsed

    @staticmethod
    def _unshared(config, tag):
        from asvbackend.modelio import load_fourcov

        spec = config.conditions[tag]
        _, pre_enroll, pre_test = load_fourcov(spec["model"])
        return plda.read_model_space_pair(pre_enroll, pre_test, spec["cohort_enroll"], spec["cohort_test"], cohort=True)

    def test_identical_copies_are_parsed_once_and_mapped_per_condition(self, rng, tmp_path, monkeypatch):
        # four byte-identical copies under four names, used on both sides, across three
        # conditions; the fourth condition has two cohorts of its own
        shared = self._write_cohort(rng, tmp_path / "copy1.embs")
        for n in (2, 3, 4):
            (tmp_path / f"copy{n}.embs").write_bytes(shared)
        self._write_cohort(rng, tmp_path / "own_e.embs", rows=6)
        self._write_cohort(rng, tmp_path / "own_t.embs", rows=8)
        path = self._write_config(rng, tmp_path, [
            ("copy1.embs", "copy2.embs"), ("copy3.embs", "copy4.embs"), ("copy4.embs", "copy1.embs"),
            ("own_e.embs", "own_t.embs"),
        ])
        config = load_routing_config(path)
        parsed = self._count_parses(monkeypatch)
        pipelines = load_pipelines(config)
        assert parsed == ["copy1.embs", "own_e.embs", "own_t.embs"]
        monkeypatch.undo()
        for tag, pipeline in pipelines.items():
            enrolls, tests = self._unshared(config, tag)
            for got, want in ((pipeline.cohorts.enroll_cohort, enrolls), (pipeline.cohorts.test_cohort, tests)):
                assert got.ids == want.ids and np.array_equal(got.matrix, want.matrix)
        # each condition maps the one raw table through its own preprocessors
        first, second = pipelines["few-primary"].cohorts, pipelines["few-secondary"].cohorts
        assert not np.array_equal(first.enroll_cohort.matrix, second.enroll_cohort.matrix)

    def test_equal_sizes_with_other_digits_are_both_parsed(self, rng, tmp_path, monkeypatch):
        shared = self._write_cohort(rng, tmp_path / "a.embs")
        digit = next(i for i in range(len(shared) - 1, 0, -1) if shared[i:i + 1].isdigit() and shared[i] != ord("9"))
        other = shared[:digit] + bytes([shared[digit] + 1]) + shared[digit + 1:]
        (tmp_path / "b.embs").write_bytes(other)
        assert len(other) == len(shared) and other != shared
        config = load_routing_config(self._write_config(rng, tmp_path, [("a.embs", "b.embs"), ("b.embs", "a.embs")]))
        parsed = self._count_parses(monkeypatch)
        pipelines = load_pipelines(config)
        assert parsed == ["a.embs", "b.embs"]
        monkeypatch.undo()
        for tag, pipeline in pipelines.items():
            enrolls, tests = self._unshared(config, tag)
            assert np.array_equal(pipeline.cohorts.enroll_cohort.matrix, enrolls.matrix)
            assert np.array_equal(pipeline.cohorts.test_cohort.matrix, tests.matrix)

    def test_all_sizes_distinct_hashes_no_file(self, rng, tmp_path, monkeypatch):
        for n in range(4):
            self._write_cohort(rng, tmp_path / f"e{n}.embs", rows=4 + 2 * n)
            self._write_cohort(rng, tmp_path / f"t{n}.embs", rows=12 + 2 * n)
        assert len({p.stat().st_size for p in tmp_path.glob("*.embs")}) == 8
        path = self._write_config(rng, tmp_path, [(f"e{n}.embs", f"t{n}.embs") for n in range(4)])
        config = load_routing_config(path)

        def refuse(path):
            raise AssertionError(f"{path} was hashed")

        monkeypatch.setattr(plda, "content_digest", refuse)
        parsed = self._count_parses(monkeypatch)
        assert len(load_pipelines(config)) == 4
        assert len(parsed) == 8

    def test_bad_shared_copy_exits_4_naming_the_first_condition(self, rng, tmp_path, capsys):
        self._write_cohort(rng, tmp_path / "copy1.embs")
        bad = (tmp_path / "copy1.embs").read_text().replace(" ", " x", 1).encode()
        for n in range(1, 5):
            (tmp_path / f"copy{n}.embs").write_bytes(bad)
        path = self._write_config(rng, tmp_path, [("copy1.embs", "copy2.embs"), ("copy3.embs", "copy4.embs")])
        for name in ("e.embs", "t.embs"):
            (tmp_path / name).write_text("")
        (tmp_path / "x.trials").write_text("e1 t1\n")
        code = cli.main([
            "route-score", "--config", str(path), "--enroll", str(tmp_path / "e.embs"),
            "--test", str(tmp_path / "t.embs"), "--trials", str(tmp_path / "x.trials"),
            "--out", str(tmp_path / "o.scores"),
        ])
        err = capsys.readouterr().err
        assert code == 4, err
        assert err == f"asvbackend: file-format: {tmp_path / 'copy1.embs'}:1: non-numeric vector component\n"
        assert not (tmp_path / "o.scores").exists()
