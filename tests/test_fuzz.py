"""The error contract under values at the edge of float64.

One token (a huge, subnormal or negative-zero value) replaces one
component of one training, evaluation or cohort vector, or the score of
one trial in a score file, and every stage that reads that file runs in
process. Each must exit with a documented code (0, or 3 to 9). A failing
stage prints one `asvbackend: ` line and writes no output and no temp
file; a `domain:` line names the file that was changed. A stage that
succeeds prints nothing on stderr. The run is derandomized with a fixed
example count, so tier-1 runs the same cases every time, the pinned
examples among them. A longer search sets the count:

    ASVBACKEND_FUZZ_EXAMPLES=2000 PYTHONPATH=src python -m pytest tests/test_fuzz.py
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asvbackend import calibration, cli

EXAMPLES = int(os.environ.get("ASVBACKEND_FUZZ_EXAMPLES", "120"))
TOKENS = ["1e308", "-1e308", "1.7e308", "1e200", "1e155", "1e154", "1e-320", "-0"]
DIM = 16

# each stage's argv over file names: a name the dataset holds is an input, one starting
# with `out` an output of the run
STAGES = {
    "train-plda": ["train-plda", "--embeddings", "train_test.embs", "--rank", 4, "--iters", 2, "--out", "out.npz"],
    "train-plda --pre": ["train-plda", "--embeddings", "train_enroll.embs", "--aggregate", 3, "--pre", "side2.npz",
                         "--rank", 4, "--iters", 2, "--out", "out.npz"],
    "fit-fourcov": ["fit-fourcov", "--enroll-model", "side1.npz", "--test-model", "side2.npz",
                    "--enroll-embeddings", "train_enroll.embs", "--enroll-aggregate", 3,
                    "--test-embeddings", "train_test.embs", "--out", "out.npz"],
    "score": ["score", "--model", "fourcov.npz", "--enroll", "eval_enroll.embs", "--test", "eval_test.embs",
              "--trials", "eval.trials", "--out", "out.scores"],
    "snorm": ["snorm", "--model", "fourcov.npz", "--scores", "raw.scores", "--enroll", "eval_enroll.embs",
              "--test", "eval_test.embs", "--cohort-enroll", "cohort_enroll.embs", "--cohort-test", "cohort_test.embs",
              "--top-k", 2, "--out", "out.scores"],
    "calibrate --trials": ["calibrate", "--scores", "raw.scores", "--trials", "eval.trials", "--out", "out.cal"],
    "calibrate --model": ["calibrate", "--scores", "raw.scores", "--model", "cal.txt", "--out", "out.scores"],
    "evaluate": ["evaluate", "--scores", "raw.scores", "--trials", "eval.trials", "--det-out", "out.det"],
    "route-score": ["route-score", "--config", "routing.json", "--enroll", "eval_enroll.embs",
                    "--test", "eval_test.embs", "--trials", "eval.trials", "--out", "out.scores"],
}
TARGETS = ["train_enroll.embs", "train_test.embs", "eval_enroll.embs", "eval_test.embs",
           "cohort_enroll.embs", "cohort_test.embs", "raw.scores"]


def run(*argv):
    """Exit code and stderr of one in-process CLI call, every warning shown."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small synthetic dataset with the bundles, scores, calibration and routing config the stages load."""
    base = tmp_path_factory.mktemp("fuzz")
    assert run("synth", "--out-dir", base, "--dim", DIM, "--rank", 4, "--train-speakers", 30,
               "--eval-speakers", 6, "--cohort-speakers", 8, "--nontargets", 3, "--seed", 3)[0] == 0
    assert run("train-plda", "--embeddings", base / "train_enroll.embs", "--aggregate", 3, "--rank", 4,
               "--iters", 2, "--out", base / "side1.npz")[0] == 0
    assert run("train-plda", "--embeddings", base / "train_test.embs", "--rank", 4, "--iters", 2,
               "--out", base / "side2.npz")[0] == 0
    assert run("fit-fourcov", "--enroll-model", base / "side1.npz", "--test-model", base / "side2.npz",
               "--enroll-embeddings", base / "train_enroll.embs", "--enroll-aggregate", 3,
               "--test-embeddings", base / "train_test.embs", "--out", base / "fourcov.npz")[0] == 0
    assert run("score", "--model", base / "fourcov.npz", "--enroll", base / "eval_enroll.embs", "--test",
               base / "eval_test.embs", "--trials", base / "eval.trials", "--out", base / "raw.scores")[0] == 0
    # a scale above 1 takes the largest finite scores beyond the float64 range
    calibration.write_calibration(base / "cal.txt", calibration.CalibrationModel(2.5, 0.1))
    # synth's evaluation models have 3 segments and primary-language tests
    stack = {"model": "fourcov.npz", "cohort_enroll": "cohort_enroll.embs", "cohort_test": "cohort_test.embs",
             "calibration": "cal.txt", "top_k": 5}
    config = {"enroll_segments": "enroll_meta.txt", "test_language": "test_meta.txt",
              "conditions": {"few-primary": stack}}
    (base / "routing.json").write_text(json.dumps(config))
    return base


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(token=st.sampled_from(TOKENS), target=st.sampled_from(TARGETS),
       row=st.integers(0, 10**6), column=st.integers(0, DIM - 1))
# the first trial is a target: -1e308 overflows the calibration fit, and each of the three
# overflows its calibration (scale 2.5) and its S-norm over top-2 cohort statistics
@example(token="-1e308", target="raw.scores", row=0, column=0)
@example(token="1e308", target="raw.scores", row=0, column=0)
@example(token="1.7e308", target="raw.scores", row=0, column=0)
# an evaluation and a cohort vector that cannot be length-normalized
@example(token="1e308", target="eval_test.embs", row=0, column=0)
@example(token="1e308", target="cohort_test.embs", row=2, column=0)
def test_edge_values_keep_the_error_contract(dataset, token, target, row, column):
    lines = (dataset / target).read_text().splitlines()
    fields = lines[row % len(lines)].split()
    fields[2 if target.endswith(".scores") else 1 + column] = token
    lines[row % len(lines)] = " ".join(fields)
    with tempfile.TemporaryDirectory() as work:
        mutated = os.path.join(work, target)
        with open(mutated, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for stage, argv in STAGES.items():
            if target not in argv:
                continue
            out = os.path.join(work, stage)
            os.mkdir(out)

            def path(name):
                if str(name).startswith("out"):
                    return os.path.join(out, name)
                if name == target:
                    return mutated
                return dataset / name if (dataset / str(name)).is_file() else name

            code, err = run(*map(path, argv))
            assert code == 0 or 3 <= code <= 9, (stage, code, err)
            if code:
                assert err.startswith("asvbackend: ") and err.count("\n") == 1, (stage, err)
                assert os.listdir(out) == [], (stage, err)
                assert not err.startswith("asvbackend: domain:") or mutated in err, (stage, err)
            else:
                assert err == "", (stage, err)
