"""The error contract under mutated input files.

Five kinds of mutation, each applied to one file of a small dataset:
- one token (a huge, subnormal, non-finite or negative-zero value, a
  `1_0`, which the number grammar refuses, or a byte that is not UTF-8)
  replaces one component of one training, evaluation or cohort vector,
  or the score of one trial in a score file;
- one line of a vector, trial, score, calibration, metadata, speaker-map
  or routing file is dropped, duplicated or swapped with another, or the
  file is cut at a byte offset (its ids start with the two-byte `é`, so
  some cuts fall inside a character);
- one field of a line of those files but the routing config is blanked,
  repeated or upper-cased, which misspells a label (`TGT`), a language,
  a key or an id;
- one value of the routing config is replaced by a JSON value of another
  type or range (a `top_k` of -1, 0, 1, 10^9, 1.5 or `true` among them),
  or an unknown key is added;
- one bit is flipped at fixed offsets of two side bundles, a two-sided
  bundle and a binary embedding file, in the first value of each entry
  that holds a side bundle's training statistics or their key, and at
  searched offsets of a side bundle, the two-sided bundle and the binary
  file.

A sixth search edits two text files that one stage reads, a line or
field edit in each. Every stage that reads a mutated file then runs in
process, the files a routing config names included. Each must exit
with a documented code (0, or 3 to 9). A failing stage prints one
`asvbackend: ` line and writes no output and no temp file; a `domain:`
line names a file that was changed. A stage that succeeds prints nothing on stderr and writes
outputs that read back. The runs are derandomized with fixed example
counts, so tier-1 runs the same cases every time, the pinned examples
among them. A longer search sets the count of the token and line
searches; the field and config searches run half as many, and the
searched bit flips and the two-file edits a sixth:

    ASVBACKEND_FUZZ_EXAMPLES=2000 PYTHONPATH=src python -m pytest tests/test_fuzz.py
"""

import argparse
import contextlib
import io
import json
import os
import struct
import tempfile
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asvbackend import calibration, cli, data, modelio

EXAMPLES = int(os.environ.get("ASVBACKEND_FUZZ_EXAMPLES", "120"))
# "\udcff" stands for the byte 0xff, which is not UTF-8
TOKENS = ["1e308", "-1e308", "1.7e308", "1e200", "1e155", "1e154", "1e-320", "-0",
          "nan", "inf", "-inf", "1_0", "\udcff"]
DIM = 16

# each stage's argv over file names: a name the dataset holds is an input, one starting
# with `out` an output of the run
STAGES = {
    "train-plda": ["train-plda", "--embeddings", "train_test.embs", "--speaker-map", "train_test.map", "--rank", 4,
                   "--iters", 2, "--out", "out.npz"],
    "train-plda --pre": ["train-plda", "--embeddings", "train_enroll.embs", "--aggregate", 3, "--pre", "side2.npz",
                         "--rank", 4, "--iters", 2, "--out", "out.npz"],
    "fit-fourcov": ["fit-fourcov", "--enroll-model", "side1.npz", "--test-model", "side2.npz",
                    "--enroll-embeddings", "train_enroll.embs", "--enroll-aggregate", 3,
                    "--speaker-map-enroll", "train_enroll.map", "--test-embeddings", "train_test.embs",
                    "--speaker-map-test", "train_test.map", "--out", "out.npz"],
    "interpolate": ["interpolate", "--in-domain", "side2.npz", "--out-domain", "side_pre.npz", "--alpha", 0.5,
                    "--out", "out.npz"],
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
# the files `routing.json` names, which `route-score` reads besides its argv;
# synth's evaluation models have 3 segments and primary-language tests
STACK = {"model": "fourcov.npz", "cohort_enroll": "cohort_enroll.embs", "cohort_test": "cohort_test.embs",
         "calibration": "cal.txt", "top_k": 5}
CONFIG = {"enroll_segments": "enroll_meta.txt", "test_language": "test_meta.txt",
          "conditions": {"few-primary": STACK}}
CONFIG_FILES = {value for value in [*STACK.values(), *CONFIG.values()] if isinstance(value, str)}
# a binary copy of `eval_test.embs`, read in its place
BINARY = "eval_test.bin"
TOKEN_TARGETS = ["train_enroll.embs", "train_test.embs", "eval_enroll.embs", "eval_test.embs",
                 "cohort_enroll.embs", "cohort_test.embs", "raw.scores"]
FIELD_TARGETS = ["train_enroll.embs", "eval_test.embs", "cohort_enroll.embs", "eval.trials", "raw.scores",
                 "cal.txt", "enroll_meta.txt", "test_meta.txt", "train_enroll.map", "train_test.map"]
LINE_TARGETS = [*FIELD_TARGETS, "routing.json"]
# where a routing-config edit puts its value: every key the config holds, one it may hold
# (`enroll_seg_threshold`) and three it may not
CONFIG_PATHS = [*[(key,) for key in CONFIG], ("conditions", "few-primary"),
                *[("conditions", "few-primary", key) for key in STACK], ("enroll_seg_threshold",),
                ("unknown",), ("conditions", "few-tertiary"), ("conditions", "few-primary", "unknown")]
JSON_VALUES = [None, True, False, -1, 0, 1, 2, 10**9, 1.5, "", "x", [], {}]


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
               "--eval-speakers", 6, "--cohort-speakers", 8, "--nontargets", 3, "--seed", 3, "--id-prefix", "é")[0] == 0
    # the sides are trained with the speaker maps that `STAGES["fit-fourcov"]` passes
    for side in ("train_enroll", "train_test"):
        ids = data.read_embeddings(base / f"{side}.embs").ids
        data.write_id_map(base / f"{side}.map", {i: data.speaker_of(i) for i in ids})
    assert run("train-plda", "--embeddings", base / "train_enroll.embs", "--speaker-map", base / "train_enroll.map",
               "--aggregate", 3, "--rank", 4, "--iters", 2, "--out", base / "side1.npz")[0] == 0
    assert run("train-plda", "--embeddings", base / "train_test.embs", "--speaker-map", base / "train_test.map",
               "--rank", 4, "--iters", 2, "--out", base / "side2.npz")[0] == 0
    assert run("fit-fourcov", "--enroll-model", base / "side1.npz", "--test-model", base / "side2.npz",
               "--enroll-embeddings", base / "train_enroll.embs", "--enroll-aggregate", 3,
               "--speaker-map-enroll", base / "train_enroll.map", "--test-embeddings", base / "train_test.embs",
               "--speaker-map-test", base / "train_test.map", "--out", base / "fourcov.npz")[0] == 0
    assert run("score", "--model", base / "fourcov.npz", "--enroll", base / "eval_enroll.embs", "--test",
               base / "eval_test.embs", "--trials", base / "eval.trials", "--out", base / "raw.scores")[0] == 0
    # a side bundle in side2's preprocessed space, which `interpolate` combines with side2
    assert run("train-plda", "--embeddings", base / "train_enroll.embs", "--aggregate", 3, "--pre", base / "side2.npz",
               "--rank", 4, "--iters", 2, "--out", base / "side_pre.npz")[0] == 0
    # a scale above 1 takes the largest finite scores beyond the float64 range
    calibration.write_calibration(base / "cal.txt", calibration.CalibrationModel(2.5, 0.1))
    # one key per line, so that line mutations edit the config
    (base / "routing.json").write_text(json.dumps(CONFIG, indent=1))
    data.write_embeddings(base / BINARY, data.read_embeddings(base / "eval_test.embs"), binary=True)
    return base


def test_every_stage_succeeds_on_the_unmutated_dataset(dataset, tmp_path):
    # so that a mutation can reach each stage's success path, fit-fourcov's among them
    for stage, argv in STAGES.items():
        out = tmp_path / stage
        out.mkdir()
        code, err = run(*(out / a if str(a).startswith("out") else dataset / a if (dataset / str(a)).is_file() else a
                          for a in argv))
        assert (code, err) == (0, ""), stage


def read_output(stage, path):
    """Read back an output of a stage that succeeded; a file that does not read back raises."""
    if path.endswith(".npz"):
        (modelio.load_fourcov if stage == "fit-fourcov" else modelio.load_plda_side)(path)
    elif path.endswith(".scores"):
        data.read_scores(path)
    elif path.endswith(".cal"):
        calibration.read_calibration(path)
    else:
        det = np.loadtxt(path, ndmin=2)  # `# p_fa p_miss`, then one point per line
        assert det.shape[1] == 2 and ((0 <= det) & (det <= 1)).all()


LINE_EDITS, FIELD_EDITS = ("drop", "duplicate", "swap", "cut"), ("blank", "repeat", "upper")
FILE_SUFFIXES = (".embs", ".bin", ".map", ".npz", ".trials", ".scores", ".txt", ".json")


def mutate_lines(content, mutation, at, other):
    """`content` with line `at` dropped, duplicated or swapped with line `other`, or cut at byte `at`."""
    lines = content.splitlines(keepends=True)
    i, j = at % len(lines), other % len(lines)
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines = [content[: at % (len(content) + 1)]]
    return b"".join(lines)


def edit_field(content, edit, row, field):
    """`content` with one field of line `row` blanked, repeated or upper-cased."""
    lines = content.decode("utf-8").splitlines()
    fields = lines[row % len(lines)].split()
    i = field % len(fields)
    if edit == "blank":
        del fields[i]
    elif edit == "repeat":
        fields.insert(i, fields[i])
    else:
        fields[i] = fields[i].upper()
    lines[row % len(lines)] = " ".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


def stage_inputs(argv):
    """The dataset files a stage with this argv reads, the files its routing config names included."""
    files = {str(a) for a in argv if str(a).endswith(FILE_SUFFIXES) and not str(a).startswith("out")}
    return files | (CONFIG_FILES if "routing.json" in argv else set())


def check_stages(dataset, contents):
    """Run every stage that reads a file of `contents` (name: bytes), with those bytes in its place,
    and check the exit contract."""
    with tempfile.TemporaryDirectory() as work:
        names = {"eval_test.embs" if target == BINARY else target: content for target, content in contents.items()}
        for entry in os.listdir(dataset):
            if entry not in names:
                os.symlink(dataset / entry, os.path.join(work, entry))
        mutated = [os.path.join(work, name) for name in names]
        for path, content in zip(mutated, names.values()):
            with open(path, "wb") as fh:
                fh.write(content)
        ran = 0
        for stage, argv in STAGES.items():
            if not names.keys() & stage_inputs(argv):
                continue
            ran += 1
            out = os.path.join(work, stage)
            os.mkdir(out)

            def path(arg):
                if arg.startswith("out"):
                    return os.path.join(out, arg)
                return os.path.join(work, arg) if os.path.isfile(os.path.join(work, arg)) else arg

            code, err = run(*(path(str(a)) for a in argv))
            assert code == 0 or 3 <= code <= 9, (stage, code, err)
            if code:
                assert err.startswith("asvbackend: ") and err.count("\n") == 1, (stage, err)
                assert os.listdir(out) == [], (stage, err)
                assert not err.startswith("asvbackend: domain:") or any(path in err for path in mutated), (stage, err)
            else:
                assert err == "", (stage, err)
                for output in os.listdir(out):
                    read_output(stage, os.path.join(out, output))
        assert ran, contents.keys()


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(token=st.sampled_from(TOKENS), target=st.sampled_from(TOKEN_TARGETS),
       row=st.integers(0, 10**6), column=st.integers(0, DIM - 1))
# the first trial is a target: -1e308 overflows the calibration fit, and each of the three
# overflows its calibration (scale 2.5) and its S-norm over top-2 cohort statistics
@example(token="-1e308", target="raw.scores", row=0, column=0)
@example(token="1e308", target="raw.scores", row=0, column=0)
@example(token="1.7e308", target="raw.scores", row=0, column=0)
# an evaluation and a cohort vector that cannot be length-normalized
@example(token="1e308", target="eval_test.embs", row=0, column=0)
@example(token="1e308", target="cohort_test.embs", row=2, column=0)
# a non-UTF-8 byte in a training file, and a non-finite cohort value, which route-score reads too
@example(token="\udcff", target="train_test.embs", row=0, column=0)
@example(token="nan", target="cohort_enroll.embs", row=0, column=0)
def test_edge_values_keep_the_error_contract(dataset, token, target, row, column):
    lines = (dataset / target).read_text(encoding="utf-8").splitlines()
    fields = lines[row % len(lines)].split()
    fields[2 if target.endswith(".scores") else 1 + column] = token
    lines[row % len(lines)] = " ".join(fields)
    check_stages(dataset, {target: ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")})


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(target=st.sampled_from(LINE_TARGETS), mutation=st.sampled_from(["drop", "duplicate", "swap", "cut"]),
       at=st.integers(0, 10**6), other=st.integers(0, 10**6))
# a cut inside the first id's `é`, and a routing config cut inside its first key
@example(target="eval.trials", mutation="cut", at=1, other=0)
@example(target="routing.json", mutation="cut", at=5, other=0)
# a repeated trial, a dropped score and a repeated calibration key
@example(target="eval.trials", mutation="duplicate", at=0, other=0)
@example(target="raw.scores", mutation="drop", at=0, other=0)
@example(target="cal.txt", mutation="duplicate", at=1, other=0)
def test_line_mutations_keep_the_error_contract(dataset, target, mutation, at, other):
    check_stages(dataset, {target: mutate_lines((dataset / target).read_bytes(), mutation, at, other)})


@settings(max_examples=EXAMPLES // 2, derandomize=True, deadline=None)
@given(target=st.sampled_from(FIELD_TARGETS), edit=st.sampled_from(["blank", "repeat", "upper"]),
       row=st.integers(0, 10**6), field=st.integers(0, 10**6))
# a misspelt trial label, language and calibration key
@example(target="eval.trials", edit="upper", row=0, field=2)
@example(target="test_meta.txt", edit="upper", row=0, field=1)
@example(target="cal.txt", edit="upper", row=0, field=0)
# a speaker map's line without its speaker, and a vector with one component too many
@example(target="train_test.map", edit="blank", row=0, field=1)
@example(target="eval_test.embs", edit="repeat", row=0, field=1)
def test_field_edits_keep_the_error_contract(dataset, target, edit, row, field):
    check_stages(dataset, {target: edit_field((dataset / target).read_bytes(), edit, row, field)})


# each stage's text inputs, which line and field edits change
TEXT_INPUTS = {stage: sorted(f for f in stage_inputs(argv) if not f.endswith(".npz")) for stage, argv in STAGES.items()}


@settings(max_examples=EXAMPLES // 6, derandomize=True, deadline=None)
@given(st.data())
def test_edits_of_two_files_of_a_stage_keep_the_error_contract(dataset, draws):
    # one line or field edit in each of two text files that one stage reads
    stage = draws.draw(st.sampled_from([s for s in STAGES if len(TEXT_INPUTS[s]) >= 2]))
    contents = {}
    for target in draws.draw(st.lists(st.sampled_from(TEXT_INPUTS[stage]), min_size=2, max_size=2, unique=True)):
        edit = draws.draw(st.sampled_from([*LINE_EDITS, *FIELD_EDITS] if target != "routing.json" else LINE_EDITS))
        at, other = draws.draw(st.integers(0, 10**6)), draws.draw(st.integers(0, 10**6))
        mutate = mutate_lines if edit in LINE_EDITS else edit_field
        contents[target] = mutate((dataset / target).read_bytes(), edit, at, other)
    check_stages(dataset, contents)


@settings(max_examples=EXAMPLES // 2, derandomize=True, deadline=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=st.sampled_from(JSON_VALUES))
@example(path=("conditions", "few-primary", "top_k"), value=-1)
@example(path=("conditions", "few-primary", "top_k"), value=0)
@example(path=("conditions", "few-primary", "top_k"), value=1)
@example(path=("conditions", "few-primary", "top_k"), value=10**9)
@example(path=("conditions", "few-primary", "top_k"), value=1.5)
@example(path=("conditions", "few-primary", "top_k"), value=True)
@example(path=("conditions", "few-primary", "unknown"), value=2)
def test_config_value_edits_keep_the_error_contract(dataset, path, value):
    doc = json.loads((dataset / "routing.json").read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    check_stages(dataset, {"routing.json": json.dumps(doc, indent=1).encode("utf-8")})


def test_every_stage_that_reads_a_file_is_fuzzed():
    # an input option that no argv of `STAGES` passes would escape every mutation
    parser = cli.build_parser()
    (subcommands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    passed = {}
    for argv in STAGES.values():
        passed.setdefault(argv[0], set()).update(arg for arg in argv if str(arg).startswith("--"))
    for name, sub in subcommands.choices.items():
        inputs = {
            action.option_strings[-1] for action in sub._actions
            if action.option_strings and action.nargs != 0 and action.type is None and action.choices is None
        } - {"--out", "--det-out", "--top-k"}
        if name != "synth":
            assert inputs <= passed.get(name, set()), name


def binary_offset(content, where):
    """The byte offset `where` names in a binary embedding file: in the magic, the header
    dimension, the first record's id length or id bytes, or its first float value."""
    (id_len,) = struct.unpack("<I", content[12:16])
    return {"magic": 3, "dimension": 8, "dimension-high": 11, "id-length": 12, "id-length-high": 15,
            "id": 16, "id-second-byte": 17, "value": 16 + id_len, "value-exponent": 16 + id_len + 3}[where]


# (offset, bit): offsets count from the start, or from the end if negative, over the zip
# local header, the entry name, the .npy header and data, the central directory and the end record
BUNDLE_FLIPS = [(0, 0), (8, 1), (14, 2), (30, 3), (40, 4), (80, 5), (200, 6), (600, 7),
                (-120, 0), (-60, 1), (-22, 2), (-12, 3), (-2, 4)]
# (entry, bit): the first value of each entry of a side bundle's training statistics and their key
STATISTICS_FLIPS = [("speaker_ids", 0), ("speaker_counts", 1), ("speaker_sums", 6), ("train_digest", 2),
                    ("map_digest", 3), ("aggregate", 4)]
BINARY_FLIPS = [("magic", 0), ("dimension", 0), ("dimension-high", 7), ("id-length", 0), ("id-length-high", 7),
                ("id", 6), ("id-second-byte", 0), ("value", 0), ("value-exponent", 6)]


def entry_offset(content, entry):
    """The byte offset of the first value of bundle entry `entry`: past its zip local header (30 bytes,
    its name and extra field) and its .npy header (10 bytes and the header text, in format 1.0)."""
    with zipfile.ZipFile(io.BytesIO(content)) as archive:
        at = archive.getinfo(f"{entry}.npy").header_offset
    start = at + 30 + sum(struct.unpack("<HH", content[at + 26: at + 30]))
    return start + 10 + struct.unpack("<H", content[start + 8: start + 10])[0]


@pytest.mark.parametrize("target, where, bit", [
    *[(name, offset, bit) for name in ("side2.npz", "side_pre.npz", "fourcov.npz") for offset, bit in BUNDLE_FLIPS],
    *[("side2.npz", entry, bit) for entry, bit in STATISTICS_FLIPS],
    *[(BINARY, where, bit) for where, bit in BINARY_FLIPS],
])
def test_bit_flips_keep_the_error_contract(dataset, target, where, bit):
    content = bytearray((dataset / target).read_bytes())
    if target == BINARY:
        offset = binary_offset(content, where)
    else:
        offset = entry_offset(bytes(content), where) if isinstance(where, str) else where % len(content)
    content[offset] ^= 1 << bit
    check_stages(dataset, {target: bytes(content)})


@settings(max_examples=EXAMPLES // 6, derandomize=True, deadline=None)
@given(target=st.sampled_from(["side2.npz", "fourcov.npz", BINARY]), at=st.integers(0, 10**6), bit=st.integers(0, 7))
def test_searched_bit_flips_keep_the_error_contract(dataset, target, at, bit):
    # a side bundle, a two-sided bundle and a binary embedding file, flipped anywhere
    content = bytearray((dataset / target).read_bytes())
    content[at % len(content)] ^= 1 << bit
    check_stages(dataset, {target: bytes(content)})
