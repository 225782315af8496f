import argparse
import ast
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

import asvbackend
from asvbackend import calibration, cli, exceptions, fourcov, modelio, plda, synth
from asvbackend.data import BINARY_MAGIC, join, read_scores


def invoke(*argv):
    return cli.main([str(a) for a in argv])


def synth_args(out_dir, seed=5, language="primary", prefix="", **overrides):
    args = {
        "--out-dir": out_dir,
        "--dim": 6,
        "--rank": 2,
        "--train-speakers": 60,
        "--eval-speakers": 30,
        "--cohort-speakers": 50,
        "--enroll-segs": 3,
        "--train-enroll-samples": 2,
        "--train-test-segs": 3,
        "--eval-test-segs": 2,
        "--snr": 2.0,
        "--kappa": 2.0,
        "--rotation": 0.3,
        "--mean-shift": 0.5,
        "--nontargets": 10,
        "--language": language,
        "--id-prefix": prefix,
        "--seed": seed,
    }
    args.update(overrides)
    argv = ["synth"]
    for key, value in args.items():
        argv += [key, value]
    return argv


def build_bundle(base, tag="m", seed=5, language="primary", prefix="", **synth_overrides):
    """synth + train both sides + fit-fourcov; returns paths dict."""
    out = os.path.join(base, tag)
    assert invoke(*synth_args(out, seed=seed, language=language, prefix=prefix, **synth_overrides)) == 0
    paths = {
        name: os.path.join(out, name)
        for name in (
            "train_enroll.embs", "train_test.embs", "eval_enroll.embs", "eval_test.embs",
            "eval.trials", "enroll_meta.txt", "test_meta.txt",
            "cohort_enroll.embs", "cohort_test.embs", "truth.npz",
        )
    }
    paths["side1"] = os.path.join(out, "side1.npz")
    paths["side2"] = os.path.join(out, "side2.npz")
    paths["fourcov"] = os.path.join(out, "fourcov.npz")
    assert invoke(
        "train-plda", "--embeddings", paths["train_enroll.embs"],
        "--rank", 2, "--iters", 5, "--aggregate", 3, "--out", paths["side1"],
    ) == 0
    assert invoke(
        "train-plda", "--embeddings", paths["train_test.embs"],
        "--rank", 2, "--iters", 5, "--out", paths["side2"],
    ) == 0
    assert invoke(
        "fit-fourcov", "--enroll-model", paths["side1"], "--test-model", paths["side2"],
        "--enroll-embeddings", paths["train_enroll.embs"],
        "--test-embeddings", paths["train_test.embs"],
        "--enroll-aggregate", 3, "--out", paths["fourcov"],
    ) == 0
    return paths


def score_pipeline(paths, out_dir, top_k=20):
    raw = os.path.join(out_dir, "raw.scores")
    normalized = os.path.join(out_dir, "sn.scores")
    calfile = os.path.join(out_dir, "cal.txt")
    final = os.path.join(out_dir, "final.scores")
    assert invoke(
        "score", "--model", paths["fourcov"], "--enroll", paths["eval_enroll.embs"],
        "--test", paths["eval_test.embs"], "--trials", paths["eval.trials"], "--out", raw,
    ) == 0
    assert invoke(
        "snorm", "--model", paths["fourcov"], "--scores", raw,
        "--enroll", paths["eval_enroll.embs"], "--test", paths["eval_test.embs"],
        "--cohort-enroll", paths["cohort_enroll.embs"], "--cohort-test", paths["cohort_test.embs"],
        "--top-k", top_k, "--out", normalized,
    ) == 0
    assert invoke(
        "calibrate", "--scores", normalized, "--trials", paths["eval.trials"], "--out", calfile,
    ) == 0
    assert invoke(
        "calibrate", "--scores", normalized, "--model", calfile, "--out", final,
    ) == 0
    return raw, normalized, calfile, final


class TestEvaluate:
    def test_separable_prints_zero_eer(self, tmp_path, capsys):
        (tmp_path / "s.scores").write_text("e t1 5.0\ne t2 -5.0\n")
        (tmp_path / "t.trials").write_text("e t1 tgt\ne t2 non\n")
        assert invoke("evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials") == 0
        out = capsys.readouterr().out
        assert "EER% 0.00" in out
        assert "minDCF 0.0000" in out

    def test_det_points_written(self, tmp_path):
        (tmp_path / "s.scores").write_text("e t1 5.0\ne t2 -5.0\n")
        (tmp_path / "t.trials").write_text("e t1 tgt\ne t2 non\n")
        det = tmp_path / "det.txt"
        assert invoke(
            "evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials",
            "--det-out", det,
        ) == 0
        lines = [l for l in det.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split() == ["0.0", "1.0"]
        assert lines[-1].split() == ["1.0", "0.0"]

    def test_unscored_trial_exits_8_as_calibrate_does(self, tmp_path, capsys):
        (tmp_path / "s.scores").write_text("e t1 5.0\ne t2 -5.0\n")
        (tmp_path / "t.trials").write_text("e t1 tgt\ne t2 non\ne t3 non\ne t4 tgt\n")
        assert invoke("evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials") == 8
        evaluate_err = capsys.readouterr().err
        assert invoke(
            "calibrate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials",
            "--out", tmp_path / "cal.txt",
        ) == 8
        message = "asvbackend: unknown-id: no score for labeled trial e t3\n"
        assert evaluate_err == capsys.readouterr().err == message


def _probe(code):
    """stdout of `code` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(asvbackend.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["asvbackend", "asvbackend.cli"])
def test_import_loads_no_scipy(module):
    # scipy brings its own OpenBLAS thread pool, which competes with
    # numpy's, and a quarter-second import; only `synth` may load it
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _probe(probe) == "[]"


def test_synth_stage_loads_scipy_when_it_runs(tmp_path):
    probe = (
        "import sys; from asvbackend import cli; "
        f"code = cli.main({[str(a) for a in synth_args(tmp_path / 'd')]!r}); "
        "print(code, 'scipy.linalg' in sys.modules)"
    )
    assert _probe(probe).splitlines()[-1] == "0 True"
    assert (tmp_path / "d" / "train_enroll.embs").exists()


def test_scipy_imported_only_inside_synth_functions():
    # a module-level scipy import anywhere would start scipy's BLAS pool
    # in every stage; synth imports it inside the one function that needs it
    package = os.path.dirname(asvbackend.__file__)
    found = []

    def visit(node, path, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((os.path.basename(path), node.lineno, in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), path), path, False)
    assert found  # synth's own import proves the walk sees nested imports
    assert all(file == "synth.py" and in_function for file, _, in_function in found), found


def test_only_data_checks_for_embedding_tables():
    # a sequence of `Embedding` rows becomes a table in `data.embedding_table`
    # alone; any other module that tests for a table keeps a second path
    package = os.path.dirname(asvbackend.__file__)
    found = []

    def names_table(node):
        return any(
            (isinstance(n, ast.Name) and n.id == "EmbeddingTable")
            or (isinstance(n, ast.Attribute) and n.attr == "EmbeddingTable")
            for n in ast.walk(node)
        )

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            found += [
                (name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2 and names_table(node.args[1])
            ]
    assert found  # data's own check proves the walk sees the calls
    assert all(file == "data.py" for file, _ in found), found


def test_only_fourcov_reads_the_kernel_layout():
    # every score comes from fourcov's side terms; a module that imports a
    # private fourcov name or reads a kernel's weights keeps a second path,
    # and inside fourcov only `_side_terms` reads a kernel's weights
    package = os.path.dirname(asvbackend.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for statement in tree.body:
            function = statement.name if isinstance(statement, ast.FunctionDef) else ""
            for node in ast.walk(statement):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fourcov":
                    found += [(name, function, alias.name) for alias in node.names if alias.name.startswith("_")]
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    private = node.value.id == "fourcov" and node.attr.startswith("_")
                    layout = node.attr in ("blocks", "weights") and node.value.id != "self"
                    if private or layout:
                        found.append((name, function, node.attr))
    allowed = {("fourcov.py", "_side_terms", "weights")}
    assert allowed <= set(found)  # proves the walk sees the kernel's reader
    assert set(found) == allowed, found


def test_each_model_rule_is_written_once():
    # one symmetry rule, `plda.symmetric`; `GroundTruth` takes definiteness
    # from its model; `train_plda` leaves the rank warning to `PldaModel`
    package = os.path.dirname(asvbackend.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)

    def compares_with_transpose(node):
        transposed = [n.value for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "T"]
        others = {ast.dump(n) for n in ast.walk(node) if all(n is not t for t in transposed)}
        return any(ast.dump(t) in others for t in transposed)

    found = set()
    for name, tree in trees.items():
        for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(function):
                comparison = isinstance(node, ast.Compare) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("allclose", "isclose", "array_equal", "array_equiv")
                )
                if comparison and compares_with_transpose(node):
                    found.add((name, function.name))
    assert found == {("plda.py", "symmetric")}

    def attributes(tree, kind, name):
        definition = next(n for n in tree.body if isinstance(n, kind) and n.name == name)
        return {n.attr for n in ast.walk(definition) if isinstance(n, ast.Attribute)}

    assert "eigvalsh" not in attributes(trees["synth.py"], ast.ClassDef, "GroundTruth")
    assert not attributes(trees["plda.py"], ast.FunctionDef, "train_plda") & {"matrix_rank", "catch_warnings"}


def test_each_bundle_layout_is_written_once_and_read_in_a_with(tmp_path):
    # a `save_*` or `load_*` function that spells an entry name keeps a second
    # copy of its kind's layout; an `np.load` outside a `with` leaves the file
    # open when a check fails
    _bundles(tmp_path)
    modelio.save_ground_truth(tmp_path / "truth.npz", synth.make_ground_truth(
        synth.GenConfig(dim=2, enroll_rank=1, test_rank=1, n_speakers=1, enroll_segments=1, test_segments=1, seed=0)
    ))
    entries = set()
    for kind in ("preprocessor", "side", "fourcov", "truth"):
        with np.load(tmp_path / f"{kind}.npz") as bundle:
            entries.update(bundle.files)
    with open(modelio.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith(("save_", "load_"))]
    spelled = []
    for function in functions:
        for node in ast.walk(function):
            name = node.value if isinstance(node, ast.Constant) else node.arg if isinstance(node, ast.keyword) else None
            if name in entries:
                spelled.append((function.name, name))
    loads = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "np.load"]
    with_items = [item.context_expr for n in ast.walk(tree) if isinstance(n, ast.With) for item in n.items]
    assert len(functions) == 7 and loads  # proves the walk sees the writers, the readers and the read
    assert spelled == []
    assert all(any(call is item for item in with_items) for call in loads)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nontargets", -1), ("--cohort-speakers", -3), ("--test-rank", 0),
        ("--kappa", "inf"), ("--kappa", "nan"), ("--snr", "inf"), ("--rotation", "inf"),
        ("--mean-shift", "inf"), ("--jitter", "nan"), ("--eval-jitter", "inf"),
        ("--id-prefix", "a b"), ("--id-prefix", "#a"),
        # test loadings of another rank are drawn on their own, so the rotation of 0.3 would be ignored
        ("--test-rank", 1),
    ],
)
def test_bad_synth_value_exits_6_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        assert invoke(*synth_args(out, **{flag: value})) == 6
    err = capsys.readouterr().err
    assert err.startswith("asvbackend: parameter:") and err.count("\n") == 1, err
    assert not out.exists()


def test_synth_out_dir_at_or_below_a_file_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    draws, draw = [], synth._wishart_unit_cov
    monkeypatch.setattr(synth, "_wishart_unit_cov", lambda *a: draws.append(a) or draw(*a))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        assert invoke(*synth_args(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"asvbackend: missing-file: cannot create directory {out}: "), err
        assert err.count("\n") == 1, err
    assert afile.read_text() == "kept\n" and os.listdir(tmp_path) == ["afile"] and not draws


def test_synth_draws_the_truth_once(tmp_path, monkeypatch):
    # every truth draw starts with the enrollment residual covariance
    calls = []
    draw = synth._wishart_unit_cov
    monkeypatch.setattr(synth, "_wishart_unit_cov", lambda *a: calls.append(a) or draw(*a))
    assert invoke(*synth_args(tmp_path / "d")) == 0
    assert len(calls) == 1


# a small synth run with equal ranks, and one changed value for each of its knobs
SYNTH_BASE = {"--dim": 5, "--rank": 2, "--train-speakers": 12, "--eval-speakers": 4,
              "--cohort-speakers": 3, "--nontargets": 2}
SYNTH_KNOBS = [
    ("--dim", 6), ("--rank", 3), ("--test-rank", 1), ("--train-speakers", 13), ("--eval-speakers", 5),
    ("--cohort-speakers", 4), ("--enroll-segs", 2), ("--train-enroll-samples", 3),
    ("--train-test-segs", 2), ("--eval-test-segs", 3), ("--snr", 2.0), ("--coupling", 0.5),
    ("--kappa", 2.0), ("--rotation", 0.3), ("--mean-shift", 0.5), ("--jitter", 0.4),
    ("--eval-jitter", 0.4), ("--augment-copies", 1), ("--nontargets", 3), ("--language", "secondary"),
    ("--id-prefix", "x"), ("--seed", 1),
]


def _synth_files(out, **overrides):
    """The bytes of every file a `synth` run with SYNTH_BASE and `overrides` writes."""
    argv = ["synth", "--out-dir", out]
    for flag, value in {**SYNTH_BASE, **overrides}.items():
        argv += [flag, value]
    assert invoke(*argv) == 0
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.fixture(scope="module")
def synth_base_files(tmp_path_factory):
    return _synth_files(tmp_path_factory.mktemp("synth") / "base")


@pytest.mark.parametrize("flag, value", SYNTH_KNOBS)
def test_every_synth_knob_changes_the_files(tmp_path, synth_base_files, flag, value):
    assert _synth_files(tmp_path / "d", **{flag: value}) != synth_base_files


@pytest.mark.parametrize("rotation", [0.0, 0.3])
def test_synth_in_dimension_one(tmp_path, rotation):
    # the one rotation of dimension 1 is the identity
    files = _synth_files(tmp_path / "d", **{"--dim": 1, "--rank": 1, "--rotation": rotation})
    assert all(files.values())
    with np.load(tmp_path / "d" / "truth.npz") as truth:
        assert all(np.isfinite(truth[name]).all() for name in truth.files if name != "magic")


def _stages():
    """Each subcommand's name and parser."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_synth_knob_list_covers_every_option():
    options = {
        option for action in _stages()["synth"]._actions for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--out-dir")
    }
    assert options == {flag for flag, _ in SYNTH_KNOBS}


def test_every_stage_reads_every_option_it_defines():
    # an option that a stage's parser defines and its `_cmd_*` function never
    # reads is accepted and then ignored
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    stages = _stages()
    unread = []
    for name, stage in stages.items():
        function = functions[stage.get_default("func").__name__]
        read = {
            node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        unread += [(name, action.dest) for action in stage._actions if action.dest not in read | {"help"}]
    assert len(stages) == 10
    assert unread == []


def _bundles(tmp_path):
    """One valid bundle of each kind, with the stage argv that loads it (`{}` is the bundle)."""
    pre = plda.Preprocessor(np.zeros(2), np.eye(2))
    side = plda.PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(2))
    (tmp_path / "e.embs").write_text("a-1 1.0 2.0\n")
    (tmp_path / "empty").write_text("")
    modelio.save_preprocessor(tmp_path / "preprocessor.npz", pre)
    modelio.save_plda_side(tmp_path / "side.npz", side, pre)
    coupled = fourcov.FourCovModel(side, side, np.eye(1), np.zeros((1, 1)))
    modelio.save_fourcov(tmp_path / "fourcov.npz", coupled, pre, pre)
    empty, out = tmp_path / "empty", tmp_path / "out"
    return {
        "preprocessor": ["train-plda", "--embeddings", tmp_path / "e.embs", "--pre", "{}", "--out", out],
        "side": ["interpolate", "--in-domain", "{}", "--out-domain", "{}", "--alpha", 0.5, "--out", out],
        "fourcov": ["score", "--model", "{}", "--enroll", empty, "--test", empty, "--trials", empty, "--out", out],
    }


@pytest.mark.parametrize(
    "kind, load", [("preprocessor", modelio.load_preprocessor), ("side", modelio.load_plda_side),
                   ("fourcov", modelio.load_fourcov)],
)
def test_bundle_holds_only_what_its_loader_reads(tmp_path, monkeypatch, kind, load):
    _bundles(tmp_path)
    read, load_npz = [], modelio._load_npz
    monkeypatch.setattr(modelio, "_load_npz", lambda *a: read.extend(a[2:]) or load_npz(*a))
    load(tmp_path / f"{kind}.npz")
    with np.load(tmp_path / f"{kind}.npz") as bundle:
        assert sorted(bundle.files) == sorted(["magic", *read])


def test_truth_file_holds_the_truth_fields(tmp_path):
    # no loader reads truth.npz; it holds the eight fields `GroundTruth` takes, in its order
    config = synth.GenConfig(dim=3, enroll_rank=1, test_rank=1, n_speakers=1, enroll_segments=1, test_segments=1, seed=0)
    truth = synth.make_ground_truth(config)
    modelio.save_ground_truth(tmp_path / "truth.npz", truth)
    with np.load(tmp_path / "truth.npz") as bundle:
        assert bundle.files == ["magic", *(f.name for f in dataclasses.fields(synth.GroundTruth))]


@pytest.mark.parametrize(
    "kind, entry", [("preprocessor", "whitener"), ("side", "residual_cov"), ("fourcov", "pre_test_mean")]
)
def test_bundle_missing_entry_exits_4(tmp_path, capsys, kind, entry):
    argv = _bundles(tmp_path)[kind]
    with np.load(tmp_path / f"{kind}.npz") as full:
        kept = {name: full[name] for name in full.files if name != entry}
    bundle = tmp_path / "partial.npz"
    np.savez(bundle, **kept)
    assert invoke(*(bundle if a == "{}" else a for a in argv)) == 4
    assert capsys.readouterr().err == f"asvbackend: file-format: {bundle}: bundle is missing entry '{entry}'\n"


def _loading_stages(tmp_path):
    """`_bundles`' bundles, and the argv of every stage that loads one, by stage.

    `{}` in an argv is the bundle; `route-score` reads `bad.npz` through its routing config.
    """
    bundles = _bundles(tmp_path)
    stages = {"train-plda": bundles["preprocessor"], "interpolate": bundles["side"], "score": bundles["fourcov"]}
    e, empty, out = tmp_path / "e.embs", tmp_path / "empty", tmp_path / "out"
    stages["fit-fourcov"] = [
        "fit-fourcov", "--enroll-model", "{}", "--test-model", "{}",
        "--enroll-embeddings", e, "--test-embeddings", e, "--out", out,
    ]
    stages["snorm"] = [
        "snorm", "--model", "{}", "--scores", empty, "--enroll", empty, "--test", empty,
        "--cohort-enroll", empty, "--cohort-test", empty, "--out", out,
    ]
    calibration.write_calibration(tmp_path / "cal.txt", calibration.CalibrationModel(1.0, 0.0))
    condition = {"model": "bad.npz", "cohort_enroll": "empty", "cohort_test": "empty", "calibration": "cal.txt"}
    config = {"enroll_segments": "empty", "test_language": "empty", "conditions": {"few-primary": condition}}
    (tmp_path / "routing.json").write_text(json.dumps(config))
    stages["route-score"] = [
        "route-score", "--config", tmp_path / "routing.json",
        "--enroll", empty, "--test", empty, "--trials", empty, "--out", out,
    ]
    return stages


def _damage(source, target, entry, defect):
    """Write bundle `source` to `target` with `entry` (or, `truncated`, the whole file) damaged by `defect`."""
    raw = bytearray(source.read_bytes())
    with np.load(source) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    value = arrays.pop(entry)
    if defect == "truncated":
        target.write_bytes(raw[: len(raw) // 2])
    elif defect == "crc":
        with zipfile.ZipFile(source) as archive:
            info = archive.getinfo(f"{entry}.npy")
        # the entry's data follows its local header: 30 bytes, then its name and extra field
        names, extra = struct.unpack("<HH", raw[info.header_offset + 26: info.header_offset + 30])
        raw[info.header_offset + 30 + names + extra + info.compress_size - 1] ^= 0xFF
        target.write_bytes(raw)
    elif defect == "not-npy":
        np.savez(target, **arrays)
        with zipfile.ZipFile(target, "a") as archive:
            archive.writestr(f"{entry}.npy", b"not an array")
    else:
        if defect == "string":
            value = np.array("abc")
        elif defect == "wrong-shape":
            value = np.eye(len(value) + 1)
        elif defect == "asymmetric":
            value = value + np.triu(np.ones_like(value), 1)
        else:
            value = value.copy()
            value.flat[0] = {"nan": np.nan, "inf": np.inf}[defect]
        np.savez(target, **arrays, **{entry: value})


# each bundle kind, a defect, and the entry it damages
BUNDLE_DEFECTS = [
    ("preprocessor", "truncated", "mean"), ("preprocessor", "crc", "whitener"),
    ("preprocessor", "not-npy", "mean"), ("preprocessor", "string", "whitener"),
    ("preprocessor", "nan", "mean"), ("preprocessor", "inf", "whitener"),
    ("preprocessor", "wrong-shape", "whitener"),
    ("side", "truncated", "mean"), ("side", "crc", "residual_cov"), ("side", "not-npy", "pre_mean"),
    ("side", "string", "mean"), ("side", "nan", "speaker_loadings"), ("side", "inf", "mean"),
    ("side", "wrong-shape", "pre_whitener"), ("side", "asymmetric", "residual_cov"),
    ("fourcov", "truncated", "coupling"), ("fourcov", "crc", "coupling"), ("fourcov", "not-npy", "test_mean"),
    ("fourcov", "string", "enroll_loadings"), ("fourcov", "nan", "coupling"),
    ("fourcov", "inf", "coupling_noise_cov"), ("fourcov", "wrong-shape", "pre_enroll_whitener"),
    ("fourcov", "asymmetric", "test_residual_cov"),
]
BUNDLE_STAGES = {"preprocessor": ["train-plda"], "side": ["interpolate", "fit-fourcov"],
                 "fourcov": ["score", "snorm", "route-score"]}


# a bundle file left open is reported, when it is collected, as this warning
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize(
    "kind, stage, defect, entry",
    [(kind, stage, defect, entry) for kind, defect, entry in BUNDLE_DEFECTS for stage in BUNDLE_STAGES[kind]],
)
def test_bad_bundle_exits_4_naming_the_file(tmp_path, capsys, kind, stage, defect, entry):
    argv = _loading_stages(tmp_path)[stage]
    bad = tmp_path / "bad.npz"
    _damage(tmp_path / f"{kind}.npz", bad, entry, defect)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        assert invoke(*(bad if a == "{}" else a for a in argv)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"asvbackend: file-format: {bad}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, load, save",
    [("preprocessor", modelio.load_preprocessor, modelio.save_preprocessor),
     ("side", modelio.load_plda_side, modelio.save_plda_side), ("fourcov", modelio.load_fourcov, modelio.save_fourcov)],
)
def test_bundle_with_an_extra_entry_loads(tmp_path, kind, load, save):
    # bundles written before each bundle held only what its loader reads also hold `dim` and ranks
    _bundles(tmp_path)
    with np.load(tmp_path / f"{kind}.npz") as full:
        arrays = {name: full[name] for name in full.files}
    np.savez(tmp_path / "old.npz", **arrays, dim=np.array(2), rank=np.array(1))
    loaded = load(tmp_path / "old.npz")
    save(tmp_path / "again.npz", *(loaded if isinstance(loaded, tuple) else (loaded,)))
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / f"{kind}.npz").read_bytes()


# the exit codes and kinds that README documents
DOCUMENTED_ERRORS = [
    (FileNotFoundError, 3, "missing-file"),
    (exceptions.FileFormatError, 4, "file-format"),
    (exceptions.DimensionMismatchError, 5, "dimension"),
    (exceptions.ParameterError, 6, "parameter"),
    (exceptions.DomainError, 6, "domain"),
    (exceptions.NumericalError, 7, "numerical"),
    (exceptions.UnknownIdError, 8, "unknown-id"),
    (exceptions.RoutingError, 8, "routing"),
    (exceptions.ConfigError, 8, "config"),
    (exceptions.NormalizationError, 9, "normalization"),
    (exceptions.CalibrationFitError, 9, "calibration"),
    (exceptions.MetricError, 9, "metric"),
    (exceptions.BackendError, 10, "backend"),
]


class TestErrorPaths:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            invoke("evaluate", "--nope")
        assert err.value.code == 2

    def test_calibrate_condition_must_be_a_routing_tag(self, tmp_path, monkeypatch, capsys):
        # a tag that no routing config can name is a usage error, before any file is read
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            invoke("calibrate", "--scores", "s.scores", "--trials", "t.trials",
                   "--condition", "few-tertiary", "--out", "c.cal")
        assert err.value.code == 2
        assert "invalid choice: 'few-tertiary'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = invoke("evaluate", "--scores", tmp_path / "no.scores", "--trials", tmp_path / "no.trials")
        assert code == 3
        assert "missing-file" in capsys.readouterr().err

    def test_text_file_not_utf8_exits_4_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "s.scores").write_text("e t1 5.0\ne t2 -5.0\n")
        (tmp_path / "t.trials").write_bytes(b"e t1 tgt\ne t\xff2 non\n")
        assert invoke("evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials") == 4
        err = capsys.readouterr().err
        assert err == f"asvbackend: file-format: {tmp_path / 't.trials'}:2: line is not valid UTF-8\n"

    def test_binary_id_not_utf8_exits_4_naming_the_record(self, tmp_path, capsys):
        path = tmp_path / "e.bembs"
        record = struct.pack("<I", 3) + b"a-\xff" + struct.pack("<2f", 1.0, 2.0)
        path.write_bytes(BINARY_MAGIC + struct.pack("<I", 2) + record)
        assert invoke("preprocess", "--embeddings", path, "--out", tmp_path / "p.npz") == 4
        assert capsys.readouterr().err == f"asvbackend: file-format: {path}: record 1: id is not valid UTF-8\n"

    def test_routing_config_not_utf8_exits_4_naming_the_line(self, tmp_path, capsys):
        for name in ("e.embs", "t.embs", "t.trials"):
            (tmp_path / name).write_text("")
        (tmp_path / "routing.json").write_bytes(b'{\n  "enroll_segments": "\xe9.txt"\n}\n')
        code = invoke("route-score", "--config", tmp_path / "routing.json", "--enroll", tmp_path / "e.embs",
                      "--test", tmp_path / "t.embs", "--trials", tmp_path / "t.trials", "--out", tmp_path / "r")
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"asvbackend: file-format: {tmp_path / 'routing.json'}:2: line is not valid UTF-8\n"

    def test_directory_as_input_exits_3(self, tmp_path, capsys):
        (tmp_path / "t.trials").write_text("e t1 tgt\n")
        assert invoke("evaluate", "--scores", tmp_path, "--trials", tmp_path / "t.trials") == 3
        assert capsys.readouterr().err == f"asvbackend: missing-file: {tmp_path} (not a regular file)\n"

    def test_directory_as_routing_metadata_exits_8(self, tmp_path, capsys):
        for name in ("e.embs", "t.embs", "t.trials", "lang.txt"):
            (tmp_path / name).write_text("")
        (tmp_path / "meta").mkdir()
        config = {"enroll_segments": "meta", "test_language": "lang.txt", "conditions": {}}
        (tmp_path / "routing.json").write_text(json.dumps(config))
        code = invoke("route-score", "--config", tmp_path / "routing.json", "--enroll", tmp_path / "e.embs",
                      "--test", tmp_path / "t.embs", "--trials", tmp_path / "t.trials", "--out", tmp_path / "r")
        assert code == 8
        err = capsys.readouterr().err
        assert err.startswith("asvbackend: config:") and err.endswith(f"not files: {tmp_path / 'meta'}\n"), err

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_output_exits_3_naming_it(self, tmp_path, capsys, where):
        (tmp_path / "s.scores").write_text("e t1 5.0\ne t2 -5.0\n")
        (tmp_path / "t.trials").write_text("e t1 tgt\ne t2 non\n")
        out = tmp_path / "det"
        if where == "directory":
            out.mkdir()
            problem = "it is a directory"
        else:
            out = out / "det.txt"
            problem = "no such directory"
        code = invoke("evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials",
                      "--det-out", out)
        assert code == 3
        assert capsys.readouterr().err == f"asvbackend: missing-file: cannot write {out}: {problem}\n"
        assert not list(tmp_path.rglob(".tmp.*"))

    def test_malformed_file_exits_4(self, tmp_path, capsys):
        (tmp_path / "bad.scores").write_text("only two\n")
        (tmp_path / "t.trials").write_text("e t tgt\n")
        code = invoke("evaluate", "--scores", tmp_path / "bad.scores", "--trials", tmp_path / "t.trials")
        assert code == 4
        assert "file-format" in capsys.readouterr().err

    def test_non_finite_calibration_file_exits_4(self, tmp_path, capsys):
        (tmp_path / "s.scores").write_text("e0 t0 1.0\n")
        (tmp_path / "bad.cal").write_text("scale nan\noffset 0.0\n")
        code = invoke("calibrate", "--scores", tmp_path / "s.scores", "--model", tmp_path / "bad.cal",
                      "--out", tmp_path / "o.scores")
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("asvbackend: file-format:") and "bad.cal" in err

    @pytest.mark.parametrize("flag, value", [("--c-miss", "nan"), ("--c-fa", "inf")])
    def test_non_finite_dcf_cost_exits_6(self, tmp_path, capsys, flag, value):
        (tmp_path / "s.scores").write_text("e t1 1.0\ne t2 0.0\n")
        (tmp_path / "t.trials").write_text("e t1 tgt\ne t2 non\n")
        code = invoke("evaluate", "--scores", tmp_path / "s.scores", "--trials", tmp_path / "t.trials",
                      flag, value)
        assert code == 6
        assert capsys.readouterr().err.startswith("asvbackend: parameter:")

    @pytest.mark.parametrize("error, code, kind", DOCUMENTED_ERRORS)
    def test_error_class_sets_exit_code_and_kind(self, monkeypatch, capsys, error, code, kind):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_evaluate", fail)
        assert invoke("evaluate", "--scores", "s", "--trials", "t") == code
        assert capsys.readouterr().err == f"asvbackend: {kind}: boom\n"

    def test_every_error_class_is_pinned(self):
        pinned = {error for error, _, _ in DOCUMENTED_ERRORS}
        defined = {
            obj for obj in vars(exceptions).values()
            if isinstance(obj, type) and issubclass(obj, exceptions.BackendError)
        }
        assert defined <= pinned

    def test_dimension_mismatch_exits_5(self, tmp_path, capsys):
        (tmp_path / "e.embs").write_text("a-1 1.0 2.0\nb-1 1.0 2.0 3.0\n")
        code = invoke("preprocess", "--embeddings", tmp_path / "e.embs", "--out", tmp_path / "p.npz")
        assert code == 5
        assert "dimension" in capsys.readouterr().err

    def test_calibrate_needs_exactly_one_mode(self, tmp_path, capsys):
        (tmp_path / "s.scores").write_text("e t 1.0\n")
        code = invoke("calibrate", "--scores", tmp_path / "s.scores", "--out", tmp_path / "c.txt")
        assert code == 6
        assert "parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["snorm", "--model", "m.npz", "--scores", "s.scores", "--enroll", "e.embs",
             "--test", "t.embs", "--cohort-enroll", "ce.embs", "--cohort-test", "ct.embs",
             "--top-k", "abc", "--out", "o.scores"],
            ["calibrate", "--scores", "s.scores", "--model", "c.cal", "--condition", "few-primary",
             "--out", "o.scores"],
            ["preprocess", "--embeddings", "e.embs", "--out", "p.npz", "--transformed-out", "x.embs"],
        ],
        ids=["snorm-top-k-not-integer", "calibrate-apply-with-condition", "preprocess-output-without-input"],
    )
    def test_bad_flag_combination_exits_6_before_reading(self, tmp_path, monkeypatch, capsys, argv):
        # none of the input files exist, so reading any of them would exit 3
        monkeypatch.chdir(tmp_path)
        code = invoke(*argv)
        assert code == 6
        assert "parameter" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestPipeline:
    def test_full_pipeline_deterministic(self, tmp_path, capsys):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            paths = build_bundle(base, seed=9)
            raw, normalized, calfile, final = score_pipeline(paths, base)
            assert invoke("evaluate", "--scores", final, "--trials", paths["eval.trials"]) == 0
            printed = capsys.readouterr().out
            outputs.append(
                (
                    open(raw, "rb").read(),
                    open(normalized, "rb").read(),
                    open(final, "rb").read(),
                    printed.splitlines()[-2:],
                )
            )
        assert outputs[0] == outputs[1]

    def test_scores_beat_chance(self, tmp_path, capsys):
        paths = build_bundle(tmp_path, seed=12)
        raw, *_ = score_pipeline(paths, tmp_path)
        capsys.readouterr()
        assert invoke("evaluate", "--scores", raw, "--trials", paths["eval.trials"]) == 0
        eer_line = capsys.readouterr().out.splitlines()[0]
        assert eer_line.startswith("EER%")
        assert float(eer_line.split()[1]) < 40.0  # clearly better than chance

    def test_preprocess_and_interpolate_smoke(self, tmp_path):
        paths = build_bundle(tmp_path, seed=14)
        pre = tmp_path / "pre.npz"
        assert invoke("preprocess", "--embeddings", paths["train_test.embs"], "--out", pre) == 0
        assert pre.exists()
        mixed = tmp_path / "mixed.npz"
        assert invoke(
            "interpolate", "--in-domain", paths["side2"], "--out-domain", paths["side2"],
            "--alpha", 0.5, "--out", mixed,
        ) == 0
        from asvbackend.modelio import load_plda_side

        original, _ = load_plda_side(paths["side2"])
        combined, _ = load_plda_side(mixed)
        np.testing.assert_allclose(combined.between_cov(), original.between_cov(), atol=1e-10)


def test_training_stages_build_no_row_or_group_objects(tmp_path, monkeypatch):
    """train-plda and fit-fourcov work on tables: no `Embedding` or `SpeakerGroup` is constructed.

    Table row views bypass `__post_init__`, so any call to it means a
    stage built per-row or per-speaker objects.
    """
    out = tmp_path / "d"
    assert invoke(*synth_args(out, **{"--train-speakers": 30})) == 0

    def forbidden(self):
        raise AssertionError(f"{type(self).__name__} constructed during training")

    monkeypatch.setattr(asvbackend.data.Embedding, "__post_init__", forbidden)
    monkeypatch.setattr(asvbackend.data.SpeakerGroup, "__post_init__", forbidden)
    assert invoke(
        "train-plda", "--embeddings", out / "train_enroll.embs",
        "--rank", 2, "--iters", 3, "--aggregate", 3, "--out", out / "side1.npz",
    ) == 0
    assert invoke(
        "train-plda", "--embeddings", out / "train_test.embs",
        "--rank", 2, "--iters", 3, "--out", out / "side2.npz",
    ) == 0
    assert invoke(
        "fit-fourcov", "--enroll-model", out / "side1.npz", "--test-model", out / "side2.npz",
        "--enroll-embeddings", out / "train_enroll.embs", "--test-embeddings", out / "train_test.embs",
        "--enroll-aggregate", 3, "--out", out / "fourcov.npz",
    ) == 0


def test_fit_fourcov_pairs_shared_speakers_in_sorted_order(tmp_path, capsys):
    """The coupling is fitted on the speakers both files share, sorted, however the rows are ordered."""
    from asvbackend import data, fourcov, modelio, plda

    out = tmp_path / "d"
    assert invoke(*synth_args(out, **{"--train-speakers": 30})) == 0
    for side, extra in (("1", ["--aggregate", 3]), ("2", [])):
        embeddings = out / ("train_enroll.embs" if side == "1" else "train_test.embs")
        assert invoke("train-plda", "--embeddings", embeddings, "--rank", 2, "--iters", 3,
                      *extra, "--out", out / f"side{side}.npz") == 0
    # the test side keeps 20 of the 30 speakers, its rows in reverse order
    test_rows = data.read_embeddings(out / "train_test.embs")
    kept = [i for i, row_id in reversed(list(enumerate(test_rows.ids))) if int(row_id.split("-")[0][2:]) % 3]
    data.write_embeddings(out / "subset.embs", test_rows.take(kept))

    def fit(test_embeddings):
        return invoke("fit-fourcov", "--enroll-model", out / "side1.npz", "--test-model", out / "side2.npz",
                      "--enroll-embeddings", out / "train_enroll.embs", "--test-embeddings", test_embeddings,
                      "--enroll-aggregate", 3, "--out", out / "fourcov.npz")

    assert fit(out / "subset.embs") == 0
    got, _, _ = modelio.load_fourcov(out / "fourcov.npz")

    model1, pre1 = modelio.load_plda_side(out / "side1.npz")
    model2, pre2 = modelio.load_plda_side(out / "side2.npz")

    def groups(path):
        rows = data.read_embeddings(path)
        by_speaker = {}
        for row in rows:
            by_speaker.setdefault(data.speaker_of(row.id), []).append(row)
        return {s: data.SpeakerGroup(s, tuple(members)) for s, members in by_speaker.items()}

    enroll, test = groups(out / "train_enroll.embs"), groups(out / "subset.embs")
    shared = sorted(set(enroll) & set(test))
    assert len(shared) == 20
    pairs = [
        (plda.chunked_enroll_averages(enroll[s], pre1, 3),
         data.SpeakerGroup(s, tuple(data.Embedding(m.id, pre2.apply(m.vector)) for m in test[s].members)))
        for s in shared
    ]
    want = fourcov.fit_coupling(model1, model2, pairs)
    np.testing.assert_allclose(got.coupling, want.coupling, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.coupling_noise_cov, want.coupling_noise_cov, rtol=0, atol=1e-10)

    renamed = data.EmbeddingTable.from_columns(["x" + i for i in test_rows.ids], test_rows.matrix)
    data.write_embeddings(out / "disjoint.embs", renamed)
    capsys.readouterr()
    assert fit(out / "disjoint.embs") == 6
    assert "no speakers shared" in capsys.readouterr().err


def one_condition_config(paths, calfile, base, tag="few-primary"):
    """A routing config at `base`/routing.json with one condition: the bundle's stack."""
    def rel(path):
        return os.path.relpath(path, base)

    config = {
        "enroll_seg_threshold": 5,
        "enroll_segments": rel(paths["enroll_meta.txt"]),
        "test_language": rel(paths["test_meta.txt"]),
        "conditions": {
            tag: {
                "model": rel(paths["fourcov"]),
                "cohort_enroll": rel(paths["cohort_enroll.embs"]),
                "cohort_test": rel(paths["cohort_test.embs"]),
                "calibration": rel(calfile),
                "top_k": 20,
            }
        },
    }
    path = os.path.join(base, "routing.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


class TestRouteScore:
    def test_route_matches_manual_splice(self, tmp_path):
        base_a = tmp_path / "condA"
        base_b = tmp_path / "condB"
        paths_a = build_bundle(base_a, tag="", seed=21, language="primary", prefix="a")
        paths_b = build_bundle(
            base_b, tag="", seed=22, language="secondary", prefix="b",
            **{"--rotation": 0.8, "--kappa": 3.0},
        )
        # per-condition pipelines, reusing eval trials as calibration dev
        _, _, cal_a, final_a = score_pipeline(paths_a, base_a)
        _, _, cal_b, final_b = score_pipeline(paths_b, base_b)

        # merged inputs: condition A enrollments have 3 segments (few),
        # B enrollments are inflated to 6 (many) via the metadata file
        merged = tmp_path / "merged"
        merged.mkdir()
        def concat(name, out_name=None):
            out = merged / (out_name or name)
            with open(out, "w") as fh:
                for p in (paths_a[name], paths_b[name]):
                    fh.write(open(p).read())
            return out

        enroll = concat("eval_enroll.embs")
        test = concat("eval_test.embs")
        trials = concat("eval.trials")
        lang_meta = concat("test_meta.txt")
        seg_meta = merged / "enroll_meta.txt"
        with open(seg_meta, "w") as fh:
            for line in open(paths_a["enroll_meta.txt"]):
                fh.write(line)
            for line in open(paths_b["enroll_meta.txt"]):
                eid, _ = line.split()
                fh.write(f"{eid} 6\n")

        config = {
            "enroll_seg_threshold": 5,
            "enroll_segments": "enroll_meta.txt",
            "test_language": "test_meta.txt",
            "conditions": {
                "few-primary": {
                    "model": os.path.relpath(paths_a["fourcov"], merged),
                    "cohort_enroll": os.path.relpath(paths_a["cohort_enroll.embs"], merged),
                    "cohort_test": os.path.relpath(paths_a["cohort_test.embs"], merged),
                    "calibration": os.path.relpath(cal_a, merged),
                    "top_k": 20,
                },
                "many-secondary": {
                    "model": os.path.relpath(paths_b["fourcov"], merged),
                    "cohort_enroll": os.path.relpath(paths_b["cohort_enroll.embs"], merged),
                    "cohort_test": os.path.relpath(paths_b["cohort_test.embs"], merged),
                    "calibration": os.path.relpath(cal_b, merged),
                    "top_k": 20,
                },
            },
        }
        config_path = merged / "routing.json"
        config_path.write_text(json.dumps(config))

        routed_path = merged / "routed.scores"
        assert invoke(
            "route-score", "--config", config_path, "--enroll", enroll, "--test", test,
            "--trials", trials, "--out", routed_path,
        ) == 0

        routed = read_scores(routed_path)
        for manual_file in (final_a, final_b):
            manual = read_scores(manual_file)
            rows = join(manual, routed)
            assert (rows >= 0).all()
            np.testing.assert_array_equal(routed.values()[rows], manual.values())

    def test_route_matches_chain_with_repeated_test_id(self, tmp_path):
        paths = build_bundle(tmp_path, seed=23)
        # a second row for the first test id, carrying the second row's vector
        lines = open(paths["eval_test.embs"]).read().splitlines()
        first_id = lines[0].split()[0]
        repeated = tmp_path / "repeated_test.embs"
        repeated.write_text("\n".join(lines + [first_id + "  " + lines[1].split(maxsplit=1)[1]]) + "\n")
        paths = {**paths, "eval_test.embs": repeated}
        _, _, calfile, final = score_pipeline(paths, tmp_path)
        # every eval enrollment has 3 segments and every test segment is primary
        config = one_condition_config(paths, calfile, tmp_path)

        routed_path = tmp_path / "routed.scores"
        assert invoke(
            "route-score", "--config", config, "--enroll", paths["eval_enroll.embs"],
            "--test", repeated, "--trials", paths["eval.trials"], "--out", routed_path,
        ) == 0
        routed, manual = read_scores(routed_path), read_scores(final)
        assert first_id in routed.test_ids
        np.testing.assert_array_equal(routed.values(), manual.values())

    def test_route_missing_condition_exits_8(self, tmp_path, capsys):
        paths = build_bundle(tmp_path, seed=25)
        _, _, calfile, _ = score_pipeline(paths, tmp_path)
        config = one_condition_config(paths, calfile, tmp_path, tag="many-primary")
        code = invoke(
            "route-score", "--config", config,
            "--enroll", paths["eval_enroll.embs"], "--test", paths["eval_test.embs"],
            "--trials", paths["eval.trials"], "--out", tmp_path / "r.scores",
        )
        # all eval enrollments have 3 segments -> few-primary, which is absent
        assert code == 8
        assert "few-primary" in capsys.readouterr().err


class TestSideWidth:
    """A raw vector file of the wrong width is reported with its side."""

    @pytest.fixture(scope="class")
    def stack(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("width")
        paths = build_bundle(base, seed=26)
        raw, _, calfile, _ = score_pipeline(paths, base)
        config = one_condition_config(paths, calfile, base)
        narrow = {}
        for side, name in (("enrollment", "eval_enroll.embs"), ("test", "eval_test.embs")):
            # each vector loses its last value
            narrow[side] = base / f"narrow_{name}"
            narrow[side].write_text("".join(" ".join(line.split()[:-1]) + "\n" for line in open(paths[name])))
        return paths, raw, config, narrow

    @pytest.mark.parametrize("stage", ["score", "snorm", "route-score"])
    @pytest.mark.parametrize("side", ["enrollment", "test"])
    def test_wrong_width_exits_5_naming_the_side(self, stack, tmp_path, capsys, stage, side):
        paths, raw, config, narrow = stack
        files = {"enrollment": paths["eval_enroll.embs"], "test": paths["eval_test.embs"], side: narrow[side]}
        vectors = ["--enroll", files["enrollment"], "--test", files["test"]]
        argv = {
            "score": ["--model", paths["fourcov"], *vectors, "--trials", paths["eval.trials"]],
            "snorm": ["--model", paths["fourcov"], "--scores", raw, *vectors,
                      "--cohort-enroll", paths["cohort_enroll.embs"],
                      "--cohort-test", paths["cohort_test.embs"], "--top-k", 20],
            "route-score": ["--config", config, *vectors, "--trials", paths["eval.trials"]],
        }[stage]
        out = tmp_path / "out.scores"
        assert invoke(stage, *argv, "--out", out) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"asvbackend: dimension: {side} "), err
        assert f"({narrow[side]}) vectors have dimension 5, the model expects 6" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, label",
        [("preprocess", "transform"), ("train-plda", "training"),
         ("fit-fourcov", "enrollment"), ("fit-fourcov", "test")],
    )
    def test_training_stage_wrong_width_exits_5_naming_the_file(self, stack, tmp_path, capsys, stage, label):
        # every stage that maps a file through a stored preprocessor checks
        # its width the way score and snorm do
        paths = stack[0]
        pre = tmp_path / "pre.npz"
        assert invoke("preprocess", "--embeddings", paths["train_test.embs"], "--out", pre) == 0
        source = paths["train_enroll.embs" if label == "enrollment" else "train_test.embs"]
        narrow = tmp_path / "narrow.embs"
        narrow.write_text("".join(" ".join(line.split()[:-1]) + "\n" for line in open(source)))
        out = tmp_path / "out"
        train = {"enrollment": paths["train_enroll.embs"], "test": paths["train_test.embs"], label: narrow}
        argv = {
            "preprocess": ["--embeddings", paths["train_test.embs"], "--transform", narrow,
                           "--transformed-out", tmp_path / "out.pre"],
            "train-plda": ["--embeddings", narrow, "--pre", pre, "--rank", 2],
            "fit-fourcov": ["--enroll-model", paths["side1"], "--test-model", paths["side2"],
                            "--enroll-embeddings", train["enrollment"], "--test-embeddings", train["test"],
                            "--enroll-aggregate", 3],
        }[stage]
        assert invoke(stage, *argv, "--out", out) == 5
        err = capsys.readouterr().err
        assert err == (f"asvbackend: dimension: {label} ({narrow}) vectors have dimension 5, "
                       "the model expects 6\n"), err
        assert not out.exists() and not (tmp_path / "out.pre").exists()
