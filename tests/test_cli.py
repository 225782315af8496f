import argparse
import ast
import dataclasses
import json
import os
import pathlib
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asvbackend
from asvbackend import calibration, cli, data, exceptions, fourcov, modelio, plda, routing, synth
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
    # numpy's, and a quarter-second import; the package needs numpy alone
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _probe(probe) == "[]"


def test_scipy_imported_only_inside_synth_functions():
    # synth once imported scipy inside `_rotation`; now no source file
    # names scipy at all, which also rules out a hidden dynamic import
    package = pathlib.Path(asvbackend.__file__).parent
    assert [p.name for p in package.rglob("*.py") if "scipy" in p.read_text(encoding="utf-8")] == []


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


def test_one_trial_functions_are_batches_of_one():
    # `score_trial` reaches the core only through `score_batch`, so a score
    # has one entry to keep in step
    callers = {}
    for path in sorted(pathlib.Path(asvbackend.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    callers.setdefault(callee, set()).add((path.stem, getattr(statement, "name", None)))
    one_trial = {("fourcov", "score_trial")}
    assert ("fourcov", "score_trial") in callers["score_batch"]
    assert sorted(name for name, where in callers.items() if name.startswith("_") and where & one_trial) == []
    assert callers["_side_terms"] == {("fourcov", "score_batch"), ("fourcov", "cohort_grids")}
    assert callers["_side_stats"] == {("scorenorm", "snorm_batch")}


def _package_trees():
    """Each package module's name and parsed source."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(pathlib.Path(asvbackend.__file__).parent.glob("*.py"))}


def _callee(call):
    """The called name of a call node: `f` for `f(...)` and `m.f(...)`, else None."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def test_no_package_source_reshapes():
    # a reshape lets an array of any shape through as rows, beside the
    # shape rule of `Embedding` and `EmbeddingTable.from_columns`
    found = [(module, node.lineno) for module, tree in _package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Call) and _callee(node) == "reshape"]
    assert found == []


def test_every_public_function_is_used():
    # a public function or method that no package code calls and that the
    # acceptance suite does not use is a side entrance whose rules drift from
    # the path every stage takes; an `__all__` entry is not a use. Properties,
    # class methods and dunders are exempt
    trees = _package_trees()
    called = {_callee(node) for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)}
    acceptance = ast.parse((pathlib.Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(acceptance) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names}

    def exempt(method):
        return any(isinstance(d, ast.Name) and d.id in ("property", "classmethod") for d in method.decorator_list)

    public = [(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    public += [(module, f"{node.name}.{method.name}") for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) for method in node.body
               if isinstance(method, ast.FunctionDef) and not method.name.startswith("_") and not exempt(method)]
    # proves the walk sees functions and methods
    assert {("fourcov", "score_trial"), ("data", "EmbeddingTable.take")} <= set(public)
    assert [(module, name) for module, name in public
            if name.rsplit(".", 1)[-1] not in called | used] == []


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
    for kind in ("side", "fourcov", "truth"):
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
    assert len(functions) == 5 and loads  # proves the walk sees the writers, the readers and the read
    assert spelled == []
    assert all(any(call is item for item in with_items) for call in loads)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nontargets", -1), ("--cohort-speakers", -3), ("--test-rank", 0),
        ("--kappa", "inf"), ("--kappa", "nan"), ("--snr", "inf"), ("--rotation", "inf"),
        ("--mean-shift", "inf"), ("--jitter", "nan"), ("--eval-jitter", "inf"),
        ("--id-prefix", "a b"), ("--id-prefix", "#a"),
        # a command-line é decoded under a C locale: UTF-8 cannot encode it
        ("--id-prefix", "\udce9"),
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


def test_augmentation_is_training_only(tmp_path, synth_base_files):
    # augmented copies are training rows: every other file, and the segment counts that
    # routing reads from enroll_meta.txt, are those of a run without them
    augmented = _synth_files(tmp_path / "d", **{"--augment-copies": 2})
    assert set(data.read_id_map(tmp_path / "d" / "enroll_meta.txt").values()) == {"3"}
    assert [name for name in augmented if augmented[name] != synth_base_files[name]] == ["train_enroll.embs"]
    assert augmented["train_enroll.embs"].count(b"\n") == 3 * synth_base_files["train_enroll.embs"].count(b"\n")


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


def _readme_commands():
    """The argv of each `asvbackend ...` command in the README's fenced `sh` blocks, continuation lines joined."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("asvbackend ")]


def test_readme_commands_parse():
    # a command that no longer parses, such as a removed stage or option, exits 2 for a reader who runs it
    commands = _readme_commands()
    assert len(commands) >= 10 and {argv[0] for argv in commands} >= {"synth", "train-plda", "interpolate"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: asvbackend {shlex.join(argv)}")


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
    assert len(stages) == 9
    assert unread == []


def test_every_numeric_option_reads_through_the_number_grammar():
    types = {(name, action.option_strings[-1]): action.type
             for name, stage in _stages().items() for action in stage._actions if action.type is not None}
    assert len(types) == 28 and set(types.values()) == {cli._INT, cli._FLOAT}


def _number(text, convert):
    """`convert(text)` for text whose stripped token is ASCII without '_', as the number grammar has it."""
    token = text.strip()
    if not (token.isascii() and "_" not in token):
        raise ValueError(text)
    return convert(token)


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError:
        return "refused"
    return "nan" if value != value else (type(value), np.float64(value).tobytes())


NUMBER_EDGES = ["1_0", "\u0663", "\uff11", "inf", "-Infinity", "nan", "1e400", "-0", "1e-320", " 3 ", "+3",
                "3.0", "", " ", "0x10", "1e5", "\r2\n", "1 2", "\xa07", "010"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=st.one_of(st.sampled_from(NUMBER_EDGES), st.text(), st.from_regex(r"\s*[+-]?[0-9_.eE]{1,6}\s*", fullmatch=True)))
@example(text="1_0")
@example(text="\u0663")
def test_numeric_options_accept_exactly_the_number_grammar(text):
    # `int()` and `float()` under the grammar's character rule are the oracle, value for value
    assert _outcome(cli._INT, text) == _outcome(lambda t: _number(t, int), text)
    assert _outcome(cli._FLOAT, text) == _outcome(lambda t: _number(t, float), text)


@pytest.mark.parametrize("argv, option, kind", [
    (["synth", "--out-dir", "d", "--dim", "1_0"], "--dim", "int"),
    (["train-plda", "--embeddings", "e", "--out", "o", "--rank", "\u0663"], "--rank", "int"),
    (["interpolate", "--in-domain", "a", "--out-domain", "b", "--out", "o", "--alpha", "0_5"], "--alpha", "float"),
    (["evaluate", "--scores", "s", "--trials", "t", "--p-target", "\uff10.1"], "--p-target", "float"),
])
def test_refused_number_option_exits_2(tmp_path, monkeypatch, capsys, argv, option, kind):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert f"argument {option}: invalid {kind} value: {argv[-1]!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _bundles(tmp_path):
    """One valid bundle of each kind, with the stage argv that loads it (`{}` is the bundle)."""
    pre = plda.Preprocessor(np.zeros(2), np.eye(2))
    side = plda.PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(2))
    (tmp_path / "e.embs").write_text("a-1 1.0 2.0\n")
    (tmp_path / "empty").write_text("")
    modelio.save_plda_side(tmp_path / "side.npz", side, pre)
    coupled = fourcov.FourCovModel(side, side, np.eye(1), np.zeros((1, 1)))
    modelio.save_fourcov(tmp_path / "fourcov.npz", coupled, pre, pre)
    empty, out = tmp_path / "empty", tmp_path / "out"
    return {
        "side": ["interpolate", "--in-domain", "{}", "--out-domain", "{}", "--alpha", 0.5, "--out", out],
        "fourcov": ["score", "--model", "{}", "--enroll", empty, "--test", empty, "--trials", empty, "--out", out],
    }


@pytest.mark.parametrize(
    "kind, load", [("side", modelio.load_plda_side), ("fourcov", modelio.load_fourcov)],
)
def test_bundle_holds_only_what_its_loader_reads(tmp_path, monkeypatch, kind, load):
    _bundles(tmp_path)
    read, load_npz = [], modelio._load_npz
    monkeypatch.setattr(modelio, "_load_npz", lambda *a: read.extend(a[2:]) or load_npz(*a))
    load(tmp_path / f"{kind}.npz")
    with np.load(tmp_path / f"{kind}.npz") as bundle:
        assert sorted(bundle.files) == sorted(["magic", *read])


def test_a_preprocessor_bundle_is_no_side_bundle(tmp_path, capsys):
    # the bundle kind that held a preprocessor alone is gone; `train-plda --pre` takes a side bundle
    _bundles(tmp_path)
    old = tmp_path / "preprocessor.npz"
    np.savez(old, magic="asvbackend/preprocessor/1", mean=np.zeros(2), whitener=np.eye(2))
    assert invoke("train-plda", "--embeddings", tmp_path / "e.embs", "--pre", old, "--out", tmp_path / "out") == 4
    assert capsys.readouterr().err == (f"asvbackend: file-format: {old}: expected bundle 'asvbackend/plda-side/1', "
                                       "found 'asvbackend/preprocessor/1'\n")
    assert not (tmp_path / "out").exists()


def test_truth_file_holds_the_truth_fields(tmp_path):
    # no loader reads truth.npz; it holds the eight fields `GroundTruth` takes, in its order
    config = synth.GenConfig(dim=3, enroll_rank=1, test_rank=1, n_speakers=1, enroll_segments=1, test_segments=1, seed=0)
    truth = synth.make_ground_truth(config)
    modelio.save_ground_truth(tmp_path / "truth.npz", truth)
    with np.load(tmp_path / "truth.npz") as bundle:
        assert bundle.files == ["magic", *(f.name for f in dataclasses.fields(synth.GroundTruth))]


@pytest.mark.parametrize(
    "kind, entry", [("side", "residual_cov"), ("fourcov", "pre_test_mean")]
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
    stages = {"interpolate": bundles["side"], "score": bundles["fourcov"]}
    e, empty, out = tmp_path / "e.embs", tmp_path / "empty", tmp_path / "out"
    stages["train-plda"] = ["train-plda", "--embeddings", e, "--pre", "{}", "--out", out]
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
    ("side", "truncated", "mean"), ("side", "crc", "residual_cov"), ("side", "not-npy", "pre_mean"),
    ("side", "string", "mean"), ("side", "nan", "speaker_loadings"), ("side", "inf", "mean"),
    ("side", "wrong-shape", "pre_whitener"), ("side", "asymmetric", "residual_cov"),
    ("fourcov", "truncated", "coupling"), ("fourcov", "crc", "coupling"), ("fourcov", "not-npy", "test_mean"),
    ("fourcov", "string", "enroll_loadings"), ("fourcov", "nan", "coupling"),
    ("fourcov", "inf", "coupling_noise_cov"), ("fourcov", "wrong-shape", "pre_enroll_whitener"),
    ("fourcov", "asymmetric", "test_residual_cov"),
]
BUNDLE_STAGES = {"side": ["interpolate", "fit-fourcov", "train-plda"],
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
    [("side", modelio.load_plda_side, modelio.save_plda_side), ("fourcov", modelio.load_fourcov, modelio.save_fourcov)],
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
        assert invoke("train-plda", "--embeddings", path, "--out", tmp_path / "p.npz") == 4
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
        code = invoke("train-plda", "--embeddings", tmp_path / "e.embs", "--out", tmp_path / "p.npz")
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
            ["snorm", "--model", "m.npz", "--scores", "s.scores", "--enroll", "e.embs",
             "--test", "t.embs", "--cohort-enroll", "ce.embs", "--cohort-test", "ct.embs",
             "--top-k", "1_0", "--out", "o.scores"],
            ["snorm", "--model", "m.npz", "--scores", "s.scores", "--enroll", "e.embs",
             "--test", "t.embs", "--cohort-enroll", "ce.embs", "--cohort-test", "ct.embs",
             "--top-k", "\u0663", "--out", "o.scores"],
            ["calibrate", "--scores", "s.scores", "--model", "c.cal", "--condition", "few-primary",
             "--out", "o.scores"],
        ],
        ids=["snorm-top-k-not-integer", "snorm-top-k-underscore", "snorm-top-k-arabic-indic-digit",
             "calibrate-apply-with-condition"],
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
        # `train-plda --pre` trains in the preprocessed space a side bundle holds
        paths = build_bundle(tmp_path, seed=14)
        reused = tmp_path / "reused.npz"
        assert invoke("train-plda", "--embeddings", paths["train_enroll.embs"], "--pre", paths["side2"],
                      "--rank", 2, "--out", reused) == 0
        for got, want in zip(dataclasses.astuple(modelio.load_plda_side(reused)[1]),
                             dataclasses.astuple(modelio.load_plda_side(paths["side2"])[1])):
            np.testing.assert_array_equal(got, want)
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
        for side, name in (("enrollment", "eval_enroll.embs"), ("test", "eval_test.embs"),
                           ("training", "train_enroll.embs")):
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
        "stage, pair",
        [("score", "eval"), ("snorm", "eval"), ("snorm", "cohort"), ("fit-fourcov", "train"), ("route-score", "eval")],
    )
    def test_first_file_of_a_pair_decides(self, stack, tmp_path, capsys, stage, pair):
        # each file of a pair is read and checked before the next is opened, so a
        # narrow enrollment-side file wins over a missing test-side file
        paths, raw, config, narrow = stack
        missing = tmp_path / "missing.embs"
        files = {"eval": [paths["eval_enroll.embs"], paths["eval_test.embs"]],
                 "cohort": [paths["cohort_enroll.embs"], paths["cohort_test.embs"]],
                 "train": [paths["train_enroll.embs"], paths["train_test.embs"]]}
        bad = narrow["training" if pair == "train" else "enrollment"]
        files[pair] = [bad, missing]
        vectors = ["--enroll", files["eval"][0], "--test", files["eval"][1]]
        argv = {
            "score": ["--model", paths["fourcov"], *vectors, "--trials", paths["eval.trials"]],
            "snorm": ["--model", paths["fourcov"], "--scores", raw, *vectors, "--cohort-enroll", files["cohort"][0],
                      "--cohort-test", files["cohort"][1], "--top-k", 20],
            "fit-fourcov": ["--enroll-model", paths["side1"], "--test-model", paths["side2"],
                            "--enroll-embeddings", files["train"][0], "--test-embeddings", files["train"][1],
                            "--enroll-aggregate", 3],
            "route-score": ["--config", config, *vectors, "--trials", paths["eval.trials"]],
        }[stage]
        out = tmp_path / "out.scores"
        assert invoke(stage, *argv, "--out", out) == 5
        side = "enrollment-side cohort" if pair == "cohort" else "enrollment"
        assert capsys.readouterr().err == (f"asvbackend: dimension: {side} ({bad}) vectors have "
                                           "dimension 5, the model expects 6\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, label",
        [("train-plda", "training"), ("fit-fourcov", "enrollment"), ("fit-fourcov", "test")],
    )
    def test_training_stage_wrong_width_exits_5_naming_the_file(self, stack, tmp_path, capsys, stage, label):
        # every stage that maps a file through a stored preprocessor checks
        # its width the way score and snorm do
        paths = stack[0]
        source = paths["train_enroll.embs" if label == "enrollment" else "train_test.embs"]
        narrow = tmp_path / "narrow.embs"
        narrow.write_text("".join(" ".join(line.split()[:-1]) + "\n" for line in open(source)))
        out = tmp_path / "out"
        train = {"enrollment": paths["train_enroll.embs"], "test": paths["train_test.embs"], label: narrow}
        argv = {
            "train-plda": ["--embeddings", narrow, "--pre", paths["side2"], "--rank", 2],
            "fit-fourcov": ["--enroll-model", paths["side1"], "--test-model", paths["side2"],
                            "--enroll-embeddings", train["enrollment"], "--test-embeddings", train["test"],
                            "--enroll-aggregate", 3],
        }[stage]
        assert invoke(stage, *argv, "--out", out) == 5
        err = capsys.readouterr().err
        assert err == (f"asvbackend: dimension: {label} ({narrow}) vectors have dimension 5, "
                       "the model expects 6\n"), err
        assert not out.exists()


# every stage that reads files, once per mode, as an argv over `stage_files`: a value
# that names one of its files is an input, and one starting with `out` an output
STAGE_ARGVS = {
    "train-plda": ("train-plda", {
        "--embeddings": "train_test.embs", "--speaker-map": "train_test.map", "--pre": "side2",
        "--rank": 2, "--iters": 2, "--out": "out.npz",
    }),
    "fit-fourcov": ("fit-fourcov", {
        "--enroll-model": "side1", "--test-model": "side2", "--enroll-embeddings": "train_enroll.embs",
        "--test-embeddings": "train_test.embs", "--enroll-aggregate": 3,
        "--speaker-map-enroll": "train_enroll.map", "--speaker-map-test": "train_test.map", "--out": "out.npz",
    }),
    "interpolate": ("interpolate", {
        "--in-domain": "side2", "--out-domain": "pre_side", "--alpha": 0.5, "--out": "out.npz",
    }),
    "score": ("score", {
        "--model": "fourcov", "--enroll": "eval_enroll.embs", "--test": "eval_test.embs",
        "--trials": "eval.trials", "--out": "out.scores",
    }),
    "snorm": ("snorm", {
        "--model": "fourcov", "--scores": "raw.scores", "--enroll": "eval_enroll.embs", "--test": "eval_test.embs",
        "--cohort-enroll": "cohort_enroll.embs", "--cohort-test": "cohort_test.embs", "--top-k": 20,
        "--out": "out.scores",
    }),
    "calibrate-fit": ("calibrate", {"--scores": "raw.scores", "--trials": "eval.trials", "--out": "out.cal"}),
    "calibrate-apply": ("calibrate", {"--scores": "raw.scores", "--model": "cal.txt", "--out": "out.scores"}),
    "route-score": ("route-score", {
        "--config": "routing.json", "--enroll": "eval_enroll.embs", "--test": "eval_test.embs",
        "--trials": "eval.trials", "--out": "out.scores",
    }),
    "evaluate": ("evaluate", {"--scores": "raw.scores", "--trials": "eval.trials", "--det-out": "out.det"}),
}
STAGE_OUTPUTS = {"--out", "--det-out"}


def _path_options(stage):
    """The options of `stage` that take a file path: string-valued, without choices, not `--top-k`."""
    return {
        action.option_strings[-1] for action in _stages()[stage]._actions
        if action.option_strings and action.nargs != 0 and action.type is None and action.choices is None
    } - {"--top-k"}


def test_stage_argvs_cover_every_path_option():
    # a path option missing here would escape `test_bad_input_exits_3_before_any_output`
    stages = {stage for stage in _stages() if stage != "synth"}
    assert {stage for stage, _ in STAGE_ARGVS.values()} == stages
    for stage in stages:
        given = {option for name, argv in STAGE_ARGVS.values() if name == stage for option in argv}
        assert _path_options(stage) <= given, stage


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """Valid inputs for every argv of `STAGE_ARGVS`, by name."""
    base = tmp_path_factory.mktemp("inputs")
    paths = {name: pathlib.Path(path) for name, path in build_bundle(base).items()}
    raw, _, calfile, _ = score_pipeline(paths, base)
    paths.update({"raw.scores": pathlib.Path(raw), "cal.txt": pathlib.Path(calfile)})
    paths["routing.json"] = pathlib.Path(one_condition_config(paths, calfile, base))
    # a side model in side2's preprocessed space, which `interpolate` combines with side2
    paths["pre_side"] = base / "pre_side.npz"
    assert invoke("train-plda", "--embeddings", paths["train_enroll.embs"], "--pre", paths["side2"], "--rank", 2,
                  "--iters", 2, "--out", paths["pre_side"]) == 0
    for side in ("train_enroll", "train_test"):
        paths[f"{side}.map"] = base / f"{side}.map"
        ids = [line.split()[0] for line in paths[f"{side}.embs"].read_text().splitlines()]
        paths[f"{side}.map"].write_text("".join(f"{i} {i.split('-')[0]}\n" for i in ids))
    return paths


def _stage_args(argv, files, out_dir):
    """The arguments of one `STAGE_ARGVS` argv: inputs taken from `files`, outputs written to `out_dir`."""
    return [a for o, v in argv.items() for a in (o, out_dir / v if str(v).startswith("out") else files.get(v, v))]


def _bad_inputs():
    """(stage, argv, the input option made bad) for each input of each argv of `STAGE_ARGVS`."""
    return [
        pytest.param(stage, argv, option, id=f"{key}{option}")
        for key, (stage, argv) in STAGE_ARGVS.items() for option in argv
        if option in _path_options(stage) - STAGE_OUTPUTS
    ]


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("stage, argv, option", _bad_inputs())
def test_bad_input_exits_3_before_any_output(stage_files, tmp_path, capsys, stage, argv, option, bad):
    # with every other input valid, a stage reports the bad one as a missing file and writes nothing
    path = tmp_path / "bad"
    if bad == "directory":
        path.mkdir()
    assert invoke(stage, *_stage_args(argv, {**stage_files, argv[option]: path}, tmp_path)) == 3
    shown = f"{path} (not a regular file)" if bad == "directory" else f"{path}"
    assert capsys.readouterr().err == f"asvbackend: missing-file: {shown}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["bad"] if bad == "directory" else [])


def _outputs():
    """(stage, argv, the output option) for each output of each argv of `STAGE_ARGVS`."""
    return [
        pytest.param(stage, argv, option, id=f"{key}{option}")
        for key, (stage, argv) in STAGE_ARGVS.items() for option in argv if option in STAGE_OUTPUTS
    ]


def _refuse_inputs(monkeypatch):
    """Make opening any input fail the test."""
    def refuse(path):
        raise AssertionError(f"{path} was opened before the outputs were checked")

    for module in (data, modelio, routing):
        monkeypatch.setattr(module, "open_input", refuse)


@pytest.mark.parametrize("stage, argv, option", _outputs())
def test_bad_output_exits_3_before_any_input_is_read(stage_files, tmp_path, capsys, monkeypatch, stage, argv, option):
    out = tmp_path / "missing" / "out"
    args = _stage_args(argv, stage_files, tmp_path)
    args[args.index(option) + 1] = out
    _refuse_inputs(monkeypatch)
    assert invoke(stage, *args) == 3
    assert capsys.readouterr().err == f"asvbackend: missing-file: cannot write {out}: no such directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("top_k", ["1", "0", "-1"])
def test_snorm_top_k_below_2_exits_6_before_any_input_is_read(stage_files, tmp_path, capsys, monkeypatch, top_k):
    # one cohort score per row has std 0, so a top-k of 1 would fail every row after all the reading
    stage, argv = STAGE_ARGVS["snorm"]
    args = _stage_args({**argv, "--top-k": top_k}, stage_files, tmp_path)
    _refuse_inputs(monkeypatch)
    assert invoke(stage, *args) == 6
    assert capsys.readouterr().err == f"asvbackend: parameter: top_k must be at least 2, got {top_k}\n"
    assert list(tmp_path.iterdir()) == []


def test_routing_top_k_1_exits_8_before_any_vector_file_is_read(stage_files, tmp_path, capsys, monkeypatch):
    source = stage_files["routing.json"]
    doc = json.loads(source.read_text())
    stack = doc["conditions"]["few-primary"]
    stack.update({key: str(source.parent / value) for key, value in stack.items() if key != "top_k"}, top_k=1)
    for key in ("enroll_segments", "test_language"):
        doc[key] = str(source.parent / doc[key])
    config = tmp_path / "routing.json"
    config.write_text(json.dumps(doc))
    stage, argv = STAGE_ARGVS["route-score"]
    args = _stage_args(argv, {**stage_files, "routing.json": config}, tmp_path)
    read_config = routing.open_input

    def config_only(path):
        assert path == str(config), f"{path} was opened before the config was checked"
        return read_config(path)

    _refuse_inputs(monkeypatch)
    monkeypatch.setattr(routing, "open_input", config_only)
    assert invoke(stage, *args) == 8
    assert capsys.readouterr().err == (
        f"asvbackend: config: {config}: condition 'few-primary' top_k must be at least 2, got 1\n")
    assert list(tmp_path.iterdir()) == [config]


def test_interpolate_runs_the_readme_recipe(stage_files, tmp_path, capsys):
    # the in-domain side fits its preprocessor, the out-of-domain side trains in its space,
    # and their interpolation carries that preprocessor
    side_in, side_out, mixed = (tmp_path / name for name in ("in.npz", "out-domain.npz", "mixed.npz"))
    assert invoke("train-plda", "--embeddings", stage_files["train_test.embs"], "--rank", 2, "--out", side_in) == 0
    assert invoke("train-plda", "--embeddings", stage_files["train_enroll.embs"], "--pre", side_in, "--rank", 2,
                  "--out", side_out) == 0
    assert invoke("interpolate", "--in-domain", side_in, "--out-domain", side_out, "--alpha", 0.3,
                  "--out", mixed) == 0
    assert capsys.readouterr().err == ""
    (model_in, pre_in), (model_out, _) = modelio.load_plda_side(side_in), modelio.load_plda_side(side_out)
    modelio.save_plda_side(tmp_path / "expected.npz", plda.interpolate_plda(model_in, model_out, 0.3), pre_in)
    assert mixed.read_bytes() == (tmp_path / "expected.npz").read_bytes()


def test_interpolate_refuses_models_of_two_spaces(stage_files, tmp_path, capsys):
    # side1 and side2 each fitted their own preprocessor
    side1, side2 = stage_files["side1"], stage_files["side2"]
    out = tmp_path / "mixed.npz"
    assert invoke("interpolate", "--in-domain", side1, "--out-domain", side2, "--alpha", 0.5, "--out", out) == 6
    assert capsys.readouterr().err == (f"asvbackend: parameter: {side1} and {side2} hold different preprocessors "
                                       "(train the out-of-domain side with train-plda --pre <in-domain bundle>)\n")
    assert list(tmp_path.iterdir()) == []


def test_interpolate_takes_no_pre_option(stage_files, tmp_path, capsys):
    side = stage_files["pre_side"]
    with pytest.raises(SystemExit) as exited:
        invoke("interpolate", "--in-domain", side, "--out-domain", side, "--alpha", 0.5, "--pre", "from-out",
               "--out", tmp_path / "mixed.npz")
    assert exited.value.code == 2 and "--pre" in capsys.readouterr().err


def test_every_stage_loads_no_scipy(stage_files, tmp_path):
    # a fresh interpreter that runs synth and every other stage (all of
    # `STAGE_ARGVS`) has loaded no scipy module
    argvs = [synth_args(tmp_path / "synth")]
    argvs += [[stage, *_stage_args(argv, stage_files, tmp_path)] for stage, argv in STAGE_ARGVS.values()]
    probe = (
        "import sys; from asvbackend import cli; "
        f"codes = [cli.main(argv) for argv in {[[str(a) for a in argv] for argv in argvs]!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _probe(probe).splitlines()[-1] == f"{[0] * len(argvs)} []"
    assert (tmp_path / "synth" / "train_enroll.embs").exists()


def _call_nodes(name):
    """(module, innermost enclosing function, call) of each call of `name` in the package's source."""
    found = []

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == name:
            found.append((module, where, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in _package_trees().items():
        visit(tree, module, None)
    return found


def _calls(name):
    """(module, innermost enclosing function) of each call of `name` in the package's source."""
    return [(module, where) for module, where, _ in _call_nodes(name)]


def test_inputs_are_opened_only_through_the_one_opener():
    # an input opened any other way can exit otherwise than 3 when it is missing,
    # and a stage that checks a path copies what its reader checks
    assert _calls("open") == [("data", "open_input")]
    assert _calls("os.fdopen") == [("data", "atomic_write")]
    assert _calls("os.path.isfile") == [("data", "open_input"), ("routing", "load_routing_config")]
    checks = ("os.path.exists", "os.path.lexists", "os.path.isfile", "os.path.isdir")
    assert {where for check in checks for module, where in _calls(check) if module == "cli"} == {"_cmd_synth"}


def test_stack_vector_files_are_read_only_through_the_one_reader():
    # `route-score` promises each routed trial the score of `score` -> `snorm` -> `calibrate`,
    # which holds while one reader brings every stack's vector files into model space
    reads = _calls("read_embeddings") + _calls("data.read_embeddings")
    assert [where for module, where in reads if module == "routing"] == []
    assert sorted(where for module, where in reads if module == "cli") == [
        "_cmd_fit_fourcov", "_cmd_fit_fourcov",
        "_cmd_route_score", "_cmd_route_score", "_cmd_train_plda",  # route-score: its evaluation files
    ]
    # and only `read_model_space_pair` hands a vector file straight to the per-side step
    steps = _call_nodes("in_model_space") + _call_nodes("fourcov.in_model_space")
    handed = [
        (module, where) for module, where, call in steps
        if any(isinstance(inner, ast.Call) and _callee(inner) == "read_embeddings"
               for argument in [*call.args, *(keyword.value for keyword in call.keywords)]
               for inner in ast.walk(argument))
    ]
    assert handed == [("fourcov", "read_model_space_pair")] * 2


# route-score names its bundle in a routing config, which checks that the file exists (exit 8)
@pytest.mark.parametrize(
    "kind, stage", [(kind, stage) for kind in BUNDLE_STAGES for stage in BUNDLE_STAGES[kind] if stage != "route-score"]
)
def test_unopenable_bundle_exits_4_and_missing_bundle_exits_3(tmp_path, capsys, monkeypatch, kind, stage):
    # only a missing bundle is a missing file; one that exists but cannot be opened is unreadable
    argv = _loading_stages(tmp_path)[stage]
    bundle = tmp_path / f"{kind}.npz"
    with monkeypatch.context() as patch:
        patch.setattr(modelio, "open_input", lambda path: open(tmp_path, "rb"))  # raises IsADirectoryError
        assert invoke(*(bundle if a == "{}" else a for a in argv)) == 4
    assert capsys.readouterr().err == (f"asvbackend: file-format: {bundle}: not a readable model bundle "
                                       f"([Errno 21] Is a directory: '{tmp_path}')\n")
    missing = tmp_path / "missing.npz"
    assert invoke(*(missing if a == "{}" else a for a in argv)) == 3
    assert capsys.readouterr().err == f"asvbackend: missing-file: {missing}\n"
    assert not (tmp_path / "out").exists()


def _unmatched(source, target, prefix):
    """Bundle `source` written to `target` with its `prefix` preprocessors widened to dimension 3."""
    with np.load(source) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    for name in arrays:
        if name.startswith(prefix):
            arrays[name] = np.zeros(3) if name.endswith("mean") else np.eye(3)
    np.savez(target, **arrays)


@pytest.mark.parametrize(
    "kind, stage, prefix",
    [("side", "interpolate", "pre_"), ("side", "fit-fourcov", "pre_"), ("side", "train-plda", "pre_"),
     *[("fourcov", stage, prefix) for stage in BUNDLE_STAGES["fourcov"] for prefix in ("pre_enroll_", "pre_test_")]],
)
def test_bundle_preprocessors_must_match_its_models(tmp_path, capsys, kind, stage, prefix):
    # each part is valid on its own; together they would fail later, naming neither the bundle nor a file
    argv = _loading_stages(tmp_path)[stage]
    bad = tmp_path / "bad.npz"
    _unmatched(tmp_path / f"{kind}.npz", bad, prefix)
    assert invoke(*(bad if a == "{}" else a for a in argv)) == 4
    message = "preprocessor dimension 3 does not match model dimension 2"
    assert capsys.readouterr().err == f"asvbackend: file-format: {bad}: {message}\n"
    assert not (tmp_path / "out").exists()


def _side_parts():
    """A side model of dimension 2, a preprocessor of its dimension and one of dimension 3."""
    side = plda.PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(2))
    return side, plda.identity_preprocessor(2), plda.identity_preprocessor(3)


@pytest.mark.parametrize("kind", ["side", "fourcov"])
def test_bundle_writer_refuses_preprocessors_that_do_not_match(tmp_path, kind):
    side, pre, wide = _side_parts()
    out = tmp_path / "out.npz"
    with pytest.raises(exceptions.DimensionMismatchError,
                       match="^preprocessor dimension 3 does not match model dimension 2$"):
        if kind == "side":
            modelio.save_plda_side(out, side, wide)
        else:
            modelio.save_fourcov(out, fourcov.FourCovModel(side, side, np.eye(1), np.zeros((1, 1))), pre, wide)
    assert not any(tmp_path.iterdir())


def test_a_warning_prints_as_one_line_naming_the_bundle(tmp_path, capsys):
    argv = _loading_stages(tmp_path)["score"]
    with np.load(tmp_path / "fourcov.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    zero = tmp_path / "zero.npz"
    np.savez(zero, **{**arrays, "enroll_loadings": np.zeros((2, 1))})
    assert invoke(*(zero if a == "{}" else a for a in argv)) == 0
    assert capsys.readouterr().err == (
        f"asvbackend: warning: {zero}: speaker loadings are rank deficient; "
        "the model carries no speaker information along some factor directions\n"
    )
    assert (tmp_path / "out").read_text() == ""


def _c_locale_env():
    """The environment of a child run under the C locale; with `-X utf8=0` its command line decodes to surrogates."""
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(asvbackend.__file__)), LC_ALL="C", PYTHONCOERCECLOCALE="0")
    return env


def test_text_writers_write_utf8_whatever_the_locale(tmp_path):
    env = _c_locale_env()
    # `ascii` passes the prefix é as an escape: the C locale would decode a command-line é to surrogates
    argv = ["synth", "--out-dir", str(tmp_path / "d"), "--dim", "2", "--rank", "1", "--train-speakers", "2",
            "--eval-speakers", "2", "--nontargets", "1", "--id-prefix", "é"]
    code = f"from asvbackend import cli; raise SystemExit(cli.main({ascii(argv)}))"
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    for name in ("train_test.embs", "eval.trials", "test_meta.txt"):
        written = (tmp_path / "d" / name).read_text(encoding="utf-8")
        assert all(line.startswith("é") for line in written.splitlines()), name


def test_id_prefix_utf8_cannot_encode_exits_6_before_writing(tmp_path):
    # the bytes of é become lone surrogates, which no text or binary file can hold
    argv = [sys.executable, "-X", "utf8=0", "-m", "asvbackend.cli", "synth", "--out-dir", "out", "--id-prefix",
            "é".encode("utf-8"), "--dim", "4", "--rank", "2", "--train-speakers", "5", "--eval-speakers", "3",
            "--nontargets", "1"]
    run = subprocess.run(argv, cwd=tmp_path, env=_c_locale_env(), capture_output=True)
    assert run.returncode == 6, run.stderr
    assert run.stderr.startswith(b"asvbackend: parameter: speaker_prefix: ") and run.stderr.count(b"\n") == 1
    assert os.listdir(tmp_path) == []


TRAINING_ROWS = "a-1 1.0 2.0\na-2 1.5 1.0\nb-1 -1.0 0.5\nb-2 -0.5 -1.5\nc-1 0.3 -0.2\nc-2 2.0 -1.0\n"


def _empty_score_file(tmp_path):
    return (tmp_path / "out").read_text() == ""


def _full_rank_side(tmp_path):
    return modelio.load_plda_side(tmp_path / "out")[0].rank == 2


# each: the files written to `tmp_path` (text or bytes), the argv over their names, `out` and
# `model` (a two-sided bundle of dimension 2, written for every case), the exit code, and either
# the stderr line (`{name}` is that file) or a check of what was written
EXIT_PATHS = {
    "embedding-id-only": (
        {"e": "a-1\n"}, ["train-plda", "--embeddings", "e", "--out", "out"],
        4, "file-format: {e}:1: expected 'id v1 ... vd', got 1 fields"),
    "binary-header-cut": (
        {"e": BINARY_MAGIC + b"\x02\x00"}, ["train-plda", "--embeddings", "e", "--out", "out"],
        4, "file-format: {e}: truncated header"),
    "binary-record-length-cut": (
        {"e": BINARY_MAGIC + struct.pack("<I", 2) + b"\x01\x00"}, ["train-plda", "--embeddings", "e", "--out", "out"],
        4, "file-format: {e}: truncated record 1"),
    "train-plda-empty-embeddings": (
        {"e": ""}, ["train-plda", "--embeddings", "e", "--out", "out"], 6, "parameter: no embeddings to stack"),
    "trial-four-fields": (
        {"s": "e t 1.0\n", "t": "e t tgt x\n"}, ["evaluate", "--scores", "s", "--trials", "t"],
        4, "file-format: {t}:1: expected 'enroll_id test_id [tgt|non]'"),
    "speaker-map-three-fields": (
        {"e": TRAINING_ROWS, "m": "a-1 a x\n"},
        ["train-plda", "--embeddings", "e", "--speaker-map", "m", "--out", "out"],
        4, "file-format: {m}:1: expected 'key value'"),
    "routing-config-not-json": (
        {"cfg": "not json", "x": ""},
        ["route-score", "--config", "cfg", "--enroll", "x", "--test", "x", "--trials", "x", "--out", "out"],
        4, "file-format: {cfg}: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    "segment-count-zero": (
        {"cfg": json.dumps({"enroll_segments": "meta", "test_language": "lang", "conditions": {}}),
         "meta": "m 0\n", "lang": "", "x": ""},
        ["route-score", "--config", "cfg", "--enroll", "x", "--test", "x", "--trials", "x", "--out", "out"],
        4, "file-format: {meta}: segment count for 'm' must be positive"),
    "calibration-without-offset": (
        {"s": "e t 1.0\n", "cal": "scale 1.0\n"}, ["calibrate", "--scores", "s", "--model", "cal", "--out", "out"],
        4, "file-format: {cal}: expected 'scale <a>' and 'offset <b>' lines"),
    "calibration-unknown-key": (
        {"s": "e t 1.0\n", "cal": "scale 1.0\noffset 0.0\nconditon few-secondary\n"},
        ["calibrate", "--scores", "s", "--model", "cal", "--out", "out"],
        4, "file-format: {cal}: unknown key 'conditon'"),
    "routed-calibration-unknown-key": (
        {"cfg": json.dumps({"enroll_segments": "x", "test_language": "x", "conditions": {"few-secondary": {
            "model": "model", "cohort_enroll": "x", "cohort_test": "x", "calibration": "cal"}}}),
         "cal": "scale 1.0\noffset 0.0\nconditon few-secondary\n", "x": ""},
        ["route-score", "--config", "cfg", "--enroll", "x", "--test", "x", "--trials", "x", "--out", "out"],
        4, "file-format: {cal}: unknown key 'conditon'"),
    # a number with '_' or a non-ASCII digit breaks the number grammar, though `float()` and `int()` take it
    "embedding-underscore-component": (
        {"e": "a-1 1_0 2.0\n"}, ["train-plda", "--embeddings", "e", "--out", "out"],
        4, "file-format: {e}:1: non-numeric vector component"),
    "score-arabic-indic-digit": (
        {"s": "e t \u0663\n", "t": "e t tgt\n"}, ["evaluate", "--scores", "s", "--trials", "t"],
        4, "file-format: {s}:1: non-numeric score '\u0663'"),
    "segment-count-underscore": (
        {"cfg": json.dumps({"enroll_segments": "meta", "test_language": "lang", "conditions": {}}),
         "meta": "m 1_0\n", "lang": "", "x": ""},
        ["route-score", "--config", "cfg", "--enroll", "x", "--test", "x", "--trials", "x", "--out", "out"],
        4, "file-format: {meta}: segment count for 'm' is not an integer"),
    "calibration-fullwidth-digit": (
        {"s": "e t 1.0\n", "cal": "scale \uff11\noffset 0.0\n"},
        ["calibrate", "--scores", "s", "--model", "cal", "--out", "out"],
        4, "file-format: {cal}: expected 'scale <a>' and 'offset <b>' lines"),
    "aggregate-negative": (
        {"e": TRAINING_ROWS}, ["train-plda", "--embeddings", "e", "--aggregate", -1, "--out", "out"],
        6, "parameter: chunk size must be positive, got -1"),
    "synth-dim-zero": (
        {}, ["synth", "--out-dir", "out", "--dim", 0], 6, "parameter: dim and n_speakers must be positive"),
    "synth-snr-zero": (
        {}, ["synth", "--out-dir", "out", "--snr", 0], 6, "parameter: snr and test_noise_inflation must be positive"),
    "train-plda-default-rank": (
        {"e": TRAINING_ROWS}, ["train-plda", "--embeddings", "e", "--out", "out"], 0, _full_rank_side),
    # the enrollment-side cohort holds one vector three times, so every test
    # vector scores it alike
    "snorm-degenerate-enrollment-side-cohort": (
        {"e": "e0 1.0 2.0\n", "t": "t0 0.5 -1.0\n", "s": "e0 t0 1.0\n",
         "ce": "c0 1.0 1.0\nc1 1.0 1.0\nc2 1.0 1.0\n", "ct": "d0 1.0 0.0\nd1 0.0 1.0\nd2 -1.0 0.5\n"},
        ["snorm", "--model", "model", "--scores", "s", "--enroll", "e", "--test", "t",
         "--cohort-enroll", "ce", "--cohort-test", "ct", "--top-k", 3, "--out", "out"],
        9, "normalization: enrollment-side cohort scores are degenerate (std 0.000e+00); "
           "cannot z-normalize against them (test 't0')"),
    # e0 routes to few-primary and e1 to many-primary, whose enrollment-side cohort is degenerate
    "route-score-degenerate-cohort-names-condition": (
        {"cfg": json.dumps({"enroll_segments": "meta", "test_language": "lang", "conditions": {
            tag: {"model": "model", "cohort_enroll": cohort, "cohort_test": "ct", "calibration": "cal", "top_k": 3}
            for tag, cohort in (("few-primary", "ct"), ("many-primary", "ce"))}}),
         "meta": "e0 3\ne1 6\n", "lang": "t0 primary\n", "cal": "scale 1.0\noffset 0.0\n",
         "e": "e0 1.0 2.0\ne1 -1.0 0.5\n", "t": "t0 0.5 -1.0\n", "tr": "e0 t0\ne1 t0\n",
         "ce": "c0 1.0 1.0\nc1 1.0 1.0\nc2 1.0 1.0\n", "ct": "d0 1.0 0.0\nd1 0.0 1.0\nd2 -1.0 0.5\n"},
        ["route-score", "--config", "cfg", "--enroll", "e", "--test", "t", "--trials", "tr", "--out", "out"],
        9, "normalization: condition 'many-primary': enrollment-side cohort scores are degenerate "
           "(std 0.000e+00); cannot z-normalize against them (test 't0')"),
    "snorm-no-scores": (
        {"e": TRAINING_ROWS, "s": "", "x": ""},
        ["snorm", "--model", "model", "--scores", "s", "--enroll", "x", "--test", "x",
         "--cohort-enroll", "e", "--cohort-test", "e", "--top-k", 3, "--out", "out"],
        0, _empty_score_file),
}


@pytest.mark.parametrize("case", EXIT_PATHS)
def test_exit_path(tmp_path, capsys, case):
    files, argv, code, expected = EXIT_PATHS[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    side, pre, _ = _side_parts()
    modelio.save_fourcov(tmp_path / "model", fourcov.FourCovModel(side, side, np.eye(1), np.zeros((1, 1))), pre, pre)
    argv = [tmp_path / a if a in files or a in ("out", "model") else a for a in argv]
    assert invoke(*argv) == code
    captured = capsys.readouterr()
    if code:
        line = expected.format(**{name: tmp_path / name for name in files})
        assert captured.err == f"asvbackend: {line}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "model"])
    else:
        assert captured.err == "" and expected(tmp_path)


@pytest.mark.parametrize(
    "records, code, line",
    [(struct.pack("<I", 1) + b"a", 4, "file-format: {e}: truncated record 1"),
     (b"", 6, "parameter: no embeddings to stack")],
    ids=["cut-record", "header-only"],
)
def test_binary_header_dimension_allocates_no_rows_the_file_cannot_hold(tmp_path, capsys, records, code, line):
    # a block of 256 rows at the claimed dimension 2**28 would be 256 GiB
    path = tmp_path / "e"
    path.write_bytes(BINARY_MAGIC + struct.pack("<I", 2**28) + records)
    tracemalloc.start()
    try:
        assert invoke("train-plda", "--embeddings", path, "--out", tmp_path / "out") == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"asvbackend: {line.format(e=path)}\n"
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
