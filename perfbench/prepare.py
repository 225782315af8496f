"""Deterministic, cached input preparation for the benchmark workloads.

Everything is derived from the --seed argument and cached per seed under
the cache directory, one sub-directory per artifact group. A group is
built in a temporary directory and renamed into place, so an interrupted
preparation never leaves a half-written group behind. None of this is
timed: the workloads only ever read the finished files.

Groups (each lists what it needs first):
  base    synth CLI output: training sets, the eval-dense evaluation set,
          1000 cohort speakers, and the held-out trial list for `train`
  bundle  base; the `train` recipe run once (side models + coupling)
  dense   base, bundle; routing metadata and config, and per condition
          its own copy of the bundle and of the cohort files, and a
          calibration fitted on a dev subset of the condition's trials
  cohort  base; binary eval-cohort embeddings, cohorts and trials, drawn
          with the synth library from the ground truth in base/truth.npz
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

from checks import text_rows, write_binary_embeddings

DIM, RANK, EM_ITERS, TOP_K = 200, 100, 10, 400
SYNTH_KNOBS = ["--dim", str(DIM), "--rank", str(RANK), "--kappa", "4.0",
               "--rotation", "1.0", "--eval-jitter", "0.9"]
TRAIN_SPEAKERS = 400
DENSE_SPEAKERS, DENSE_NONTARGETS, DENSE_COHORT = 300, 200, 1000
HELDOUT_MODELS = 20
DEV_MODELS_PER_BUCKET = 20
COHORT_EVAL_SPEAKERS, COHORT_NONTARGETS, COHORT_SIZE = 4000, 3, 5000
CONDITIONS = ("few-primary", "few-secondary", "many-primary", "many-secondary")
# Segment counts written to the routing metadata; the threshold is 5.
BUCKET_SEGMENTS = {"few": 3, "many": 6}

TRAIN_STAGES = [
    ("train-plda", ["--embeddings", "{base}/train_enroll.embs", "--aggregate", "3",
                    "--rank", str(RANK), "--iters", str(EM_ITERS), "--out", "{out}/side_enroll.npz"]),
    ("train-plda", ["--embeddings", "{base}/train_test.embs",
                    "--rank", str(RANK), "--iters", str(EM_ITERS), "--out", "{out}/side_test.npz"]),
    ("fit-fourcov", ["--enroll-model", "{out}/side_enroll.npz", "--test-model", "{out}/side_test.npz",
                     "--enroll-embeddings", "{base}/train_enroll.embs", "--enroll-aggregate", "3",
                     "--test-embeddings", "{base}/train_test.embs", "--out", "{out}/fourcov.npz"]),
]


def fill(stages, **paths):
    """Stage list with {name} placeholders replaced by directories."""
    return [(name, [arg.format(**paths) for arg in argv]) for name, argv in stages]


def _cli(argv):
    from asvbackend import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"preparation stage {argv[0]} exited {code}")


def _rng(purpose, seed):
    return np.random.default_rng([purpose, seed])


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _raw_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]


def _ordered_ids(path):
    return list(dict.fromkeys(row[0] for row in text_rows(path)))


def _build_base(out, seed, dirs):
    _cli(["synth", "--out-dir", out, *SYNTH_KNOBS, "--train-speakers", str(TRAIN_SPEAKERS),
          "--eval-speakers", str(DENSE_SPEAKERS), "--eval-test-segs", "2",
          "--nontargets", str(DENSE_NONTARGETS), "--cohort-speakers", str(DENSE_COHORT),
          "--seed", str(seed)])
    heldout = set(_ordered_ids(os.path.join(out, "eval_enroll.embs"))[:HELDOUT_MODELS])
    trials = _raw_lines(os.path.join(out, "eval.trials"))
    _write_lines(os.path.join(out, "heldout.trials"), [t for t in trials if t.split()[0] in heldout])


def _build_bundle(out, seed, dirs):
    for name, argv in fill(TRAIN_STAGES, base=dirs["base"], out=out):
        _cli([name, *argv])


def _build_dense(out, seed, dirs):
    base = dirs["base"]
    rng = _rng(1, seed)
    models = _ordered_ids(os.path.join(base, "eval_enroll.embs"))
    tests = _ordered_ids(os.path.join(base, "eval_test.embs"))
    many = set(rng.permutation(models)[: len(models) // 2])
    secondary = set(rng.permutation(tests)[: len(tests) // 2])
    bucket = {m: "many" if m in many else "few" for m in models}
    language = {t: "secondary" if t in secondary else "primary" for t in tests}
    _write_lines(os.path.join(out, "enroll_meta.txt"), [f"{m} {BUCKET_SEGMENTS[bucket[m]]}" for m in models])
    _write_lines(os.path.join(out, "test_meta.txt"), [f"{t} {language[t]}" for t in tests])

    trials = _raw_lines(os.path.join(base, "eval.trials"))
    dev_models = {
        b: set([m for m in models if bucket[m] == b][:DEV_MODELS_PER_BUCKET]) for b in BUCKET_SEGMENTS
    }
    config = {"enroll_seg_threshold": 5, "enroll_segments": "enroll_meta.txt",
              "test_language": "test_meta.txt", "conditions": {}}
    for tag in CONDITIONS:
        bucket_name, lang = tag.split("-")
        model, cal = os.path.join(out, f"model_{tag}.npz"), os.path.join(out, f"{tag}.cal")
        cohort_enroll, cohort_test = (os.path.join(out, f"cohort_{side}_{tag}.embs") for side in ("enroll", "test"))
        dev_trials, dev_raw, dev_sn = (os.path.join(out, f"dev_{tag}.{ext}") for ext in ("trials", "raw", "sn"))
        shutil.copyfile(os.path.join(dirs["bundle"], "fourcov.npz"), model)
        shutil.copyfile(os.path.join(base, "cohort_enroll.embs"), cohort_enroll)
        shutil.copyfile(os.path.join(base, "cohort_test.embs"), cohort_test)
        _write_lines(dev_trials, [t for t in trials
                                  if t.split()[0] in dev_models[bucket_name] and language[t.split()[1]] == lang])
        _cli(["score", "--model", model, "--enroll", f"{base}/eval_enroll.embs",
              "--test", f"{base}/eval_test.embs", "--trials", dev_trials, "--out", dev_raw])
        _cli(["snorm", "--model", model, "--scores", dev_raw, "--enroll", f"{base}/eval_enroll.embs",
              "--test", f"{base}/eval_test.embs", "--cohort-enroll", cohort_enroll,
              "--cohort-test", cohort_test, "--top-k", str(TOP_K), "--out", dev_sn])
        _cli(["calibrate", "--scores", dev_sn, "--trials", dev_trials, "--condition", tag, "--out", cal])
        # Relative to route.json, which is read after `out` is renamed into place.
        config["conditions"][tag] = {
            "model": os.path.basename(model), "calibration": os.path.basename(cal), "top_k": TOP_K,
            "cohort_enroll": os.path.basename(cohort_enroll), "cohort_test": os.path.basename(cohort_test),
        }
    with open(os.path.join(out, "route.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)


def _build_cohort(out, seed, dirs):
    from asvbackend import synth

    with np.load(os.path.join(dirs["base"], "truth.npz"), allow_pickle=False) as z:
        truth = synth.GroundTruth(*(z[f] for f in (
            "enroll_mean", "enroll_loadings", "enroll_noise_cov", "test_mean",
            "test_loadings", "test_noise_cov", "coupling", "coupling_noise_cov")))

    def sample(prefix, n_speakers, test_segments, purpose):
        cfg = synth.GenConfig(
            dim=DIM, enroll_rank=RANK, test_rank=RANK, n_speakers=n_speakers, enroll_segments=3,
            test_segments=test_segments, seed=int(_rng(purpose, seed).integers(2**31)),
            speaker_prefix=prefix, truth=truth, test_noise_jitter=0.9,
        )
        enroll_groups, test_groups, _ = synth.sample_dataset(cfg)
        return enroll_groups, test_groups

    def save(name, suffix, groups, keep_member_ids):
        ids, rows = [], []
        for g in groups:
            for m in g.members:
                ids.append(m.id if keep_member_ids else f"{g.speaker_id}-{suffix}")
                rows.append(m.vector)
        write_binary_embeddings(os.path.join(out, name), ids, np.stack(rows))

    eval_enroll, eval_test = sample("ec", COHORT_EVAL_SPEAKERS, 2, 2)
    save("eval_enroll.bin", "model", eval_enroll, False)
    save("eval_test.bin", None, eval_test, True)
    cohort_enroll, cohort_test = sample("cc", COHORT_SIZE, 1, 3)
    save("cohort_enroll.bin", "cmodel", cohort_enroll, False)
    save("cohort_test.bin", None, cohort_test, True)

    rng = _rng(4, seed)
    test_ids = [m.id for g in eval_test for m in g.members]
    lines = []
    for s, group in enumerate(eval_enroll):
        model = f"{group.speaker_id}-model"
        lines += [f"{model} {test_ids[2 * s + k]} tgt" for k in range(2)]
        others = np.sort(rng.choice(len(test_ids) - 2, size=COHORT_NONTARGETS, replace=False))
        lines += [f"{model} {test_ids[j + 2 if j >= 2 * s else j]} non" for j in others]
    _write_lines(os.path.join(out, "eval.trials"), lines)


BUILDERS = {"base": _build_base, "bundle": _build_bundle, "dense": _build_dense, "cohort": _build_cohort}
NEEDS = {"train": ("base",), "eval-dense": ("base", "bundle", "dense"),
         "eval-cohort": ("base", "bundle", "cohort")}


def prepare(cache_root, seed, workload) -> dict[str, str]:
    """Build (or reuse) every group the workload needs; return their paths."""
    seed_dir = os.path.join(cache_root, f"seed-{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    dirs = {}
    for group in NEEDS[workload]:
        final = os.path.join(seed_dir, group)
        if not os.path.isdir(final):
            tmp = final + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            print(f"perfbench: preparing {group} inputs for seed {seed}", file=sys.stderr)
            BUILDERS[group](tmp, seed, dirs)
            os.replace(tmp, final)
        dirs[group] = final
    dirs["seed"] = seed_dir
    return dirs
