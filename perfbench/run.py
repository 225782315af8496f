"""Benchmark harness for the asvbackend CLI pipeline.

Usage (from the repository root):
    python3 perfbench/run.py --workload {train,eval-dense,eval-cohort} \
        --seed N --seconds S --trace {0,1}

Inputs are prepared from the seed and cached (prepare.py, never timed).
Each job then runs the workload's CLI stages in one fresh worker
interpreter through asvbackend.cli.main (worker.py). With --trace 0 the
run reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
runs one untraced job for reference, then traced jobs (tracer.py), and
reports the per-layer metrics. Jobs repeat while the next one is
expected to finish within --seconds; at least one always runs. Every
job's outputs are checked (checks.py) and each failed check or stage
counts as a failed operation. The last stdout line is the result JSON;
the line before it is the full run record, which is also saved under
.bench_build/perfbench/results/. A run in which no job completes prints
the record but no result, and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import (
    check_raw_scores_against_oracle,
    check_scores_follow_trials,
    file_digest,
    parse_evaluate_output,
    read_embedding_file,
    read_trial_pairs,
    text_rows,
)
from prepare import TOP_K, TRAIN_STAGES, fill, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train", "eval-dense", "eval-cohort")
SETUP_PROBES = 2          # fresh-interpreter imports per untraced run, besides the job workers
MAX_JOBS = 20
JOB_TIMEOUT_S = 170
ORACLE_SAMPLE = 256
KEEP_SEEDS = 16           # seed caches kept on disk, least recently used evicted


def workload_plan(workload, dirs, job):
    """Stages, checks and inputs of one job of a workload."""
    base = dirs["base"]

    def j(name):
        return os.path.join(job, name)

    if workload == "train":
        trials = os.path.join(base, "heldout.trials")
        return {
            "stages": fill(TRAIN_STAGES, base=base, out=job),
            # EER/minDCF of the fresh bundle on a held-out list, outside the timing.
            "post_stages": [
                ("score", ["--model", j("fourcov.npz"), "--enroll", f"{base}/eval_enroll.embs",
                           "--test", f"{base}/eval_test.embs", "--trials", trials,
                           "--out", j("heldout.scores")]),
                ("evaluate", ["--scores", j("heldout.scores"), "--trials", trials]),
            ],
            "trials": trials,
            "score_files": [j("heldout.scores")],
            "hashed": [j("side_enroll.npz"), j("side_test.npz"), j("fourcov.npz"), j("heldout.scores")],
            "inputs": [f"{base}/train_enroll.embs", f"{base}/train_test.embs"],
        }
    if workload == "eval-dense":
        dense = dirs["dense"]
        trials = f"{base}/eval.trials"
        return {
            "stages": [
                ("route-score", ["--config", f"{dense}/route.json", "--enroll", f"{base}/eval_enroll.embs",
                                 "--test", f"{base}/eval_test.embs", "--trials", trials,
                                 "--out", j("routed.scores")]),
                ("evaluate", ["--scores", j("routed.scores"), "--trials", trials, "--det-out", j("det.txt")]),
            ],
            "post_stages": [],
            "trials": trials,
            "score_files": [j("routed.scores")],
            "hashed": [j("routed.scores"), j("det.txt")],
            "inputs": [f"{base}/eval_enroll.embs", f"{base}/eval_test.embs", trials]
            + sorted(glob.glob(f"{dense}/cohort_*_*.embs")),
        }
    cohort = dirs["cohort"]
    model = os.path.join(dirs["bundle"], "fourcov.npz")
    trials = f"{cohort}/eval.trials"
    embs = {k: f"{cohort}/{k}.bin" for k in ("eval_enroll", "eval_test", "cohort_enroll", "cohort_test")}
    return {
        "stages": [
            ("score", ["--model", model, "--enroll", embs["eval_enroll"], "--test", embs["eval_test"],
                       "--trials", trials, "--out", j("raw.scores")]),
            ("snorm", ["--model", model, "--scores", j("raw.scores"), "--enroll", embs["eval_enroll"],
                       "--test", embs["eval_test"], "--cohort-enroll", embs["cohort_enroll"],
                       "--cohort-test", embs["cohort_test"], "--top-k", str(TOP_K),
                       "--out", j("sn.scores")]),
            ("calibrate", ["--scores", j("sn.scores"), "--trials", trials, "--out", j("cal.txt")]),
            ("calibrate", ["--scores", j("sn.scores"), "--model", j("cal.txt"), "--out", j("final.scores")]),
            ("evaluate", ["--scores", j("final.scores"), "--trials", trials]),
        ],
        "post_stages": [],
        "trials": trials,
        "score_files": [j("raw.scores"), j("sn.scores"), j("final.scores")],
        "hashed": [j("raw.scores"), j("sn.scores"), j("cal.txt"), j("final.scores")],
        "oracle": {"bundle": model, "enroll": embs["eval_enroll"], "test": embs["eval_test"],
                   "scores": j("raw.scores")},
        "inputs": list(embs.values()) + [trials],
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record():
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "machine": {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model},
        "blas": {
            "name": blas.get("name"), "version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"), "threads": threads,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "software": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def input_sizes(plan, seed_dir, workload):
    """Rows, unique ids and bytes of each input file, plus trial shape."""
    cache = os.path.join(seed_dir, f"inputs-{workload}.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            return json.load(fh)
    files = {}
    for path in plan["inputs"]:
        name = os.path.relpath(path, seed_dir)
        if path.endswith(".trials"):
            files[name] = {"rows": sum(1 for _ in text_rows(path)), "bytes": os.path.getsize(path)}
        else:
            ids, _ = read_embedding_file(path)
            files[name] = {"rows": len(ids), "unique_ids": len(set(ids)), "bytes": os.path.getsize(path)}
    sizes = {"files": files, "total_bytes": sum(f["bytes"] for f in files.values())}
    if workload != "train":
        pairs = read_trial_pairs(plan["trials"])
        unique = len({e for e, _ in pairs}) + len({t for _, t in pairs})
        sizes.update(trials=len(pairs), unique_trial_vectors=unique, trials_per_unique=len(pairs) / unique)
    with open(cache, "w", encoding="utf-8") as fh:
        json.dump(sizes, fh)
    return sizes


def run_worker(spec, job_dir, tag):
    """Run worker.py on `spec`; return its result dict (None on failure)."""
    spec = dict(spec, src=SRC, result_out=os.path.join(job_dir, f"{tag}.result.json"),
                spans_out=os.path.join(job_dir, f"{tag}.spans.jsonl"))
    spec_path = os.path.join(job_dir, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env.pop("ASVBACKEND_THREADS", None)   # measure the default thread count
    started = time.monotonic()
    try:
        subprocess.run([sys.executable, WORKER, repr(started), spec_path], env=env,
                       stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    wall = time.monotonic() - started
    if not os.path.exists(spec["result_out"]):
        return None
    with open(spec["result_out"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["worker_wall_s"] = wall
    if spec["trace"]:
        result["spans_file"] = spec["spans_out"]
    return result


def setup_probe(job_dir, tag):
    result = run_worker({"stages": [], "post_stages": [], "trace": False}, job_dir, tag)
    return None if result is None else result["setup_s"]


class HashStore:
    """Output digests per (workload, source digest), persisted per seed."""

    def __init__(self, seed_dir, workload, source):
        self.path = os.path.join(seed_dir, "output-hashes.json")
        self.workload, self.source = workload, source

    def compare_or_record(self, digests):
        store = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                store = json.load(fh)
        known = store.setdefault(self.workload, {}).get(self.source)
        if known is None:
            store[self.workload][self.source] = digests
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(store, fh, indent=1)
            os.replace(tmp, self.path)
            return None
        changed = sorted(k for k in set(known) | set(digests) if known.get(k) != digests.get(k))
        return f"outputs differ from an earlier run of this source: {', '.join(changed)}" if changed else None


def run_job(plan, job_dir, tag, trace, seed, hashes, trial_pairs):
    """One job plus its checks.

    Returns (result, attempted, failures); result is None unless every
    stage exited 0, so only complete jobs are measured.
    """
    for path in plan["score_files"] + plan["hashed"]:
        if os.path.exists(path):
            os.unlink(path)
    n_stages = len(plan["stages"]) + len(plan["post_stages"])
    n_checks = len(plan["score_files"]) + 2 + ("oracle" in plan)
    attempted = n_stages + n_checks
    result = run_worker({"stages": plan["stages"], "post_stages": plan["post_stages"], "trace": trace},
                        job_dir, tag)
    if result is None:
        return None, attempted, [f"{tag}: worker died or timed out"] * attempted
    ran = result["stages"] + result["post_stages"]
    failures = [f"{tag}: stage {s['name']} exited {s['code']}" + (f"\n{s['error']}" if s["error"] else "")
                for s in ran if s["code"] != 0]
    if len(ran) != n_stages or failures:
        failures += [f"{tag}: stage or check not run"] * (n_stages - len(ran) + n_checks)
        return None, attempted, failures

    checks = [check_scores_follow_trials(path, trial_pairs) for path in plan["score_files"]]
    evaluate_out = next(s["stdout"] for s in reversed(ran) if s["name"] == "evaluate")
    quality = parse_evaluate_output(evaluate_out)
    checks.append(None if quality else f"{tag}: evaluate printed no EER%/minDCF lines")
    if quality:
        result["eer_pct"], result["min_dcf"] = quality
    if "oracle" in plan and checks[0] is None:
        sample = np.sort(np.random.default_rng([5, seed]).choice(len(trial_pairs), ORACLE_SAMPLE, replace=False))
        o = plan["oracle"]
        reason, result["oracle_max_rel_err"] = check_raw_scores_against_oracle(
            o["bundle"], o["enroll"], o["test"], trial_pairs, o["scores"], sample.tolist())
        checks.append(reason)
    elif "oracle" in plan:
        checks.append("oracle check skipped: raw scores do not follow the trial list")
    digests = {os.path.basename(p): file_digest(p) if os.path.exists(p) else None for p in plan["hashed"]}
    digests["evaluate.stdout"] = hashlib.sha256(evaluate_out.encode()).hexdigest()
    checks.append(hashes.compare_or_record(digests))
    failures += [f"{tag}: {c}" for c in checks if c is not None]
    return result, attempted, failures


def evict_old_seeds(current):
    os.utime(current)
    seeds = sorted(glob.glob(os.path.join(CACHE, "seed-*")), key=os.path.getmtime, reverse=True)
    for stale in seeds[KEEP_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)


def end_to_end_metrics(jobs, setups):
    return {
        "job_s": statistics.median(j["job_s"] for j in jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }


def per_layer_metrics(names, job, untraced_job_s):
    """Per-layer values of one traced job, by metric name."""
    summary, counts = job["trace"]["summary"], job["trace"]["counts"]
    values = {}
    for name in names:
        if name.startswith("cli.") and name.endswith(".wall_s"):
            sub = name[len("cli."):-len(".wall_s")]
            values[name] = sum(s["end"] - s["start"] for s in job["stages"] if s["name"] == sub)
        elif name == "trace.job_s":
            values[name] = job["job_s"]
        elif name == "trace.overhead_s":
            values[name] = job["job_s"] - untraced_job_s
        elif name.startswith("quality."):
            values[name] = job.get(name[len("quality."):], 0.0)
        else:
            fn, stat = name.rsplit(".", 1)
            entry = summary.get(fn, {})
            if stat in ("self_s", "calls"):
                values[name] = entry.get(stat, 0)
            elif stat == "us_per_trial":
                trials = counts.get(f"{fn}.trials", 0)
                values[name] = 1e6 * entry.get("self_s", 0.0) / trials if trials else 0.0
            elif stat == "trials_per_unique":
                unique = counts.get(f"{fn}.unique", 0)
                values[name] = counts.get(f"{fn}.trials", 0) / unique if unique else 0.0
            else:
                values[name] = counts.get(f"{fn}.{stat}", 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "asvbackend", "cli.py")):
        print(f"perfbench: no asvbackend sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "loadavg_start": loadavg()}
    dirs = prepare(CACHE, args.seed, args.workload)
    evict_old_seeds(dirs["seed"])
    job_dir = os.path.join(dirs["seed"], "jobs", args.workload)
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    plan = workload_plan(args.workload, dirs, job_dir)
    source = source_digest()
    record.update(machine_record())
    record.update(commit=git_commit(), source_sha256=source, inputs=input_sizes(plan, dirs["seed"], args.workload))
    hashes = HashStore(dirs["seed"], args.workload, source)
    trial_pairs = read_trial_pairs(plan["trials"])

    attempted, failures, setups, jobs, traced = 0, [], [], [], []

    def job(tag, trace):
        nonlocal attempted
        result, n, failed = run_job(plan, job_dir, tag, trace, args.seed, hashes, trial_pairs)
        attempted += n
        failures.extend(failed)
        if result is not None:
            (traced if trace else jobs).append(result)
            setups.append(result["setup_s"])
        return result

    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = setup_probe(job_dir, f"probe{k}")
            attempted += 1
            if probe is None:
                failures.append(f"probe{k}: set-up probe failed")
            else:
                setups.append(probe)
    else:
        job("untraced", False)
    start = time.monotonic()
    while True:
        result = job(f"job{len(jobs) + len(traced)}", bool(args.trace))
        walls = [j["worker_wall_s"] for j in (traced if args.trace else jobs)]
        if result is None or not walls or len(walls) >= MAX_JOBS:
            break
        if time.monotonic() - start + statistics.median(walls) > args.seconds:
            break

    record["loadavg_end"] = loadavg()
    record["samples"] = {"jobs": len(jobs), "traced_jobs": len(traced), "setup": len(setups)}
    record["failures"] = failures
    record["jobs"] = [
        {k: j.get(k) for k in ("job_s", "setup_s", "peak_rss_mb", "eer_pct", "min_dcf", "oracle_max_rel_err")}
        | {"stages_s": [[s["name"], s["end"] - s["start"]] for s in j["stages"]]}
        for j in jobs + traced
    ]
    if jobs and args.workload != "train":
        record["trials_per_s"] = len(trial_pairs) / statistics.median(j["job_s"] for j in jobs)

    metrics = {}
    if not args.trace and jobs and setups:
        values = end_to_end_metrics(jobs, setups)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    elif args.trace and traced and jobs:
        names = [m["name"] for m in declared["per_layer"]]
        per_job = [per_layer_metrics(names, t, jobs[0]["job_s"]) for t in traced]
        metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in per_job), "unit": m["unit"]}
                   for m in declared["per_layer"]}
        wrapped = set(traced[0]["trace"]["wrapped"])
        record["absent"] = sorted({n.rsplit(".", 1)[0] for n in names
                                   if not n.startswith(("cli.", "trace.", "quality.")) and n.rsplit(".", 1)[0] not in wrapped})
        record["layers"] = traced[0]["trace"]["summary"]
        record["counts"] = traced[0]["trace"]["counts"]
        record["counter_errors"] = traced[0]["trace"]["counter_errors"]
        record["spans_files"] = [t["spans_file"] for t in traced]
    record["metrics"] = metrics

    os.makedirs(os.path.join(CACHE, "results"), exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(CACHE, "results", f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    if not metrics:
        print("perfbench: no job completed, so nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
