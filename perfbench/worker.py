"""One benchmark job in a fresh interpreter.

Usage: python3 worker.py <spawn time, time.monotonic()> <spec.json>

The spec names the source directory, the timed stages, untimed stages
to run afterwards, whether to trace, and where to write the result. The
first heavy thing the worker does is import asvbackend.cli; set-up time
is measured from the parent's spawn time to that point (CLOCK_MONOTONIC
is shared by all processes). Every stage then goes through
asvbackend.cli.main in this process, with its stdout captured. A spec
without stages only measures set-up.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_stages(cli, stages, tracer):
    results = []
    for name, argv in stages:
        out = io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        error = None
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out):
            try:
                code = cli.main([name, *argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, error = 1, traceback.format_exc()
        end = time.perf_counter()
        results.append({"name": name, "code": code, "start": start, "end": end,
                        "stdout": out.getvalue(), "error": error})
        if code != 0:
            break
    return results


def main():
    spawned_at = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import asvbackend.cli as cli

    result = {"setup_s": time.monotonic() - spawned_at}
    if spec["stages"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        stages = run_stages(cli, spec["stages"], tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["job_s"] = stages[-1]["end"] - stages[0]["start"]
        result["stages"] = stages
        if tracer:
            # Snapshot before the untimed stages, which stay wrapped but are not reported.
            result["trace"] = {
                "summary": tracer.summary(),
                "counts": dict(tracer.counts),
                "counter_errors": dict(tracer.counter_errors),
                "wrapped": tracer.wrapped,
            }
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        ok = len(stages) == len(spec["stages"]) and all(s["code"] == 0 for s in stages)
        result["post_stages"] = run_stages(cli, spec["post_stages"], None) if ok else []
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
