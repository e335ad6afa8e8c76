"""One workload process: generate the jobs, run them, check every output.

Started by ``run.py`` in a fresh interpreter, so the program's caches
start empty.  It runs the workload's set-up job first, then passes over
the job list until ``--seconds`` have gone by, sampling the core's speed
for the scaled times; with ``--single-pass`` it makes one pass and takes
no samples, for the traced run and its untraced twin.  It prints one
JSON line with the job times, the failures, its peak memory and, under
``--trace 1``, the traced metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF_DIR)]

import doxa  # noqa: E402
import doxa.cli  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402


def run_job(argv, call=None):
    """One CLI call with stdout and stderr captured: (exit, stdout, stderr, seconds).

    The exit code is None when the call raised.  ``call`` runs the entry
    point; the traced run passes one that opens the job's root span.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = call(doxa.cli, argv) if call else doxa.cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=err)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--single-pass", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--golden", type=Path, default=workloads.GOLDEN_DIR)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)

    if Path(doxa.__file__).resolve().parent != (ROOT / "src" / "doxa").resolve():
        print(f"error: imported doxa from {doxa.__file__}, not from this checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"scripts-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, args.smoke, args.golden, scratch)
        workloads.load_default_seed_golden(wl, args.golden)
        return _run(wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


COUNTED = ("lines", "taut_calls", "taut_rows", "frames_examined", "models_examined")


def _run(wl, args) -> int:
    tracer = call = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(doxa)

        def call(cli, argv):
            return tracer.run_root(cli.main, argv)

    failures: list[str] = []
    expected = dict.fromkeys(COUNTED, 0)
    expected["countermodels"] = 0
    calibrator = Calibrator()
    job_speeds: list[tuple[int, int]] = []

    def attempt(job):
        spent, first = calibrator.spent, len(calibrator.samples)
        code, out, err, seconds = run_job(job.argv, call)
        seconds -= calibrator.spent - spent
        job_speeds.append((first, len(calibrator.samples)))
        reason = wl.check(job, code, out, err)
        if reason is not None:
            failures.append(f"{job.label}: {reason}")
        for key in COUNTED:
            expected[key] += job.expect.get(key, 0)
        expected["countermodels"] += job.expect.get("verdict") == workloads.COUNTERMODEL
        return seconds

    job_times: list[float] = []
    with contextlib.nullcontext() if args.single_pass else calibrator:
        setup_s = attempt(wl.setup)
        started = perf_counter()
        while True:
            job_times += [attempt(job) for job in wl.jobs]
            if args.single_pass or perf_counter() - started >= args.seconds:
                break

    def per_job_and_pass(times):
        """Each job's median over the passes, and each pass's total."""
        passes = [times[i : i + len(wl.jobs)] for i in range(0, len(times), len(wl.jobs))]
        return [statistics.median(job) for job in zip(*passes)], [sum(p) for p in passes]

    scaled = [calibrator.speed(*window) * s for s, window in zip(job_times, job_speeds[1:])]
    result = {"setup_argv": wl.setup.argv, "setup_job_s": setup_s}
    result["job_times"], result["pass_walls"] = per_job_and_pass(job_times)
    result["scaled_job_times"], result["scaled_pass_walls"] = per_job_and_pass(scaled)
    result |= {
        "attempted": len(job_times) + 1,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        metrics = tracer.metrics()
        result["trace"] = metrics
        wants = _trace_expectations(wl.name, tracer.counts, expected)
        # One more check: every function and attribute the tracer reads
        # exists, so a renamed layer fails instead of reading zero.
        result["attempted"] += len(wants) + 1
        failures += [
            f"trace: {key} is {metrics[key]}, expected {want}"
            for key, want in wants
            if metrics[key] != want
        ]
        if tracer.missing:
            failures.append(f"trace: not found: {', '.join(sorted(tracer.missing))}")
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


def _trace_expectations(name, counts, expected) -> list[tuple[str, int]]:
    """Traced counts that must equal what the jobs' answers imply; each
    is one more attempted check, and a mismatch is a failure."""
    # Every countermodel a search returns is re-checked by the program.
    wants = [("semantics.recheck_calls", counts["countermodels"])]
    if name == "search-4":
        wants += [
            ("oracle.frames_examined", expected["frames_examined"]),
            ("oracle.models_examined", expected["models_examined"]),
            ("semantics.recheck_calls", expected["countermodels"]),
        ]
    elif name == "proofs":
        wants += [(f"hilbert.{key}", expected[key]) for key in ("lines", "taut_calls", "taut_rows")]
    return wants


if __name__ == "__main__":
    sys.exit(main())
