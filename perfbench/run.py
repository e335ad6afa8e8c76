"""The doxa benchmark.

    python3 perfbench/run.py --workload {paper-3,search-4,proofs} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it runs the workload in a fresh interpreter
(``worker.py``) for about ``S`` seconds, times the set-up of the
workload's first trivial job in further fresh interpreters, and reports
the end-to-end metrics.  With ``--trace 1`` it runs one pass untraced
and one pass traced, each in its own fresh interpreter, and reports the
per-layer metrics with the tracing overhead.  Every output is checked;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 means the
benchmark could not run, for example outside a doxa checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter


PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
WORKLOADS = ("paper-3", "search-4", "proofs")
# Set-up probes: at least SETUP_PROBES, and more, up to three times as
# many, until they have taken SETUP_PROBE_S seconds.
SETUP_PROBES = 15
SETUP_PROBE_S = 4.0
# A bare interpreter's start-up on the reference core; each probe is
# scaled by this over the start-up of a bare interpreter just before it.
BARE_START_S = 0.05
BARE = [sys.executable, "-c", "pass"]
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); from doxa.cli import main; sys.exit(main(sys.argv[2:]))"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "cli.self_s",
    "registry.self_s",
    *(f"registry.check_s.{kind}" for kind in (
        "bounded-valid", "countermodel-exists", "chain", "preservation",
        "proof", "agreement", "property-table", "definability-gap",
    )),
    "syntax.parse_s",
    "syntax.parse_calls",
    "syntax.print_s",
    "semantics.class_filter_s",
    "semantics.class_filter_calls",
    "semantics.class_accept_ratio",
    "semantics.evaluate_s",
    "semantics.evaluate_calls",
    "semantics.recheck_calls",
    "semantics.dump_model_s",
    "oracle.frames_s",
    "oracle.evaluators",
    "oracle.evaluator_init_s",
    "oracle.columns_s",
    "oracle.columns_calls",
    "oracle.nodes_submitted",
    "oracle.rows",
    "oracle.rows_per_s",
    "oracle.search_s",
    "oracle.frames_examined",
    "oracle.models_examined",
    "oracle.corpus_s",
    "oracle.reflexive_battery_s",
    "oracle.agreement_s",
    "oracle.gap_s",
    "transform.translate_s",
    "transform.translation_battery_s",
    "transform.construction_s",
    "transform.construction_battery_s",
    "transform.chain_s",
    "hilbert.script_parse_s",
    "hilbert.lines",
    "hilbert.check_s",
    "hilbert.match_s",
    "hilbert.taut_s",
    "hilbert.taut_calls",
    "hilbert.taut_rows",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.unattributed_s",
]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # A fixed hash seed keeps set and dict layouts, and so timings, alike
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, trace: int, single_pass: bool) -> dict:
    cmd = [
        sys.executable, str(PERF_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--golden", str(args.golden),
    ]
    if single_pass:
        cmd.append("--single-pass")
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", str(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(setup_argv: list[str]) -> tuple[float, int, int]:
    """Fresh interpreters, each importing doxa and running the set-up job:
    (their scaled median time, probes, failed probes).

    A fresh process runs at the speed of a cold start, which drifts with
    the machine's load differently from a warm interpreter, so each probe
    is scaled by the start-up of a bare interpreter run just before it.
    """
    times, failed = [], 0

    def timed(cmd) -> tuple[float, int]:
        # A wait with a timeout polls with sleeps of up to 50 ms, which
        # would round each time up to the next poll, so the wait blocks
        # and a timer kills a probe that hangs.
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(120, proc.kill)
        timer.start()
        code = proc.wait()
        elapsed = perf_counter() - start
        timer.cancel()
        return elapsed, code

    started = perf_counter()
    while len(times) < SETUP_PROBES or (
        len(times) < 3 * SETUP_PROBES and perf_counter() - started < SETUP_PROBE_S
    ):
        bare, _ = timed(BARE)
        elapsed, code = timed([sys.executable, "-c", PROBE, str(ROOT / "src"), *setup_argv])
        times.append(elapsed * BARE_START_S / bare)
        failed += code != 0
    return statistics.median(times), len(times), failed


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(job_times: list[float], pass_walls: list[float]) -> dict:
    return {
        "wall_s": statistics.median(pass_walls),
        "verdict_p50_s": _percentile(job_times, 50),
        "verdict_p90_s": _percentile(job_times, 90),
    }


def end_to_end(args) -> tuple[dict, int, int, list[str]]:
    run = _worker(args, trace=0, single_pass=False)
    setup_s, probes, probe_failed = _setup_probes(run["setup_argv"])
    for name, value in _timings(run["job_times"], run["pass_walls"]).items():
        print(f"{args.workload} {name} as measured = {value:.6g} s")
    metrics = _timings(run["scaled_job_times"], run["scaled_pass_walls"])
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = run["peak_rss_kb"] / 1024
    failures = run["failures"] + ["set-up probe failed"] * probe_failed
    return metrics, run["attempted"] + probes, len(failures), failures


def per_layer(args) -> tuple[dict, int, int, list[str]]:
    plain = _worker(args, trace=0, single_pass=True)
    traced = _worker(args, trace=1, single_pass=True)
    metrics = dict(traced["trace"])
    plain_wall = plain["setup_job_s"] + sum(plain["job_times"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    failures = plain["failures"] + traced["failures"]
    return metrics, plain["attempted"] + traced["attempted"], len(failures), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced budget: 2 states, at most 8 letters")
    ap.add_argument("--golden", type=Path, default=PERF_DIR / "golden", help="directory of golden outputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doxa" / "cli.py").is_file():
        print(f"error: no doxa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.golden.is_dir():
        print(f"error: no golden directory {args.golden}", file=sys.stderr)
        return 2
    # One core for the run and its children, so each set-up probe and the
    # bare interpreter that scales it run on the same core.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        metrics, attempted, failed, failures = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    names = PER_LAYER if args.trace else list(END_TO_END)
    report = {name: {"value": metrics[name], "unit": unit_of(name)} for name in names}
    for name, entry in report.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
