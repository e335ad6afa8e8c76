"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--baseline FILE]

For every workload it runs ``run.py`` once per seed with ``--trace 0``
(and once with ``--trace 1`` when writing a baseline), then prints each
end-to-end metric's median and the distance between its first and third
quartiles as a share of the median, next to the bound in
``BENCHMARK.json``.  With ``--baseline`` it writes the medians, quartiles,
each run's value and the traced metrics to that file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: {proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for workload in args.workload or list(whys):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            e2e[name] = dict(summary(values), unit=results[0]["metrics"][name]["unit"])
            flag = "" if e2e[name]["spread"] < bound / 3 else "  <-- above a third of the bound"
            ok = ok and e2e[name]["spread"] <= bound
            print(f"{workload:9} {name:14} median {e2e[name]['median']:.6g} "
                  f"spread {e2e[name]['spread']:.4f} bound {bound}{flag}", flush=True)
        entry = {"why": whys[workload], "end_to_end": e2e}
        if args.baseline is not None:
            traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
