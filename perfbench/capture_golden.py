"""Capture the golden outputs the benchmark compares against.

    python3 perfbench/capture_golden.py

Run this only at a commit whose outputs are known to be right; the
files under ``perfbench/golden`` pin them byte for byte.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402
from doxa import hilbert  # noqa: E402
from doxa.syntax import print_formula  # noqa: E402

GOLDEN = workloads.GOLDEN_DIR
JUSTIFICATIONS = {
    hilbert.ByTaut: lambda j: "taut",
    hilbert.ByPremise: lambda j: "premise",
    hilbert.ByAxiom: lambda j: j.schema,
    hilbert.ByMP: lambda j: f"mp {j.antecedent} {j.implication}",
    hilbert.ByR1: lambda j: f"r1 {j.source}",
    hilbert.ByRIR: lambda j: f"rir {j.source}",
    hilbert.ByREW: lambda j: f"rew {j.source}",
}


def run(argv):
    code, out, err, _ = worker.run_job(argv)
    if code is None or code == 2:
        raise SystemExit(f"{argv}: exit {code}: {err}")
    return code, out


def witness_scripts() -> None:
    (GOLDEN / "witness").mkdir(parents=True, exist_ok=True)
    for kind, make in (("w", hilbert.conjunction_rule_w), ("ri", hilbert.conjunction_rule_ri)):
        for n in range(4):
            proof = make(n).witness
            lines = [f"system: {proof.system.name}"]
            lines += [f"premise: {print_formula(p)}" for p in proof.premises]
            lines += [
                f"{line.index}. {print_formula(line.formula)} ; "
                f"{JUSTIFICATIONS[type(line.justification)](line.justification)}"
                for line in proof.lines
            ]
            text = "\n".join(lines) + "\n"
            if hilbert.parse_proof_script(text) != proof:
                raise SystemExit(f"witness {kind} n={n} does not round-trip")
            (GOLDEN / "witness" / f"{kind}_conjunction_rule_n{n}.proof").write_text(text)


def paper() -> None:
    for states in (2, 3):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            code, out = run(["verify-paper", "--max-states", str(states), "--format", fmt])
            if code != 0:
                raise SystemExit(f"verify-paper at {states} states exited {code}")
            (GOLDEN / f"paper-{states}.{ext}").write_text(out)


def search_table(states: int) -> None:
    table = {}
    for axiom, text in workloads.AXIOMS.items():
        for cls in workloads.CLASSES:
            _, out = run(["valid", text, "--class", cls, "--max-states", str(states), "--format", "json"])
            doc = json.loads(out)
            printed = re.match(r"validity of (.*) on \S+ frames, up to \d+ states$", doc["query"]).group(1)
            table[f"{axiom} {cls}"] = {
                "verdict": doc["verdict"],
                "frames_examined": doc["frames_examined"],
                "models_examined": doc["models_examined"],
                "printed": printed,
            }
    (GOLDEN / f"search-{states}.table.json").write_text(json.dumps(table, indent=1) + "\n")


def proofs_fixed() -> None:
    fixed = {}
    src = workloads.PERF_DIR.parent / "src" / "doxa" / "proofs"
    for name in workloads.FIXED_SCRIPTS + workloads.WITNESS_SCRIPTS:
        path = (src if name in workloads.FIXED_SCRIPTS else GOLDEN / "witness") / name
        for strict in (False, True):
            _, out = run(["prove", str(path)] + (["--strict"] if strict else []))
            fixed[name + (" --strict" if strict else "")] = out
    (GOLDEN / "proofs.fixed.json").write_text(json.dumps(fixed, indent=1) + "\n")


def default_seed_runs() -> None:
    scratch = workloads.PERF_DIR.parent / ".perfbench" / "capture"
    for name in ("search-4", "proofs"):
        for smoke in (False, True):
            wl = workloads.build(name, workloads.DEFAULT_SEED, smoke, GOLDEN, scratch)
            runs = [[job.label, *run(job.argv)] for job in wl.jobs]
            workloads.default_seed_golden(wl, GOLDEN).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    steps = sys.argv[1:] or ["witness", "paper", "search", "proofs", "seed"]
    if "witness" in steps:
        witness_scripts()
    if "paper" in steps:
        paper()
    if "search" in steps:
        search_table(2)
        search_table(4)
    if "proofs" in steps:
        proofs_fixed()
    if "seed" in steps:
        default_seed_runs()
