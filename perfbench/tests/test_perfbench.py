"""The benchmark's own tests, at the reduced (smoke) budget.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import run  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from doxa.syntax import parse  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=PERF / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, seed: int = 3, golden: Path | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    if golden is not None:
        args += ["--golden", str(golden)]
    return result_of(bench(*args))


def build(name: str, seed: int, tmp_path: Path, smoke: bool = True):
    return workloads.build(name, seed, smoke, workloads.GOLDEN_DIR, tmp_path / f"{name}-{seed}")


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in BENCHMARK["per_layer"])
    groups = set(tracer.GROUPS) | {f"registry.check_s.{k}" for k in tracer.CHECK_KINDS}
    assert groups <= set(run.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("smoke_budget", [True, False])
def test_one_seed_always_yields_the_same_jobs(name, smoke_budget, tmp_path):
    def generated():
        wl = build(name, 11, tmp_path, smoke_budget)
        scripts = {p.name: p.read_text() for p in tmp_path.rglob("*.proof")}
        return [(j.label, j.argv, j.expect) for j in wl.jobs], scripts

    assert generated() == generated()


def test_job_counts_leave_ten_samples_beyond_p90(tmp_path):
    assert len(build("search-4", 1, tmp_path, smoke=False).jobs) >= 100
    assert len(build("proofs", 1, tmp_path, smoke=False).jobs) >= 100


def test_generated_taut_lines_have_the_stated_letter_count():
    rng = random.Random(5)
    for n in range(4, 19):
        for schema in range(len(workloads.TAUT_SCHEMAS)):
            _, lines = workloads.generate_script(rng, n, schema)
            assert workloads.letter_count(parse(lines[0][0])) == n


def test_calibration_scales_by_the_samples_around_a_job():
    cal = Calibrator()
    assert cal.speed(0, 0) == 1.0
    cal.samples = [Calibrator.REFERENCE_S * 2] * 30 + [Calibrator.REFERENCE_S] * 30
    assert cal.speed(0, 30) == pytest.approx(0.5)
    assert cal.speed(30, 60) == pytest.approx(1.0)
    # A job shorter than the window takes the samples on both sides.
    assert cal.speed(30, 30) == pytest.approx(2 / 3)


def test_a_layer_the_tracer_cannot_find_is_recorded():
    t = tracer.Tracer()
    t._patch(types.SimpleNamespace(), "oracle", "no_such_function", [])
    columns = t._wrap_columns(lambda ev, g: None)
    columns(types.SimpleNamespace(), None)
    assert t.missing == {
        "oracle.no_such_function",
        "oracle.FrameEvaluator.columns: FrameEvaluator._memo, .rows or .k",
    }


def _verdict_table(wl) -> dict:
    table = {}
    for job in wl.jobs:
        code, out, err, _ = worker.run_job(job.argv)
        assert wl.check(job, code, out, err) is None
        doc = json.loads(out)
        key = job.label.split(" ", 1)[1]
        table[key] = (doc["verdict"], doc["frames_examined"], doc["models_examined"])
    return table


def test_search_verdict_table_is_identical_across_seeds(tmp_path):
    one, two = build("search-4", 1, tmp_path), build("search-4", 2, tmp_path)
    assert [j.argv for j in one.jobs] != [j.argv for j in two.jobs]
    table = _verdict_table(one)
    assert len(table) == len(workloads.AXIOMS) * len(workloads.CLASSES)
    assert _verdict_table(two) == table


def test_a_witness_that_does_not_falsify_is_caught(tmp_path):
    wl = build("search-4", 1, tmp_path)
    job = next(j for j in wl.jobs if j.expect["verdict"] == workloads.COUNTERMODEL and "AD" in j.label)
    code, out, err, _ = worker.run_job(job.argv)
    doc = json.loads(out)
    assert workloads.recheck_witness(doc["witness"], job.expect) is None
    doc["witness"]["relation"] = [[s, s] for s in doc["witness"]["states"]]
    assert workloads.recheck_witness(doc["witness"], job.expect) is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_twin_is_rejected_at_its_negated_line(seed, tmp_path):
    wl = build("proofs", seed, tmp_path)
    twins = [j for j in wl.jobs if "-twin" in j.label]
    assert len(twins) == len(workloads.letter_sizes(True))
    for job in twins:
        code, out, err, _ = worker.run_job(job.argv)
        assert (code, out) == (1, f"rejected at line {job.expect['line']}: {job.expect['reason']}\n")
        assert wl.check(job, code, out, err) is None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(name, trace)
        assert (result["correct"], result["failed"]) == (True, 0)
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = sum(metrics[g] for g in tracer.GROUPS)
    assert self_times + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert 0 <= metrics["trace.unattributed_s"] < 0.1 * metrics["trace.wall_s"]


def test_smoke_trace_counts_cover_the_layers():
    search = {k: v["value"] for k, v in smoke("search-4", 1)["metrics"].items()}
    assert search["oracle.frames_examined"] > 0 and search["semantics.recheck_calls"] > 0
    assert 0 < search["semantics.class_accept_ratio"] < 1
    proofs = {k: v["value"] for k, v in smoke("proofs", 1)["metrics"].items()}
    assert proofs["hilbert.taut_calls"] > 0 and proofs["hilbert.taut_rows"] >= 2**8
    assert proofs["oracle.columns_calls"] == 0
    paper = {k: v["value"] for k, v in smoke("paper-3", 1)["metrics"].items()}
    assert all(paper[f"registry.check_s.{k}"] > 0 for k in tracer.CHECK_KINDS)


def _corrupt(tmp_path: Path, name: str, edit) -> Path:
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, golden)
    path = golden / name
    path.write_text(edit(path.read_text()))
    return golden


@pytest.mark.parametrize(
    "workload, seed, name, edit",
    [
        ("paper-3", 2, "paper-2.txt", lambda t: t.replace("PASS", "FAIL", 1)),
        ("paper-3", 3, "paper-2.json", lambda t: t.replace("pass", "fail", 1)),
        ("proofs", 3, "proofs.fixed.json", lambda t: t.replace("accepted: 21", "accepted: 20")),
        ("proofs", 0, "proofs-smoke.seed0.json", lambda t: t.replace("accepted", "accepted ", 1)),
        ("search-4", 0, "search-4-smoke.seed0.json", lambda t: t.replace("frames_examined", "frames_seen", 1)),
        ("search-4", 3, "search-2.table.json", lambda t: t.replace('"no-countermodel', '"countermodel', 1)),
    ],
)
def test_a_corrupted_golden_raises_failed_frac(workload, seed, name, edit, tmp_path):
    result = smoke(workload, 0, seed=seed, golden=_corrupt(tmp_path, name, edit))
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "proofs", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
