import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doxa.cli import main
from doxa.registry import load_proof_script
from doxa.semantics import Model, dump_model

PAIR = Model.of(
    ["s1", "t1"],
    [("s1", "s1"), ("s1", "t1"), ("t1", "s1"), ("t1", "t1")],
    {"p": ["s1"]},
)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(dump_model(PAIR, designated="s1"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_box_false(pair_file, capsys):
    code, out, _ = run(capsys, "eval", pair_file, "s1", "B p")
    assert code == 0 and out.strip() == "false"


def test_eval_uses_designated_state(pair_file, capsys):
    code, out, _ = run(capsys, "eval", pair_file, "W p | ~W p")
    assert code == 0 and out.strip() == "true"


def test_eval_dead_end(tmp_path, capsys):
    path = tmp_path / "dead.json"
    path.write_text(dump_model(Model.of(["s"], [], {})))
    code, out, _ = run(capsys, "eval", str(path), "s", "W F")
    assert code == 0 and out.strip() == "true"


def test_eval_ir(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(dump_model(Model.of(["s", "t"], [("s", "t")], {"p": ["t"]})))
    code, out, _ = run(capsys, "eval", str(path), "s", "IR p")
    assert code == 0 and out.strip() == "true"


def test_eval_errors(pair_file, capsys, tmp_path):
    code, _, err = run(capsys, "eval", pair_file, "zz", "p")
    assert code == 2 and "unknown state" in err
    code, _, err = run(capsys, "eval", pair_file, "s1", "p &")
    assert code == 2 and "bad formula" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["s"], "relation": [], "valuation": {}, "x": 1}')
    code, _, err = run(capsys, "eval", str(bad), "s", "p")
    assert code == 2 and "unknown fields" in err
    code, _, err = run(capsys, "eval", str(tmp_path / "none.json"), "s", "p")
    assert code == 2


def test_valid_exit_codes(capsys):
    code, out, _ = run(capsys, "valid", "W p -> ~p", "--max-states", "3")
    assert code == 0 and "no-countermodel-up-to-budget" in out
    code, out, _ = run(capsys, "valid", "~W F", "--max-states", "1")
    assert code == 1 and "countermodel-found" in out
    code, _, err = run(capsys, "valid", "p", "--class", "shiny")
    assert code == 2


def test_valid_a5_on_euclidean(capsys):
    code, out, _ = run(
        capsys,
        "valid",
        "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)",
        "--class",
        "euclidean",
        "--max-states",
        "3",
    )
    assert code == 0


def test_counter_witness_json_pipes_back_into_eval(tmp_path, capsys):
    code, out, _ = run(
        capsys, "counter", "~W F", "--max-states", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "countermodel-found"
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(doc["witness"]))
    code, out, _ = run(capsys, "eval", str(witness), "~W F")
    assert code == 0 and out.strip() == "false"


def test_counter_not_found_exits_one(capsys):
    code, _, _ = run(capsys, "counter", "p -> p", "--max-states", "2")
    assert code == 1


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "W p", "--direction", "w2ri")
    assert code == 0 and out.strip() == "IR p & ~p"
    code, out, _ = run(capsys, "translate", "IR p", "--direction", "ri2w")
    assert code == 0 and out.strip() == "W p | W ~p"
    code, _, err = run(capsys, "translate", "B p", "--direction", "w2ri")
    assert code == 2 and "outside" in err


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "--axiom", "4", "--check", "--max-states", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # 4 chain lines + 3 step verdicts
    assert lines[3].endswith("W q & W (p & q) -> W ((W r -> W (p & r)) & q)")
    assert all("equivalent-up-to-budget" in l for l in lines[4:])


def test_prove_golden_and_corrupted(tmp_path, capsys):
    script = tmp_path / "aq.proof"
    script.write_text(load_proof_script("k5w_aq.proof"))
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 0 and "accepted" in out

    code, out, _ = run(capsys, "prove", str(script), "--strict")
    assert code == 1 and "rejected at line 7" in out

    corrupted = load_proof_script("k5w_aq.proof").replace(
        "2. W q -> ~q ; A1{phi:=q}", "2. W q -> ~p ; A1{phi:=q}"
    )
    bad = tmp_path / "bad.proof"
    bad.write_text(corrupted)
    code, out, _ = run(capsys, "prove", str(bad))
    assert code == 1 and "line 2" in out

    code, _, err = run(capsys, "prove", str(tmp_path / "nope.proof"))
    assert code == 2


def test_transform_closure_verify(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        dump_model(
            Model.of(
                ["a", "b", "c"],
                [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
                {"p": ["b"]},
            )
        )
    )
    code, out, _ = run(capsys, "transform", "closure", str(path), "--verify", "--size", "5")
    assert code == 0 and "preservation: ok" in out


def test_transform_generate(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_model(Model.of(["s", "t", "u"], [("s", "t"), ("t", "u")], {})))
    code, out, _ = run(capsys, "transform", "generate", str(path), "t")
    assert code == 0
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["states"] == ["t", "u"]


def test_transform_closure_violation_exits_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_model(Model.of(["a", "b"], [("a", "b")], {"p": []})))
    code, out, _ = run(capsys, "transform", "closure", str(path), "--verify", "--size", "5")
    assert code == 1 and "violated" in out


def test_transform_needs_root(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_model(Model.of(["s"], [], {})))
    code, _, err = run(capsys, "transform", "cone", str(path))
    assert code == 2 and "needs a state" in err


def test_verify_paper_filter_and_budget(capsys):
    code, out, _ = run(
        capsys, "verify-paper", "--filter", "frame-gap-*", "--max-states", "3"
    )
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("[")]
    assert len(body) == 8 and all("PASS" in l for l in body)

    code, out, _ = run(
        capsys,
        "verify-paper",
        "--filter",
        "stronger-a4-invalid*",
        "--max-states",
        "1",
    )
    assert code == 0  # budget-insufficient is not a failure
    assert "BUDGET" in out and "FAIL" not in out


def test_verify_paper_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("DOXA_MAX_STATES", "2")
    code, out, _ = run(capsys, "verify-paper", "--filter", "a1-sound-all")
    assert code == 0 and "max states 2" in out
    monkeypatch.setenv("DOXA_MAX_STATES", "zero")
    code, _, err = run(capsys, "verify-paper", "--filter", "a1-sound-all")
    assert code == 2


def test_env_budget_is_read_on_every_call(capsys, monkeypatch):
    # The parser is built once per process; the budget default is not.
    for states in ("1", "2", "1"):
        monkeypatch.setenv("DOXA_MAX_STATES", states)
        code, out, _ = run(capsys, "valid", "W p -> ~p", "--format", "json")
        assert code == 0
        assert json.loads(out)["query"].endswith(f"up to {states} states")


GOLDEN = Path(__file__).parent / "golden"


_SUFFIX = {"text": "txt", "json": "json"}


@pytest.mark.parametrize(
    "states, fmt",
    [pytest.param(n, fmt, id=f"{fmt}-paper-{n}.{_SUFFIX[fmt]}") for n in (3, 2) for fmt in _SUFFIX],
)
def test_verify_paper_matches_the_golden_report(capsys, states, fmt):
    code, out, _ = run(capsys, "verify-paper", "--max-states", str(states), "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"paper-{states}.{_SUFFIX[fmt]}").read_text()
    # 2 states are too few for the 3-state witness of stronger-a4-invalid-transitive.
    assert ("[BUDGET]" in out or '"budget-insufficient"' in out) == (states == 2)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("paper-*")))
def test_golden_reports_equal_the_benchmark_goldens(name):
    twin = Path(__file__).parents[1] / "perfbench" / "golden" / name
    assert (GOLDEN / name).read_bytes() == twin.read_bytes()


def test_verify_paper_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "verify-paper", "--filter", "chain-*", "--format", "json"
    )
    code2, out2, _ = run(
        capsys, "verify-paper", "--filter", "chain-*", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    entries = json.loads(out1)
    assert [e["id"] for e in entries] == [
        "chain-a4-steps",
        "chain-a5-steps",
        "chain-ab-steps",
    ]


def test_usage_error_exit_code(capsys):
    assert main(["valid"]) == 2  # missing formula
    assert main(["no-such-command"]) == 2


def _usage_error(code, err):
    """Exit 2 with one ``error:`` line and no traceback."""
    return code == 2 and "Traceback" not in err and sum("error:" in l for l in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["valid", "p"],
        ["counter", "p"],
        ["chain", "--axiom", "4", "--check"],
        ["verify-paper", "--filter", "a1-sound-all"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_states_below_one_is_a_usage_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--max-states", value)
    assert _usage_error(code, err) and "positive integer" in err
    assert out == ""


def test_transform_reads_no_state_budget(capsys, monkeypatch, pair_file):
    # The preservation check compares two given models: no frames to bound.
    code, out, err = run(capsys, "transform", "closure", pair_file, "--verify", "--max-states", "2")
    assert code == 2 and "unrecognized arguments: --max-states 2" in err and out == ""
    argv = ["transform", "closure", pair_file, "--verify", "--size", "3"]
    monkeypatch.delenv("DOXA_MAX_STATES", raising=False)
    expected = run(capsys, *argv)
    assert expected[0] == 0 and "preservation: ok" in expected[1]
    monkeypatch.setenv("DOXA_MAX_STATES", "zero")
    assert run(capsys, *argv) == expected


_BAD_ATOM_LISTS = {
    "p,W": "invalid atom name",
    "p,,q": "invalid atom name",
    "p,Q": "invalid atom name",
    "p,p": "duplicate atom name",
    "": "invalid atom name",
}


@pytest.mark.parametrize("atoms", list(_BAD_ATOM_LISTS))
def test_bad_atom_lists_are_usage_errors(capsys, pair_file, atoms):
    code, out, err = run(capsys, "valid", "p", "--atoms", atoms)
    assert _usage_error(code, err) and _BAD_ATOM_LISTS[atoms] in err
    code, out, err = run(capsys, "transform", "closure", pair_file, "--verify", "--atoms", atoms)
    assert _usage_error(code, err) and out == ""


def test_atom_lists_are_stripped(capsys, pair_file):
    code, out, _ = run(capsys, "valid", "p | ~p", "--atoms", "p, q", "--max-states", "1")
    assert code == 0 and "no-countermodel-up-to-budget" in out
    code, out, _ = run(
        capsys, "transform", "closure", pair_file, "--verify", "--atoms", " p , q", "--size", "3"
    )
    assert code == 0 and "preservation: ok" in out


def test_deeply_nested_formula_is_a_usage_error(capsys, pair_file, tmp_path):
    deep = "~" * 5000 + "p"
    code, _, err = run(capsys, "valid", deep)
    assert _usage_error(code, err) and "nested too deeply" in err
    code, _, err = run(capsys, "eval", pair_file, "s1", deep)
    assert _usage_error(code, err) and "nested too deeply" in err
    script = tmp_path / "deep.proof"
    script.write_text(f"system: KW\n1. {deep} -> {deep} ; taut\n")
    code, _, err = run(capsys, "prove", str(script))
    assert _usage_error(code, err) and "nested too deeply" in err


@pytest.mark.parametrize("text", ["é", "p & ü"])
def test_non_ascii_letter_in_a_formula_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "valid", text)
    assert _usage_error(code, err) and "unexpected character" in err
    assert out == ""


def test_non_ascii_letter_in_a_proof_script_is_a_usage_error(capsys, tmp_path):
    script = tmp_path / "accent.proof"
    script.write_text("system: KW\n1. pé -> pé ; taut\n", encoding="utf-8")
    code, out, err = run(capsys, "prove", str(script))
    assert _usage_error(code, err) and "unexpected character 'é' (at position 1)" in err
    assert out == ""


def test_taut_past_the_letter_limit_is_a_usage_error(capsys, tmp_path):
    wide = " | ".join(f"p{i}" for i in range(25))
    script = tmp_path / "wide.proof"
    script.write_text(f"system: KW\n1. {wide} | ~p0 ; taut\n")
    code, out, err = run(capsys, "prove", str(script))
    assert _usage_error(code, err) and "25 abstraction letters exceed the limit of 20" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["eval", "FILE", "s", "p"], ["prove", "FILE"]], ids=lambda argv: argv[0])
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert _usage_error(code, err) and f"cannot read {path}" in err
    assert out == ""


def test_invalid_valuation_atom_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"states": ["s"], "relation": [], "valuation": {"W": ["s"]}}')
    for argv in (["eval", str(path), "s", "p"], ["transform", "closure", str(path), "--verify"]):
        code, out, err = run(capsys, *argv)
        assert _usage_error(code, err) and "invalid atom name: 'W'" in err
        assert out == ""


@pytest.mark.parametrize(
    "flag, value, want",
    [
        ("--depth", "-1", "non-negative integer"),
        ("--size", "0", "positive integer"),
        ("--size", "-3", "positive integer"),
    ],
)
def test_corpus_bounds_out_of_range_are_usage_errors(capsys, pair_file, flag, value, want):
    code, out, err = run(capsys, "transform", "closure", pair_file, "--verify", flag, value)
    assert _usage_error(code, err) and want in err
    assert out == ""


def test_least_corpus_bounds_check_the_atoms(capsys, pair_file):
    argv = ["transform", "closure", pair_file, "--verify", "--depth", "0", "--size", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.rstrip().endswith("preservation: ok over 1 formulas")


@pytest.mark.parametrize("formula, want", [("W p -> ~p", 0), ("~W F", 1)])
def test_python_dash_m_runs_the_cli(formula, want):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "doxa", "valid", formula, "--max-states", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == want, done.stderr
    assert done.stdout.startswith(f"validity of {formula} on all frames")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_paper_is_byte_identical_across_processes(fmt):
    # A formula's hash is its address, so a report ordered by a set of
    # formulas would differ from one process to the next.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "doxa", "verify-paper", "--max-states", "2", "--format", fmt],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_paper_reports_a_failing_check(capsys, monkeypatch, fmt):
    from doxa import registry

    def swapped(name):
        # Swap the two references of one MP line of the golden script.
        text = load_proof_script(name)
        assert "; mp 2 5" in text
        return text.replace("; mp 2 5", "; mp 5 2")

    monkeypatch.delenv("DOXA_MAX_STATES", raising=False)
    monkeypatch.setattr(registry, "load_proof_script", swapped)
    code, out, _ = run(
        capsys, "verify-paper", "--filter", "proof-kw-conjunct-weakening", "--format", fmt
    )
    assert code == 1
    detail = "rejected at line 6: MP shape mismatch"
    if fmt == "text":
        assert out.splitlines() == [
            f"[FAIL  ] proof-kw-conjunct-weakening: {detail}",
            "1 checks: 0 passed, 1 failed, 0 budget-insufficient (max states 3)",
        ]
    else:
        assert json.loads(out) == [
            {"id": "proof-kw-conjunct-weakening", "kind": "proof", "status": "fail", "detail": detail}
        ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_paper_filter_matching_no_check_is_a_usage_error(capsys, fmt):
    code, out, err = run(capsys, "verify-paper", "--filter", "no-such-check*", "--format", fmt)
    assert _usage_error(code, err) and out == ""
    assert err == "error: --filter 'no-such-check*' matches no check\n"
