import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from doxa import hilbert
from doxa.hilbert import (
    SCHEMAS,
    SYSTEMS,
    AbstractionLimitError,
    ByAxiom,
    ByMP,
    ByPremise,
    ByTaut,
    Proof,
    ProofLine,
    RULES,
    ProofScriptError,
    Schema,
    check_derived_rule,
    check_proof,
    conjunction_rule_ri,
    conjunction_rule_w,
    is_tautology,
    match_schema,
    parse_proof_script,
)
from doxa.oracle import SearchBudget, valid_on
from doxa.registry import GOLDEN_SCRIPTS, load_proof_script
from doxa.syntax import Atom, parse, print_formula
from doxa.transform import w_to_ri


def test_is_tautology_examples():
    assert is_tautology(parse("p -> p"))
    assert not is_tautology(parse("W p -> ~p"))
    assert is_tautology(parse("(W p -> ~W (p & q)) | ~W p | W (p & q) | ~~W p"))
    assert is_tautology(parse("T"))
    assert is_tautology(parse("F -> p"))
    assert not is_tautology(parse("F"))


def test_is_tautology_treats_modal_formulas_as_letters():
    assert is_tautology(parse("W p | ~W p"))
    assert not is_tautology(parse("W p | W ~p"))
    assert is_tautology(parse("IR (p & q) -> IR (p & q)"))
    assert not is_tautology(parse("IR (p & q) -> IR (q & p)"))


def test_is_tautology_letter_limit():
    big = " | ".join(f"W a{i}" for i in range(21))
    with pytest.raises(AbstractionLimitError):
        is_tautology(parse(big))


def test_is_tautology_frees_its_table_on_return():
    # The columns of a 16-letter table are about 290 KB.  They must go
    # when the call returns, not wait for the cyclic collector.
    f = parse(" | ".join(f"p{i}" for i in range(16)) + " | ~p0")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert is_tautology(f)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 10_000


def test_abstraction_letters_leave_nothing_behind():
    # A call that left its walk to the cyclic collector kept about 925
    # bytes (the function, its cells and the letters dict) per call.
    f = parse(" | ".join(f"W p{i}" if i % 2 else f"p{i}" for i in range(16)))
    assert len(hilbert._abstraction_letters(f)) == 16
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(1000):
            hilbert._abstraction_letters(f)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 50_000


def test_abstraction_letters_keep_first_occurrence_order():
    # A walk taking the right child first would give W q, p, IR r.
    f = parse("(p | W q) & ~(IR r -> p) | W q")
    assert hilbert._abstraction_letters(f) == [parse("p"), parse("W q"), parse("IR r")]


def test_match_schema_leaves_nothing_behind():
    # A walk nested in match_schema held itself in its closure, so each
    # call left the function, its cells and the binding (about 460 bytes
    # for A4) to the cyclic collector.
    f = parse("W q & W (p & q) -> W ((W r -> W (p & r)) & q)")
    assert match_schema(SCHEMAS["A4"], f) is not None
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(1000):
            match_schema(SCHEMAS["A4"], f)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 50_000


def test_match_schema_examples():
    sub = match_schema(SCHEMAS["A1"], parse("W (p | q) -> ~(p | q)"))
    assert sub == {"phi": parse("p | q")}
    sub = match_schema(SCHEMAS["A2"], parse("W (p | q) & W ~r -> W ((p | q) & ~r)"))
    assert sub == {"phi": parse("p | q"), "psi": parse("~r")}
    assert match_schema(SCHEMAS["A1"], parse("W p -> ~q")) is None


def test_match_then_substitute_reproduces():
    from doxa.syntax import substitute

    for name, text in (
        ("A4", "W q & W (p & q) -> W ((W r -> W (p & r)) & q)"),
        ("A5", "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)"),
        ("AB", "W q & ~p -> W ((W r -> ~W (p & r)) & q)"),
        ("RI-Con", "IR p & ~p & IR q & ~q -> IR (p & q)"),
    ):
        f = parse(text)
        sub = match_schema(SCHEMAS[name], f)
        assert sub is not None
        assert substitute(SCHEMAS[name].template, sub) == f


def test_ri4_is_the_translation_image_of_a4():
    assert SCHEMAS["RI-4"].template == w_to_ri(SCHEMAS["A4"].template)


def test_ri4_template_is_its_written_form():
    assert SCHEMAS["RI-4"].template == parse(
        "(IR psi & ~psi) & (IR (phi & psi) & ~(phi & psi))"
        " -> IR ((IR chi & ~chi -> IR (phi & chi) & ~(phi & chi)) & psi)"
        " & ~((IR chi & ~chi -> IR (phi & chi) & ~(phi & chi)) & psi)"
    )


def test_system_tables():
    assert SYSTEMS["KW"].schemas == {"A1", "A2"}
    assert SYSTEMS["KDW"].schemas == {"A1", "A2", "AD"}
    assert SYSTEMS["TW"].schemas == {"A1", "A2", "AT"}
    assert SYSTEMS["K4W"].schemas == {"A1", "A2", "A4"}
    assert SYSTEMS["K5W"].schemas == {"A1", "A2", "A5"}
    assert SYSTEMS["K45W"].schemas == {"A1", "A2", "A4", "A5"}
    assert SYSTEMS["KD5W"].schemas == {"A1", "A2", "A5", "AD"}
    assert SYSTEMS["BW"].schemas == {"A1", "A2", "AB"}
    assert SYSTEMS["KRI"].schemas == {"RI-Equ", "RI-Con"}
    assert SYSTEMS["KD4RI"].schemas == {"RI-Equ", "RI-Con", "RI-D", "RI-4"}
    assert SYSTEMS["KRI"].rules == {"MP", "RI-R", "REW"}


@pytest.mark.parametrize("script", GOLDEN_SCRIPTS)
def test_golden_scripts_accepted(script):
    proof = parse_proof_script(load_proof_script(script))
    result = check_proof(proof)
    assert result.accepted, f"{script}: line {result.line}: {result.reason}"


def test_aq_script_fails_in_strict_mode():
    proof = parse_proof_script(load_proof_script("k5w_aq.proof"))
    result = check_proof(proof, strict=True)
    assert not result.accepted
    assert result.reason and "REW" in result.reason


def test_transposed_mp_rejected():
    lines = (
        ProofLine(1, parse("p -> (q -> p)"), ByTaut()),
        ProofLine(2, parse("p"), ByPremise()),
        ProofLine(3, parse("q -> p"), ByMP(1, 2)),  # arguments swapped
    )
    proof = Proof(SYSTEMS["KW"], (parse("p"),), lines)
    result = check_proof(proof)
    assert not result.accepted and result.line == 3


def test_forward_reference_rejected():
    lines = (
        ProofLine(1, parse("q -> p"), ByMP(2, 3)),
        ProofLine(2, parse("p"), ByPremise()),
        ProofLine(3, parse("p -> (q -> p)"), ByTaut()),
    )
    proof = Proof(SYSTEMS["KW"], (parse("p"),), lines)
    result = check_proof(proof)
    assert not result.accepted and result.line == 1


def test_axiom_not_in_system_rejected():
    lines = (ProofLine(1, parse("W p & W ~F -> W (p & ~F)"), ByAxiom("A2")),)
    assert check_proof(Proof(SYSTEMS["KW"], (), lines)).accepted
    lines = (ProofLine(1, parse("~W F"), ByAxiom("AD")),)
    result = check_proof(Proof(SYSTEMS["KW"], (), lines))
    assert not result.accepted
    assert check_proof(Proof(SYSTEMS["KDW"], (), lines)).accepted


def test_rule_not_in_system_rejected():
    lines = (
        ProofLine(1, parse("p -> p"), ByTaut()),
        ProofLine(2, parse("W p & ~p -> W p"), hilbert.ByR1(1)),
    )
    result = check_proof(Proof(SYSTEMS["KRI"], (), lines))
    assert not result.accepted and "R1" in result.reason


def test_stated_substitution_checked():
    line_ok = ProofLine(
        1,
        parse("W (p & q) -> ~(p & q)"),
        ByAxiom("A1", (("phi", parse("p & q")),)),
    )
    assert check_proof(Proof(SYSTEMS["KW"], (), (line_ok,))).accepted
    line_bad = ProofLine(
        1, parse("W (p & q) -> ~(p & q)"), ByAxiom("A1", (("phi", parse("p")),))
    )
    result = check_proof(Proof(SYSTEMS["KW"], (), (line_bad,)))
    assert not result.accepted


def test_renumbering_insensitivity():
    proof = parse_proof_script(load_proof_script("kw_conjunct_weakening.proof"))
    remap = {line.index: 10 * line.index for line in proof.lines}

    def renumber(j):
        if isinstance(j, ByMP):
            return ByMP(remap[j.antecedent], remap[j.implication])
        if isinstance(j, hilbert.ByR1):
            return hilbert.ByR1(remap[j.source])
        if isinstance(j, hilbert.ByRIR):
            return hilbert.ByRIR(remap[j.source])
        if isinstance(j, hilbert.ByREW):
            return hilbert.ByREW(remap[j.source])
        return j

    lines = tuple(
        ProofLine(remap[l.index], l.formula, renumber(l.justification))
        for l in proof.lines
    )
    assert check_proof(Proof(proof.system, proof.premises, lines)).accepted


def test_duplicate_index_rejected():
    lines = (
        ProofLine(1, parse("p -> p"), ByTaut()),
        ProofLine(1, parse("q -> q"), ByTaut()),
    )
    result = check_proof(Proof(SYSTEMS["KW"], (), lines))
    assert not result.accepted


def test_mutation_sweep_all_rejected():
    from doxa.syntax import Not

    for script in GOLDEN_SCRIPTS:
        proof = parse_proof_script(load_proof_script(script))
        for i, line in enumerate(proof.lines):
            mutated = list(proof.lines)
            mutated[i] = ProofLine(line.index, Not(line.formula), line.justification)
            result = check_proof(Proof(proof.system, proof.premises, tuple(mutated)))
            assert not result.accepted, f"{script} survived corruption of line {line.index}"


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_conjunction_rule_w(n):
    rule = conjunction_rule_w(n)
    result = check_derived_rule(
        rule.witness.system, rule.premises, rule.conclusion, rule.witness
    )
    assert result.accepted, f"n={n}: line {result.line}: {result.reason}"


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_conjunction_rule_ri(n):
    rule = conjunction_rule_ri(n)
    result = check_derived_rule(
        rule.witness.system, rule.premises, rule.conclusion, rule.witness
    )
    assert result.accepted, f"n={n}: line {result.line}: {result.reason}"


def test_conjunction_rule_w_uses_a2_from_n_two():
    rule = conjunction_rule_w(2)
    assert any(
        isinstance(l.justification, ByAxiom) and l.justification.schema == "A2"
        for l in rule.witness.lines
    )


def test_derived_rule_rejects_wrong_conclusion():
    rule = conjunction_rule_w(1)
    bad_lines = rule.witness.lines[:-1] + (
        ProofLine(len(rule.witness.lines) + 1, parse("p -> p"), ByTaut()),
    )
    bad = Proof(rule.witness.system, rule.witness.premises, bad_lines)
    result = check_derived_rule(rule.witness.system, rule.premises, rule.conclusion, bad)
    assert not result.accepted


def test_derived_rule_requires_consistent_instantiation():
    # premise instantiated with phi := p but conclusion with phi := q
    premise_t = Schema("prem", parse("phi"))
    conclusion_t = Schema("conc", parse("~phi -> W phi"))
    lines = (
        ProofLine(1, parse("p"), ByPremise()),
        ProofLine(2, parse("p -> (~q -> W q)"), ByTaut()),  # not a tautology anyway
        ProofLine(3, parse("~q -> W q"), ByMP(1, 2)),
    )
    witness = Proof(SYSTEMS["KW"], (parse("p"),), lines)
    result = check_derived_rule(SYSTEMS["KW"], [premise_t], conclusion_t, witness)
    assert not result.accepted


# --- script parsing ---------------------------------------------------------


def test_script_errors_carry_line_numbers():
    with pytest.raises(ProofScriptError) as exc:
        parse_proof_script("system: KW\n1. p -> ; taut\n")
    assert exc.value.line_no == 2
    with pytest.raises(ProofScriptError):
        parse_proof_script("system: XYZ\n1. p ; taut\n")
    with pytest.raises(ProofScriptError):
        parse_proof_script("1. p ; taut\n")  # no system header
    with pytest.raises(ProofScriptError):
        parse_proof_script("system: KW\n1. p ; because\n")
    with pytest.raises(ProofScriptError, match="repeated 'system:' header") as exc:
        parse_proof_script("system: KW\nsystem: KRI\n1. p -> p ; taut\n")
    assert exc.value.line_no == 2
    for extra in ("taut because I say so", "premise x"):
        with pytest.raises(ProofScriptError, match="takes no arguments") as exc:
            parse_proof_script(f"system: KW\npremise: p\n1. p -> p ; {extra}\n")
        assert exc.value.line_no == 3


def test_script_axiom_substitution_syntax():
    proof = parse_proof_script(
        "system: KW\n1. W (p & q) -> ~(p & q) ; A1{phi:=p & q}\n"
    )
    assert check_proof(proof).accepted


# --- soundness meta-check ---------------------------------------------------


def test_accepted_premise_free_proof_lines_are_valid_on_system_frames():
    proof = parse_proof_script(load_proof_script("k5w_aq.proof"))
    assert check_proof(proof).accepted and not proof.premises
    fc = proof.system.frames
    budget = SearchBudget(max_states=3)
    for line in proof.lines:
        report = valid_on(line.formula, fc, budget)
        assert not report.countermodel_found, print_formula(line.formula)


def test_tautologies_are_valid():
    budget = SearchBudget(max_states=2)
    for text in ("p -> p", "W p | ~W p", "(W p -> ~W q) | W q | ~~W p | ~W p"):
        f = parse(text)
        assert is_tautology(f)
        assert not valid_on(f, budget=budget).countermodel_found


def test_line_shapes_for_r1_and_rir():
    lines = (
        ProofLine(1, parse("p -> q"), ByPremise()),
        ProofLine(2, parse("W p & ~q -> W q"), hilbert.ByR1(1)),
    )
    assert check_proof(Proof(SYSTEMS["KW"], (parse("p -> q"),), lines)).accepted
    bad = (
        ProofLine(1, parse("p -> q"), ByPremise()),
        ProofLine(2, parse("W p & ~q -> W p"), hilbert.ByR1(1)),
    )
    assert not check_proof(Proof(SYSTEMS["KW"], (parse("p -> q"),), bad)).accepted

    lines = (
        ProofLine(1, parse("p -> q"), ByPremise()),
        ProofLine(2, parse("IR p & ~p -> IR q | q"), hilbert.ByRIR(1)),
    )
    assert check_proof(Proof(SYSTEMS["KRI"], (parse("p -> q"),), lines)).accepted


def test_rew_shapes():
    lines = (
        ProofLine(1, parse("(p & q) <-> (q & p)"), ByTaut()),
        ProofLine(2, parse("W (p & q) <-> W (q & p)"), hilbert.ByREW(1)),
    )
    assert check_proof(Proof(SYSTEMS["KW"], (), lines)).accepted
    lines = (
        ProofLine(1, parse("(p & q) <-> (q & p)"), ByTaut()),
        ProofLine(2, parse("IR (p & q) <-> IR (q & p)"), hilbert.ByREW(1)),
    )
    assert check_proof(Proof(SYSTEMS["KRI"], (), lines)).accepted
    bad = (
        ProofLine(1, parse("(p & q) <-> (q & p)"), ByTaut()),
        ProofLine(2, parse("W (p & q) <-> W (p & q)"), hilbert.ByREW(1)),
    )
    assert not check_proof(Proof(SYSTEMS["KW"], (), bad)).accepted


# --- rejection texts and built witnesses ------------------------------------

KW, KRI = SYSTEMS["KW"], SYSTEMS["KRI"]
KW_WITHOUT_MP = replace(KW, name="KW-MP", rules=frozenset({"R1", "REW"}))


@pytest.mark.parametrize(
    "system, script, strict, line, reason",
    [
        (KRI, "1. p -> p ; taut\n2. W p & ~p -> W p ; r1 1", False, 2,
         "R1 not available in KRI"),
        (KW, "1. W p & ~p -> W p ; r1 2\n2. p -> p ; taut", False, 1,
         "R1 reference to a missing or later line"),
        (KW, "1. p | ~p ; taut\n2. W p & ~p -> W p ; r1 1", False, 2,
         "R1 source is not an implication"),
        (KW, "1. p -> p ; taut\n2. W p & ~p -> W q ; r1 1", False, 2,
         "R1 shape mismatch"),
        (KW, "1. p -> p ; taut\n2. IR p & ~p -> IR p | p ; rir 1", False, 2,
         "RI-R not available in KW"),
        (KRI, "1. IR p & ~p -> IR p | p ; rir 2\n2. p -> p ; taut", False, 1,
         "RI-R reference to a missing or later line"),
        (KRI, "1. p | ~p ; taut\n2. IR p & ~p -> IR p | p ; rir 1", False, 2,
         "RI-R source is not an implication"),
        (KRI, "1. p -> p ; taut\n2. IR p & ~p -> IR p ; rir 1", False, 2,
         "RI-R shape mismatch"),
        (KW, "1. W p <-> W p ; rew 2\n2. p <-> p ; taut", False, 1,
         "REW reference to a missing or later line"),
        (KW, "1. p -> p ; taut\n2. W p <-> W p ; rew 1", False, 2,
         "REW source is not a biconditional"),
        (KRI, "1. p <-> p ; taut\n2. W p <-> IR p ; rew 1", False, 2,
         "REW shape mismatch"),
        (KW, "1. p <-> p ; taut\n2. W p <-> W p ; rew 1", True, 2,
         "REW not available in KW (strict mode)"),
        (KW_WITHOUT_MP, "1. p -> p ; taut\n2. (p -> p) -> (p -> p) ; taut\n3. p -> p ; mp 1 2",
         False, 3, "MP not available in KW-MP"),
        (KW, "1. W p -> ~q ; A1", False, 1,
         "not an instance of A1"),
    ],
)
def test_check_proof_rejection_texts(system, script, strict, line, reason):
    proof = replace(parse_proof_script("system: KW\n" + script), system=system)
    result = check_proof(proof, strict=strict)
    assert (result.accepted, result.line, result.reason) == (False, line, reason)


W1 = conjunction_rule_w(1)
W1_WRONG_CONCLUSION = replace(
    W1.witness, lines=W1.witness.lines[:-1] + (ProofLine(99, parse("p -> p"), ByTaut()),)
)
PHI = Schema("prem", parse("phi"))


@pytest.mark.parametrize(
    "system, premises, conclusion, witness, reason",
    [
        (KRI, W1.premises, W1.conclusion, W1.witness, "witness is in KW, not KRI"),
        (KW, (), W1.conclusion, W1.witness, "premise count differs from the rule"),
        (
            KW, (Schema("conj", parse("phi & psi")),), W1.conclusion, W1.witness,
            "premise a -> p does not instantiate conj",
        ),
        (
            KW, W1.premises, W1.conclusion, W1_WRONG_CONCLUSION,
            "conclusion p -> p does not instantiate rule-conclusion",
        ),
        (
            KW, (PHI, PHI), W1.conclusion,
            Proof(KW, (parse("p"), parse("q")), (ProofLine(1, parse("p"), ByPremise()),)),
            "inconsistent instantiation of phi",
        ),
        (
            KW, (PHI,), Schema("conc", parse("~phi -> W phi")),
            Proof(KW, (parse("p"),), (ProofLine(1, parse("~q -> W q"), ByTaut()),)),
            "inconsistent instantiation of phi",
        ),
    ],
)
def test_check_derived_rule_rejection_texts(system, premises, conclusion, witness, reason):
    result = check_derived_rule(system, premises, conclusion, witness)
    assert (result.accepted, result.line, result.reason) == (False, None, reason)


WITNESS_SCRIPTS = Path(__file__).parent.parent / "perfbench" / "golden" / "witness"


@pytest.mark.parametrize("kind, builder", [("w", conjunction_rule_w), ("ri", conjunction_rule_ri)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_built_witnesses_match_the_committed_scripts(kind, builder, n):
    script = (WITNESS_SCRIPTS / f"{kind}_conjunction_rule_n{n}.proof").read_text()
    assert builder(n).witness == parse_proof_script(script)


RULE_TEMPLATES = {
    ("w", 0): ("phi", "~phi -> W phi"),
    ("w", 1): ("chi1 -> phi", "W (chi1 & psi) & ~phi -> W phi"),
    ("w", 2): ("chi1 & chi2 -> phi", "W (chi1 & psi) & W (chi2 & psi) & ~phi -> W phi"),
    ("w", 3): (
        "chi1 & chi2 & chi3 -> phi",
        "W (chi1 & psi) & W (chi2 & psi) & W (chi3 & psi) & ~phi -> W phi",
    ),
    ("ri", 0): ("phi", "IR phi | phi"),
    ("ri", 1): ("chi1 -> phi", "IR (chi1 & psi) & ~(chi1 & psi) -> IR phi | phi"),
    ("ri", 2): (
        "chi1 & chi2 -> phi",
        "IR (chi1 & psi) & ~(chi1 & psi) & IR (chi2 & psi) & ~(chi2 & psi) -> IR phi | phi",
    ),
    ("ri", 3): (
        "chi1 & chi2 & chi3 -> phi",
        "IR (chi1 & psi) & ~(chi1 & psi) & IR (chi2 & psi) & ~(chi2 & psi)"
        " & IR (chi3 & psi) & ~(chi3 & psi) -> IR phi | phi",
    ),
}


@pytest.mark.parametrize("kind, builder", [("w", conjunction_rule_w), ("ri", conjunction_rule_ri)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_built_rule_templates(kind, builder, n):
    premise, conclusion = RULE_TEMPLATES[kind, n]
    rule = builder(n)
    assert rule.premises == (Schema("rule-premise", parse(premise)),)
    assert rule.conclusion == Schema("rule-conclusion", parse(conclusion))


def test_readme_rule_table_matches_the_rules():
    rows = {
        line.split("|")[1].strip(): line
        for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines()
        if line.startswith("| `r") and " i` " in line
    }
    for rule in RULES.values():
        source = rule.source_type(Atom("phi"), Atom("psi"))
        licensed = " or ".join(f"`{print_formula(c)}`" for c in rule.conclusions(source))
        escaped = licensed.replace("|", "\\|")  # a literal | in a Markdown table cell
        assert rows[f"`{rule.keyword} i`"].endswith(f"| {escaped} |")
