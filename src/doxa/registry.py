"""The built-in regression battery behind ``doxa verify-paper``.

Each check pins one documented claim about the logics (axiom soundness
on its frame class, strictness witnesses, expressivity and frame
undefinability evidence, translation chains, construction batteries,
golden proofs).  A check is an id, a kind and a runner from a state
budget to an outcome: ``pass``, ``fail``, or ``budget-insufficient``
when a search that must find a witness was given fewer states than the
smallest known witness; the third outcome is never conflated with
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import cache
from importlib import resources
from typing import Callable

from . import hilbert, oracle, semantics, transform
from .oracle import SearchBudget
from .semantics import Frame, Model, frame_class
from .syntax import Atom, Formula, Not, parse, print_formula, substitute

PASS = "pass"
FAIL = "fail"
BUDGET_INSUFFICIENT = "budget-insufficient"


@dataclass
class CheckOutcome:
    status: str
    detail: str


@dataclass(frozen=True)
class PaperCheck:
    id: str
    kind: str
    runner: Callable[[int], CheckOutcome]


def _outcome(ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(PASS if ok else FAIL, detail)


# ---------------------------------------------------------------------------
# Fixed frames and models used by several checks

# Two pointed models on reflexive total frames agreeing on p: a single
# reflexive p-state versus a reflexive pair {p, not-p} seeing each other.
REFLEXIVE_POINT = Model.of(["s"], [("s", "s")], {"p": ["s"]})
REFLEXIVE_PAIR = Model.of(
    ["s'", "t'"],
    [("s'", "s'"), ("s'", "t'"), ("t'", "s'"), ("t'", "t'")],
    {"p": ["s'"]},
)

# One reflexive point versus the three-state reflexive frame that breaks
# transitivity, Euclideanness, symmetry and the rest of the list.
POINT_FRAME = Frame.of(["s"], [("s", "s")])
SPRAWL_FRAME = Frame.of(
    ["u'", "s'", "t'"],
    [("u'", "u'"), ("u'", "s'"), ("s'", "s'"), ("s'", "u'"), ("s'", "t'"), ("t'", "t'")],
)

UNDEFINABLE_PROPERTIES = (
    "transitive", "euclidean", "symmetric", "weakly-connected",
    "weakly-directed", "partial-functional", "narcissistic", "partially-narcissistic",
)

# The corpus of the fixed-frame checks: one atom, the default depth and size.
# Their comparisons read no state budget.
_ONE_ATOM = SearchBudget(atoms=("p",))


# ---------------------------------------------------------------------------
# Check constructors and runners.  Each runner looks its search or battery
# up in its module when it runs, so a rebound name is the one called.


def _bounded_valid(
    check_id: str, formula: str | Formula, class_expr: str = "all", aux: bool = False
) -> PaperCheck:
    formula = parse(formula) if isinstance(formula, str) else formula
    fc = frame_class(class_expr)
    prefix = "aux " if aux else ""

    def run(max_states: int) -> CheckOutcome:
        search = oracle.aux_valid_on if aux else oracle.valid_on
        report = search(formula, fc, SearchBudget(max_states))
        if report.countermodel_found:
            model, state = report.witness
            return _outcome(False, f"{prefix}countermodel at {state}: {semantics.dump_model(model)}")
        verdict = "aux-valid" if aux else "no countermodel"
        return _outcome(True, f"{verdict} in {report.models_examined} models")

    return PaperCheck(check_id, "bounded-valid", run)


def _countermodel_exists(
    check_id: str, formula: str | Formula, class_expr: str, min_states: int, aux: bool = False
) -> PaperCheck:
    formula = parse(formula) if isinstance(formula, str) else formula
    fc = frame_class(class_expr)

    def run(max_states: int) -> CheckOutcome:
        search = oracle.aux_valid_on if aux else oracle.find_countermodel
        report = search(formula, fc, SearchBudget(max_states))
        if report.countermodel_found:
            model, state = report.witness
            return _outcome(True, f"witness at {state}: {semantics.dump_model(model)}")
        if max_states < min_states:
            return CheckOutcome(
                BUDGET_INSUFFICIENT,
                f"smallest known witness has {min_states} states; budget allows {max_states}",
            )
        return _outcome(False, f"no witness found in {report.models_examined} models")

    return PaperCheck(check_id, "countermodel-exists", run)


def _chain_check(axiom: str) -> PaperCheck:
    def run(max_states: int) -> CheckOutcome:
        chain = transform.almost_def_chain(axiom)
        report = transform.check_chain(chain, SearchBudget(max_states))
        bad = [i for i, step in enumerate(report.steps, 1) if step.countermodel_found]
        if bad:
            return _outcome(False, f"steps {bad} have countermodels")
        return _outcome(True, f"all {len(report.steps)} steps countermodel-free")

    return PaperCheck(f"chain-a{axiom.lower()}-steps", "chain", run)


def _battery_check(
    check_id: str, runner: Callable[[int], oracle.BatteryReport], kind: str = "preservation"
) -> PaperCheck:
    def run(max_states: int) -> CheckOutcome:
        report = runner(max_states)
        if report.passed:
            return _outcome(True, f"{report.items_checked} cases checked")
        return _outcome(False, report.failure or "battery failure")

    return PaperCheck(check_id, kind, run)


def _proof_check(check_id: str, script: str) -> PaperCheck:
    def run(_max_states: int) -> CheckOutcome:
        proof = hilbert.parse_proof_script(load_proof_script(script))
        result = hilbert.check_proof(proof)
        if result.accepted:
            return _outcome(True, f"{len(proof.lines)} lines accepted")
        return _outcome(False, f"rejected at line {result.line}: {result.reason}")

    return PaperCheck(check_id, "proof", run)


def load_proof_script(name: str) -> str:
    return (resources.files("doxa") / "proofs" / name).read_text()


GOLDEN_SCRIPTS = (
    "kw_conjunct_weakening.proof",
    "k5w_aq.proof",
    "kri_conjunct_weakening.proof",
)


def _mutation_sweep(_max_states: int) -> CheckOutcome:
    rejected = 0
    total = 0
    for script in GOLDEN_SCRIPTS:
        proof = hilbert.parse_proof_script(load_proof_script(script))
        for i, line in enumerate(proof.lines):
            mutated = list(proof.lines)
            mutated[i] = hilbert.ProofLine(line.index, Not(line.formula), line.justification)
            total += 1
            if not hilbert.check_proof(
                hilbert.Proof(proof.system, proof.premises, tuple(mutated))
            ).accepted:
                rejected += 1
    if rejected == total:
        return _outcome(True, f"all {total} single-line corruptions rejected")
    return _outcome(False, f"only {rejected} of {total} corruptions rejected")


def _derived_rule_check(kind: str) -> PaperCheck:
    def run(_max_states: int) -> CheckOutcome:
        builder = getattr(hilbert, f"conjunction_rule_{kind}")
        for n in range(4):
            rule = builder(n)
            result = hilbert.check_derived_rule(
                rule.witness.system, rule.premises, rule.conclusion, rule.witness
            )
            if not result.accepted:
                return _outcome(False, f"n={n} witness rejected at line {result.line}: {result.reason}")
        return _outcome(True, "witnesses for n in 0..3 accepted")

    return PaperCheck(f"derived-rule-{kind}-conjunctions", "proof", run)


def _w_agreement(_max_states: int) -> CheckOutcome:
    report = oracle.agree_up_to(
        REFLEXIVE_POINT, "s", REFLEXIVE_PAIR, "s'", _ONE_ATOM, modalities=("W",)
    )
    if report.agree:
        return _outcome(True, f"agree on {report.formulas_checked} formulas")
    return _outcome(False, f"distinguished by {print_formula(report.distinguishing)}")


def _box_separation(_max_states: int) -> CheckOutcome:
    report = oracle.agree_up_to(
        REFLEXIVE_POINT, "s", REFLEXIVE_PAIR, "s'", _ONE_ATOM, modalities=("W", "B")
    )
    if report.agree:
        return _outcome(False, "no distinguishing formula found with B in the language")
    witness = print_formula(report.distinguishing)
    if witness != "B p":
        return _outcome(False, f"first distinguishing formula is {witness}, expected B p")
    return _outcome(True, "separated by B p")


def _property_table(_max_states: int) -> CheckOutcome:
    wrong = [
        p
        for p in UNDEFINABLE_PROPERTIES
        if semantics.has_property(POINT_FRAME, p) == semantics.has_property(SPRAWL_FRAME, p)
    ]
    if wrong:
        return _outcome(False, f"frames do not differ on {wrong}")
    return _outcome(True, f"frames differ on all {len(UNDEFINABLE_PROPERTIES)} properties")


def _gap_check(prop: str) -> PaperCheck:
    def run(_max_states: int) -> CheckOutcome:
        report = oracle.definability_gap(POINT_FRAME, SPRAWL_FRAME, prop, _ONE_ATOM)
        if not report.properties_differ:
            return _outcome(False, "frames agree on the property")
        if report.separating is not None:
            return _outcome(False, f"separated by {print_formula(report.separating)}")
        return _outcome(True, f"no separating formula among {report.formulas_checked}")

    return PaperCheck(f"frame-gap-{prop}", "definability-gap", run)


# ---------------------------------------------------------------------------
# The registry


def _axiom(name: str) -> Formula:
    """The ``hilbert.SCHEMAS`` instance of an axiom over p, q and r."""
    pqr = {"phi": Atom("p"), "psi": Atom("q"), "chi": Atom("r")}
    return substitute(hilbert.SCHEMAS[name].template, pqr)


# A4 without its second guard W (p & q).
_STRONGER_A4 = "W q -> W ((W r -> W (p & r)) & q)"
_AQ = "W p -> W (~W q & p)"


@cache
def all_checks() -> tuple[PaperCheck, ...]:
    checks: list[PaperCheck] = [
        # Soundness battery: each axiom on its frame class.
        _bounded_valid("a1-sound-all", _axiom("A1")),
        _bounded_valid("a2-sound-all", _axiom("A2")),
        _bounded_valid("ad-sound-serial", _axiom("AD"), "serial"),
        _bounded_valid("at-sound-reflexive", _axiom("AT"), "reflexive"),
        _bounded_valid("a4-sound-transitive", _axiom("A4"), "transitive"),
        _bounded_valid("a5-sound-euclidean", _axiom("A5"), "euclidean"),
        _bounded_valid("a4-sound-euclidean", _axiom("A4"), "euclidean"),
        _bounded_valid("stronger-a4-sound-euclidean", _STRONGER_A4, "euclidean"),
        _bounded_valid("ab-sound-symmetric", _axiom("AB"), "symmetric"),
        _bounded_valid("ri-equ-sound-all", _axiom("RI-Equ")),
        _bounded_valid("ri-con-sound-all", _axiom("RI-Con")),
        _bounded_valid("ri-d-sound-serial-transitive", _axiom("RI-D"), "serial+transitive"),
        _bounded_valid("ri-4-sound-serial-transitive", _axiom("RI-4"), "serial+transitive"),
        # The guarded definability of the box: under W q, B is expressible through W.
        _bounded_valid("almost-definability", "W q -> (B p <-> W (p & q))"),
        # Interdefinability of W and IR.
        _bounded_valid("w-as-ir-interdefinable", "W p <-> (IR p & ~p)"),
        _bounded_valid("ir-as-w-interdefinable", "IR p <-> (W p | W ~p)"),
        # W is false at reflexive states, for the whole corpus.
        _battery_check(
            "wrong-false-at-reflexive", lambda n: oracle.wrong_false_at_reflexive(n), "bounded-valid"
        ),
        # Strictness battery: these need countermodels.
        _countermodel_exists("stronger-a4-invalid-transitive", _STRONGER_A4, "transitive", 3),
        _countermodel_exists("ad-invalid-all", _axiom("AD"), "all", 1),
        _countermodel_exists("at-invalid-all", _axiom("AT"), "all", 1),
        # AQ needs Euclideanness.
        _countermodel_exists("aq-invalid-all", _AQ, "all", 2),
        # Auxiliary semantics, IR g read as g: the incompleteness witness, then
        # RI-Con, tautology instances and samples derived by the IR rule.
        _countermodel_exists("aux-ri-equ-invalid", _axiom("RI-Equ"), "all", 1, aux=True),
        _bounded_valid("aux-ri-con-valid", _axiom("RI-Con"), aux=True),
        _bounded_valid("aux-a0-valid", "(IR p & ~p -> IR p) & (IR p | ~IR p)", aux=True),
        _bounded_valid(
            "aux-derived-rules-valid",
            "(IR (p & q) & ~(p & q) -> IR p | p) & (IR p & ~p -> IR p | p)",
            aux=True,
        ),
        # Translation chains.
        _chain_check("4"),
        _chain_check("5"),
        _chain_check("B"),
        # Expressivity: W alone does not tell the two reflexive models apart; B p does.
        PaperCheck("s5-pair-w-agreement", "agreement", _w_agreement),
        PaperCheck("s5-pair-box-separation", "agreement", _box_separation),
        # Frame undefinability: the frame pair differs on each property, yet no
        # corpus formula separates the frames.
        PaperCheck("undefinability-property-table", "property-table", _property_table),
        *[_gap_check(p) for p in UNDEFINABLE_PROPERTIES],
        # Model constructions: the closure of a secondarily reflexive model is
        # Euclidean, cone augmentation keeps transitivity and gains
        # Euclideanness, and both preserve truth.
        _battery_check("euclidean-closure-battery", lambda n: transform.closure_battery(n)),
        _battery_check("generated-submodel-battery", lambda n: transform.submodel_property_battery(n)),
        _battery_check("cone-augment-battery", lambda n: transform.cone_battery(n)),
        # Interdefinability rewrites preserve truth; the round trip is the identity.
        _battery_check(
            "translation-w2ri-preserves", lambda n: transform.translation_battery("w2ri", n)
        ),
        _battery_check(
            "translation-ri2w-preserves", lambda n: transform.translation_battery("ri2w", n)
        ),
        _battery_check(
            "translation-roundtrip-semantic", lambda n: transform.translation_battery("roundtrip", n)
        ),
        # Golden proofs.
        _proof_check("proof-kw-conjunct-weakening", "kw_conjunct_weakening.proof"),
        _proof_check("proof-k5w-aq", "k5w_aq.proof"),
        _proof_check("proof-kri-conjunct-weakening", "kri_conjunct_weakening.proof"),
        # The n-indexed conjunction rules in KW and KRI.
        _derived_rule_check("w"),
        _derived_rule_check("ri"),
        PaperCheck("proof-mutation-sweep", "proof", _mutation_sweep),
    ]
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids)), "duplicate check ids"
    return tuple(checks)


def run_checks(
    max_states: int = 3, pattern: str | None = None
) -> list[tuple[PaperCheck, CheckOutcome]]:
    """Run the registry (optionally filtered by an id glob), in registry order."""
    selected = [
        c for c in all_checks() if pattern is None or fnmatchcase(c.id, pattern)
    ]
    return [(c, c.runner(max_states)) for c in selected]
