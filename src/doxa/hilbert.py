"""Hilbert systems: axiom schemas, tautology decision, proof checking.

A proof is a numbered sequence of lines, each justified by an axiom
schema instance, a propositional tautology, a premise, or one of the
rules MP, R1, RI-R, REW.  Checking is purely syntactic: a schema
instance must match by uniform substitution, a rule application must
have the exact required shape.  Multi-step propositional reasoning must
therefore be expanded into explicit tautology + MP lines.

One builder writes the witnesses of the n-indexed conjunction rules of
KW and KRI: the IR rule is the W rule with ``W h`` read as ``IR h & ~h``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

from .oracle import atom_column
from .semantics import FrameClass, frame_class
from .syntax import (
    FI,
    IR,
    And,
    Atom,
    Bot,
    Box,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    W,
    children,
    parse,
    print_formula,
    substitute,
)
from .transform import w_to_ri


class AbstractionLimitError(ValueError):
    pass


class ProofScriptError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Propositional tautology decision by abstraction + truth tables

_LETTER_LIMIT = 20


def _abstraction_letters(f: Formula) -> list[Formula]:
    """Maximal non-Boolean subformulas (atoms and modal formulas), in
    first-occurrence order."""
    letters: dict[Formula, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, W, Box, IR, FI)):
            letters.setdefault(g)
        else:
            stack += reversed(children(g))  # the left child is visited first
    return list(letters)


def is_tautology(f: Formula) -> bool:
    """Truth-table validity after abstracting modal subformulas to letters."""
    letters = _abstraction_letters(f)
    if len(letters) > _LETTER_LIMIT:
        raise AbstractionLimitError(
            f"{len(letters)} abstraction letters exceed the limit of {_LETTER_LIMIT}"
        )
    rows = 1 << len(letters)
    full = (1 << rows) - 1
    # Truth-table columns packed into ints: bit v = value on row v, kept
    # for this table only (not across calls: a table may have 2^20 rows).
    column = {letter: atom_column(i, 1, rows) for i, letter in enumerate(letters)}
    return _truth_column(f, column, full) == full


def _truth_column(g: Formula, column: dict[Formula, int], full: int) -> int:
    """The truth-table column of ``g``, filling ``column`` (the letters'
    columns to start with) so a repeated subformula is evaluated once."""
    col = column.get(g)
    if col is not None:
        return col
    if isinstance(g, Top):
        col = full
    elif isinstance(g, Bot):
        col = 0
    elif isinstance(g, Not):
        col = full ^ _truth_column(g.arg, column, full)
    elif isinstance(g, And):
        col = _truth_column(g.left, column, full) & _truth_column(g.right, column, full)
    elif isinstance(g, Or):
        col = _truth_column(g.left, column, full) | _truth_column(g.right, column, full)
    elif isinstance(g, Imp):
        col = (full ^ _truth_column(g.left, column, full)) | _truth_column(g.right, column, full)
    elif isinstance(g, Iff):
        col = full ^ (_truth_column(g.left, column, full) ^ _truth_column(g.right, column, full))
    else:
        raise TypeError(f"not a formula: {g!r}")
    column[g] = col
    return col


# ---------------------------------------------------------------------------
# Schemas and systems


@dataclass(frozen=True)
class Schema:
    """A template whose atoms are metavariables for uniform substitution."""

    name: str
    template: Formula


def match_schema(schema: Schema, f: Formula) -> dict[str, Formula] | None:
    """The unique substitution with substitute(template, s) == f, or None."""
    binding: dict[str, Formula] = {}
    return binding if _match(schema.template, f, binding) else None


def _match(t: Formula, g: Formula, binding: dict[str, Formula]) -> bool:
    """Whether ``g`` is ``t`` with each atom replaced as ``binding`` says,
    binding each atom not yet in it to the subformula of ``g`` it meets."""
    if isinstance(t, Atom):
        return binding.setdefault(t.name, g) == g
    return type(t) is type(g) and all(map(_match, children(t), children(g), repeat(binding)))


SCHEMAS: dict[str, Schema] = {
    name: Schema(name, parse(text))
    for name, text in (
        ("A1", "W phi -> ~phi"),
        ("A2", "W phi & W psi -> W (phi & psi)"),
        ("AD", "~W F"),
        ("AT", "~W phi"),
        ("A4", "W psi & W (phi & psi) -> W ((W chi -> W (phi & chi)) & psi)"),
        ("A5", "W psi & ~W (phi & psi) -> W ((W chi -> ~W (phi & chi)) & psi)"),
        ("AB", "W psi & ~phi -> W ((W chi -> ~W (phi & chi)) & psi)"),
        ("RI-Equ", "IR phi <-> IR ~phi"),
        ("RI-Con", "IR phi & ~phi & IR psi & ~psi -> IR (phi & psi)"),
        ("RI-D", "~IR F"),
    )
}
# RI-4 is the image of A4 under the W-to-IR rewrite.
SCHEMAS["RI-4"] = Schema("RI-4", w_to_ri(SCHEMAS["A4"].template))


@dataclass(frozen=True)
class System:
    name: str
    schemas: frozenset[str]
    rules: frozenset[str]  # subset of {"MP", "R1", "RI-R", "REW"}
    frames: FrameClass


def _system(name: str, schemas: Sequence[str], rules: Sequence[str], frames: str) -> System:
    return System(name, frozenset(schemas), frozenset(rules), frame_class(frames))


_W_RULES = ("MP", "R1", "REW")
_RI_RULES = ("MP", "RI-R", "REW")

SYSTEMS: dict[str, System] = {
    s.name: s
    for s in (
        _system("KW", ("A1", "A2"), _W_RULES, "all"),
        _system("KDW", ("A1", "A2", "AD"), _W_RULES, "serial"),
        _system("TW", ("A1", "A2", "AT"), _W_RULES, "reflexive"),
        _system("K4W", ("A1", "A2", "A4"), _W_RULES, "transitive"),
        _system("K5W", ("A1", "A2", "A5"), _W_RULES, "euclidean"),
        _system("K45W", ("A1", "A2", "A5", "A4"), _W_RULES, "euclidean"),
        _system("KD5W", ("A1", "A2", "A5", "AD"), _W_RULES, "serial+transitive+euclidean"),
        _system("BW", ("A1", "A2", "AB"), _W_RULES, "symmetric"),
        _system("KRI", ("RI-Equ", "RI-Con"), _RI_RULES, "all"),
        _system("KD4RI", ("RI-Equ", "RI-Con", "RI-D", "RI-4"), _RI_RULES, "serial+transitive"),
    )
}


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class ByAxiom:
    schema: str
    subst: tuple[tuple[str, Formula], ...] | None = None


@dataclass(frozen=True)
class ByTaut:
    pass


@dataclass(frozen=True)
class ByPremise:
    pass


@dataclass(frozen=True)
class ByMP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class ByR1:
    source: int


@dataclass(frozen=True)
class ByRIR:
    source: int


@dataclass(frozen=True)
class ByREW:
    source: int


Justification = ByAxiom | ByTaut | ByPremise | ByMP | ByR1 | ByRIR | ByREW


@dataclass(frozen=True)
class Rule:
    """A one-source rule: its name in ``System.rules``, its script
    keyword, the type its source must have and the lines it licenses."""

    name: str
    keyword: str
    source_type: type
    source_noun: str
    conclusions: Callable[[Formula], tuple[Formula, ...]]
    admissible: bool = False  # disabled by strict checking


RULES: dict[type, Rule] = {
    ByR1: Rule(
        "R1", "r1", Imp, "an implication",
        lambda s: (Imp(And(W(s.left), Not(s.right)), W(s.right)),),
    ),
    ByRIR: Rule(
        "RI-R", "rir", Imp, "an implication",
        lambda s: (Imp(And(IR(s.left), Not(s.left)), Or(IR(s.right), s.right)),),
    ),
    ByREW: Rule(
        "REW", "rew", Iff, "a biconditional",
        lambda s: (Iff(W(s.left), W(s.right)), Iff(IR(s.left), IR(s.right))),
        admissible=True,
    ),
}


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    system: System
    premises: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]

    def __post_init__(self):
        if not self.lines:
            raise ValueError("a proof needs at least one line")

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _reject(line: ProofLine, reason: str) -> CheckResult:
    return CheckResult(False, line.index, reason)


def check_proof(proof: Proof, strict: bool = False) -> CheckResult:
    """Validate every line; rejections name the first bad line.

    ``strict=True`` disables the admissible rules (REW is not primitive).
    Line indices are labels: references are resolved by label and must
    point at earlier lines, so renumbering that preserves order is fine.
    """
    system = proof.system
    seen: dict[int, Formula] = {}
    for line in proof.lines:
        if line.index in seen:
            return _reject(line, f"duplicate line index {line.index}")
        j = line.justification
        if isinstance(j, ByAxiom):
            if j.schema not in system.schemas:
                return _reject(line, f"schema {j.schema} is not an axiom of {system.name}")
            schema = SCHEMAS[j.schema]
            if j.subst is not None:
                if substitute(schema.template, dict(j.subst)) != line.formula:
                    return _reject(line, f"stated substitution does not yield the line from {j.schema}")
            elif match_schema(schema, line.formula) is None:
                return _reject(line, f"not an instance of {j.schema}")
        elif isinstance(j, ByTaut):
            if not is_tautology(line.formula):
                return _reject(line, "not a propositional tautology")
        elif isinstance(j, ByPremise):
            if line.formula not in proof.premises:
                return _reject(line, "not among the premises")
        elif isinstance(j, ByMP):
            if "MP" not in system.rules:
                return _reject(line, f"MP not available in {system.name}")
            fi, fj = seen.get(j.antecedent), seen.get(j.implication)
            if fi is None or fj is None:
                return _reject(line, "MP reference to a missing or later line")
            if fj != Imp(fi, line.formula):
                return _reject(line, "MP shape mismatch")
        else:
            rule = RULES.get(type(j))
            if rule is None:  # pragma: no cover
                return _reject(line, f"unknown justification {j!r}")
            off = strict and rule.admissible
            if off or rule.name not in system.rules:
                return _reject(line, f"{rule.name} not available in {system.name}" + (" (strict mode)" if off else ""))
            fi = seen.get(j.source)
            if fi is None:
                return _reject(line, f"{rule.name} reference to a missing or later line")
            if not isinstance(fi, rule.source_type):
                return _reject(line, f"{rule.name} source is not {rule.source_noun}")
            if line.formula not in rule.conclusions(fi):
                return _reject(line, f"{rule.name} shape mismatch")
        seen[line.index] = line.formula
    return CheckResult(True)


def check_derived_rule(
    system: System,
    premise_templates: Sequence[Schema],
    conclusion_template: Schema,
    witness: Proof,
    strict: bool = False,
) -> CheckResult:
    """A witness proof establishes an instance of the rule.

    The premises must instantiate the premise templates and the
    conclusion the conclusion template, all under one substitution.
    """
    if witness.system.name != system.name:
        return CheckResult(False, None, f"witness is in {witness.system.name}, not {system.name}")
    if len(witness.premises) != len(premise_templates):
        return CheckResult(False, None, "premise count differs from the rule")
    matches = [("premise", t, f) for t, f in zip(premise_templates, witness.premises)]
    matches.append(("conclusion", conclusion_template, witness.conclusion))
    binding: dict[str, Formula] = {}
    for role, template, f in matches:
        local = match_schema(template, f)
        if local is None:
            return CheckResult(False, None, f"{role} {print_formula(f)} does not instantiate {template.name}")
        for k, v in local.items():
            if binding.setdefault(k, v) != v:
                return CheckResult(False, None, f"inconsistent instantiation of {k}")
    return check_proof(witness, strict=strict)


# ---------------------------------------------------------------------------
# Proof scripts

_LINE_RE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(.*)$")
_AXIOM_RE = re.compile(r"^([A-Za-z0-9-]+)(\{.*\})?$")


def _parse_justification(text: str, line_no: int) -> Justification:
    text = text.strip()
    parts = text.split()
    if parts and parts[0] in ("taut", "premise"):
        if len(parts) != 1:
            raise ProofScriptError(f"{parts[0]} takes no arguments", line_no)
        return ByTaut() if parts[0] == "taut" else ByPremise()
    if parts and parts[0] == "mp":
        if len(parts) != 3 or not all(p.isdigit() for p in parts[1:]):
            raise ProofScriptError("mp needs two line numbers", line_no)
        return ByMP(int(parts[1]), int(parts[2]))
    for ctor, rule in RULES.items():
        if parts and parts[0] == rule.keyword:
            if len(parts) != 2 or not parts[1].isdigit():
                raise ProofScriptError(f"{rule.keyword} needs one line number", line_no)
            return ctor(int(parts[1]))
    m = _AXIOM_RE.match(text)
    if m and m.group(1) in SCHEMAS:
        subst = None
        if m.group(2):
            body = m.group(2)[1:-1].strip()
            entries = []
            if body:
                for part in body.split(","):
                    if ":=" not in part:
                        raise ProofScriptError(f"bad substitution entry {part!r}", line_no)
                    var, val = part.split(":=", 1)
                    var = var.strip()
                    try:
                        entries.append((var, parse(val)))
                    except ValueError as exc:
                        raise ProofScriptError(f"bad substitution formula: {exc}", line_no) from None
            subst = tuple(entries)
        return ByAxiom(m.group(1), subst)
    raise ProofScriptError(f"unknown justification {text!r}", line_no)


def parse_proof_script(text: str) -> Proof:
    """Line-oriented script: a header block then numbered proof lines.

    Header entries: ``system: NAME`` (required) and any number of
    ``premise: FORMULA`` lines.  Proof lines read
    ``<index>. <formula> ; <justification>``.  ``#`` starts a comment.
    """
    system: System | None = None
    premises: list[Formula] = []
    lines: list[ProofLine] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("system:"):
            if system is not None:
                raise ProofScriptError("repeated 'system:' header", line_no)
            name = stripped[len("system:"):].strip()
            if name not in SYSTEMS:
                raise ProofScriptError(f"unknown system {name!r}", line_no)
            system = SYSTEMS[name]
            continue
        if stripped.startswith("premise:"):
            try:
                premises.append(parse(stripped[len("premise:"):].strip()))
            except ValueError as exc:
                raise ProofScriptError(f"bad premise: {exc}", line_no) from None
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ProofScriptError(f"unparseable proof line {stripped!r}", line_no)
        index = int(m.group(1))
        try:
            formula = parse(m.group(2))
        except ValueError as exc:
            raise ProofScriptError(f"bad formula: {exc}", line_no) from None
        lines.append(ProofLine(index, formula, _parse_justification(m.group(3), line_no)))
    if system is None:
        raise ProofScriptError("missing 'system:' header", 1)
    if not lines:
        raise ProofScriptError("no proof lines", 1)
    return Proof(system, tuple(premises), tuple(lines))


# ---------------------------------------------------------------------------
# Programmatic proofs: the n-indexed conjunction rules


class _Builder:
    """Accumulates checked-shape proof lines with fresh indices."""

    def __init__(self, system: System, premises: Sequence[Formula]):
        self.system = system
        self.premises = tuple(premises)
        self.lines: list[ProofLine] = []

    def _add(self, formula: Formula, justification: Justification) -> int:
        index = len(self.lines) + 1
        self.lines.append(ProofLine(index, formula, justification))
        return index

    def premise(self, f: Formula) -> int:
        return self._add(f, ByPremise())

    def taut(self, f: Formula) -> int:
        return self._add(f, ByTaut())

    def axiom(self, name: str, subst: dict[str, Formula]) -> int:
        return self._add(substitute(SCHEMAS[name].template, subst), ByAxiom(name))

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.lines[implication - 1].formula
        assert isinstance(imp, Imp)
        return self._add(imp.right, ByMP(antecedent, implication))

    def rule(self, ctor: type, source: int, modality: type | None = None) -> int:
        """The first line that ``RULES[ctor]`` licenses from ``source``, or
        the one with ``modality`` on its left side."""
        conclusions = RULES[ctor].conclusions(self.lines[source - 1].formula)
        if modality is not None:
            conclusions = [f for f in conclusions if isinstance(f.left, modality)]
        return self._add(conclusions[0], ctor(source))

    def chain(self, sources: Sequence[int], target: Formula) -> int:
        """Close over earlier lines propositionally: one taut line + MPs."""
        stacked = target
        for ref in reversed(sources):
            stacked = Imp(self.lines[ref - 1].formula, stacked)
        at = self.taut(stacked)
        for ref in sources:
            at = self.mp(ref, at)
        return at

    def proof(self) -> Proof:
        return Proof(self.system, self.premises, tuple(self.lines))


def _conj(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


@dataclass(frozen=True)
class DerivedRule:
    premises: tuple[Schema, ...]
    conclusion: Schema
    witness: Proof


@dataclass(frozen=True)
class _Logic:
    """A logic as the conjunction rule reads it: ``wrong(h)`` lists the
    conjuncts of "h is wrongly believed", ``goal(f, ant)`` is the rule's
    conclusion (``rule`` licenses ``goal(f, wrong(c))`` from ``c -> f``)
    and ``join`` the axiom that joins two wrong beliefs."""

    system: str
    rule: type
    join: str
    modality: type
    wrong: Callable[[Formula], list[Formula]]
    goal: Callable[[Formula, list[Formula]], Formula]


_LOGICS = {
    "W": _Logic(
        "KW", ByR1, "A2", W,
        lambda h: [W(h)],
        lambda f, ant: Imp(_conj(ant + [Not(f)]), W(f)),
    ),
    "IR": _Logic(
        "KRI", ByRIR, "RI-Con", IR,
        lambda h: [IR(h), Not(h)],
        lambda f, ant: Imp(_conj(ant), Or(IR(f), f)) if ant else Or(IR(f), f),
    ),
}


def _conjunction_rule(logic: _Logic, n: int) -> DerivedRule:
    """From c1 & ... & cn -> f derive goal(f, wrong(c1 & g) + ... + wrong(cn & g)).

    The witness replays the argument on fresh atoms: ``rule`` gives
    goal(f, wrong(C & g)) for C = c1 & ... & cn, and each grouping step joins
    wrong(D & g) and wrong(x & g) into wrong(D & x & g) by ``join`` and REW."""
    if not 0 <= n <= 3:
        raise ValueError("witnesses are built for n between 0 and 3")

    def rule_formulas(cs: list[Formula], f: Formula, g: Formula) -> tuple[Formula, Formula]:
        premise = Imp(_conj(cs), f) if cs else f
        return premise, logic.goal(f, [w for x in cs for w in logic.wrong(And(x, g))])

    meta_premise, meta_conclusion = rule_formulas(
        [Atom(x) for x in ("chi1", "chi2", "chi3")[:n]], Atom("phi"), Atom("psi")
    )
    chis, phi, psi = [Atom(x) for x in ("a", "b", "c")[:n]], Atom("p"), Atom("q")
    premise, conclusion = rule_formulas(chis, phi, psi)
    b = _Builder(SYSTEMS[logic.system], (premise,))
    l1 = b.premise(premise)
    if n == 0:
        b.chain([l1], conclusion)
    else:
        c = _conj(chis)
        l2 = b.rule(logic.rule, l1)  # goal(f, wrong(C))
        l4 = b.rule(logic.rule, b.taut(Imp(And(c, psi), c)))  # goal(C, wrong(C & g))
        core = b.chain([l1, l2, l4], logic.goal(phi, logic.wrong(And(c, psi))))
        # Grouping: from wrong(c1 & g), ..., wrong(cn & g) reach wrong(C & g) stepwise.
        prefix, ant = chis[0], logic.wrong(And(chis[0], psi))
        grouped: int | None = None  # line for ant -> wrong(prefix & g)
        for x in chis[1:]:
            px, xx, bigger = And(prefix, psi), And(x, psi), And(prefix, x)
            join = b.axiom(logic.join, {"phi": px, "psi": xx})
            flat = b.taut(Iff(And(px, xx), And(bigger, psi)))
            rew = b.rule(ByREW, flat, logic.modality)
            # The witnesses also cite flat once per conjunct of wrong(h) past the
            # first: for IR, the step to ~(bigger & g), which ~px alone implies.
            sources = [join, rew] + [flat] * (len(logic.wrong(psi)) - 1)
            joined = _conj(logic.wrong(And(bigger, psi)))
            step = b.chain(sources, Imp(_conj(logic.wrong(px) + logic.wrong(xx)), joined))
            ant += logic.wrong(xx)
            grouped = step if grouped is None else b.chain([grouped, step], Imp(_conj(ant), joined))
            prefix = bigger
        if grouped is not None:
            b.chain([grouped, core], logic.goal(phi, [_conj(ant)]))
    premises = (Schema("rule-premise", meta_premise),)
    return DerivedRule(premises, Schema("rule-conclusion", meta_conclusion), b.proof())


def conjunction_rule_w(n: int) -> DerivedRule:
    """From c1 & ... & cn -> f derive W(c1 & g) & ... & W(cn & g) & ~f -> W f."""
    return _conjunction_rule(_LOGICS["W"], n)


def conjunction_rule_ri(n: int) -> DerivedRule:
    """The W rule with W h read as IR h & ~h: from c1 & ... & cn -> f derive
    IR(c1 & g) & ~(c1 & g) & ... & ~(cn & g) -> IR f | f."""
    return _conjunction_rule(_LOGICS["IR"], n)
