"""Seeded job generators and output checkers for the three workloads.

A job is one call of the public entry point ``doxa.cli.main(argv)``.
Each workload builds its job list from a seed, knows the expected
answer of every job, and checks each captured output against it:

* ``paper-3``: ``verify-paper --max-states 3``; the seed picks the report
  format (text or JSON) and the output must match the golden byte for byte.
* ``search-4``: every paper axiom on every frame class at 4 states through
  ``valid``/``counter --format json``; the seed renames the atoms, orders
  them in ``--atoms``, picks the command and shuffles the query order.
  Verdicts and examined counts are seed-invariant and come from a golden
  table; every printed witness is re-checked here, independently of the
  program's own re-check.
* ``proofs``: ``prove`` (plain and ``--strict``) on the golden scripts, the
  derived-rule witnesses and seeded generated scripts, each generated
  script with a twin that must be rejected at its negated line.

Formulas are parsed, and witnesses filtered by frame class and
evaluated, with references to the program's functions taken when this
module is imported, so a traced run does not count the checks as
program work.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from doxa.semantics import FrameClass, evaluate, frame_class, load_model
from doxa.syntax import (
    FI,
    IR,
    And,
    Atom,
    Box,
    Iff,
    Imp,
    Not,
    Or,
    W,
    parse,
)

PERF_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = PERF_DIR / "golden"
DEFAULT_SEED = 0
WORKLOADS = ("paper-3", "search-4", "proofs")
# The class filter is a method, which the traced run wraps on the class.
_contains = FrameClass.contains

# The paper's axioms and schemas, instantiated over p, q, r.
AXIOMS = {
    "A1": "W p -> ~p",
    "A2": "W p & W q -> W (p & q)",
    "AD": "~W F",
    "AT": "~W p",
    "A4": "W q & W (p & q) -> W ((W r -> W (p & r)) & q)",
    "A5": "W q & ~W (p & q) -> W ((W r -> ~W (p & r)) & q)",
    "AB": "W q & ~p -> W ((W r -> ~W (p & r)) & q)",
    "stronger-A4": "W q -> W ((W r -> W (p & r)) & q)",
    "AQ": "W p -> W (~W q & p)",
    "RI-Equ": "IR p <-> IR ~p",
    "RI-Con": "IR p & ~p & IR q & ~q -> IR (p & q)",
    "RI-D": "~IR F",
    "RI-4": "IR q & ~q & (IR (p & q) & ~(p & q)) -> IR ((IR r & ~r -> IR (p & r) & ~(p & r)) & q)"
    " & ~((IR r & ~r -> IR (p & r) & ~(p & r)) & q)",
    "almost-definability": "W q -> (B p <-> W (p & q))",
}
CLASSES = (
    "all",
    "serial",
    "reflexive",
    "transitive",
    "euclidean",
    "symmetric",
    "serial+transitive",
    "serial+euclidean",
)
BASE_ATOMS = ("p", "q", "r")
COUNTERMODEL = "countermodel-found"

_WORD = re.compile(r"\b[a-z][a-zA-Z0-9_]*\b")


def rename_atoms(text: str, mapping: dict[str, str]) -> str:
    """Rename atom tokens of a formula text; operators are upper case."""
    return _WORD.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


@dataclass
class Job:
    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A generated job list plus what the checker needs to judge outputs."""

    name: str
    seed: int
    smoke: bool
    setup: Job
    jobs: list[Job]
    # Golden (exit, stdout) per job label, for the default seed only.
    golden_runs: dict | None = None

    def check(self, job: Job, code, out: str, err: str) -> str | None:
        """None if the job's output is right, else a one-line reason."""
        if code is None:
            return "raised " + (err.strip().splitlines() or ["an exception"])[-1]
        if code == 2:
            return f"exit 2: {err.strip()}"
        if job is self.setup:
            return None if code == 0 else f"exit {code}, expected 0"
        reason = _CHECKERS[self.name](job, code, out)
        if reason is None and self.golden_runs is not None:
            reason = self._against_golden(job, code, out)
        return reason

    def _against_golden(self, job: Job, code, out: str) -> str | None:
        if job.label not in self.golden_runs:
            return "job missing from the default-seed golden"
        if self.golden_runs[job.label] != [code, out]:
            return "output differs from the default-seed golden"
        return None


def _read_json(path: Path):
    return json.loads(path.read_text())


def build(name: str, seed: int, smoke: bool, golden: Path, scratch: Path) -> Workload:
    """Generate the workload's jobs for ``seed``; ``scratch`` receives script files."""
    if name == "paper-3":
        wl = _paper(seed, smoke, golden)
    elif name == "search-4":
        wl = _search(seed, smoke, golden)
    elif name == "proofs":
        wl = _proofs(seed, smoke, golden, scratch)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return wl


def default_seed_golden(wl: Workload, golden: Path) -> Path | None:
    """The file pinning every job's output at the default seed, if any."""
    if wl.seed != DEFAULT_SEED or wl.name == "paper-3":
        return None
    return golden / f"{wl.name}{'-smoke' if wl.smoke else ''}.seed{DEFAULT_SEED}.json"


def load_default_seed_golden(wl: Workload, golden: Path) -> None:
    path = default_seed_golden(wl, golden)
    if path is not None:
        wl.golden_runs = {label: [code, out] for label, code, out in _read_json(path)}


# ---------------------------------------------------------------------------
# paper-3


def _paper(seed: int, smoke: bool, golden: Path) -> Workload:
    states = 2 if smoke else 3
    fmt = "json" if seed % 2 else "text"
    argv = ["verify-paper", "--max-states", str(states)]
    if fmt == "json":
        argv += ["--format", "json"]
    expected = (golden / f"paper-{states}.{'json' if fmt == 'json' else 'txt'}").read_text()
    job = Job(f"verify-paper {states} {fmt}", argv, {"stdout": expected})
    setup = Job("setup", ["verify-paper", "--max-states", str(states), "--filter", "ad-invalid-all"])
    return Workload("paper-3", seed, smoke, setup, [job])


def _check_paper(job: Job, code, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if out != job.expect["stdout"]:
        return "report differs from the golden"
    return None


# ---------------------------------------------------------------------------
# search-4


def search_states(smoke: bool) -> int:
    return 2 if smoke else 4


def fresh_atoms(rng: random.Random) -> list[str]:
    names: list[str] = []
    while len(names) < len(BASE_ATOMS):
        name = rng.choice("abcdeghjkmnsuvxyz") + str(rng.randrange(100))
        if name not in names:
            names.append(name)
    return names


def _search(seed: int, smoke: bool, golden: Path) -> Workload:
    states = search_states(smoke)
    table = _read_json(golden / f"search-{states}.table.json")
    rng = random.Random(seed)
    mapping = dict(zip(BASE_ATOMS, fresh_atoms(rng)))
    atoms = list(mapping.values())
    rng.shuffle(atoms)
    jobs = []
    for axiom, text in AXIOMS.items():
        for cls in CLASSES:
            command = rng.choice(("valid", "counter"))
            formula = rename_atoms(text, mapping)
            row = table[f"{axiom} {cls}"]
            argv = [
                command, formula, "--class", cls, "--max-states", str(states),
                "--atoms", ",".join(atoms), "--format", "json",
            ]
            prefix = "validity of" if command == "valid" else "countermodel for"
            query = (
                f"{prefix} {rename_atoms(row['printed'], mapping)} on "
                f"{frame_class(cls).describe()} frames, up to {states} states"
            )
            expect = dict(row, command=command, formula=formula, cls=cls,
                          states=states, query=query, atoms=set(atoms))
            jobs.append(Job(f"{command} {axiom} {cls}", argv, expect))
    rng.shuffle(jobs)
    # The first frame, one state and no edges, already falsifies ~W F.
    setup = Job(
        "setup",
        ["counter", "~W F", "--max-states", str(states), "--format", "json"],
        {"verdict": COUNTERMODEL, "frames_examined": 1, "models_examined": 1},
    )
    return Workload("search-4", seed, smoke, setup, jobs)


def _check_search(job: Job, code, out: str) -> str | None:
    e = job.expect
    found = e["verdict"] == COUNTERMODEL
    want_code = (1 if found else 0) if e["command"] == "valid" else (0 if found else 1)
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    for key in ("query", "verdict", "frames_examined", "models_examined"):
        want = e[key]
        if doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, expected {want!r}"
    if ("witness" in doc) != found:
        return "witness presence does not match the verdict"
    if found:
        return recheck_witness(doc["witness"], e)
    return None


def recheck_witness(witness: dict, e: dict) -> str | None:
    """Independent re-check: the printed model must falsify the formula."""
    try:
        model, state = load_model(json.dumps(witness))
    except ValueError as exc:
        return f"witness does not load: {exc}"
    if state is None:
        return "witness has no designated state"
    if len(model.frame.states) > e["states"]:
        return "witness exceeds the state budget"
    if not set(model.valuation) <= e["atoms"]:
        return "witness values atoms outside the budget"
    if not _contains(frame_class(e["cls"]), model.frame):
        return f"witness frame is not {e['cls']}"
    if evaluate(model, state, parse(e["formula"])):
        return "witness does not falsify the formula"
    return None


# ---------------------------------------------------------------------------
# proofs


FIXED_SCRIPTS = (
    "kw_conjunct_weakening.proof",
    "k5w_aq.proof",
    "kri_conjunct_weakening.proof",
)
WITNESS_SCRIPTS = tuple(
    f"{kind}_conjunction_rule_n{n}.proof" for kind in ("w", "ri") for n in range(4)
)

# Propositional tautology schemas over metavariables, as text builders.
TAUT_SCHEMAS = (
    (1, lambda a: f"{a} | ~{a}"),
    (2, lambda a, b: f"{a} -> ({b} -> {a})"),
    (3, lambda a, b, c: f"({a} -> ({b} -> {c})) -> (({a} -> {b}) -> ({a} -> {c}))"),
    (2, lambda a, b: f"(~{a} -> ~{b}) -> ({b} -> {a})"),
    (2, lambda a, b: f"~({a} & {b}) <-> (~{a} | ~{b})"),
    (3, lambda a, b, c: f"(({a} & {b}) -> {c}) <-> ({a} -> ({b} -> {c}))"),
    (2, lambda a, b: f"(({a} -> {b}) -> {a}) -> {a}"),
    (3, lambda a, b, c: f"(({a} -> {b}) & ({b} -> {c})) -> ({a} -> {c})"),
)

# (system, (axiom for one formula, its line), (axiom for two, its line))
AXIOM_LINES = (
    (
        "KW",
        ("A1", lambda x: f"W {x} -> ~{x}"),
        ("A2", lambda x, y: f"W {x} & W {y} -> W ({x} & {y})"),
    ),
    (
        "KRI",
        ("RI-Equ", lambda x: f"IR {x} <-> IR ~{x}"),
        ("RI-Con", lambda x, y: f"IR {x} & ~{x} & IR {y} & ~{y} -> IR ({x} & {y})"),
    ),
)


def letter_count(f) -> int:
    """Abstraction letters: distinct maximal atom or modal subformulas."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, W, Box, IR, FI)):
            seen.add(g)
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += [g.left, g.right]
    return len(seen)


def letter_sizes(smoke: bool) -> list[int]:
    """Abstraction-letter counts of the heavy taut lines; fixed per budget,
    so the truth-table work does not depend on the seed.  Each letter more
    costs about four times as much at the top; the 17-letter group is made
    large enough to hold the 90th percentile of the job times, away from
    the steps between groups."""
    if smoke:
        return list(range(4, 9))
    return [n for n in range(4, 17) for _ in range(3)] + [17] * 6 + [18] * 2


# Letter shapes, cycled so that a script's size does not depend on the seed.
LETTER_SHAPES = ("{a}", "{m} {a}", "{m} ~{a}", "{a}", "{m} ({a} & {b})", "{m} ({a} | ~{b})")


def _letters(rng: random.Random, n: int) -> list[str]:
    atoms = [f"x{i}" for i in range(n)]
    out: list[str] = []
    while len(out) < n:
        a, b = rng.sample(atoms, 2)
        m = rng.choice(("W", "B", "IR", "FI"))
        text = LETTER_SHAPES[len(out) % len(LETTER_SHAPES)].format(a=a, b=b, m=m)
        if text not in out:
            out.append(text)
    rng.shuffle(out)
    return out


def _combine(rng: random.Random, parts: list[str]) -> str:
    """A random Boolean formula using each part once.  Binary nodes are
    parenthesised and the parts are unary, so the text nests as is."""
    items = [f"~{p}" if rng.random() < 0.3 else p for p in parts]
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        op = rng.choice(("&", "|", "->", "<->"))
        items[i : i + 2] = [f"({items[i]} {op} {items[i + 1]})"]
    return items[0]


def _taut_instance(rng: random.Random, n: int, schema: int) -> str:
    """An instance of ``TAUT_SCHEMAS[schema]`` whose metavariables share
    ``n`` distinct letters as evenly as they can, so its size, and the
    time to decide it, barely depend on the seed."""
    arity, build = TAUT_SCHEMAS[schema]
    letters = _letters(rng, n)
    cuts = [0] + [n * j // arity for j in range(1, arity)] + [n]
    return build(*(_combine(rng, letters[i:j]) for i, j in zip(cuts, cuts[1:])))


def _small(rng: random.Random) -> str:
    atoms = [f"y{i}" for i in range(4)]
    return _combine(rng, rng.sample(atoms, rng.randint(1, 3)))


def generate_script(rng: random.Random, n: int, schema: int) -> tuple[str, list[tuple[str, str]]]:
    """A system and six (formula, justification) lines: a taut line over
    ``n`` letters from ``TAUT_SCHEMAS[schema]``, two axiom lines with
    substitutions, and a small taut line and two mp lines linking the
    axioms."""
    system, (ax1, line1), (ax2, line2) = rng.choice(AXIOM_LINES)
    x, y = _small(rng), _small(rng)
    alpha, beta = line1(x), line2(x, y)
    both = f"({alpha}) & ({beta})"
    return system, [
        (_taut_instance(rng, n, schema), "taut"),
        (alpha, f"{ax1}{{phi:={x}}}"),
        (beta, f"{ax2}{{phi:={x}, psi:={y}}}"),
        (f"({alpha}) -> (({beta}) -> ({both}))", "taut"),
        (f"({beta}) -> ({both})", "mp 2 4"),
        (both, "mp 3 5"),
    ]


def script_text(system: str, lines: list[tuple[str, str]], negate: int | None = None) -> str:
    """Script text; line ``negate`` (1-based), if given, is negated."""
    body = [f"system: {system}"]
    for i, (formula, just) in enumerate(lines, 1):
        if i == negate:
            formula = f"~({formula})"
        body.append(f"{i}. {formula} ; {just}")
    return "\n".join(body) + "\n"


_LINE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(.*)$")


def script_shape(text: str, last_checked: int | None) -> dict:
    """Proof-line count, and the taut lines the checker decides, with their
    truth-table rows, up to the line with label ``last_checked``."""
    lines = taut_calls = taut_rows = 0
    stop = False
    for raw in text.splitlines():
        m = _LINE.match(raw.strip())
        if not m:
            continue
        lines += 1
        if stop:
            continue
        if m.group(3).strip() == "taut":
            taut_calls += 1
            taut_rows += 1 << letter_count(parse(m.group(2)))
        stop = last_checked is not None and int(m.group(1)) == last_checked
    return {"lines": lines, "taut_calls": taut_calls, "taut_rows": taut_rows}


def _reason(just: str) -> str:
    if just == "taut":
        return "not a propositional tautology"
    if just.startswith("mp"):
        return "MP shape mismatch"
    return f"stated substitution does not yield the line from {just.split('{')[0]}"


def _proofs(seed: int, smoke: bool, golden: Path, scratch: Path) -> Workload:
    rng = random.Random(seed)
    fixed = _read_json(golden / "proofs.fixed.json")
    scratch.mkdir(parents=True, exist_ok=True)
    src_proofs = PERF_DIR.parent / "src" / "doxa" / "proofs"
    jobs: list[Job] = []
    for name in FIXED_SCRIPTS + WITNESS_SCRIPTS:
        path = (src_proofs if name in FIXED_SCRIPTS else golden / "witness") / name
        text = path.read_text()
        for strict in (False, True):
            key = name + (" --strict" if strict else "")
            want = fixed[key]
            m = re.match(r"rejected at line (\d+)", want)
            shape = script_shape(text, int(m.group(1)) if m else None)
            argv = ["prove", str(path)] + (["--strict"] if strict else [])
            jobs.append(Job(f"prove {key}", argv, dict(shape, stdout=want)))
    for i, n in enumerate(letter_sizes(smoke)):
        system, lines = generate_script(rng, n, i % len(TAUT_SCHEMAS))
        negate = rng.randint(1, len(lines))
        for twin in (False, True):
            text = script_text(system, lines, negate if twin else None)
            name = f"gen{i:02d}{'-twin' if twin else ''}.proof"
            path = scratch / name
            path.write_text(text)
            strict = rng.random() < 0.5
            argv = ["prove", str(path)] + (["--strict"] if strict else [])
            if twin:
                expect = {"line": negate, "reason": _reason(lines[negate - 1][1])}
            else:
                expect = {"lines_total": len(lines), "conclusion": lines[-1][0]}
            expect.update(script_shape(text, negate if twin else None))
            jobs.append(Job(f"prove {name}{' --strict' if strict else ''}", argv, expect))
    rng.shuffle(jobs)
    trivial = golden / "trivial.proof"
    setup = Job("setup", ["prove", str(trivial)], script_shape(trivial.read_text(), None))
    return Workload("proofs", seed, smoke, setup, jobs)


def _check_proofs(job: Job, code, out: str) -> str | None:
    e = job.expect
    if "stdout" in e:
        want_code = 0 if e["stdout"].startswith("accepted") else 1
        if (code, out) != (want_code, e["stdout"]):
            return f"got exit {code} {out.strip()!r}, expected {e['stdout'].strip()!r}"
        return None
    if "line" in e:
        want = f"rejected at line {e['line']}: {e['reason']}\n"
        if (code, out) != (1, want):
            return f"got exit {code} {out.strip()!r}, expected {want.strip()!r}"
        return None
    prefix = f"accepted: {e['lines_total']} lines, conclusion "
    if code != 0 or not out.startswith(prefix):
        return f"got exit {code} {out.strip()!r}, expected acceptance"
    try:
        same = parse(out[len(prefix):]) == parse(e["conclusion"])
    except ValueError:
        same = False
    return None if same else "accepted with the wrong conclusion"


_CHECKERS = {"paper-3": _check_paper, "search-4": _check_search, "proofs": _check_proofs}
