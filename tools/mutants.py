"""Run the committed mutants and write ``BENCH_mutants.json``.

Each mutant is one edit ``(name, file, old text, new text, test files)``.
The runner copies the tree to a temporary directory, checks that the
tests of every mutant pass there unmutated, then applies each edit in
turn, runs its test files with pytest and undoes the edit.  A mutant is
killed when at least one of its tests fails.  The JSON records
killed/total, the tests that killed each mutant and the survivors.

    python3 tools/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SYNTAX, HILBERT, ORACLE = "src/doxa/syntax.py", "src/doxa/hilbert.py", "src/doxa/oracle.py"
TRANSFORM = "src/doxa/transform.py"
BATTERIES = ["tests/test_batteries.py", "tests/test_oracle.py"]

MUTANTS = [
    # The connective table and the printer.
    ("and-groups-right", SYNTAX, '"&": (And, 4, False)', '"&": (And, 4, True)', ["tests/test_syntax.py"]),
    ("imp-groups-left", SYNTAX, '"->": (Imp, 2, True)', '"->": (Imp, 2, False)', ["tests/test_syntax.py"]),
    (
        "iff-imp-binding-swapped",
        SYNTAX,
        '"<->": (Iff, 1, True), "->": (Imp, 2, True)',
        '"<->": (Iff, 2, True), "->": (Imp, 1, True)',
        ["tests/test_syntax.py"],
    ),
    (
        "printer-left-operand-tighter",
        SYNTAX,
        "(bp + 1, bp) if right else (bp, bp + 1)",
        "(bp + 1, bp) if right else (bp + 1, bp + 1)",
        ["tests/test_syntax.py"],
    ),
    (
        "printer-right-operand-tighter",
        SYNTAX,
        "(bp + 1, bp) if right else (bp, bp + 1)",
        "(bp + 1, bp + 1) if right else (bp, bp + 1)",
        ["tests/test_syntax.py"],
    ),
    # The one child rule and the walks through it.
    ("children-binary-swapped", SYNTAX, "return f.left, f.right", "return f.right, f.left", ["tests/test_syntax.py"]),
    (
        "match-schema-any-type",
        HILBERT,
        "return type(t) is type(g) and all(",
        "return all(",
        ["tests/test_hilbert.py"],
    ),
    (
        "abstraction-letters-right-first",
        HILBERT,
        "stack += reversed(children(g))",
        "stack += children(g)",
        ["tests/test_hilbert.py"],
    ),
    # One node per structure: the intern key, the table and the copies.
    ("intern-key-without-class", SYNTAX, "key = (cls, *args)", "key = args", ["tests/test_syntax.py"]),
    (
        "atom-tabled-before-validation",
        SYNTAX,
        "cls._validate(*args)\n            node = object.__new__(cls)",
        "node = _NODES[key] = object.__new__(cls)\n            cls._validate(*args)",
        ["tests/test_syntax.py"],
    ),
    (
        "reduce-drops-a-field",
        SYNTAX,
        "tuple(getattr(self, name) for name in self.__match_args__)",
        "tuple(getattr(self, name) for name in self.__match_args__[1:])",
        ["tests/test_syntax.py"],
    ),
    # The one W/IR rewrite, one cache per direction; RI-4 is built by it.
    (
        "rewrite-op-unwrapped",
        TRANSFORM,
        "if isinstance(f, op):\n            return wrap(*parts)",
        "if isinstance(f, op):\n            return type(f)(*parts)",
        ["tests/test_transform.py", "tests/test_hilbert.py"],
    ),
    (
        "rewrite-cache-shared-by-both-directions",
        TRANSFORM,
        "    @cache\n    def rewrite(f: Formula) -> Formula:",
        # one table, kept on the factory, keyed on the node alone
        '    @lambda fn, done=_rewriter.__dict__.setdefault("done", {}): lambda f: done[f] if f in done else done.setdefault(f, fn(f))\n'
        "    def rewrite(f: Formula) -> Formula:",
        ["tests/test_transform.py"],
    ),
    # The truth-table column of a biconditional.
    (
        "tautology-iff-unnegated",
        HILBERT,
        "col = full ^ (_truth_column(g.left, column, full) ^ _truth_column(g.right, column, full))",
        "col = _truth_column(g.left, column, full) ^ _truth_column(g.right, column, full)",
        ["tests/test_hilbert.py"],
    ),
    # The box clause: one shift and one lack column per offset d = j - i.
    ("out-of-range-offset-constrained", ORACLE, "else every) << i", "else 0) << i", BATTERIES),
    ("box-from-minus-one", ORACLE, "self.diags, full)", "self.diags, -1)", BATTERIES),
    ("fi-keeps-the-loops", ORACLE, "[diag for diag in self.diags if diag[0]]", "self.diags", BATTERIES),
    (
        "shift-direction-swapped",
        ORACLE,
        "c >> d if d > 0 else c << -d if d else c",
        "c << d if d > 0 else c >> -d if d else c",
        BATTERIES,
    ),
    # The corpus: each entry carries its modal depth, and deeper ones are never built.
    ("corpus-depth-bound-strict", ORACLE, "if d + up <= max_modal_depth", "if d + up < max_modal_depth", ["tests/test_oracle.py"]),
    ("corpus-and-depth-left-only", ORACLE, "max(dl, dr)", "dl", ["tests/test_oracle.py"]),
    # The construction batteries: built frames classed by circuit, in one pass.
    ("construction-lost-ties-to-truth", TRANSFORM, "hit[0] < cut", "hit[0] <= cut", BATTERIES),
    (
        "construction-kept-from-every",
        TRANSFORM,
        "[keeps.members(packed.edges, packed.every)]",
        "[packed.every]",
        BATTERIES,
    ),
    # The one battery loop and its first-failure rule.
    ("battery-tie-to-later-slot", ORACLE, "row[0] % self.slots < best[0]", "row[0] % self.slots <= best[0]", BATTERIES),
    ("battery-failing-item-uncounted", ORACLE, "checked + n + 1, text", "checked + n, text", BATTERIES),
    # Labeled items counted by circuits over a block's edge columns.
    ("cone-reach-one-round-short", TRANSFORM, "for _ in range(k - 1):", "for _ in range(k - 2):", BATTERIES),
    (
        "submodel-items-need-every-property",
        TRANSFORM,
        "reduce(or_, (frame_class(p).members(x, members)",
        "reduce(and_, (frame_class(p).members(x, members)",
        BATTERIES,
    ),
    ("members-below-include-the-mask", ORACLE, "members & ((1 << low) - 1)", "members & ((1 << (low + 1)) - 1)", BATTERIES),
    (
        "battery-weighs-the-canonical-frames",
        ORACLE,
        "checked += _weigh(weights, members)",
        # the frames packed for checking, the canonical members, in place of all members
        "checked += _weigh(weights, sum(1 << c.mask(t) % (1 << _BLOCK_BITS) for c in _pack(k, lack, 1) for t in range(c.live)))",
        BATTERIES,
    ),
]


def failed_tests(tree: Path, tests: list[str]) -> list[str]:
    """Run ``tests`` in ``tree``; the ids (``tests.test_x::name``, or the
    module alone when it failed to import) of those that failed."""
    report = tree / "junit.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    # 1: tests failed; 2: a module failed to import, which kills a mutant too.
    if done.returncode not in (0, 1, 2) or not report.exists():
        raise SystemExit(f"pytest exited {done.returncode} on {tests}:\n{done.stdout}{done.stderr}")
    cases = ET.parse(report).iter("testcase")
    return [
        "::".join(filter(None, (case.get("classname"), case.get("name"))))
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench")
        shutil.copytree(ROOT, tree, ignore=ignore)
        every_test = sorted({test for *_, tests in MUTANTS for test in tests})
        broken = failed_tests(tree, every_test)
        if broken:
            raise SystemExit(f"the unmutated tree fails {broken}")
        rows = []
        for name, file, old, new, tests in MUTANTS:
            path = tree / file
            original = path.read_text()
            if original.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {original.count(old)} times in {file}")
            path.write_text(original.replace(old, new))
            try:
                killers = failed_tests(tree, tests)
            finally:
                path.write_text(original)
            print(f"{name}: {'killed by ' + str(len(killers)) if killers else 'SURVIVED'}", flush=True)
            rows.append({"name": name, "file": file, "old": old, "new": new, "tests": tests, "killed_by": killers})
    killed = sum(1 for row in rows if row["killed_by"])
    result = {
        "killed": killed,
        "total": len(rows),
        "survivors": [row["name"] for row in rows if not row["killed_by"]],
        "mutants": rows,
    }
    (ROOT / "BENCH_mutants.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"killed {killed}/{len(rows)}")


if __name__ == "__main__":
    main()
