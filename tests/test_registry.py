"""Failure texts of the search-backed ``verify-paper`` checks.

A passing report shows only the pass texts.  Here the three searches
are wrapped so that every verdict turns round, which drives each
``bounded-valid`` and ``countermodel-exists`` check down its other
branch and pins the text it prints there.
"""

import dataclasses

import pytest

from doxa import oracle, registry
from doxa.hilbert import SCHEMAS, SYSTEMS
from doxa.semantics import Model
from doxa.syntax import Atom, substitute

ONE_STATE = Model.of(["s1"], [], {"p": []})
# ``dump_model(ONE_STATE)``, which the texts below abbreviate as MODEL.
ONE_STATE_JSON = (
    '{\n  "states": [\n    "s1"\n  ],\n'
    '  "relation": [],\n  "valuation": {\n    "p": []\n  }\n}'
)

FLIPPED = """\
1 fail a1-sound-all: countermodel at s1: MODEL
1 fail a2-sound-all: countermodel at s1: MODEL
1 fail ad-sound-serial: countermodel at s1: MODEL
1 fail at-sound-reflexive: countermodel at s1: MODEL
1 fail a4-sound-transitive: countermodel at s1: MODEL
1 fail a5-sound-euclidean: countermodel at s1: MODEL
1 fail a4-sound-euclidean: countermodel at s1: MODEL
1 fail stronger-a4-sound-euclidean: countermodel at s1: MODEL
1 fail ab-sound-symmetric: countermodel at s1: MODEL
1 fail ri-equ-sound-all: countermodel at s1: MODEL
1 fail ri-con-sound-all: countermodel at s1: MODEL
1 fail ri-d-sound-serial-transitive: countermodel at s1: MODEL
1 fail ri-4-sound-serial-transitive: countermodel at s1: MODEL
1 fail almost-definability: countermodel at s1: MODEL
1 fail w-as-ir-interdefinable: countermodel at s1: MODEL
1 fail ir-as-w-interdefinable: countermodel at s1: MODEL
1 pass wrong-false-at-reflexive: 498 cases checked
1 pass stronger-a4-invalid-transitive: witness at s1: MODEL
1 fail ad-invalid-all: no witness found in 1 models
1 fail at-invalid-all: no witness found in 2 models
1 pass aq-invalid-all: witness at s1: MODEL
1 fail aux-ri-equ-invalid: no witness found in 2 models
1 fail aux-ri-con-valid: aux countermodel at s1: MODEL
1 fail aux-a0-valid: aux countermodel at s1: MODEL
1 fail aux-derived-rules-valid: aux countermodel at s1: MODEL
3 fail a1-sound-all: countermodel at s1: MODEL
3 fail a2-sound-all: countermodel at s1: MODEL
3 fail ad-sound-serial: countermodel at s1: MODEL
3 fail at-sound-reflexive: countermodel at s1: MODEL
3 fail a4-sound-transitive: countermodel at s1: MODEL
3 fail a5-sound-euclidean: countermodel at s1: MODEL
3 fail a4-sound-euclidean: countermodel at s1: MODEL
3 fail stronger-a4-sound-euclidean: countermodel at s1: MODEL
3 fail ab-sound-symmetric: countermodel at s1: MODEL
3 fail ri-equ-sound-all: countermodel at s1: MODEL
3 fail ri-con-sound-all: countermodel at s1: MODEL
3 fail ri-d-sound-serial-transitive: countermodel at s1: MODEL
3 fail ri-4-sound-serial-transitive: countermodel at s1: MODEL
3 fail almost-definability: countermodel at s1: MODEL
3 fail w-as-ir-interdefinable: countermodel at s1: MODEL
3 fail ir-as-w-interdefinable: countermodel at s1: MODEL
3 pass wrong-false-at-reflexive: 229578 cases checked
3 fail stronger-a4-invalid-transitive: no witness found in 14160 models
3 fail ad-invalid-all: no witness found in 1 models
3 fail at-invalid-all: no witness found in 2 models
3 fail aq-invalid-all: no witness found in 56 models
3 fail aux-ri-equ-invalid: no witness found in 2 models
3 fail aux-ri-con-valid: aux countermodel at s1: MODEL
3 fail aux-a0-valid: aux countermodel at s1: MODEL
3 fail aux-derived-rules-valid: aux countermodel at s1: MODEL
"""


def _flipped(search):
    """A countermodel becomes none (same counts); none becomes s1 of ONE_STATE."""

    def run(formula, fc, budget):
        report = search(formula, fc, budget)
        if report.countermodel_found:
            return dataclasses.replace(report, verdict=oracle.NO_COUNTERMODEL, witness=None)
        return dataclasses.replace(report, verdict=oracle.COUNTERMODEL, witness=(ONE_STATE, "s1"))

    return run


def test_search_checks_report_flipped_verdicts(monkeypatch):
    # Built before the patch: each runner must look its search up when it runs.
    checks = registry.all_checks()
    for name in ("valid_on", "find_countermodel", "aux_valid_on"):
        monkeypatch.setattr(oracle, name, _flipped(getattr(oracle, name)))
    lines = [
        f"{states} {outcome.status} {check.id}: {outcome.detail}".replace(ONE_STATE_JSON, "MODEL")
        for states in (1, 3)
        for check in checks
        if check.kind in ("bounded-valid", "countermodel-exists")
        for outcome in [check.runner(states)]
    ]
    assert lines == FLIPPED.splitlines()


def test_soundness_checks_pair_an_axiom_with_a_class_of_its_system(monkeypatch):
    class Asked(Exception):
        pass

    def record(formula, fc, _budget):
        raise Asked(formula, fc)

    monkeypatch.setattr(oracle, "valid_on", record)
    pqr = {"phi": Atom("p"), "psi": Atom("q"), "chi": Atom("r")}
    instances = {substitute(s.template, pqr): name for name, s in SCHEMAS.items()}
    declared = {(name, system.frames) for system in SYSTEMS.values() for name in system.schemas}
    not_axioms = []
    for check in registry.all_checks():
        if "-sound-" not in check.id:
            continue
        with pytest.raises(Asked) as asked:
            check.runner(1)
        formula, fc = asked.value.args
        if formula not in instances:
            not_axioms.append(check.id)
        else:
            assert (instances[formula], fc) in declared, check.id
    assert not_axioms == ["stronger-a4-sound-euclidean"]
