"""Command-line surface.

Exit codes are a stable contract: 0 for a positive outcome, 1 for a
logical negative (countermodel found where validity was asked, no
countermodel where one was asked, proof rejected, registry mismatch),
2 for usage or input errors.  ``DOXA_MAX_STATES`` sets the default
state budget for every bounded search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import hilbert, oracle, registry, semantics, transform
from .oracle import SearchBudget
from .semantics import dump_model, frame_class, load_model
from .syntax import Atom, parse, print_formula


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    """An integer of at least 1: the ``--max-states`` and ``--size`` type."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _natural_int(text: str) -> int:
    """An integer of at least 0: the ``--depth`` type."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _max_states(args) -> int:
    """``--max-states``, else ``DOXA_MAX_STATES``, else 3."""
    if args.max_states is not None:
        return args.max_states
    try:
        return _positive_int(os.environ.get("DOXA_MAX_STATES", "3"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"DOXA_MAX_STATES {exc}")


def _budget(args, atoms: tuple[str, ...] = ("p", "q", "r")) -> SearchBudget:
    """The search budget of a command; ``atoms`` applies without ``--atoms``.

    ``transform`` has no ``--max-states``: its preservation check reads
    no frames, so it keeps the default state bound.
    """
    try:
        if getattr(args, "atoms", None) is not None:
            atoms = tuple(Atom(a.strip()).name for a in args.atoms.split(","))
        return SearchBudget(
            max_states=_max_states(args) if "max_states" in args else SearchBudget.max_states,
            atoms=atoms,
            max_modal_depth=getattr(args, "depth", 2),
            max_size=getattr(args, "size", 7),
        )
    except ValueError as exc:  # a bad or repeated atom name
        raise UsageError(f"--atoms: {exc}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _read_model(path: str):
    try:
        return load_model(_read_text(path))
    except semantics.ModelFormatError as exc:
        raise UsageError(f"{path}: {exc}")


def _parse_formula(text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"bad formula: {exc}")


def _report_dict(report: oracle.VerdictReport) -> dict:
    out = {
        "query": report.query,
        "verdict": report.verdict,
        "frames_examined": report.frames_examined,
        "models_examined": report.models_examined,
    }
    if report.witness is not None:
        model, state = report.witness
        out["witness"] = json.loads(dump_model(model, designated=state))
    return out


def _print_search_report(report: oracle.VerdictReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_report_dict(report), indent=2))
        return
    print(report.query)
    print(f"verdict: {report.verdict}")
    print(f"examined: {report.frames_examined} frames, {report.models_examined} models")
    if report.witness is not None:
        model, state = report.witness
        print(dump_model(model, designated=state))


def cmd_eval(args) -> int:
    model, designated = _read_model(args.model)
    state = args.state if args.state is not None else designated
    if state is None:
        raise UsageError("no state given and the model has no designated state")
    formula = _parse_formula(args.formula)
    try:
        value = semantics.evaluate(model, state, formula)
    except semantics.UnknownStateError:
        raise UsageError(f"unknown state {state!r}")
    print("true" if value else "false")
    return 0


def cmd_valid(args) -> int:
    formula = _parse_formula(args.formula)
    fc = _class_of(args)
    try:
        report = oracle.valid_on(formula, fc, _budget(args))
    except oracle.BudgetError as exc:
        raise UsageError(str(exc))
    _print_search_report(report, args.format)
    return 1 if report.countermodel_found else 0


def cmd_counter(args) -> int:
    formula = _parse_formula(args.formula)
    fc = _class_of(args)
    try:
        report = oracle.find_countermodel(formula, fc, _budget(args))
    except oracle.BudgetError as exc:
        raise UsageError(str(exc))
    _print_search_report(report, args.format)
    # For a countermodel search, finding one is the positive outcome.
    return 0 if report.countermodel_found else 1


def _class_of(args):
    try:
        return frame_class(args.frame_class)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_translate(args) -> int:
    formula = _parse_formula(args.formula)
    fn = transform.w_to_ri if args.direction == "w2ri" else transform.ri_to_w
    try:
        print(print_formula(fn(formula)))
    except semantics.LanguageError as exc:
        raise UsageError(str(exc))
    return 0


def cmd_chain(args) -> int:
    try:
        chain = transform.almost_def_chain(args.axiom)
    except ValueError as exc:
        raise UsageError(str(exc))
    for i, line in enumerate(chain.lines, 1):
        print(f"({i}) {print_formula(line)}")
    if not args.check:
        return 0
    report = transform.check_chain(chain, _budget(args))
    ok = True
    for i, step in enumerate(report.steps, 1):
        status = "countermodel" if step.countermodel_found else "equivalent-up-to-budget"
        print(f"step {i}->{i + 1}: {status}")
        ok = ok and not step.countermodel_found
    return 0 if ok else 1


def cmd_prove(args) -> int:
    try:
        proof = hilbert.parse_proof_script(_read_text(args.script))
        result = hilbert.check_proof(proof, strict=args.strict)
    except (hilbert.ProofScriptError, hilbert.AbstractionLimitError) as exc:
        raise UsageError(str(exc))
    if result.accepted:
        print(f"accepted: {len(proof.lines)} lines, conclusion {print_formula(proof.conclusion)}")
        return 0
    print(f"rejected at line {result.line}: {result.reason}")
    return 1


def cmd_transform(args) -> int:
    model, designated = _read_model(args.model)
    budget = _budget(args, tuple(sorted(model.valuation)) or ("p",)) if args.verify else None
    root = args.state if args.state is not None else designated
    try:
        if args.operation == "closure":
            result = transform.euclidean_closure(model)
        else:
            if root is None:
                raise UsageError(f"{args.operation} needs a state (argument or designated)")
            if args.operation == "generate":
                result = transform.generated_submodel(model, root)
            else:
                result = transform.cone_augment(model, root)
    except semantics.UnknownStateError:
        raise UsageError(f"unknown state {root!r}")
    print(dump_model(result, designated=root if root in result.frame.states else None))
    if not args.verify:
        return 0
    report = transform.verify_preservation(model, result, budget=budget)
    if report.ok:
        print(f"preservation: ok over {report.formulas_checked} formulas")
        return 0
    print(
        f"preservation: violated at state {report.state} by {print_formula(report.formula)}"
    )
    return 1


def cmd_verify_paper(args) -> int:
    max_states = _max_states(args)
    results = registry.run_checks(max_states=max_states, pattern=args.filter)
    if not results:
        raise UsageError(f"--filter {args.filter!r} matches no check")
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "id": check.id,
                        "kind": check.kind,
                        "status": outcome.status,
                        "detail": outcome.detail,
                    }
                    for check, outcome in results
                ],
                indent=2,
            )
        )
    else:
        for check, outcome in results:
            tag = {"pass": "PASS", "fail": "FAIL", "budget-insufficient": "BUDGET"}[outcome.status]
            print(f"[{tag:6}] {check.id}: {outcome.detail}")
        counts = {"pass": 0, "fail": 0, "budget-insufficient": 0}
        for _check, outcome in results:
            counts[outcome.status] += 1
        print(
            f"{len(results)} checks: {counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['budget-insufficient']} budget-insufficient (max states {max_states})"
        )
    return 1 if any(outcome.status == registry.FAIL for _c, outcome in results) else 0


# Built once per process: ``main`` only parses, and every default that can
# change between calls (``DOXA_MAX_STATES``) is read by the commands.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doxa",
        description="Workbench for the logics of false belief and radical ignorance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p, states=True, atoms=True, corpus=False):
        if states:
            p.add_argument(
                "--max-states", type=_positive_int, default=None,
                help="state budget (default: DOXA_MAX_STATES or 3)",
            )
        if atoms:
            p.add_argument("--atoms", default=None, help="comma-separated atom list for valuations")
        if corpus:
            p.add_argument("--depth", type=_natural_int, default=2, help="corpus modal depth bound (default 2)")
            p.add_argument("--size", type=_positive_int, default=7, help="corpus size bound (default 7)")

    p = sub.add_parser("eval", help="evaluate a formula at a state of a model file")
    p.add_argument("model")
    p.add_argument("state", nargs="?")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_eval)

    for name, fn, blurb in (
        ("valid", cmd_valid, "bounded validity search (exit 1 when a countermodel exists)"),
        ("counter", cmd_counter, "bounded countermodel search (exit 0 when one is found)"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("formula")
        p.add_argument("--class", dest="frame_class", default="all", help="frame class, e.g. all, serial+transitive")
        p.add_argument("--format", choices=("text", "json"), default="text")
        add_budget_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("translate", help="rewrite between the W and IR languages")
    p.add_argument("formula")
    p.add_argument("--direction", choices=("w2ri", "ri2w"), required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("chain", help="print (and check) a box-axiom rewrite chain")
    p.add_argument("--axiom", choices=("4", "5", "B"), required=True)
    p.add_argument("--check", action="store_true", help="bounded-check every step")
    add_budget_flags(p, atoms=False)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("script")
    p.add_argument("--strict", action="store_true", help="disallow the admissible REW rule")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("transform", help="model constructions with optional preservation check")
    p.add_argument("operation", choices=("closure", "generate", "cone"))
    p.add_argument("model")
    p.add_argument("state", nargs="?")
    p.add_argument("--verify", action="store_true", help="check truth preservation on shared states")
    add_budget_flags(p, states=False, corpus=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("verify-paper", help="run the built-in regression battery")
    p.add_argument("--filter", default=None, help="glob over check ids")
    p.add_argument("--max-states", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Parsing and evaluation recurse once per nesting level.
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
