"""Time every ``verify-paper`` check in one process.

Runs each runner of ``registry.all_checks()`` at ``--max-states N`` and
prints its id, status and ``perf_counter`` seconds, slowest first, then
the total.  The checks run in registry order, so caches warmed by one
check serve the later ones as in ``doxa verify-paper``.  ``--json PATH``
also writes the rows, in registry order, and the total to ``PATH``.

    PYTHONPATH=src python3 tools/check_times.py --max-states 4 [--json PATH]
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

from doxa import registry


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-states", type=int, default=3)
    parser.add_argument("--json", metavar="PATH", help="also write the rows and the total to PATH")
    args = parser.parse_args(argv)
    rows = []
    for check in registry.all_checks():
        start = perf_counter()
        outcome = check.runner(args.max_states)
        rows.append((perf_counter() - start, check.id, outcome.status))
    width = max(len(name) for _, name, _ in rows)
    for seconds, name, status in sorted(rows, reverse=True):
        print(f"{name:<{width}}  {status:<4}  {seconds:8.3f}")
    total = sum(s for s, _, _ in rows)
    print(f"{'total':<{width}}  {'':<4}  {total:8.3f}")
    if args.json:
        checks = [{"id": name, "status": status, "seconds": round(seconds, 4)} for seconds, name, status in rows]
        result = {"max_states": args.max_states, "checks": checks, "total_s": round(total, 4)}
        with open(args.json, "w") as out:
            out.write(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
