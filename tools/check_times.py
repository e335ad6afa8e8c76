"""Time every ``verify-paper`` check in one process.

Runs each runner of ``registry.all_checks()`` at ``--max-states N`` and
prints its id, status and ``perf_counter`` seconds, slowest first, then
the total.  The checks run in registry order, so caches warmed by one
check serve the later ones as in ``doxa verify-paper``.

    PYTHONPATH=src python3 tools/check_times.py --max-states 4
"""

from __future__ import annotations

import argparse
from time import perf_counter

from doxa import registry


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-states", type=int, default=3)
    args = parser.parse_args(argv)
    rows = []
    for check in registry.all_checks():
        start = perf_counter()
        outcome = check.runner(args.max_states)
        rows.append((perf_counter() - start, check.id, outcome.status))
    width = max(len(name) for _, name, _ in rows)
    for seconds, name, status in sorted(rows, reverse=True):
        print(f"{name:<{width}}  {status:<4}  {seconds:8.3f}")
    print(f"{'total':<{width}}  {'':<4}  {sum(s for s, _, _ in rows):8.3f}")


if __name__ == "__main__":
    main()
