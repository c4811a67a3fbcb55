#!/usr/bin/env python3
"""Benchmark of the ensql engine on seeded synthetic workloads.

    python3 bench/run.py --workload latency_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the engine is imported from
./src, and the generated databases go to a scratch directory under
./.bench_work that is removed on exit.  Text lines describe the run; the
last line of standard output is one JSON object with the metrics.  The exit
code is 0 only when every output check passed.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds every generated input")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def load_engine() -> None:
    """Put the checkout's src/ first on the path; exit 2 when it is missing."""
    if not (SRC / "ensql" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'ensql'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ensql

    if Path(ensql.__file__).resolve().parent != (SRC / "ensql").resolve():
        print(f"error: ensql imported from {ensql.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class _CountingHandler(logging.Handler):
    """Counts the engine's warnings instead of printing one per question."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_engine()
    from measure import result_json, run_workload

    handler = _CountingHandler()
    engine_log = logging.getLogger("ensql")
    engine_log.addHandler(handler)
    engine_log.propagate = False

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s timed,"
          f" trace {args.trace}")
    for line in result.lines:
        print(line)
    print(f"engine warnings logged: {handler.count}")
    print(result_json(result))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
