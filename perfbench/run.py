#!/usr/bin/env python3
"""Canonical benchmark of the CBM stack: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload gcn-copapers --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
separate traced run and prints every per-layer metric.  Diagnostic lines
(thread budget, versions, check failures) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output of the program matched its independent reference.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import budget

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "gcn-copapers": "gcn_copapers",
    "serve-pubmed": "serve_pubmed",
    "stream-collab": "stream_collab",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    budget.pin_blas_threads(1)  # before anything imports NumPy
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import common

    workload = importlib.import_module(WORKLOADS[args.workload])
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    env = budget.describe(result["program_threads"])
    common.info("env", env)
    if env["oversubscribed"]:
        common.info("warning", "BLAS threads plus program threads exceed nproc")
    common.info("run", {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace, **result["notes"]})
    for error in result.get("errors", []):
        common.info("operation failed", error)
    for problem in result["problems"]:
        common.info("check failed", problem)
    if args.trace:
        common.emit(result["correct"], result["attempted"], result["failed"],
                    result["layers"], common.PER_LAYER)
    else:
        common.emit(result["correct"], result["attempted"], result["failed"],
                    result["values"], common.END_TO_END)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
