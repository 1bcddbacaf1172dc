"""Benchmark of grpfield: ladder, roundtrip and search workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  The full report (environment, sample counts, output
digest, side-by-side reference columns) is printed above it.

grpfield is imported from the `src` directory next to this one, never
from an installed copy.  Exit code 2: usage error, `python -O`, or no
grpfield sources to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Keys of the metric objects in the final line (the report adds samples).
RESULT_KEYS = ("value", "unit")


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def result_line(report: dict) -> dict:
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {k: m[k] for k in RESULT_KEYS}
                        for name, m in metrics.items()}}


def format_columns(rows: list[dict]) -> str:
    lines = [f"{'column':<20} {'us/product':>12} {'word mults':>11}"]
    for row in rows:
        us = "-" if row["us"] is None else f"{row['us']:.3f}"
        mults = "-" if row["word_mults"] is None else str(row["word_mults"])
        lines.append(f"{row['column']:<20} {us:>12} {mults:>11}")
    lines.append("Interpreted timings do not test the paper's hardware "
                 "claim; only the *_ops counts do.")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to time under python -O: it strips grpfield's "
              "slack and exact-division checks", file=sys.stderr)
        return 2
    if not (SRC / "grpfield" / "__init__.py").is_file():
        print(f"no grpfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS
    report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), SRC)
    report["environment"] = harness.environment()
    print(json.dumps(report, indent=1))
    if args.trace:
        print(format_columns(report["columns"]))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
