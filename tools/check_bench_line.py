"""Check the result line of one benchmark run.

    python3 bench/run.py --workload NAME --trace T | python tools/check_bench_line.py --trace T

Reads the stdout of ``bench/run.py`` and exits 0 only if its last line is
strict JSON (``NaN`` and ``Infinity`` are rejected) with ``correct`` true,
``failed`` 0, and a numeric value for every metric that ``BENCHMARK.json``
names: its ``end_to_end`` names with ``--trace 0``, its ``per_layer`` names
with ``--trace 1``.  Otherwise it prints why on stderr and exits 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def problems(text: str, trace: int) -> list[str]:
    """Why the last line of text is not a good result line; empty if it is."""
    lines = text.splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON ({exc}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {lines[-1][:200]!r}"]
    out = []
    if result.get("correct") is not True:
        out.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        out.append(f"failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return out + ["no metrics object"]
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for m in spec["per_layer" if trace else "end_to_end"]:
        entry = metrics.get(m["name"])
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out.append(f"metric {m['name']} missing or not a number")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="the --trace the run was made with")
    args = parser.parse_args()
    found = problems(sys.stdin.read(), args.trace)
    for p in found:
        print(f"check_bench_line: {p}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
