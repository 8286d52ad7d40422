import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_line", ROOT / "tools" / "check_bench_line.py")
check_bench_line = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_line)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _line(trace, **changes):
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {n: {"value": 1.5, "unit": "s"} for n in names}}
    result.update(changes)
    return "workload x\n  wall_s 1.5 s\n" + json.dumps(result) + "\n"


@pytest.mark.parametrize("trace", [0, 1])
def test_check_bench_line_accepts_a_complete_result(trace):
    assert check_bench_line.problems(_line(trace), trace) == []


@pytest.mark.parametrize("text", [
    "",
    _line(0) + "Traceback (most recent call last):\n",
    _line(0).replace("1.5", "NaN"),
    _line(0).replace("1.5", "Infinity"),
    _line(0, correct=False),
    _line(0, failed=1),
    _line(1),  # per-layer names only, where the end-to-end ones are wanted
    _line(0, metrics={"wall_s": {"value": None}}),
])
def test_check_bench_line_rejects_a_bad_result(text):
    assert check_bench_line.problems(text, 0)
