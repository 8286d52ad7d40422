import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench_line = _tool("check_bench_line")
src_lines = _tool("src_lines")

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


MODULE = ('"""A docstring\n'
          'on two lines."""\n'
          '\n'
          '# a comment line\n'
          'X = """# a string,\n'
          'not a comment"""  # a trailing comment\n'
          'def f():\n'
          '    return X\n')


def test_src_lines_counts_no_blank_comment_or_docstring_line(tmp_path, capsys):
    assert src_lines.count(MODULE) == (8, 4)
    (tmp_path / "m.py").write_text(MODULE)
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "m.py                        8      4", "total                       8      4"]


def test_src_imports_only_the_standard_library_and_sgt():
    # src/ has no runtime dependency; numpy and hypothesis are for tests only
    modules = sorted((ROOT / "src" / "sgt").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]  # relative: sgt itself
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "sgt", (path.name, name)


def test_the_benchmark_tracer_finds_every_function_and_cache_it_reports():
    """A traced run reports each per-layer metric that BENCHMARK.json names
    only while every wrapped name resolves in sgt and every cached one keeps
    its lru_cache."""
    tracer = _tool("tracer", "bench")
    traced = tracer.Tracer()
    assert list(traced.originals) == list(tracer.NAMES)
    for name in tracer.CACHED:
        assert callable(traced.originals[name].cache_info), name
    for metric in SPEC["per_layer"]:
        function, _, kind = metric["name"].rpartition(".")
        if kind in ("calls", "self_s"):
            assert function in tracer.NAMES, metric["name"]
        elif kind == "cache_hit_ratio":
            assert function in tracer.CACHED, metric["name"]
