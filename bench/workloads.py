"""Workload definitions for the sgt benchmark: inputs, ops and output gates.

A workload builds its fixed inputs in ``__init__`` (this counts as set-up),
then hands out passes.  A pass is a list of op inputs whose composition is
the same for every seed and every pass; the seed only picks the order, the
relabellings and the sandwich matrices.  ``run`` performs one op and
``check`` is its output gate, called outside the timed region; it returns
None when the output is right and a one-line reason otherwise.

Calls into sgt always go through module attributes (``structure.rees_construct``
rather than a name imported from it), so the tracer's patches see them.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from sgt import congruence, core, structure, verify

# the package re-exports the function library(), shadowing the module
library = importlib.import_module("sgt.library")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED_PATH = BENCH / "expected.json"

T3_GENS = ((1, 2, 0), (1, 0, 2), (0, 0, 2))
T4_GENS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def transformation_monoid(degree: int, gens) -> core.FiniteSemigroup:
    return core.from_transformations(
        degree, [core.Transformation(degree, g) for g in gens])


def relabel(s: core.FiniteSemigroup, perm) -> core.FiniteSemigroup:
    """Isomorphic copy of s in which element x is renamed perm[x]."""
    n = s.size
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    rows = [[perm[s.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    labels = None if s.labels is None else [s.labels[inv[a]] for a in range(n)]
    return core.from_cayley(n, rows, labels=labels)


def random_relabel(s, rng: random.Random):
    perm = list(range(s.size))
    rng.shuffle(perm)
    return perm, relabel(s, perm)


def lattice_digest(class_maps) -> str:
    """Order-free digest of a set of partitions given as class maps."""
    canon = []
    for classes in class_maps:
        first: dict = {}
        canon.append(tuple(first.setdefault(c, len(first)) for c in classes))
    return hashlib.sha256(repr(sorted(canon)).encode()).hexdigest()


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


class ReesRoundtrip:
    """Criterion-8 family: groups trivial/Z2/Z3, |I|,|J| <= 3, no zero.

    Every pass holds each (group, |I|, |J|) stratum in proportion to its share
    of the 21,988 structures (at least once), with fresh sandwich matrices.
    """

    name = "rees-roundtrip"
    # small passes: the run reports medians over many of them
    PASS_OPS = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.groups = [library.trivial(), library.cyclic(2), library.cyclic(3)]
        strata = [(gi, isz, jsz) for gi in range(3)
                  for isz in (1, 2, 3) for jsz in (1, 2, 3)]
        sizes = [self.groups[gi].size ** (isz * jsz) for gi, isz, jsz in strata]
        total = sum(sizes)
        self.quota = [(stratum, size, max(1, round(self.PASS_OPS * size / total)))
                      for stratum, size in zip(strata, sizes)]

    def make_pass(self, k: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = []
        for (gi, isz, jsz), size, count in self.quota:
            order = self.groups[gi].size
            for _ in range(count):
                code = rng.randrange(size)
                flat = []
                for _ in range(isz * jsz):
                    code, digit = divmod(code, order)
                    flat.append(digit)
                p = [flat[r * isz:(r + 1) * isz] for r in range(jsz)]
                ops.append((gi, isz, jsz, p))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        gi, isz, jsz, p = op
        r = structure.rees_structure(self.groups[gi], isz, jsz, p, with_zero=False)
        s = structure.rees_construct(r)
        struct, mapping = structure.rees_coordinates(s)
        rebuilt = structure.rees_construct(struct)
        return s, mapping, rebuilt

    def check(self, op, out):
        gi, isz, jsz, _ = op
        s, mapping, rebuilt = out
        n = self.groups[gi].size * isz * jsz
        if s.size != n or rebuilt.size != n:
            return f"rees {op}: sizes {s.size}, {rebuilt.size}, expected {n}"
        if sorted(mapping) != list(range(n)):
            return f"rees {op}: coordinate map is not a bijection"
        st, rt = s.table, rebuilt.table
        for a in range(n):
            ma, row = mapping[a], rt[a]
            for b in range(n):
                if mapping[row[b]] != st[ma][mapping[b]]:
                    return f"rees {op}: coordinate map is not a homomorphism"
        return None


class Lattice:
    """enumerate_right_congruences on seed-relabelled T3 (once) and rz6 (ten times)."""

    name = "lattice"
    RZ6_OPS = 10

    def __init__(self, seed: int):
        self.expected = load_expected()["lattice"]
        rng = random.Random(f"{self.name}:{seed}")
        t3 = transformation_monoid(3, T3_GENS)
        rz6 = library.right_zero(6)
        self.inputs = [("T3",) + random_relabel(t3, rng)]
        self.inputs += [("rz6",) + random_relabel(rz6, rng)
                        for _ in range(self.RZ6_OPS)]
        self.seed = seed

    def make_pass(self, k: int) -> list:
        ops = list(self.inputs)
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(ops)
        return ops

    def run(self, op):
        return congruence.enumerate_right_congruences(op[2])

    def check(self, op, out):
        name, perm, _ = op
        want = self.expected[name]
        if name == "rz6" and want["count"] != bell(6):
            return f"rz6: stored count {want['count']} is not Bell(6) = {bell(6)}"
        if len(out) != want["count"]:
            return f"{name}: {len(out)} right congruences, expected {want['count']}"
        # map each partition back to the unrelabelled input
        back = [[rho.class_of[perm[x]] for x in range(len(perm))]
                for rho in out.congruences]
        if lattice_digest(back) != want["digest"]:
            return f"{name}: lattice differs from the unrelabelled one"
        return None


class VerifySweep:
    """sweep() over a freshly relabelled copy of library() per op."""

    name = "verify-sweep"
    PASS_OPS = 16

    def __init__(self, seed: int):
        self.expected = load_expected()["sweep_counts"]
        self.base = library.library()
        self.seed = seed

    def make_pass(self, k: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return [{name: random_relabel(s, rng)[1] for name, s in self.base.items()}
                for _ in range(self.PASS_OPS)]

    def run(self, op):
        return verify.sweep(lib=op)

    def check(self, op, out):
        bad = [r for r in out if not r.passed]
        if bad:
            return f"sweep: {len(bad)} failing reports, first {bad[0].construction} {bad[0].inputs}"
        counts = dict(Counter(r.construction for r in out))
        if counts != self.expected:
            return f"sweep: report counts {counts}, expected {self.expected}"
        return None


#: Argument variants per verb; every pass runs each one once, and its
#: output is in expected.json.
CLI_VARIANTS = {
    "T4": {
        "info": [[]],
        "green": [[]],
        "close": [["--pairs", "0 1"], ["--pairs", "2 7"],
                  ["--pairs", "5 200"], ["--pairs", "17 99"]],
        "schutz": [["--element", "0"], ["--element", "5"],
                   ["--element", "30"], ["--element", "255"]],
        "witness": [["--pairs", "0 1", "--from", "0", "--to", "3"],
                    ["--pairs", "1 2", "--from", "2", "--to", "9"],
                    ["--pairs", "3 4", "--from", "5", "--to", "40"],
                    ["--pairs", "0 2", "--from", "11", "--to", "12"]],
        "diameter": [["--pairs", "0 1"], ["--pairs", "1 2"],
                     ["--pairs", "3 4"], ["--pairs", "0 2"]],
    },
    "c500": {
        "info": [[]],
        "close": [["--pairs", "0 3"]],
        "witness": [["--pairs", "0 7", "--from", "9", "--to", "300"]],
        "diameter": [["--pairs", "0 9"]],
    },
}


def cli_argv(table: str, verb: str, variant: int, path) -> list[str]:
    return [verb, *CLI_VARIANTS[table][verb][variant], "-i", str(path), "--json"]


def cayley_text(s: core.FiniteSemigroup) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in s.table)
    return f"cayley {s.size}\n{rows}\n"


def write_cli_tables() -> dict[str, Path]:
    """Write the cli-large input files; the tables are built by sgt."""
    tables = {"T4": transformation_monoid(4, T4_GENS), "c500": library.cyclic(500)}
    paths = {}
    for key, s in tables.items():
        paths[key] = OUT / f"{key}.sg"
        paths[key].write_text(cayley_text(s), encoding="utf-8")
    return paths


def run_cli(argv, trace_args=()) -> tuple[int, bytes, bytes, object]:
    """One sgt process: (exit code, stdout, stderr, its resource usage)."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "cli_op.py"), *trace_args, "--", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage


class CliLarge:
    """One sgt process per op on table files for T4 (256) and cyclic(500)."""

    name = "cli-large"

    def __init__(self, seed: int):
        self.expected = load_expected()["cli"]
        self.paths = write_cli_tables()
        self.seed = seed
        self.peak_rss_kb = 0
        self.child_cpu_s = 0.0  # CPU time of the last op's process
        # per-op tracer dumps of the children; a list only during a traced pass
        self.trace_files: list[Path] | None = None

    def make_pass(self, k: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = [(table, verb, v) for table, verbs in CLI_VARIANTS.items()
               for verb, variants in verbs.items() for v in range(len(variants))]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        table, verb, variant = op
        trace_args = ()
        if self.trace_files is not None:
            dump = OUT / f"cli-trace-{len(self.trace_files)}.json"
            self.trace_files.append(dump)
            trace_args = ("--trace", str(dump))
        rc, out, err, usage = run_cli(cli_argv(table, verb, variant, self.paths[table]),
                                      trace_args)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.child_cpu_s = usage.ru_utime + usage.ru_stime
        return rc, out, err

    def check(self, op, out):
        rc, stdout, stderr = out
        key = " ".join(map(str, op))
        if rc != 0:
            return f"cli {key}: exit {rc}: {stderr.decode(errors='replace')[-200:]}"
        if hashlib.sha256(stdout).hexdigest() != self.expected[key]:
            return f"cli {key}: --json output differs from the captured output"
        return None


WORKLOADS = {cls.name: cls for cls in (ReesRoundtrip, Lattice, VerifySweep, CliLarge)}
