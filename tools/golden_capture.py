"""Golden capture of the sgt CLI: one JSON line per invocation.

    python tools/golden_capture.py OUT.jsonl [--src DIR]

Runs ``sgt.cli.run`` in-process on every verb, in text and ``--json``, over
the built-in library, T3, the 2-element null semigroup, Z2 with a zero,
Rees-format inputs, tables with respelled entries (``001``, ``+1``, ``-0``,
``1_0``) and malformed files, with valid and invalid arguments (bad integer
tokens included, and ``verify`` target pairs on quotients and on ideals
with and without an identity), plus ``verify --sweep`` in text and JSON.
Two Rees inputs over S3, whose tables have 36 and 37 elements, get the
verbs that stay fast there.  Each line holds the argv, the exit code,
stdout and stderr.  A last line holds the number of ``sweep()`` reports and
the sha256 of their JSON (``cli._report_json``) in sweep order, so that the
report order is checked too, and the sha256 of every class map of
``enumerate_right_congruences`` and then ``two_sided_congruences``, in
order, on each library table and on T3, so that lattice parity is checked
too.  The input files are
written to a temporary directory and named relatively, so two captures of
the same code are byte-identical.  ``--src`` selects the ``sgt`` sources to
import (default: this checkout's ``src``); capture two trees and ``diff``
the outputs to check that a refactor keeps the CLI's behaviour.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

T3_TEXT = "transformation 3 3\n1 2 0\n1 0 2\n0 0 2\n"

REES_FILES = {
    "m0.rs": "rees 1 2 2 1\n0\n0 -\n- 0\n",
    "rz2.rs": "rees 2 2 3 0\n0 1\n1 0\n0 0\n0 1\n1 1\n",
    "m0z3.rs": "rees 3 3 2 1\n0 1 2\n1 2 0\n2 0 1\n0 - 2\n- 1 0\n",
}

# A zero and two J-classes, with S^2 = {0} and with a nonzero product: the
# two outcomes of the 0-simple test (the null semigroup and Z2 with a zero)
ZERO_FILES = {
    "null2.sg": "cayley 2\n0 0\n0 0\n",
    "z2zero.sg": "cayley 3\n0 1 2\n1 0 2\n2 2 2\n",
}

# S3 (the group H-class of T3, relabelled so that its identity is 5) as the
# group of a matrix semigroup without and with zero; too large for every verb
S3_TABLE = "5 2 1 4 3 0\n3 4 0 2 5 1\n4 3 5 1 0 2\n1 0 4 5 2 3\n2 5 3 0 1 4\n0 1 2 3 4 5\n"
S3_FILES = {
    "s3.rs": "rees 6 3 2 0\n" + S3_TABLE + "1 2 5\n3 4 0\n",
    "s3z.rs": "rees 6 2 3 1\n" + S3_TABLE + "1 -\n- 2\n4 3\n",
}
S3_ARGVS = [["info"], ["green"], ["rees", "--construct"], ["rees", "--to-coordinates"],
            ["theta"], ["schutz", "--element", "0"]]

MALFORMED_FILES = {
    "empty.sg": "",
    "comments.sg": "# only comments\n\n   \n# and blank lines\n",
    "ragged.sg": "cayley 2\n0 1\n1\n",
    "float.sg": "cayley 2\n0 1\n1 0.0\n",
    "nonassoc.sg": "cayley 2\n1 0\n0 0\n",
    "unknown.sg": "sudoku 2\n0 1\n1 0\n",
    "range.sg": "cayley 2\n0 1\n1 2\n",
    "rees_float.rs": "rees 2 1 1 0\n0 1\n1 0\n1.0\n",
    "rees_range.rs": "rees 2 1 1 0\n0 1\n1 0\n2\n",
    "rees_zero.rs": "rees 1 1 1 0\n0\n-\n",
    "rees_bad_group.rs": "rees 2 1 1 0\n0 0\n0 0\n0\n",
    "bad_header.sg": "cayley x\n0\n",
    "bad_degree.sg": "transformation two 1\n0 0\n",
    "bad_image.sg": "transformation 2 1\n2 0\n",
    "rees_bad_header.rs": "rees 1 y 1 0\n0\n0\n",
}


def _cyclic_text(n: int, spell=str) -> str:
    return f"cayley {n}\n" + "".join(
        " ".join(spell((a + b) % n) for b in range(n)) + "\n" for a in range(n))


# Tables with entries that int() reads but that are not spelled as the
# number itself, and one entry out of range in a 12-row table
RESPELLED_FILES = {
    "padded.sg": "cayley 3\n0 1 2\n1 2 0\n2 0 001\n",
    "plus.sg": "cayley 2\n0 +1\n+1 0\n",
    "minus_zero.sg": "cayley 2\n-0 1\n1 -0\n",
    "underscore.sg": _cyclic_text(11, lambda v: "1_0" if v == 10 else str(v)),
    "range12.sg": _cyclic_text(12).rsplit(" ", 1)[0] + " 12\n",
}
RESPELLED_ARGVS = [["info"], ["rees", "--to-coordinates"], ["close", "--pairs", "0 1"]]


def _inputs(cayley_text, library) -> dict[str, str]:
    """File name -> text for every input: library tables, T3, zero, Rees,
    respelled and malformed."""
    files = {f"{name}.sg": cayley_text(s) + "\n" for name, s in library.items()}
    files["t3.sg"] = T3_TEXT
    files.update(ZERO_FILES)
    files.update(REES_FILES)
    files.update(S3_FILES)
    files.update(RESPELLED_FILES)
    files.update(MALFORMED_FILES)
    return files


def _table_argvs(path: str, size: int) -> list[list[str]]:
    """Every verb on one well-formed table, with valid and invalid arguments."""
    last = size - 1
    pairs = ["0 1", f"0 {last}; 1 {last}", f"0 {size}", "0", "a b", "0 -1"]
    out = [["info"], ["green"], ["congruences"], ["congruences", "--max", "0"],
           ["congruences", "--max", "3"], ["congruences", "--max", "-1"],
           ["congruences", "--max", "2.5"],
           ["decompose", "--mode", "cr"], ["decompose", "--mode", "arch"],
           ["rees", "--construct"], ["rees", "--to-coordinates"], ["theta"]]
    for p in pairs:
        out += [["close", "--pairs", p], ["close", "--pairs", p, "--two-sided"],
                ["minimize", "--pairs", p], ["minimize", "--pairs", p, "--exact-limit", "0"],
                ["minimize", "--pairs", p, "--exact-limit", "-1"],
                ["diameter", "--pairs", p]]
    for p in pairs[:2]:
        for a, b in [(0, last), (last, 0), (1 % size, 0), (0, size), (-1, 0)]:
            out.append(["witness", "--pairs", p, "--from", str(a), "--to", str(b)])
    for e in [*range(min(size, 3)), last, size, -1]:
        out += [["schutz", "--element", str(e)],
                ["verify", "--construction", "schutz", "--element", str(e)]]
    out += [["verify"], ["verify", "--construction", "fg"],
            ["verify", "--construction", "fg", "--gens", "0", "--pairs", "0 1"],
            ["verify", "--construction", "fg", "--gens", "0,a"],
            ["verify", "--construction", "fg", "--gens", "0,,1"],
            ["verify", "--construction", "lclass"],
            ["verify", "--construction", "lclass", "--pairs", "0 1"],
            ["verify", "--construction", "dp"],
            ["verify", "--construction", "dp", "--second", "z2.sg"],
            ["verify", "--construction", "dp", "--second", "missing.sg"],
            ["verify", "--construction", "quotient"],
            ["verify", "--construction", "quotient", "--pairs", "0 1"],
            ["verify", "--construction", "quotient", "--pairs", "0 1",
             "--target-pairs", "0 0"],
            ["verify", "--construction", "quotient", "--pairs", "0 1",
             "--target-pairs", "0 x"],
            ["verify", "--construction", "ideal"],
            ["verify", "--construction", "ideal", "--ideal", str(last)],
            ["verify", "--construction", "ideal", "--ideal",
             ",".join(map(str, range(size)))],
            ["verify", "--construction", "ideal", "--ideal",
             ",".join(map(str, range(size))), "--target-pairs", f"0 {last}"],
            ["verify", "--construction", "ideal", "--ideal", str(size)],
            ["verify", "--construction", "ideal", "--ideal", "0,x"],
            ["verify", "--construction", "extend"],
            ["verify", "--construction", "extend", "--pairs", "0 1",
             "--sigma-pairs", "0 1"],
            ["verify", "--construction", "extend", "--sigma-pairs", "0 z"],
            ["verify", "--construction", "diagonal"]]
    return [[verb, "-i", path, *rest] for verb, *rest in out]


def _argvs(sizes) -> list[list[str]]:
    argvs = []
    for path, size in sizes.items():
        if path in S3_FILES:
            argvs += [[verb, "-i", path, *rest] for verb, *rest in S3_ARGVS]
        else:
            argvs += _table_argvs(path, size)
    for path in RESPELLED_FILES:
        argvs += [[verb, "-i", path, *rest] for verb, *rest in RESPELLED_ARGVS]
    for path in [*MALFORMED_FILES, "missing.sg"]:
        argvs += [["info", "-i", path], ["rees", "--construct", "-i", path],
                  ["theta", "-i", path]]
    # malformed target pairs on an ideal with an identity, and valid ones
    # on n3's {1, 2}, which has none
    argvs += [["verify", "-i", "z3.sg", "--construction", "ideal", "--ideal", "0,1,2",
               "--target-pairs", "0 x"],
              ["verify", "-i", "n3.sg", "--construction", "ideal", "--ideal", "1,2",
               "--target-pairs", "0 1"]]
    argvs += [["info", "-i", "z3.sg", "--format", fmt]
              for fmt in ("cayley", "rees", "transformation", "xml")]
    argvs += [[], ["frobnicate"], ["--help"], ["info", "--help"],
              ["info", "-i", "z3.sg", "--no-such-flag"], ["rees", "-i", "z3.sg"],
              ["close", "-i", "z3.sg"], ["decompose", "-i", "z3.sg", "--mode", "x"]]
    with_json = []
    for argv in argvs:
        with_json += [argv, argv + ["--json"]]
    return with_json + [["verify", "--sweep"], ["verify", "--sweep", "--json"]]


def _invoke(run, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON-lines file to write")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sgt package to capture")
    args = parser.parse_args(argv)
    out_path = Path(args.out).resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help output to the terminal
    sys.path.insert(0, str(Path(args.src).resolve()))
    from sgt.cli import _cayley_text, _report_json, parse_input, run
    from sgt.congruence import enumerate_right_congruences
    from sgt.library import library
    from sgt.verify import sweep, two_sided_congruences

    files = _inputs(_cayley_text, library())
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            sizes = {name: parse_input(text)[0].size for name, text in files.items()
                     if name not in MALFORMED_FILES and name not in RESPELLED_FILES}
            records = [_invoke(run, argv) for argv in _argvs(sizes)]
        finally:
            os.chdir(cwd)
    reports = [_report_json(rep) for rep in sweep()]
    lattices = []
    for s in [*library().values(), parse_input(T3_TEXT)[0]]:
        lattices += [rho.class_of for rho in enumerate_right_congruences(s).congruences]
        lattices += [rho.class_of for rho in two_sided_congruences(s)]
    records.append({"sweep_reports": len(reports), "sweep_sha256": hashlib.sha256(
        json.dumps(reports).encode("utf-8")).hexdigest(),
        "lattice_class_maps": len(lattices), "lattice_sha256": hashlib.sha256(
            json.dumps(lattices).encode("utf-8")).hexdigest()})
    with open(out_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(records) - 1} invocations and the sweep digest -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
