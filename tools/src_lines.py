"""Physical and code lines of each ``sgt`` module.

    python tools/src_lines.py [DIR]

Prints, for every ``*.py`` file in DIR (default: this checkout's
``src/sgt``), its physical lines and its code lines, then the totals.
A code line holds a token other than a comment and is not part of a
docstring; docstrings are the leading string literals of the module, its
classes and its functions, found with ``ast``.  So blank lines, comment
lines and docstrings are not code, while a line of code with a trailing
comment is.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent / "src" / "sgt"),
                        help="directory of the modules to count")
    args = parser.parse_args(argv)
    total_physical = total_code = 0
    print(f"{'module':20s} {'physical':>8s} {'code':>6s}")
    for path in sorted(Path(args.dir).glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:20s} {physical:8d} {code:6d}")
    print(f"{'total':20s} {total_physical:8d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
