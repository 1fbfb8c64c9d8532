#!/usr/bin/env python3
"""Count the code lines of the spinweb package, per module or per function.

A code line holds at least one token that is not a comment, and lies
outside every docstring (the string that opens a module, class or
function body).  Blank lines, comment lines and docstring lines do not
count; a line with code and a trailing comment counts once.

  python3 scripts/code_lines.py                        # per module, then the total
  python3 scripts/code_lines.py --functions statesum   # per top-level function

With ``--functions MODULE`` each top-level function or class of
``src/spinweb/MODULE.py`` is listed from its ``def`` or ``class`` line
(decorators included) to its last line, so a nested function counts
inside its parent; the module's code lines outside them come last.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinweb"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", metavar="MODULE",
                        help="count per top-level function of src/spinweb/MODULE.py")
    args = parser.parse_args()
    if args.functions is None:
        total = 0
        for path in sorted(PACKAGE.glob("*.py")):
            count = len(code_lines(path.read_text()))
            total += count
            print(f"{count:6d}  {path.name}")
        print(f"{total:6d}  total")
        return
    source = (PACKAGE / f"{args.functions}.py").read_text()
    lines = code_lines(source)
    for node in ast.parse(source).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = {line for line in lines if first <= line <= node.end_lineno}
            lines -= own
            print(f"{len(own):6d}  {node.name}")
    print(f"{len(lines):6d}  (module level)")


if __name__ == "__main__":
    main()
