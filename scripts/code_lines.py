#!/usr/bin/env python3
"""Count code lines of the Python files under a path.

A code line holds at least one token that is not a comment, and is not
part of a docstring (a string expression opening a module, class or
function body).  Blank lines, comment-only lines and docstrings are what
a change can add or remove without changing the program, so ROADMAP
aim 2's "net lines removed" is reported in this unit.

    python3 scripts/code_lines.py src            # the total
    python3 scripts/code_lines.py -v src         # ... and each file
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank, non-comment, non-docstring lines of ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def python_files(path: str):
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def main(argv) -> int:
    verbose = "-v" in argv
    paths = [a for a in argv if a != "-v"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        for name in python_files(path):
            with open(name, encoding="utf-8") as handle:
                count = code_lines(handle.read())
            total += count
            if verbose:
                print(f"{count:7d}  {name}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
