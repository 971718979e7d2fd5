"""Count the code lines of the package's modules.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and the docstrings of modules, classes and functions
do not count.  Run from anywhere:

    python tests/code_lines.py            # src/foursq/*.py of this checkout
    python tests/code_lines.py FILE...    # the given files

It prints each file's count and then their total.  ROADMAP.md tracks this
total next to `wc -l`.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    lines = {row for tok in tokens if tok.type not in _NOT_CODE
             for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "src", "foursq", "*.py")))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
