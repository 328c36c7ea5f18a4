"""Print the size of the ``symquant`` package source.

Usage: ``python3 tools/src_size.py [DIR]`` (default: ``src/symquant`` next
to this script's parent).  It prints two counts over the ``*.py`` files:

- total lines;
- code lines: lines that hold a token, less docstrings, comments and blank
  lines.  Tokens come from :mod:`tokenize` (a string spanning lines holds
  each of them) and docstrings from :mod:`ast`.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold a token outside docstrings."""
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "symquant")
    files = sorted(root.glob("*.py"))
    total = sum(len(p.read_text().splitlines()) for p in files)
    code = sum(code_lines(p) for p in files)
    print(f"{root}: {len(files)} files, {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
