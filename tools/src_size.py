"""Print the size of the ``symquant`` package source.

Usage: ``python3 tools/src_size.py [DIR]`` (default: ``src/symquant`` of
the repository that holds this script).  It prints two counts for each
``*.py`` file, one line per file, then their sums on a last line:

- total lines;
- code lines: lines that hold a token, less docstrings, comments and blank
  lines.  Tokens come from :mod:`tokenize` (a string spanning lines holds
  each of them) and docstrings from :mod:`ast`.

``python3 tools/src_size.py BASE DIR`` prints, per file of either
directory and then in sum, both counts in ``BASE`` and in ``DIR`` and the
change between them (a file missing from one side counts 0 there).
``BASE`` is a directory or, if no directory has that name, a git revision
of this repository, whose ``src/symquant`` is unpacked with ``git
archive`` into a temporary directory: ``python3 tools/src_size.py HEAD~1
src/symquant`` shows the last commit's change per module.

``python3 tools/src_size.py --defs [BASE] DIR`` counts definitions instead
of files: the code lines of every top-level function and class and of
every method, as ``file:Class.method``, one per line, largest first (a
class's count holds its methods').  With ``BASE``, it prints each
definition whose count changed, with both counts and the change, largest
cut first.

In every mode, a DIR that is not a directory (a typo, or ``--help``) or a
third argument exits 2 with the usage line and an error naming it.  Output
cut short by its reader, as by ``| head``, ends quietly with exit 1.
"""

import ast
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFS)
USAGE = "usage: src_size.py [--defs] [[BASE] DIR]"


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold a token outside docstrings."""
    return len(_code_line_set(path))


def _code_line_set(path: Path) -> set:
    """The numbers of the lines of ``path`` that hold a token outside
    docstrings."""
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
    return lines


def sizes(root: Path) -> dict:
    """``{file name: (lines, code lines)}`` of the ``*.py`` files of root."""
    return {p.name: (len(p.read_text().splitlines()), code_lines(p))
            for p in sorted(root.glob("*.py"))}


def definitions(root: Path) -> dict:
    """``{"file:name": code lines}`` of the top-level functions and classes
    and the methods of the ``*.py`` files of root; a definition's lines run
    from its first decorator to its last line."""
    counts = {}
    for path in sorted(root.glob("*.py")):
        lines = _code_line_set(path)
        for node in ast.parse(path.read_bytes()).body:
            if not isinstance(node, _DEFS):
                continue
            items = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                items += [(f"{node.name}.{sub.name}", sub)
                          for sub in node.body if isinstance(sub, _DEFS)]
            for name, item in items:
                first = min([item.lineno]
                            + [d.lineno for d in item.decorator_list])
                counts[f"{path.name}:{name}"] = len(
                    lines & set(range(first, item.end_lineno + 1)))
    return counts


def unpack(rev: str, dest: Path) -> Path:
    """Unpack ``src/symquant`` of git revision ``rev`` of the repository at
    ``ROOT`` under ``dest``, and return the package's directory there; a
    revision git cannot archive exits with git's message."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                              "src/symquant"], capture_output=True)
    if archive.returncode:
        sys.exit(f"{rev}: not a directory or a git revision: "
                 f"{archive.stderr.decode(errors='replace').strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest / "src" / "symquant"


def measured(base: str, measure) -> dict:
    """``measure`` of the directory ``base`` or, if there is none, of the
    package at git revision ``base``."""
    with tempfile.TemporaryDirectory() as tmp:
        return measure(Path(base) if Path(base).is_dir()
                       else unpack(base, Path(tmp)))


def usage_error(message: str):
    """Exit 2 with the usage line and ``message``."""
    print(f"{USAGE}\nsrc_size.py: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def arguments(args) -> tuple:
    """``(BASE or None, DIR)`` of the arguments after an optional
    ``--defs``; a DIR that is not a directory, ``--help`` included, or a
    third argument exits 2 with the usage line naming it."""
    if len(args) > 2:
        usage_error(f"unexpected argument {args[2]!r}")
    root = Path(args[-1]) if args else ROOT / "src" / "symquant"
    if not root.is_dir():
        usage_error(f"{str(root)!r} is not a directory")
    return (args[0] if len(args) == 2 else None), root


def main_defs(args) -> int:
    base, root = arguments(args)
    if base is not None:
        before = measured(base, definitions)
        after = definitions(root)
        changes = ((after.get(name, 0) - before.get(name, 0), name)
                   for name in before.keys() | after.keys())
        for change, name in sorted(row for row in changes if row[0]):
            print(f"  {name}: {before.get(name, 0)} to "
                  f"{after.get(name, 0)} code lines ({change:+d})")
        return 0
    counts = definitions(root)
    for code, name in sorted((-code, name) for name, code in counts.items()):
        print(f"  {-code:4d}  {name}")
    return 0


def main(argv) -> int:
    if argv[1:2] == ["--defs"]:
        return main_defs(argv[2:])
    base, root = arguments(argv[1:])
    if base is not None:
        before = measured(base, sizes)
        after = sizes(root)
        rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0)))
                for name in sorted(before.keys() | after.keys())]
        rows.append((f"{base} to {root}", *(
            (sum(lines for lines, _ in side.values()),
             sum(code for _, code in side.values()))
            for side in (before, after))))
        for name, (lines0, code0), (lines1, code1) in rows:
            print(f"  {name}: {lines0} to {lines1} lines "
                  f"({lines1 - lines0:+d}), {code0} to {code1} code lines "
                  f"({code1 - code0:+d})")
        return 0
    counts = sizes(root)
    for name, (lines, code) in counts.items():
        print(f"  {name}: {lines} lines, {code} code lines")
    total = sum(lines for lines, _ in counts.values())
    code = sum(code for _, code in counts.values())
    print(f"{root}: {len(counts)} files, {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, as `| head` does: the rest of the output
        # goes nowhere, and no flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
