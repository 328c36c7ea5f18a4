"""Print the ``symquant`` statements that no test executes.

Usage: ``python3 tools/src_cover.py [PYTEST ARGS]`` (default: the ``tests``
directory next to this script's parent).  It runs pytest in this process
under a :func:`sys.settrace` line tracer limited to ``src/symquant``, then
prints one ``path:line: statement`` line for every statement whose lines
no event reached, a count, and one ``failed under the tracer: NODE`` line
for each test that failed or errored.  Only the standard library and
pytest are used.

- A statement counts as executed when any of its lines ran, so a compound
  statement whose header ran is covered even if its body is not; the
  body's statements are listed on their own.
- ``def`` and ``class`` statements and docstrings are left out, as are
  statements whose first line carries ``# pragma: no cover`` (with their
  bodies).
- Code run in a subprocess (the CLI and demo tests start some) is not
  traced, so what only a subprocess runs is listed.
- The tracer slows Python code several-fold, so a test with a time limit
  may fail under it.  The known case is
  ``tests/test_acceptance.py::test_criterion_4_quantizer_properties``,
  which overruns its 10 s limit; any other failure listed is not the
  tracer's doing (criterion 6 fails without it as well).

The exit status is 0 whatever the tests' outcome: the output is the
report, not a verdict.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path) -> list[tuple[int, int]]:
    """``(first, last)`` line of each statement of ``path`` that can run,
    in source order."""
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def visit(body, scope):
        for node in _without_docstring(body) if scope else body:
            if "pragma: no cover" in lines[node.lineno - 1]:
                continue
            if not isinstance(node, _DEFS):
                found.append((node.lineno, node.end_lineno))
            blocks = [getattr(node, name, []) for name in
                      ("body", "orelse", "finalbody")]
            blocks += [part.body for name in ("handlers", "cases")
                       for part in getattr(node, name, [])]
            for block in blocks:
                visit(block, isinstance(node, _DEFS))

    visit(ast.parse(source).body, True)
    return sorted(found)


def _without_docstring(body):
    first = body[0] if body else None
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return body[1:]
    return body


def trace(root: Path, run):
    """Call ``run()`` and return the lines it ran in files under ``root``,
    as a mapping from resolved path to a set of line numbers.  The trace
    function in place before the call is restored after it."""
    root = str(Path(root).resolve()) + os.sep
    hit: dict[str, set[int]] = {}
    keep: dict[str, str | None] = {}  # co_filename -> resolved path or None

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keep:
            path = os.path.realpath(name)
            keep[name] = path if path.startswith(root) else None
        if keep[name] is None:
            return None
        ran = hit.setdefault(keep[name], set())

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    before = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(before)
    return {Path(path): lines for path, lines in hit.items()}


def missed(path: Path, lines: set[int]) -> list[int]:
    """First line of each statement of ``path`` none of whose lines ran."""
    return [first for first, last in statements(path)
            if not lines.intersection(range(first, last + 1))]


class _Failures:
    """pytest plugin: the node id of each test or collector that failed."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def main(argv) -> int:
    import pytest

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    args = argv[1:] or [str(ROOT / "tests")]
    package = src / "symquant"
    failures = _Failures()
    hit = trace(package, lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", *args], plugins=[failures]))
    total = count = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text().splitlines()
        rows = missed(path, hit.get(path.resolve(), set()))
        total += len(statements(path))
        count += len(rows)
        for line in rows:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{count} of {total} statements not executed")
    for node in failures.ids:
        print(f"failed under the tracer: {node}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
