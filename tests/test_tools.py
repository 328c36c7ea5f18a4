"""The repository tools under ``tools/``."""

import importlib.util
import os
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_size_counts_code_lines(tmp_path, capsys):
    src_size = _load("src_size")
    (tmp_path / "a.py").write_text('''"""Module
docstring."""

# a comment
x = 1  # trailing comment


def f(a,
      b):
    """One line."""
    s = """two
lines"""
    return s
''')
    (tmp_path / "b.py").write_text("y = 2\n")
    # x, def f (2 lines), s (2 lines), return; y
    assert src_size.code_lines(tmp_path / "a.py") == 6
    assert src_size.main(["src_size.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["  a.py: 13 lines, 6 code lines",
                       "  b.py: 1 lines, 1 code lines"]
    assert out[2:] == [f"{tmp_path}: 2 files, 14 lines, 7 code lines"]


def test_src_cover_lists_statements_no_call_ran(tmp_path):
    src_cover = _load("src_cover")
    module = tmp_path / "m.py"
    module.write_text('''"""Module docstring."""
import os


def used(a):
    """Docstring."""
    if a:
        return (1 +
                a)
    try:
        return os.sep
    except OSError:
        pass


def unused():
    x = 1
    return x


if __name__ == "__main__":  # pragma: no cover
    unused()
''')

    def run():
        spec = importlib.util.spec_from_file_location("m", module)
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        assert loaded.used(0) == os.sep

    before = sys.gettrace()
    hit = src_cover.trace(tmp_path, run)
    assert sys.gettrace() is before
    assert list(hit) == [module.resolve()]
    # no docstring, def or pragma line; a statement over two lines once
    assert src_cover.statements(module) == [
        (2, 2), (7, 9), (8, 9), (10, 13), (11, 11), (13, 13), (17, 17),
        (18, 18)]
    # the body of the false branch, the handler and the uncalled function
    assert src_cover.missed(module, hit[module.resolve()]) == [8, 13, 17, 18]


def test_src_cover_names_the_tests_that_fail(tmp_path, capsys, monkeypatch):
    # main prepends src to sys.path and PYTHONPATH; both are restored after
    src_cover = _load("src_cover")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("PYTHONPATH", raising=False)
    (tmp_path / "test_traced_target.py").write_text(
        "def test_passes():\n    assert True\n\n\n"
        "def test_fails():\n    assert False\n")
    assert src_cover.main(["src_cover.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("failed ")] == [
        "failed under the tracer: test_traced_target.py::test_fails"]
