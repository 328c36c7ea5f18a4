"""The repository tools under ``tools/``."""

import importlib.util
import os

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
    assert capsys.readouterr().out.endswith(
        ": 2 files, 14 lines, 7 code lines\n")
