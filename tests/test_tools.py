"""The repository tools under ``tools/``."""

import importlib.util
import os
import subprocess
import sys

import pytest

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


def test_src_size_compares_two_directories(tmp_path, capsys):
    src_size = _load("src_size")
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "a.py").write_text("x = 1\n# comment\n")
    (base / "gone.py").write_text("y = 2\n")
    (new / "a.py").write_text("x = 1\n\nz = (3,\n     4)\n")
    (new / "added.py").write_text('"""Docstring."""\n')
    assert src_size.main(["src_size.py", str(base), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  a.py: 2 to 4 lines (+2), 1 to 3 code lines (+2)",
        "  added.py: 0 to 1 lines (+1), 0 to 0 code lines (+0)",
        "  gone.py: 1 to 0 lines (-1), 1 to 0 code lines (-1)",
        f"  {base} to {new}: 3 to 5 lines (+2), 2 to 3 code lines (+1)"]


def test_src_size_compares_a_git_revision(tmp_path, capsys, monkeypatch):
    # a BASE that is no directory is a revision of the repository
    src_size = _load("src_size")
    repo = tmp_path / "repo"
    package = repo / "src" / "symquant"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (repo / "other.py").write_text("y = 2\n")
    git = ["git", "-C", str(repo), "-c", "user.name=a", "-c", "user.email=a@b"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True, capture_output=True)
    (package / "a.py").write_text("x = 1\n\nz = 3\n")
    (package / "b.py").write_text("w = 4\n")
    monkeypatch.setattr(src_size, "ROOT", repo)
    assert src_size.main(["src_size.py", "HEAD", str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  a.py: 1 to 3 lines (+2), 1 to 2 code lines (+1)",
        "  b.py: 0 to 1 lines (+1), 0 to 1 code lines (+1)",
        f"  HEAD to {package}: 1 to 4 lines (+3), 1 to 3 code lines (+2)"]
    with pytest.raises(SystemExit, match="^HEAD~5: not a directory or a "
                       "git revision: "):
        src_size.main(["src_size.py", "HEAD~5", str(package)])


def test_src_size_counts_definitions(tmp_path, capsys):
    # a class's count holds its methods'; a decorator line counts, a
    # docstring does not; with BASE, only changed definitions, largest cut
    # first
    src_size = _load("src_size")
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "a.py").write_text('''"""Module."""
import functools


class C:
    """Class."""

    x = 1

    @functools.cache
    def m(self):
        return (1,
                2)


def f():
    return 1


def g():
    return 2
''')
    (new / "a.py").write_text('''class C:
    def m(self):
        return 1


def g():
    return 2
''')
    assert src_size.definitions(base) == {"a.py:C": 6, "a.py:C.m": 4,
                                          "a.py:f": 2, "a.py:g": 2}
    assert src_size.main(["src_size.py", "--defs", str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     6  a.py:C", "     4  a.py:C.m", "     2  a.py:f",
        "     2  a.py:g"]
    assert src_size.main(["src_size.py", "--defs", str(base), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  a.py:C: 6 to 3 code lines (-3)",
        "  a.py:C.m: 4 to 2 code lines (-2)",
        "  a.py:f: 2 to 0 code lines (-2)"]


@pytest.mark.parametrize("args, bad", [
    (["src/symqant"], "'src/symqant' is not a directory"),
    (["--help"], "'--help' is not a directory"),
    (["HEAD", "src/symqant"], "'src/symqant' is not a directory"),
    (["--defs", "src/symqant"], "'src/symqant' is not a directory"),
    (["--defs", "HEAD", "src/symqant"], "'src/symqant' is not a directory"),
    (["a", "b", "c"], "unexpected argument 'c'"),
    (["--defs", "a", "b", "c"], "unexpected argument 'c'"),
])
def test_src_size_refuses_a_path_that_is_not_a_directory(tmp_path, capsys,
                                                         monkeypatch, args,
                                                         bad):
    # a typo must not count 0 files and exit 0; DIR is checked before any
    # revision is unpacked
    src_size = _load("src_size")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(src_size, "unpack", None)
    with pytest.raises(SystemExit) as info:
        src_size.main(["src_size.py", *args])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"{src_size.USAGE}\nsrc_size.py: "
                                       f"error: {bad}\n")


@pytest.mark.parametrize("args", [[], ["--defs"]])
def test_src_size_ends_quietly_on_a_closed_pipe(args):
    # a reader that leaves before the tool writes, as `| head` may, once
    # ended it in a BrokenPipeError traceback
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "src_size.py"), *args],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")


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
