"""``scripts/code_lines.py`` on a synthetic module: what counts as a code line."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


# a comment line
@decorator
def outer(x):
    """Function docstring."""

    def inner(y):
        """Nested docstring."""
        return y

    return inner(x)


class Box:
    """Class docstring."""
    text = """a string that is
    not a docstring"""
'''
# import, @decorator, def outer, def inner, return y, return inner(x),
# class Box and the two lines of the assignment
CODE_LINES = {4, 8, 9, 12, 14, 16, 19, 21, 22}


def load_script():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(script, monkeypatch, capsys, package, *args):
    monkeypatch.setattr(script, "PACKAGE", package)
    monkeypatch.setattr(sys, "argv", ["code_lines.py", *args])
    script.main()
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert load_script().code_lines(SOURCE) == CODE_LINES


def test_module_counts_and_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "synthetic.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n# and a comment\n')
    rows = run_main(load_script(), monkeypatch, capsys, tmp_path)
    assert rows == [["0", "empty.py"], ["9", "synthetic.py"], ["9", "total"]]


def test_functions_count_decorators_and_nested_functions(tmp_path, monkeypatch, capsys):
    (tmp_path / "synthetic.py").write_text(SOURCE)
    rows = run_main(load_script(), monkeypatch, capsys, tmp_path, "--functions", "synthetic")
    assert rows == [["5", "outer"], ["3", "Box"], ["1", "(module", "level)"]]
