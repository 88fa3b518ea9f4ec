"""tools/loc.py counts code lines: no blank, comment or docstring line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    def area(self, side):
        """Function docstring,

        with a blank line inside it."""
        text = """a string that is
no docstring"""
        return math.prod([side, side]), text
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, class, def, the two lines of ``text`` and the return
    assert loc.code_lines(SOURCE) == 6


def test_code_lines_of_a_one_line_function_with_a_docstring():
    assert loc.code_lines('def f():\n    "Doc."\n    return 1\n') == 2
    assert loc.code_lines("") == 0


def test_the_tool_counts_the_package_in_the_working_tree():
    counts = loc.counts_now()
    assert counts["src/crossdim/dynamics.py"] > 0
    assert all(name.startswith("src/crossdim/") for name in counts)


def test_the_last_line_totals_the_tests(capsys):
    assert loc.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split()[0] == "total"
    label, old, new, change = lines[-1].split()
    assert label == "tests"
    assert int(old) == sum(loc.counts_at("HEAD", "tests").values())
    assert int(new) == sum(loc.counts_now("tests").values()) > 0
    assert int(change) == int(new) - int(old)


def test_a_revision_git_cannot_read_exits_2_with_gits_message(tmp_path, monkeypatch, capsys):
    assert loc.main(["no/such/revision"]) == 2
    first = capsys.readouterr()
    assert first.out == "" and first.err.startswith("fatal: ") and first.err.count("\n") == 1
    # a tree that is no git checkout: git may not look above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.setattr(loc, "ROOT", tmp_path)
    assert loc.main([]) == 2
    second = capsys.readouterr()
    assert second.out == "" and second.err.startswith("fatal: not a git repository")
    assert second.err.count("\n") == 1
