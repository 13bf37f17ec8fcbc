"""tools/src_lines.py counts total and code lines the way ROADMAP reads them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps a code line


class Shape:
    """Class docstring."""

    sides = 3
    # a comment-only line

    def area(self):
        """Function
        docstring."""
        return math.pi
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines(tmp_path):
    # 16 lines; code: the import, class, assignment, def and return.
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _tool().count(path) == (16, 5)


def test_main_sums_every_file_under_the_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "pkg/b.py"):
        (tmp_path / name).write_text(FIXTURE)
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "src lines: 32\ncode lines: 10\n"
