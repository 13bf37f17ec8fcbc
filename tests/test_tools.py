"""tools/src_lines.py counts total and code lines the way ROADMAP reads them,
every ``src/`` module uses each name it imports, and ``src/`` uses each of
its private helpers."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
TRACING = ROOT / "perfbench" / "tracing.py"

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


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines(tmp_path):
    # 16 lines; code: the import, class, assignment, def and return.
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _load(TOOL).count(path) == (16, 5)


def test_main_sums_every_file_under_the_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "pkg/b.py"):
        (tmp_path / name).write_text(FIXTURE)
    assert _load(TOOL).main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "src lines: 32\ncode lines: 10\n"


def test_src_modules_use_every_name_they_import():
    # The benchmark's tracer wraps module names from outside, so it uses them too.
    wrapped = {(path, attr) for path, attr, _ in _load(TRACING).WRAPPED}
    unused = []
    for path in sorted((ROOT / "src" / "bellframes").glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (path.stem, name) not in wrapped]
    assert not unused


def test_src_private_helpers_are_used_in_src():
    # A top-level _name that no src/ module reads as a name or an attribute
    # serves only tests or nothing: move it to tests/oracles.py or delete it.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "bellframes").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{d}" for d in defined
                       if d.startswith("_") and not d.endswith("__") and d not in used]
    assert not unused
