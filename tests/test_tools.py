"""tools/src_lines.py counts total and code lines the way ROADMAP reads them,
every ``src/`` module uses each name it imports, ``src/`` uses each of its
private helpers, and tools/bench_pairs.py pairs and summarises benchmark runs."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
PAIRS = ROOT / "tools" / "bench_pairs.py"
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


def _runs(metric, parent, change):
    """Synthetic bench_pairs runs of one group: pair k reads parent[k], change[k]."""
    return [{"group": "w seed 1", "pair": k, "side": side, "result": {
                "correct": True, "metrics": {metric: {"value": value, "unit": "u"}}}}
            for k, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


@pytest.mark.parametrize("better, wins", [("higher", "3/5"), ("lower", "1/5")])
def test_bench_pairs_counts_pairs_the_change_wins_by_the_metrics_direction(better, wins):
    # Pairs 0-2 read higher for the change, pair 3 lower and pair 4 equal:
    # a tie is not a win either way.
    parent, change = [10.0, 20.0, 30.0, 40.0, 50.0], [11.0, 22.0, 33.0, 39.0, 50.0]
    block = _load(PAIRS).summarize(_runs("m", parent, change), {"m": better})["w seed 1"]
    summary = block["m"]
    assert (block["pairs"], block["all_correct"]) == (5, True)
    assert summary["change_better"] == wins and summary["better"] == better
    assert (summary["parent_median"], summary["change_median"]) == (30.0, 33.0)
    assert summary["ratio"] == 1.1
    # NumPy's linear quartiles: positions 1 and 3 of the five sorted runs.
    assert summary["parent_quartiles"] == [20.0, 40.0] and summary["parent_iqr"] == 20.0
    assert summary["change_quartiles"] == [22.0, 39.0]
    assert summary["parent_runs"] == parent and summary["change_runs"] == change


def test_bench_pairs_ties_win_no_pair_and_unnamed_metrics_are_skipped():
    runs = _runs("m", [1.0, 1.0], [1.0, 1.0])
    summary = _load(PAIRS).summarize(runs, {"m": "higher", "absent": "lower"})["w seed 1"]
    assert summary["m"]["change_better"] == "0/2" and summary["m"]["ratio"] == 1.0
    assert "absent" not in summary
    zero = _load(PAIRS).summarize(_runs("z", [0.0], [0.0]), {"z": "lower"})["w seed 1"]
    assert zero["z"]["ratio"] is None and zero["z"]["change_better"] == "0/1"


STUB_RUN = """import json, sys
from pathlib import Path
here = Path.cwd()
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + "\\n")
value = {"parent": 100.0, "change": 120.0}[here.name]
print("a line the tool skips")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"frames_per_s": {"value": value, "unit": "frames/s"}}}))
"""


def test_bench_pairs_alternates_sides_and_extends_its_output(tmp_path):
    # Each side runs its own checkout's perfbench/run.py from that checkout;
    # the side that goes first alternates per pair, and a second call
    # appends its pairs after the first's and keeps the file's other keys.
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "frames_per_s", "better": "higher"}], "per_layer": []}))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"claim": "kept"}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "2", "--seed", "5", "--seconds", "1", "--out", str(out)]
    tool = _load(PAIRS)
    assert tool.main(argv) == 0 and tool.main(argv[:5] + ["1"] + argv[6:]) == 0
    assert (tmp_path / "order.log").read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change"]
    doc = json.loads(out.read_text())
    assert doc["claim"] == "kept" and list(doc)[-1] == "runs"
    assert [(r["pair"], r["side"], r["exit"]) for r in doc["runs"]] == [
        (0, "parent", 0), (0, "change", 0), (1, "change", 0), (1, "parent", 0),
        (2, "parent", 0), (2, "change", 0)]
    summary = doc["summary"]["w seed 5"]["frames_per_s"]
    assert summary["change_better"] == "3/3" and summary["ratio"] == 1.2
