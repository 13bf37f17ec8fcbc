import ast
from pathlib import Path

import bellframes


def test_all_lists_the_public_imports():
    # __init__.py names every public import twice, once in its imports and
    # once in __all__; the two lists must not drift apart.
    tree = ast.parse(Path(bellframes.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert bellframes.__all__ == imported
