"""The benchmark tracer's layers stay reachable in the package.

``perfbench/tracing.py`` wraps names of the ``bellframes`` modules from
outside the package. A refactor that moves a call away from every wrapped
name would zero that layer's per-layer metric without any error, and one
that removes a wrapped module would crash the traced benchmark.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import bellframes
import bellframes.cli  # noqa: F401  (the tracer wraps names of cli too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("bellframes_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def owner_of(path):
    owner = bellframes
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_owner_path_resolves():
    # Tracer.install follows each owner path with getattr, unguarded.
    missing = []
    for path, _, _ in load_wrapped():
        try:
            owner_of(path)
        except AttributeError:
            missing.append(path)
    assert missing == []


def test_every_traced_span_has_a_live_entry():
    live = defaultdict(list)
    for path, attr, name in load_wrapped():
        live[name].append(hasattr(owner_of(path), attr))
    assert [name for name, entries in live.items() if not any(entries)] == []
