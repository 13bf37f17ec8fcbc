"""The benchmark tracer's layers stay reachable in the package.

``perfbench/tracing.py`` wraps names of the ``bellframes`` modules from
outside the package. A refactor that moves a call away from every wrapped
name would zero that layer's per-layer metric without any error, and one
that removes a wrapped module would crash the traced benchmark. A traced
run checks that every reported layer still records spans.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import bellframes
from bellframes import cli, montecarlo  # the tracer wraps names of cli too
from bellframes.optimizer import _batch_frames

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bellframes_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_wrapped():
    return load_tracing().WRAPPED


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


def test_traced_runs_reach_every_reported_layer(tmp_path):
    # Two batches of a single-threaded run, then a 16-point sweep.
    samples = _batch_frames(3, 3, True) + 5
    tracer = load_tracing().Tracer()
    tracer.install(bellframes)
    try:
        config = montecarlo.ExperimentConfig(3, "mermin", "pauli", samples, seed=5)
        result = montecarlo.run_experiment(config, threads=1)
        montecarlo.write_histogram_csv(result, tmp_path / "hist.csv")
        montecarlo.write_summary_json(result, tmp_path / "summary.json")
        assert cli.main(["sweep", "--n", "3", "--family", "svetlichny", "--grid", "16",
                         "--out", str(tmp_path / "sweep")]) == 0
    finally:
        tracer.restore()
    tracer.check_single_thread()
    calls, _, _ = tracer.totals(0, len(tracer.spans))
    assert calls["montecarlo.compute_batch"] == 2
    layers = ("su2.rotate_directions", "optimizer.channel_tables", "optimizer.scan",
              "montecarlo.build_result", "montecarlo.write", "cli.cmd_sweep",
              "restricted.strategy_value")
    assert [name for name in layers if calls[name] < 1] == []
    _, frames, _ = tracer.scan_counts(0, len(tracer.spans))
    assert frames == samples + 16
