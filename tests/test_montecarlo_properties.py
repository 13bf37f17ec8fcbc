"""Property tests of the Monte Carlo summary and merge (need hypothesis)."""

import json
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bellframes.montecarlo import (  # noqa: E402
    ExperimentConfig,
    merge_results,
    run_experiment,
    summary_json,
)

# Property tests draw the same examples on every run, so tier-1 stays steady.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

configs = st.builds(
    ExperimentConfig,
    n=st.integers(2, 3),
    family=st.sampled_from(["mermin", "mk", "svetlichny"]),
    candidates=st.sampled_from(["pauli", "tetrahedron", "random:3"]),
    samples=st.integers(2, 24),
    seed=st.integers(0, 2**32),
    bin_width=st.sampled_from([0.01, 0.05, 0.3]),
    sign_flips=st.booleans(),
    sample_offset=st.integers(0, 10**6),
    frame_measure=st.sampled_from(["haar", "uniform-angle"]),
)


@pytest.mark.parametrize("measure", ["haar", "uniform-angle"])
@PROPERTY
@given(configs)
def test_summary_json_round_trips_config_and_floats(measure, config):
    config = replace(config, frame_measure=measure)
    result = run_experiment(config)
    doc = json.loads(summary_json(result))
    expected = {
        "n": config.n,
        "family": config.family,
        "candidates": config.candidates,
        "samples": config.samples,
        "seed": config.seed,
        "sign_flips": config.sign_flips,
    }
    if config.frame_measure != "haar":
        expected["frame_measure"] = config.frame_measure
    expected["lhv_violation_prob"] = result.lhv_violation_prob
    expected["bounds"] = [
        {"label": c.label, "value": c.value, "prob": c.prob, "stderr": c.stderr}
        for c in result.bounds
    ]
    expected.update(mean=result.mean, min=result.min, max=result.max)
    # Key order, then values: ==, so every float must come back bit for bit.
    assert list(doc) == list(expected)
    assert [list(row) for row in doc["bounds"]] == [list(row) for row in expected["bounds"]]
    assert doc == expected


@PROPERTY
@given(configs, st.data())
def test_merge_of_disjoint_ranges_equals_single_run(config, data):
    cut = data.draw(st.integers(1, config.samples - 1), label="cut")
    lo = run_experiment(replace(config, samples=cut))
    hi = run_experiment(replace(config, samples=config.samples - cut,
                                sample_offset=config.sample_offset + cut))
    full = run_experiment(config)
    merged = merge_results(*((hi, lo) if data.draw(st.booleans(), label="swap") else (lo, hi)))
    assert merged.config == full.config
    assert np.array_equal(merged.sample_indices, full.sample_indices)
    assert np.array_equal(merged.values, full.values)
    assert (merged.histogram, merged.bounds, merged.evaluations) == (
        full.histogram, full.bounds, full.evaluations)
    assert (merged.lhv_violation_prob, merged.lhv_stderr) == (
        full.lhv_violation_prob, full.lhv_stderr)
    assert (merged.mean, merged.min, merged.max) == (full.mean, full.min, full.max)
    assert summary_json(merged) == summary_json(full)
