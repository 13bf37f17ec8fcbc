import json
from dataclasses import replace

import numpy as np
import pytest

from bellframes.montecarlo import (
    BudgetExceededError,
    ExperimentConfig,
    _binomial_stderr,
    merge_results,
    run_experiment,
    sample_generator,
    summary_json,
)


def small_config(**overrides):
    base = dict(n=3, family="mermin", candidates="pauli", samples=300, seed=17)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_reproducible_bitwise():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert np.array_equal(a.values, b.values)
    assert a.histogram == b.histogram
    assert a.mean == b.mean


def test_sample_streams_are_private_to_index():
    # changing the seed or the index changes the stream
    g1 = sample_generator(1, 0).standard_normal(4)
    g2 = sample_generator(1, 1).standard_normal(4)
    g3 = sample_generator(2, 0).standard_normal(4)
    g1b = sample_generator(1, 0).standard_normal(4)
    assert np.array_equal(g1, g1b)
    assert not np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)


def test_thread_count_does_not_change_output():
    serial = run_experiment(small_config())
    threaded = run_experiment(small_config(), threads=4)
    assert np.array_equal(serial.values, threaded.values)
    assert serial.histogram == threaded.histogram


def test_merge_of_halves_equals_full_run():
    full = run_experiment(small_config(samples=200))
    lo = run_experiment(small_config(samples=100))
    hi = run_experiment(small_config(samples=100, sample_offset=100))
    merged = merge_results(lo, hi)
    assert np.array_equal(merged.values, full.values)
    assert merged.histogram == full.histogram
    assert merged.mean == full.mean
    assert merged.bounds == full.bounds
    assert merged.evaluations == full.evaluations


def test_merge_order_does_not_matter():
    lo = run_experiment(small_config(samples=80))
    hi = run_experiment(small_config(samples=120, sample_offset=80))
    a = merge_results(lo, hi)
    b = merge_results(hi, lo)
    assert np.array_equal(a.values, b.values)
    assert a.histogram == b.histogram


def test_merge_rejects_overlap_and_mismatch():
    a = run_experiment(small_config(samples=100))
    with pytest.raises(ValueError):
        merge_results(a, a)
    b = run_experiment(small_config(samples=100, sample_offset=100, seed=18))
    with pytest.raises(ValueError):
        merge_results(a, b)


def test_merge_rejects_mixed_frame_measures():
    a = run_experiment(small_config(samples=50))
    b = run_experiment(small_config(samples=50, sample_offset=50,
                                    frame_measure="uniform-angle"))
    assert a.config.frame_measure == "haar"
    with pytest.raises(ValueError):
        merge_results(a, b)


def test_summary_records_non_default_frame_measure():
    def keys(result):
        return list(json.loads(summary_json(result)))

    haar = run_experiment(small_config(samples=20))
    uniform = run_experiment(small_config(samples=20, frame_measure="uniform-angle"))
    default_keys = ["n", "family", "candidates", "samples", "seed", "sign_flips",
                    "lhv_violation_prob", "bounds", "mean", "min", "max"]
    assert keys(haar) == default_keys
    assert keys(uniform) == default_keys[:6] + ["frame_measure"] + default_keys[6:]
    assert json.loads(summary_json(uniform))["frame_measure"] == "uniform-angle"


def test_uniform_angle_stream_contract():
    # Replay each sample's stream by hand: one uniform-angle rotation per
    # party in party order, then each party's own random candidate set.
    from bellframes import polynomials as bp
    from bellframes import su2
    from bellframes.optimizer import (
        _channel_tables,
        _party_options,
        bell_values_over_assignments,
        effective_directions,
        make_candidate_set,
        max_bell_value,
        random_candidate_set,
    )

    poly = bp.make_polynomial("mermin", 3)
    fixed = small_config(candidates="tetrahedron-z", samples=12, sample_offset=5,
                         frame_measure="uniform-angle")
    res = run_experiment(fixed, threads=2)
    assert not np.array_equal(
        res.values, run_experiment(replace(fixed, frame_measure="haar")).values)
    cs = make_candidate_set("tetrahedron-z")
    for b, s in enumerate(res.sample_indices):
        rng = sample_generator(fixed.seed, int(s))
        rots = [su2.uniform_angle_rotation(rng) for _ in range(3)]
        assert abs(max_bell_value(poly, rots, cs).bell_value - res.values[b]) < 1e-12

    drawn = replace(fixed, candidates="random:3")
    res = run_experiment(drawn, threads=2)
    options = _party_options(3, sign_flips=True)
    for b, s in enumerate(res.sample_indices):
        rng = sample_generator(drawn.seed, int(s))
        rots = [su2.uniform_angle_rotation(rng) for _ in range(3)]
        sets = [random_candidate_set(3, rng) for _ in range(3)]
        eff = np.stack([effective_directions([r], c)[0] for r, c in zip(rots, sets)])
        W, Z = _channel_tables(eff[None, ...], *options)
        value, _ = bell_values_over_assignments(
            poly.coefficient_tensor(), W, Z, eff[None, -1])
        assert abs(value[0] - res.values[b]) < 1e-12


def test_histogram_counts_sum_to_samples():
    res = run_experiment(small_config(samples=500))
    assert sum(count for _, _, count in res.histogram) == 500
    widths = [hi - lo for lo, hi, _ in res.histogram]
    assert np.allclose(widths, res.config.bin_width, atol=1e-12)
    assert res.histogram[0][0] == 0.0


def test_summary_statistics_consistent():
    res = run_experiment(small_config(samples=400))
    assert res.min <= res.mean <= res.max
    assert res.max <= 2.0 + 1e-9
    assert res.evaluations == 400 * 12**3
    for crossing in res.bounds:
        assert 0.0 <= crossing.prob <= 1.0
        expected = _binomial_stderr(crossing.prob, 400)
        assert abs(crossing.stderr - expected) < 1e-15


def test_stderr_formula():
    assert _binomial_stderr(0.5, 10_000) == 0.005


def test_budget_checked_before_running():
    with pytest.raises(BudgetExceededError):
        run_experiment(small_config(samples=1000, budget=10))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(3, "mermin", "pauli", 0, 1)
    for width in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentConfig(3, "mermin", "pauli", 10, 1, bin_width=width)
    with pytest.raises(ValueError):
        ExperimentConfig(3, "mermin", "pauli", 10, 1, frame_measure="uniform")
    with pytest.raises(ValueError):
        run_experiment(small_config(candidates="cube"))
    with pytest.raises(ValueError, match="must be an integer"):
        run_experiment(small_config(candidates="random:x"))
    with pytest.raises(ValueError):
        run_experiment(small_config(family="chsh"))


def test_random_candidates_redrawn_per_sample():
    res = run_experiment(small_config(candidates="random:3", samples=60))
    # values must differ across samples (fresh geometry each time)
    assert len(np.unique(np.round(res.values, 12))) > 50


def test_values_dominate_any_fixed_assignment():
    from bellframes import polynomials as bp
    from bellframes import su2
    from bellframes.montecarlo import sample_generator
    from bellframes.optimizer import make_candidate_set

    config = small_config(samples=20)
    res = run_experiment(config)
    poly = bp.make_polynomial(config.family, config.n)
    cs = make_candidate_set(config.candidates)
    fixed = ((0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0))
    for b, s in enumerate(res.sample_indices):
        rng = sample_generator(config.seed, int(s))
        rots = [su2.haar_rotation(rng) for _ in range(config.n)]
        obs = []
        for k, (i, j, sign) in enumerate(fixed):
            eff = [su2.rotate_direction(rots[k], d) for d in cs.directions]
            obs.append((su2.observable_matrix(eff[i]),
                        sign * su2.observable_matrix(eff[j])))
        value = poly.evaluate(lambda mask: su2.ghz_correlator(
            [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(config.n)]))
        assert res.values[b] >= value - 1e-12


def test_crossing_requires_strictly_exceeding_bound():
    # At Theta = 0 the primary strategy gives S_3 exactly 1; an unrotated
    # sample-free check of the convention instead: values equal to the bound
    # must not count.
    from bellframes.montecarlo import CROSSING_TOL, _build_result

    config = small_config(samples=4, candidates="pauli", family="svetlichny")
    values = np.array([1.0, 1.0 + CROSSING_TOL / 2, 1.2, 0.8])
    res = _build_result(config, np.arange(4), values, per_sample=1)
    assert res.lhv_violation_prob == 0.25
