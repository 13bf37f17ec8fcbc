import hashlib
import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from oracles import evaluate, sample_frames, sample_key

from bellframes import montecarlo
from bellframes.montecarlo import (
    BudgetExceededError,
    ExperimentConfig,
    _binomial_stderr,
    _draw_frames,
    _sample_keys,
    merge_results,
    run_experiment,
    sample_generator,
    summary_json,
    write_histogram_csv,
    write_lf,
    write_summary_json,
)
from bellframes.optimizer import (
    _batch_frames,
    _random_kind_size,
    make_candidate_set,
    max_bell_value,
)
from bellframes.polynomials import make_polynomial
from bellframes.su2 import Rotation


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


def test_sample_stream_key_is_the_sha256_rule():
    digest = hashlib.sha256(b"bellframes:17:5").digest()
    key = int.from_bytes(digest[:16], "little")
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
    assert np.array_equal(sample_generator(17, 5).standard_normal(8), want)


@pytest.mark.parametrize("seed", [0, -17, 2**64 + 5])
def test_batched_sample_keys_equal_the_per_sample_rule(seed):
    # One pass over a batch gives each sample the key of its own sha256,
    # for negative seeds, seeds past 64 bits and indices near 2^62 too.
    indices = [0, 1, 9, 10, 4000] + np.arange(2**62 - 3, 2**62 + 3).tolist()
    assert _sample_keys(seed, indices) == [sample_key(seed, s) for s in indices]


def test_thread_count_does_not_change_output():
    serial = run_experiment(small_config())
    threaded = run_experiment(small_config(), threads=4)
    assert np.array_equal(serial.values, threaded.values)
    assert serial.histogram == threaded.histogram


def test_thread_count_does_not_change_multi_batch_output():
    # Six batches (111 frames each for random:7 at n = 3, the last one
    # ragged), each drawn on its own generator while the others run.
    assert 2 * _batch_frames(7, 3, True) < 600
    config = small_config(candidates="random:7", samples=600)
    runs = [run_experiment(config, threads=t).values for t in (1, 2, 3)]
    assert all(np.array_equal(runs[0], other) for other in runs[1:])


def draw_batch(config):
    """``_draw_frames`` for all of ``config``'s samples, with the kind's size."""
    k = _random_kind_size(config.candidates)
    fixed = None if k else make_candidate_set(config.candidates)
    m = k or fixed.size
    indices = np.arange(config.sample_offset, config.sample_offset + config.samples)
    return m, indices, _draw_frames(config, m, indices, fixed)


def assert_equal_to_replay(config, m, indices, quats, base):
    for b, s in enumerate(indices):
        want_quats, want_base = sample_frames(config, m, int(s))
        assert np.array_equal(quats[b], want_quats)
        assert np.array_equal(base if base.ndim == 2 else base[b], want_base)


@pytest.mark.parametrize("measure, kind", [
    ("haar", "pauli"),
    ("haar", "tetrahedron"),
    ("haar", "random:3"),
    ("haar", "random:7"),
    ("uniform-angle", "tetrahedron-z"),
    ("uniform-angle", "random:3"),
])
def test_batch_draws_equal_scalar_replay(measure, kind):
    config = small_config(candidates=kind, samples=40, sample_offset=1234,
                          frame_measure=measure)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, indices, (quats, base) = draw_batch(config)
    assert quats.shape == (40, 3, 4)
    assert_equal_to_replay(config, m, indices, quats, base)


@pytest.mark.parametrize("kind", ["pauli", "random:3"])
def test_uniform_angle_batch_builds_no_rotation(monkeypatch, kind):
    # With no zero-norm draw, the batch never takes the scalar draw.
    def scalar_draw(rng):
        raise AssertionError("uniform_angle_rotation called outside a redraw")

    monkeypatch.setattr(montecarlo, "uniform_angle_rotation", scalar_draw)
    config = small_config(candidates=kind, samples=40, frame_measure="uniform-angle")
    m, indices, (quats, base) = draw_batch(config)
    assert_equal_to_replay(config, m, indices, quats, base)


@pytest.mark.parametrize("measure, kind, block", [
    ("haar", "pauli", (4, 1)),                # sample 4, party 1's quaternion
    ("uniform-angle", "random:3", (4, 0, 1)),  # sample 4, party 0's second direction
    ("uniform-angle", "pauli", (4, 1)),       # sample 4, party 1's axis
])
def test_zero_norm_sample_is_redrawn_on_the_scalar_path(monkeypatch, measure, kind, block):
    config = small_config(candidates=kind, samples=6, frame_measure=measure)
    normalize = montecarlo._normalize

    def normalize_with_zero_block(v):
        if v.ndim == len(block) + 1:  # only the stack whose vectors the block names
            v[block] = 0.0
        return normalize(v)

    redrawn = []

    def spy_generator(seed, s):
        redrawn.append(s)
        return sample_generator(seed, s)

    monkeypatch.setattr(montecarlo, "_normalize", normalize_with_zero_block)
    monkeypatch.setattr(montecarlo, "sample_generator", spy_generator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, indices, (quats, base) = draw_batch(config)
    assert redrawn == [int(indices[4])]
    assert_equal_to_replay(config, m, indices, quats, base)


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
    gap = run_experiment(small_config(samples=100, sample_offset=150))
    for pair in ((a, gap), (gap, a)):
        with pytest.raises(ValueError, match="adjacent"):
            merge_results(*pair)


def test_merged_config_reruns_within_its_budget():
    # Each half's budget covers exactly its own evaluations; the merged
    # config carries their sum, so running it again is no budget overrun.
    half = small_config(samples=10, seed=5, budget=17280)
    lo = run_experiment(half)
    hi = run_experiment(replace(half, sample_offset=10))
    assert lo.evaluations == hi.evaluations == 17280
    merged = merge_results(hi, lo)
    assert merged.config.budget == 2 * 17280
    again = run_experiment(merged.config)
    assert np.array_equal(again.values, merged.values)
    assert again.evaluations == merged.evaluations
    assert summary_json(again) == summary_json(merged)


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
    shifted = run_experiment(small_config(samples=20, sample_offset=100))
    assert keys(shifted) == default_keys[:4] + ["sample_offset"] + default_keys[4:]
    assert json.loads(summary_json(shifted))["sample_offset"] == 100


def test_summary_json_matches_pinned_digest():
    # Pins summary_json's own bytes, including where frame_measure sits.
    result = run_experiment(small_config(samples=20, seed=7, frame_measure="uniform-angle"))
    digest = hashlib.sha256(summary_json(result).encode()).hexdigest()
    assert digest == "26ecbaa19321ca4a95f87f26450558c6ceff6dbf6b8ba70d31b3361712013a85"


def test_uniform_angle_stream_contract():
    # Replay each sample's stream by hand: one uniform-angle rotation per
    # party in party order, then each party's own random candidate set.
    from bellframes import polynomials as bp
    from bellframes import su2
    from bellframes.optimizer import (
        make_candidate_set,
        max_bell_value,
        random_candidate_set,
        score_frames,
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
    for b, s in enumerate(res.sample_indices):
        rng = sample_generator(drawn.seed, int(s))
        rots = [su2.uniform_angle_rotation(rng) for _ in range(3)]
        sets = [random_candidate_set(3, rng) for _ in range(3)]
        quats = np.stack([r.quaternion for r in rots])
        base = np.stack([c.directions for c in sets])
        value, _ = score_frames(poly.coefficient_tensor(), quats[None], base[None])
        assert abs(value[0] - res.values[b]) < 1e-12


# sha256 of (hist.csv, summary.json) under the paper's uniform-angle frame
# measure, seed 2014: a rewrite of the stream or the scan must keep every
# byte. The digests follow the float rounding of the numpy/BLAS build.
GOLDEN_UNIFORM_ANGLE = {
    "mermin3-pauli": (
        dict(n=3, family="mermin", candidates="pauli", samples=2000),
        "e900bb2f5c3b7008aea278b3339e27dfd9aac64d463bb3124311b1de10604503",
        "4874a59bf1720582edd104892ee40b039318e90edea660063e742fae0b45dc2e"),
    "mermin3-tetrahedron-z": (
        dict(n=3, family="mermin", candidates="tetrahedron-z", samples=1000),
        "2972f187ae07e51269a329748fc9e0635ead1819a087652bf208b59f649c1b54",
        "cc4d33e85a91be3fa2a0108e6ce6759d1f467c304d944d8e8d3b955b92da9de3"),
    "svetlichny3-random3": (
        dict(n=3, family="svetlichny", candidates="random:3", samples=500),
        "ea9a2e393ecc878b627e1f6047bf54d4f10025ae6896de9443ba11d0773abb59",
        "e74c9e750cc8c30231cd56d8691f1d8753aae5b7049fd2cc0a0cd823b9235ba4"),
    "mk4-tetrahedron": (
        dict(n=4, family="mk", candidates="tetrahedron", samples=300),
        "12ea5a2e6fcd2f287b885c801c25e8feaecd85a46652a8ff7c868e4d85994fea",
        "98fcb46e98e3f9d94567d2be44e31b68910adc869c0848cff1924752f8f2c17b"),
}


@pytest.mark.parametrize("name", GOLDEN_UNIFORM_ANGLE)
def test_uniform_angle_outputs_match_pinned_digests(tmp_path, name):
    fields, hist_sha, summary_sha = GOLDEN_UNIFORM_ANGLE[name]
    result = run_experiment(
        ExperimentConfig(**fields, seed=2014, frame_measure="uniform-angle"))
    write_histogram_csv(result, tmp_path / "hist.csv")
    write_summary_json(result, tmp_path / "summary.json")
    assert hashlib.sha256((tmp_path / "hist.csv").read_bytes()).hexdigest() == hist_sha
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == summary_sha


# sha256 of every sample's value bytes, for the configs of the CLI's pinned
# Haar runs and of the uniform-angle runs above. A last-bit change in the
# scan or the stream rarely moves a histogram bin or a summary statistic,
# but it changes these. The digests follow the float rounding of the
# numpy/BLAS build.
GOLDEN_VALUES = {
    "haar-mermin3-random7": (
        dict(n=3, family="mermin", candidates="random:7", samples=200, seed=101),
        "769a04b3a241933f5548ee41e35ac3d36a94a9af05c92a179cc534b0063384d5"),
    "haar-mk4-tetrahedron": (
        dict(n=4, family="mk", candidates="tetrahedron", samples=300, seed=102),
        "829f2e9cf8bd7842f3c7c79ac3502bb7278a371521f78f809dc449697601e839"),
    "haar-svetlichny5-random3": (
        dict(n=5, family="svetlichny", candidates="random:3", samples=100, seed=103),
        "632336b6a1609882d58aac8f178bf0213a126dfe5174761d15cc0888cfff85ca"),
    "haar-mermin4-random4-no-flips": (
        dict(n=4, family="mermin", candidates="random:4", samples=200, seed=104,
             sign_flips=False),
        "a30a3bc8cf60a22d51b754f089a5b52a1f5afb21dde6cc42a7fcff538a5a5413"),
    "uniform-angle-mermin3-pauli": (
        dict(GOLDEN_UNIFORM_ANGLE["mermin3-pauli"][0], seed=2014, frame_measure="uniform-angle"),
        "4eea7a618c124d2c2cb98764cee8f90d0e0203b8728aa7aeab295f9a83faf6f6"),
    "uniform-angle-mermin3-tetrahedron-z": (
        dict(GOLDEN_UNIFORM_ANGLE["mermin3-tetrahedron-z"][0], seed=2014,
             frame_measure="uniform-angle"),
        "a3c88387bce8cc0ac7b6e62dfbef28b094cfea0c51bc977714fb5d63ef2a9936"),
    "uniform-angle-svetlichny3-random3": (
        dict(GOLDEN_UNIFORM_ANGLE["svetlichny3-random3"][0], seed=2014,
             frame_measure="uniform-angle"),
        "2166231f805334b3ca0b0a1de1eaac32ac2e2eb6b1108821c821abd6233d84ed"),
    "uniform-angle-mk4-tetrahedron": (
        dict(GOLDEN_UNIFORM_ANGLE["mk4-tetrahedron"][0], seed=2014,
             frame_measure="uniform-angle"),
        "5019f96e87420fc6bac3f9c8ada74385e4a8b26f41826b770d6bd11c43c7f6b4"),
}


@pytest.mark.parametrize("name", GOLDEN_VALUES)
def test_sample_values_match_pinned_digests(name):
    fields, values_sha = GOLDEN_VALUES[name]
    values = run_experiment(ExperimentConfig(**fields)).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == values_sha


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


def test_counts_cover_every_assignment_though_the_scan_scores_orbits(monkeypatch):
    # The scan scores one prefix per symmetry orbit, yet evaluations, the
    # budget and the scan's (B, n, 2, K) tables count all K^n assignments
    # of a frame, so assignments per frame compare across scan designs.
    from bellframes import optimizer

    scan = optimizer.bell_values_over_assignments
    shapes = []

    def spy(ctensor, W, Z, last):
        shapes.append(W.shape)
        return scan(ctensor, W, Z, last)

    monkeypatch.setattr(optimizer, "bell_values_over_assignments", spy)
    per_frame = 84**3
    config = small_config(candidates="random:7", samples=5, budget=5 * per_frame)
    assert run_experiment(config).evaluations == 5 * per_frame
    assert shapes == [(5, 3, 2, 84)]
    with pytest.raises(BudgetExceededError):
        run_experiment(replace(config, budget=5 * per_frame - 1))
    poly = make_polynomial("mermin", 3)
    candidates = make_candidate_set("random:7", np.random.default_rng(3))
    assert max_bell_value(poly, [Rotation.identity()] * 3, candidates).evaluations == per_frame


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(3, "mermin", "pauli", 0, 1)
    for width in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentConfig(3, "mermin", "pauli", 10, 1, bin_width=width)
    # Positive and finite, but with more than MAX_BINS bins, or a bin count
    # that overflows to inf.
    for width in (1e-6, 1e-309, 5e-324):
        with pytest.raises(ValueError, match="bins"):
            run_experiment(small_config(bin_width=width))
    with pytest.raises(ValueError):
        ExperimentConfig(3, "mermin", "pauli", 10, 1, frame_measure="uniform")
    with pytest.raises(ValueError):
        run_experiment(small_config(candidates="cube"))
    for kind in ("random:x", "random: 7", "random:07", "random:+7", "random:1_0", "random:7\n"):
        with pytest.raises(ValueError, match="must be an integer"):
            run_experiment(small_config(candidates=kind))
    with pytest.raises(ValueError):
        run_experiment(small_config(family="chsh"))


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("sign_flips", "off"), ("samples", 2.5), ("n", 3.0),
    ("sample_offset", 1.0), ("candidates", 3), ("candidates", b"pauli"), ("family", ["mermin"]),
    ("budget", float("nan")), ("budget", None),
])
def test_config_fields_written_to_the_outputs_must_have_their_types(field, value):
    # seed=1.5 would run seed 1's streams and sign_flips="off" would flip signs,
    # while summary.json recorded the value as given; a non-str family or
    # candidates kind failed later, with an error that did not name the field;
    # budget=nan turned the budget check off and budget=None failed in run_experiment.
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


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
        value = evaluate(poly, lambda mask: su2.ghz_correlator(
            [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(config.n)]))
        assert res.values[b] >= value - 1e-12


def test_crossing_requires_strictly_exceeding_bound():
    # At Theta = 0 the primary strategy gives S_3 exactly 1; an unrotated
    # sample-free check of the convention instead: values equal to the bound
    # must not count.
    from bellframes.montecarlo import CROSSING_TOL, _build_result

    config = small_config(samples=4, candidates="pauli", family="svetlichny")
    values = np.array([1.0, 1.0 + CROSSING_TOL / 2, 1.2, 0.8])
    res = _build_result(config, values, evaluations=4)
    assert res.lhv_violation_prob == 0.25


def test_write_lf_replaces_a_longer_file_and_creates_its_directory(tmp_path):
    path = tmp_path / "missing" / "dir" / "out.txt"
    write_lf(path, "a much longer first text\n" * 50)
    write_lf(path, "short\nlines\n")
    assert path.read_bytes() == b"short\nlines\n"
    write_lf(path, "")
    assert path.read_bytes() == b""


def test_pow10_entries_are_at_or_above_their_powers():
    # _float_table's exact exponent: each entry is fl(10^k) and at least 10^k,
    # so a double is at least the entry exactly when it is at least 10^k.
    for entry in montecarlo._POW10.tolist():
        k = round(math.log10(entry))
        assert entry == float(Fraction(10) ** k)
        assert Fraction(entry) >= Fraction(10) ** k, entry


def test_ten_entries_are_exact_powers_of_ten():
    # _decimal's scales: entry k is 10^k itself, not a rounding of it.
    assert [Fraction(t) for t in montecarlo._TEN.tolist()] == [Fraction(10) ** k for k in range(21)]


def _significant_bits(x):
    m = abs(Fraction(x).numerator)
    return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0


def test_dekker_halves_are_exact_and_at_most_26_bits():
    # The halves of what _decimal splits, its a (positive doubles in [1e-4,
    # 1e15)) and its b (_TEN's entries): hi + lo == a exactly, each part at
    # most 26 significant bits, so the four partial products are exact.
    rng = np.random.default_rng(5)
    powers = montecarlo._POW10[:-1]
    a = np.concatenate([
        np.exp(rng.uniform(math.log(1e-4), math.log(1e15), 2000)),
        rng.integers(2**52, 2**53, 2000) * 2.0 ** rng.integers(-65, -3, 2000),  # 53-bit
        powers, np.nextafter(powers, math.inf), np.nextafter(montecarlo._POW10[1:], 0.0),
        montecarlo._TEN,
    ])
    hi, lo = montecarlo._split(a)
    for value, h, l in zip(a.tolist(), hi.tolist(), lo.tolist()):
        assert Fraction(h) + Fraction(l) == Fraction(value), value
        assert _significant_bits(h) <= 26 and _significant_bits(l) <= 26, value
