"""Property tests of the Monte Carlo summary, merge and CSV writer and of
the frame score's GHZ symmetries and frame covariance (need hypothesis)."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    crossing_prob,
    csv_rows,
    hist_csv,
    histogram_counts,
    prefix_values,
    quat_multiply,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bellframes.montecarlo import (  # noqa: E402
    CROSSING_TOL,
    ExperimentConfig,
    _build_result,
    _decimal,
    _fmt_value,
    csv_document,
    merge_results,
    run_experiment,
    summary_json,
    write_histogram_csv,
)
from bellframes.optimizer import (  # noqa: E402
    _channel_tables,
    _orbit_symmetries,
    _party_options,
    make_candidate_set,
    score_frames,
)
from bellframes.polynomials import bounds_table, make_polynomial  # noqa: E402
from bellframes.su2 import rotate_directions  # noqa: E402

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


# The float edge cases: signed zeros and infinities, nan, subnormals and
# the largest magnitudes.
EDGE_FLOATS = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308,
               1e308, -1.7976931348623157e308)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
COLUMNS = {"float": floats, "np.float64": floats.map(np.float64),
           "int": st.integers(-(2**70), 2**70)}
tables = st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5).flatmap(
    lambda kinds: st.tuples(st.just(kinds),
                            st.lists(st.tuples(*(COLUMNS[k] for k in kinds)), max_size=12)))


def _bit_table(width, words):
    """A float table, ``width`` values a row, of the doubles with bit patterns ``words``."""
    values = np.array(words[: len(words) // width * width], dtype=np.uint64).view(np.float64)
    return ["float"] * width, [tuple(row) for row in values.reshape(-1, width).tolist()]


# Raw bit patterns, half of them with an exponent (and so a %g layout) in or
# near the exact range of montecarlo._float_table, positive 1e-4 <= x < 1e15.
words = st.one_of(st.integers(0, 2**64 - 1),
                  st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                            st.integers(0, 1), st.integers(1000, 1076), st.integers(0, 2**52 - 1)))
bit_tables = st.integers(1, 5).flatmap(
    lambda width: st.lists(words, max_size=200 * width).map(lambda w: _bit_table(width, w)))
# 2^-k, 1 + 2^-k, and 2^a + 2^-k with 2^a just above 10^(17-k): its 18
# significant digits end in 5, a half-way tie for %.17g wherever it is exact.
TIES = [(2.0**-k, 1.0 + 2.0**-k, 2.0 ** (10 ** max(0, 17 - k) - 1).bit_length() + 2.0**-k)
        for k in range(1, 61)]
# The doubles on both sides of 10^k, of 2e-6 and of 1e15.
EDGES = [(np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))
         for p in [10.0**k for k in range(-7, 17)] + [2e-6, 1e15]]


@PROPERTY
@given(st.one_of(tables, bit_tables))
@example((["float"], []))
@example((["float", "np.float64", "int"],
          [(x, np.float64(x), k) for k, x in enumerate(EDGE_FLOATS)]))
@example((["float"] * 3, TIES))
@example((["float"] * 3, [tuple(-x for x in row) for row in TIES]))
@example((["float"] * 3, EDGES))
@example((["float"] * 3, [tuple(-x for x in row) for row in EDGES]))
@example((["float"] * 2, [(0.0, 0.5), (0.25, 1.0000000000000002)]))  # a sweep's leading 0.0
@example((["float"], [(k / 7.0,) for k in range(1, 2**14 + 4)]))  # more than one block
def test_csv_document_formats_every_value_as_fmt_value(table):
    # csv_document over the table as a float64 array, and the one-% oracle
    # over its rows, write what one _fmt_value per value wrote.
    kinds, rows = table
    header = [f"{kind}_{i}" for i, kind in enumerate(kinds)]
    lines = [",".join(header), *(",".join(map(_fmt_value, row)) for row in rows)]
    expected = "\n".join(lines) + "\n"
    assert csv_rows(header, rows) == expected
    if "int" not in kinds:
        array = np.array(rows, dtype=float).reshape(len(rows), len(kinds))
        assert csv_document(header, array) == expected


@PROPERTY
@given(st.lists(st.floats(1e-4, 1e15, exclude_max=True), max_size=50))
@example([x for row in TIES + EDGES for x in row])
def test_decimal_rounds_the_exact_rational_half_to_even(values):
    # _decimal against exact rationals, independent of %: 10^e <= x <
    # 10^(e+1), and N is x 10^(16-e) rounded half to even (Fraction's round).
    x = np.array(values, dtype=float)
    exact, N, e = _decimal(x)
    assert exact.tolist() == [1e-4 <= v < 1e15 for v in values]
    for v, n, k in zip(x[exact].tolist(), N[exact].tolist(), e[exact].tolist()):
        assert Fraction(10) ** k <= Fraction(v) < Fraction(10) ** (k + 1), v
        assert n == round(Fraction(v) * Fraction(10) ** (16 - k)), v


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
        **({"sample_offset": config.sample_offset} if config.sample_offset else {}),
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
    assert merged.config == replace(full.config, budget=lo.config.budget + hi.config.budget)
    assert np.array_equal(merged.sample_indices, full.sample_indices)
    assert np.array_equal(merged.values, full.values)
    assert (merged.histogram, merged.bounds, merged.evaluations) == (
        full.histogram, full.bounds, full.evaluations)
    assert (merged.lhv_violation_prob, merged.lhv_stderr) == (
        full.lhv_violation_prob, full.lhv_stderr)
    assert (merged.mean, merged.min, merged.max) == (full.mean, full.min, full.max)
    assert summary_json(merged) == summary_json(full)


@PROPERTY
@given(configs, st.data())
def test_merge_is_associative_over_three_disjoint_ranges(config, data):
    config = replace(config, samples=max(config.samples, 3))
    cut = data.draw(st.integers(1, config.samples - 2), label="cut")
    cut2 = data.draw(st.integers(cut + 1, config.samples - 1), label="cut2")
    a, b, c = (run_experiment(replace(config, samples=hi - lo,
                                      sample_offset=config.sample_offset + lo))
               for lo, hi in ((0, cut), (cut, cut2), (cut2, config.samples)))
    full = run_experiment(config)
    budget = a.config.budget + b.config.budget + c.config.budget
    for merged in (merge_results(merge_results(a, b), c), merge_results(a, merge_results(b, c))):
        assert merged.config == replace(full.config, budget=budget)
        assert np.array_equal(merged.sample_indices, full.sample_indices)
        assert np.array_equal(merged.values, full.values)
        assert (merged.histogram, merged.bounds, merged.evaluations) == (
            full.histogram, full.bounds, full.evaluations)
        assert (merged.lhv_violation_prob, merged.lhv_stderr) == (
            full.lhv_violation_prob, full.lhv_stderr)
        assert (merged.mean, merged.min, merged.max) == (full.mean, full.min, full.max)
        assert summary_json(merged) == summary_json(full)


@PROPERTY
@given(
    n=st.integers(2, 4),
    family=st.sampled_from(["mermin", "mk", "svetlichny"]),
    bin_width=st.one_of(st.sampled_from([0.01, 0.001, 0.1, 1 / 3, 0.37, 2.0]),
                        st.floats(1e-3, 4.0)),
    data=st.data(),
)
def test_crossings_and_hist_csv_match_their_oracles(tmp_path_factory, n, family, bin_width, data):
    # Values on, just below and just above each bound + CROSSING_TOL, ties
    # among them, bin edges and values anywhere in [0, top]; each result is
    # built whole and merged from two halves. Every crossing must equal one
    # mean of a boolean mask, the counts one digitize, and hist.csv one %
    # over the stored rows. One path is rewritten by every example.
    table = bounds_table(n, family)
    top = table.threshold("AlgebraicMax")
    bounds = [table.lhv_bound] + [bound for _, bound in table.thresholds]
    ties = [x for bound in bounds for x in (bound, bound + CROSSING_TOL)]
    near = ties + [np.nextafter(x, d) for x in ties for d in (-math.inf, math.inf)]
    on_edges = st.integers(0, int(top / bin_width) + 1).map(lambda k: k * bin_width)
    values = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(near), on_edges, st.floats(0.0, top)), min_size=2, max_size=60),
        label="values"))
    cut = data.draw(st.integers(1, len(values) - 1), label="cut")
    config = ExperimentConfig(n=n, family=family, candidates="pauli", samples=len(values),
                              seed=0, bin_width=bin_width)
    lo = _build_result(replace(config, samples=cut), values[:cut], cut)
    hi = _build_result(replace(config, samples=len(values) - cut, sample_offset=cut),
                       values[cut:], len(values) - cut)
    path = tmp_path_factory.getbasetemp() / "rewritten" / "hist.csv"
    for result in (_build_result(config, values, len(values)), merge_results(hi, lo)):
        assert result.lhv_violation_prob == crossing_prob(values, table.lhv_bound)
        assert [c.prob for c in result.bounds] == [
            crossing_prob(values, bound) for bound in bounds[1:]]
        edges = [row[0] for row in result.histogram] + [result.histogram[-1][1]]
        assert [row[2] for row in result.histogram] == histogram_counts(values, edges).tolist()
        write_histogram_csv(result, path)
        assert path.read_bytes() == hist_csv(result).encode()


@PROPERTY
@given(
    n=st.integers(2, 4),
    family=st.sampled_from(["mermin", "mk", "svetlichny"]),
    kind=st.sampled_from(["pauli", "tetrahedron", "random:3"]),
    sign_flips=st.booleans(),
    seed=st.integers(0, 2**32),
    phis=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
)
def test_ghz_phase_rotations_summing_to_zero_keep_every_frame_best(
        n, family, kind, sign_flips, seed, phis):
    # prod_k Rz(phi_k) with sum_k phi_k = 0 leaves |0..0> + |1..1> as it is,
    # so composing it into every frame changes no Bell value beyond roundoff.
    rng = np.random.default_rng(seed)
    base = make_candidate_set(kind, rng).directions
    quats = rng.standard_normal((4, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    phi = np.array(phis[: n - 1] + [-sum(phis[: n - 1])])
    rz = np.zeros((4, n, 4))
    rz[..., 0], rz[..., 3] = np.cos(phi / 2.0), np.sin(phi / 2.0)
    ctensor = make_polynomial(family, n).coefficient_tensor()
    best, _ = score_frames(ctensor, quats, base, sign_flips)
    # The phase rotation is the frame of the already conjugated directions.
    dirs = rotate_directions(quats[:, :, None], base)
    turned, _ = score_frames(ctensor, rz, dirs, sign_flips)
    assert np.max(np.abs(turned - best)) <= 1e-12


@PROPERTY
@given(
    n=st.integers(2, 4),
    family=st.sampled_from(["mermin", "mk", "svetlichny"]),
    kind=st.sampled_from(["pauli", "tetrahedron", "random:3", "random:4"]),
    sign_flips=st.booleans(),
    seed=st.integers(0, 2**32),
    party=st.integers(0, 3),
)
def test_negating_one_partys_directions_keeps_every_frame_best_and_index(
        n, family, kind, sign_flips, seed, party):
    # Every term carries exactly one factor of each party and IEEE negation
    # is exact. Conjugation is linear with an exact sign symmetry, so
    # negating one party's base directions negates its conjugated ones bit
    # for bit, which negates every term: the scan's |sum| comparisons see
    # the same values bit for bit.
    rng = np.random.default_rng(seed)
    base = make_candidate_set(kind, rng).directions
    quats = rng.standard_normal((3, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    flipped = np.array([[base] * n] * 3)
    flipped[:, party % n] *= -1.0
    ctensor = make_polynomial(family, n).coefficient_tensor()
    best, index = score_frames(ctensor, quats, base, sign_flips)
    flipped_best, flipped_index = score_frames(ctensor, quats, flipped, sign_flips)
    assert flipped_best.tobytes() == best.tobytes()
    assert np.array_equal(flipped_index, index)


@pytest.mark.parametrize("kind", ["pauli", "tetrahedron", "random:3"])
@pytest.mark.parametrize("family", ["mermin", "mk", "svetlichny"])
@PROPERTY
@given(n=st.integers(2, 4), sign_flips=st.booleans(), seed=st.integers(0, 2**32),
       party=st.integers(0, 3))
def test_extra_frame_rotation_undone_on_the_candidates_keeps_every_frame_best(
        family, kind, n, sign_flips, seed, party):
    # An extra rotation on party k's frame, with that party's candidates
    # counter-rotated, leaves its effective directions as they were up to
    # roundoff, so no frame's best value moves beyond it.
    rng = np.random.default_rng(seed)
    k = party % n
    base = np.array([[make_candidate_set(kind, rng).directions for _ in range(n)]
                     for _ in range(3)])
    quats = rng.standard_normal((3, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    extra = rng.standard_normal((3, 4))
    extra /= np.linalg.norm(extra, axis=-1, keepdims=True)
    twisted = quats.copy()
    twisted[:, k] = [quat_multiply(e, q).quaternion for e, q in zip(extra, quats[:, k])]
    counter = base.copy()
    counter[:, k] = rotate_directions(extra[:, None] * [1.0, -1.0, -1.0, -1.0], base[:, k])
    ctensor = make_polynomial(family, n).coefficient_tensor()
    best, _ = score_frames(ctensor, quats, base, sign_flips)
    moved, _ = score_frames(ctensor, twisted, counter, sign_flips)
    assert np.max(np.abs(moved - best)) <= 1e-12


@PROPERTY
@given(
    n=st.integers(2, 4),
    tensor=st.sampled_from(["mermin", "mk", "svetlichny", "unprimed-only"]),
    kind=st.sampled_from(["pauli", "tetrahedron", "random:3", "random:4"]),
    seed=st.integers(0, 2**32),
)
def test_orbit_maps_keep_every_prefix_value_bit_for_bit(n, tensor, kind, seed):
    # With the last party maximized out, T_k on any one prefix party k,
    # (i, j, s) -> (j, i, -s), and C on every party, (i, j, s) -> (i, j, -s),
    # map each prefix to one of the same value bit for bit whenever the
    # coefficient tensor allows them; so the scan may score one per orbit.
    rng = np.random.default_rng(seed)
    base = np.array([[make_candidate_set(kind, rng).directions for _ in range(n)]
                     for _ in range(3)])
    quats = rng.standard_normal((3, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    if tensor == "unprimed-only":
        ctensor = np.zeros((2,) * n)
        ctensor[(0,) * n] = 1.0
    else:
        ctensor = make_polynomial(tensor, n).coefficient_tensor()
    dirs = rotate_directions(quats[:, :, None], base)
    options = _party_options(base.shape[-2], True)
    values, _ = prefix_values(ctensor, *_channel_tables(dirs, *options), dirs[:, -1])
    K = len(options[0])
    values = values.reshape((3,) + (K,) * (n - 1))
    index = {option: o for o, option in enumerate(zip(*options))}
    swap = [index[j, i, -s] for i, j, s in zip(*options)]
    flip = [index[i, j, -s] for i, j, s in zip(*options)]
    t, c = _orbit_symmetries(ctensor)
    assert (t, c) != (False, False)
    for k in range(1, n) if t else ():
        assert np.take(values, swap, axis=k).tobytes() == values.tobytes()
    if c:
        flipped = values
        for k in range(1, n):
            flipped = np.take(flipped, flip, axis=k)
        assert flipped.tobytes() == values.tobytes()
