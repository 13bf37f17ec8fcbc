"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one ``PASS``/``FAIL`` line (run with ``pytest -s`` to see
them all). The Monte Carlo checks are statistical: their tolerance is the
larger of the stated reporting tolerance and three binomial standard errors
of the estimate, and all runs are seeded, so outcomes are deterministic.
"""

import math
import time

import numpy as np
import pytest

from bellframes import polynomials as bp
from bellframes import restricted as rst
from bellframes import su2
from bellframes.montecarlo import ExperimentConfig, run_experiment
from bellframes.optimizer import (
    inplane_candidate_set,
    make_candidate_set,
    max_bell_value,
)
from oracles import restricted_exact_value, uniform_sphere

IDENT = su2.Rotation.identity()
SEED = 20_260_808
# The frame model the paper's reported probabilities imply: a uniform axis
# and a uniform rotation angle. Checks without it sample Haar frames.
PAPER_FRAMES = "uniform-angle"


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    assert ok, f"{name}: {detail}"


def crossing_prob(result, label):
    for row in result.bounds:
        if row.label == label:
            return row.prob, row.stderr
    raise KeyError(label)


def mc_tolerance(stated, stderr):
    return max(stated, 3.0 * stderr)


# ---------------------------------------------------------------- criterion 1
# deterministic optimizer regressions


def test_c1a_mermin3_unrotated_pauli_reaches_two():
    start = time.perf_counter()
    out = max_bell_value(bp.mermin_polynomial(3), [IDENT] * 3,
                         make_candidate_set("pauli"))
    elapsed = time.perf_counter() - start
    ok = abs(out.bell_value - 2.0) <= 1e-12 and elapsed < 1.0
    check("1a mermin-3 unrotated Pauli maximum = 2.0 +- 1e-12 in < 1 s", ok,
          f"value={out.bell_value!r}, {elapsed:.2f}s")


def test_c1b_tilted_rotation_pauli_value():
    axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    tilt = su2.Rotation.from_axis_angle(axis, math.atan(math.sqrt(2.0)))
    start = time.perf_counter()
    out = max_bell_value(bp.mermin_polynomial(3), [tilt] * 3,
                         make_candidate_set("pauli"))
    elapsed = time.perf_counter() - start
    ok = abs(out.bell_value - 0.98) <= 0.005 and elapsed < 1.0
    check("1b tilted-frame counterexample: mermin-3 Pauli = 0.98 +- 0.005", ok,
          f"value={out.bell_value:.6f}, {elapsed:.2f}s")


def test_c1c_x_rotation_tetrahedron_value():
    xrot = su2.Rotation.from_axis_angle(su2.X_AXIS, 3.0 * math.pi / 10.0)
    start = time.perf_counter()
    out = max_bell_value(bp.mermin_polynomial(3), [IDENT, IDENT, xrot],
                         make_candidate_set("tetrahedron"))
    elapsed = time.perf_counter() - start
    ok = abs(out.bell_value - 0.93) <= 0.005 and elapsed < 1.0
    check("1c x-rotated counterexample: mermin-3 tetrahedron = 0.93 +- 0.005", ok,
          f"value={out.bell_value:.6f}, {elapsed:.2f}s")


def test_c1d_inplane_optimal_values():
    cs = inplane_candidate_set([0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0])
    s3 = max_bell_value(bp.svetlichny_polynomial(3), [IDENT] * 3, cs)
    mk4 = max_bell_value(bp.mk_polynomial(4), [IDENT] * 4, cs)
    # independent oracle: re-evaluate the winning assignments term by term
    def replay(poly, outcome, n):
        obs = [(su2.observable_matrix(cs.directions[i]),
                s * su2.observable_matrix(cs.directions[j]))
               for i, j, s in outcome.assignment]
        return poly.evaluate(lambda mask: su2.ghz_correlator(
            [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(n)]))

    ok = (
        abs(s3.bell_value - math.sqrt(2.0)) <= 1e-9
        and abs(mk4.bell_value - 2.0**1.5) <= 1e-9
        and abs(replay(bp.svetlichny_polynomial(3), s3, 3) - s3.bell_value) <= 1e-12
        and abs(replay(bp.mk_polynomial(4), mk4, 4) - mk4.bell_value) <= 1e-12
    )
    check("1d in-plane azimuths {0, pi/2, pi/4, -pi/4}: svetlichny-3 = sqrt(2), "
          "mk-4 = 2^1.5 (+- 1e-9, oracle replay)", ok,
          f"s3={s3.bell_value!r}, mk4={mk4.bell_value!r}")


# ---------------------------------------------------------------- criterion 2
# Monte Carlo headline probabilities


def test_c2a_mermin3_pauli_violation_probability():
    res = run_experiment(
        ExperimentConfig(3, "mermin", "pauli", 100_000, SEED), threads=2)
    p, se = res.lhv_violation_prob, res.lhv_stderr
    tol = mc_tolerance(0.00005, se)
    ok = abs(p - 0.9999) <= tol
    check("2a mermin-3 Pauli violation probability = 0.9999", ok,
          f"p={p:.5f} +- {se:.5f}, tol={tol:.5f}")


def test_c2b_svetlichny3_pauli_violation_probability():
    res = run_experiment(
        ExperimentConfig(3, "svetlichny", "pauli", 100_000, SEED,
                         frame_measure=PAPER_FRAMES), threads=2)
    p, se = res.lhv_violation_prob, res.lhv_stderr
    tol = mc_tolerance(0.02, se)
    ok = abs(p - 0.55) <= tol
    check("2b svetlichny-3 Pauli violation probability = 0.55 +- 0.02", ok,
          f"p={p:.5f} +- {se:.5f}")


def test_c2c_mermin3_tetrahedron_gme3_probability():
    res = run_experiment(
        ExperimentConfig(3, "mermin", "tetrahedron-z", 20_000, SEED,
                         frame_measure=PAPER_FRAMES), threads=2)
    p, se = crossing_prob(res, "GME(3)")
    tol = mc_tolerance(0.02, se)
    ok = abs(p - 0.92) <= tol
    check("2c mermin-3 tetrahedron GME(3) probability = 0.92 +- 0.02", ok,
          f"p={p:.5f} +- {se:.5f}")


def test_c2d_mermin3_random7_violation_probability():
    res = run_experiment(
        ExperimentConfig(3, "mermin", "random:7", 10_000, SEED), threads=2)
    p, se = res.lhv_violation_prob, res.lhv_stderr
    tol = mc_tolerance(0.02, se)
    ok = abs(p - 0.81) <= tol
    check("2d mermin-3 random:7 violation probability = 0.81 +- 0.02", ok,
          f"p={p:.5f} +- {se:.5f}")


@pytest.fixture(scope="module")
def mk5_result():
    return run_experiment(ExperimentConfig(5, "mk", "pauli", 2000, SEED,
                                           frame_measure=PAPER_FRAMES), threads=2)


def test_c2e_i_five_party_gme3_certain(mk5_result):
    gme3, _ = crossing_prob(mk5_result, "GME(3)")
    check("2e-i mk-5 Pauli crosses GME(3) in 100% of samples", gme3 == 1.0,
          f"p={gme3:.5f} over {len(mk5_result.values)} samples")


def test_c2e_ii_five_party_gme5_probability(mk5_result):
    gme5, se5 = crossing_prob(mk5_result, "GME(5)")
    tol5 = mc_tolerance(0.03, se5)
    check("2e-ii mk-5 Pauli GME(5) probability = 0.19 +- 0.03",
          abs(gme5 - 0.19) <= tol5, f"p={gme5:.5f} +- {se5:.5f}")


def test_c2e_iii_five_party_sep1_probability():
    sv = run_experiment(ExperimentConfig(5, "svetlichny", "pauli", 2000, SEED,
                                         frame_measure=PAPER_FRAMES), threads=2)
    sep1, se1 = crossing_prob(sv, "Sep(1)")
    tol1 = mc_tolerance(0.03, se1)
    check("2e-iii svetlichny-5 Pauli Sep(1) probability = 0.18 +- 0.03",
          abs(sep1 - 0.18) <= tol1, f"p={sep1:.5f} +- {se1:.5f}")


def test_c2f_mermin4_tetrahedron_near_certain_violation():
    res = run_experiment(
        ExperimentConfig(4, "mermin", "tetrahedron", 1000, SEED), threads=2)
    p = res.lhv_violation_prob
    ok = p >= 0.99
    check("2f mermin-4 tetrahedron violation probability >= 0.99", ok,
          f"p={p:.5f}")


# ---------------------------------------------------------------- criterion 3
# deterministic property suites


def test_c3a_lhv_bound_is_one_for_all_families():
    worst = None
    for family in bp.FAMILIES:
        for n in (2, 3, 4, 5):
            value = bp.lhv_deterministic_max(bp.make_polynomial(family, n))
            if value != 1.0:
                worst = (family, n, value)
    check("3a deterministic-strategy maximum = 1 exactly (all families, n=2..5)",
          worst is None, "exact" if worst is None else repr(worst))


def test_c3b_statevector_oracle_agreement():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        dirs = uniform_sphere(rng, n)
        slow = su2.statevector_expectation(
            rots, [su2.observable_matrix(d) for d in dirs])
        fast = su2.ghz_correlator(
            [su2.observable_matrix(su2.rotate_direction(r, d))
             for r, d in zip(rots, dirs)])
        worst = max(worst, abs(slow - fast))
    check("3b statevector oracle vs closed-form correlator, 10^4 cases <= 1e-12",
          worst <= 1e-12, f"max |diff| = {worst:.2e}")


def test_c3c_polynomial_identities():
    odd_ok = all(bp.mermin_polynomial(n).terms == bp.mk_polynomial(n).terms
                 for n in (3, 5, 7))
    even_ok = all(bp.svetlichny_polynomial(n).terms == bp.mk_polynomial(n).terms
                  for n in (2, 4, 6, 8))
    from fractions import Fraction
    half = Fraction(1, 2)
    chsh_ok = bp.mk_polynomial(2).terms == (
        (0, half), (1, half), (2, half), (3, -half))
    mk3_ok = bp.mk_polynomial(3).terms == (
        (1, half), (2, half), (4, half), (7, -half))
    check("3c polynomial identities (mermin=mk odd<=7, svetlichny=mk even<=8, "
          "explicit 2- and 3-party term lists)",
          odd_ok and even_ok and chsh_ok and mk3_ok,
          f"odd={odd_ok} even={even_ok} chsh={chsh_ok} mk3={mk3_ok}")


def test_c3d_restricted_grid_oracle_and_bounds():
    rng = np.random.default_rng(SEED + 1)
    grid = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    worst = 0.0
    for theta in grid:
        n = int(rng.integers(2, 6))
        family = bp.FAMILIES[int(rng.integers(0, 3))]
        strategy = rst.STRATEGIES[int(rng.integers(0, 2))]
        thetas = rng.dirichlet(np.ones(n)) * theta
        exact = restricted_exact_value(
            bp.make_polynomial(family, n), thetas,
            rst.strategy_settings(family, n, strategy))
        closed = rst.strategy_value(family, n, theta, strategy)
        worst = max(worst, abs(exact - closed))
    check("3d-i restricted closed forms vs correlator oracle on 1000-point grid "
          "<= 1e-10", worst <= 1e-10, f"max |diff| = {worst:.2e}")

    mermin_ok = all(
        rst.best_value("mermin", n, theta) >= 2.0 ** (n / 2.0 - 1.0) - 1e-12
        for n in (3, 5, 7) for theta in grid)
    svet_ok = all(
        rst.best_value("svetlichny", n, theta) >= 2.0 ** ((n - 3) / 2.0) - 1e-12
        for n in (3, 5, 7) for theta in grid)
    check("3d-ii two-strategy maxima certify mermin-odd >= 2^(n/2-1) and "
          "svetlichny-odd >= 2^((n-3)/2) at every grid point",
          mermin_ok and svet_ok, f"mermin={mermin_ok} svetlichny={svet_ok}")


def test_c3e_symmetry_reduction_and_frame_covariance():
    from bellframes.optimizer import (
        _channel_tables,
        _party_options,
        bell_values_over_assignments,
        effective_directions,
    )
    from oracles import exhaustive_scan, quat_multiply

    rng = np.random.default_rng(SEED + 2)
    base = make_candidate_set("pauli")
    options = _party_options(base.size, sign_flips=True)
    full_options = _party_options(base.size, sign_flips=True, unprimed_signs=True)

    def scan(poly, per_party_dirs):
        eff = np.stack(per_party_dirs)[None, ...]
        W, Z = _channel_tables(eff, *options)
        values, _ = bell_values_over_assignments(poly.coefficient_tensor(), W, Z, eff[:, -1])
        return float(values[0])

    def full_scan(poly, per_party_dirs):
        # Every option scored as a contracted party: the scan folds the last
        # party's signs analytically, so the unreduced side must not use it.
        eff = np.stack(per_party_dirs)[None, ...]
        W, Z = _channel_tables(eff, *full_options)
        values, _ = exhaustive_scan(poly.coefficient_tensor(), W, Z)
        return float(values[0])

    worst_sym = 0.0
    worst_cov = 0.0
    for trial in range(100):
        n = 2 + trial % 2
        poly = bp.make_polynomial(bp.FAMILIES[trial % 3], n)
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        dirs = [effective_directions([r], base)[0] for r in rots]

        reduced = scan(poly, dirs)
        full = full_scan(poly, dirs)
        worst_sym = max(worst_sym, abs(reduced - full))

        k = trial % n
        extra = su2.haar_rotation(rng)
        inverse = su2.Rotation(extra.q0, -extra.q1, -extra.q2, -extra.q3)
        twisted = quat_multiply(extra.quaternion, rots[k].quaternion)
        counter = np.array([su2.rotate_direction(inverse, d)
                            for d in base.directions])
        twisted_dirs = list(dirs)
        twisted_dirs[k] = np.array([su2.rotate_direction(twisted, d)
                                    for d in counter])
        worst_cov = max(worst_cov, abs(scan(poly, twisted_dirs) - reduced))
    check("3e symmetry reduction and frame covariance on 100 random instances "
          "<= 1e-12", worst_sym <= 1e-12 and worst_cov <= 1e-12,
          f"reduction diff={worst_sym:.2e}, covariance diff={worst_cov:.2e}")
