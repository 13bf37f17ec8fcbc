import cmath
import math

import numpy as np
import pytest

from bellframes import polynomials as bp
from bellframes import restricted as rst
from bellframes import su2
from bellframes.optimizer import inplane_candidate_set, max_bell_value
from oracles import ghz_quantum_value, restricted_exact_value, restricted_term_expectation


def test_z_rotation_form():
    rot = rst.z_rotation(0.7)
    assert rot.q1 == rot.q2 == 0.0
    assert abs(rot.q0 - math.cos(0.35)) < 1e-15
    assert abs(rot.q3 - math.sin(0.35)) < 1e-15


def test_expectation_basic_values():
    assert abs(restricted_term_expectation(0.0, 0) - 1.0) < 1e-15
    assert abs(restricted_term_expectation(math.pi / 2.0, 1) - 1.0) < 1e-15
    assert abs(restricted_term_expectation(0.4 + 0.3, 2) - math.cos(0.7 - math.pi)) < 1e-15


def test_expectation_matches_correlator_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        thetas = rng.uniform(-math.pi, math.pi, n)
        rots = [rst.z_rotation(t) for t in thetas]
        mask = int(rng.integers(0, 1 << n))
        p = bin(mask).count("1")
        obs = [
            su2.observable_matrix(su2.rotate_direction(
                r, su2.Y_AXIS if (mask >> k) & 1 else su2.X_AXIS))
            for k, r in enumerate(rots)
        ]
        assert abs(restricted_term_expectation(float(np.sum(thetas)), p)
                   - su2.ghz_correlator(obs)) < 1e-12


def test_mermin_value_examples():
    assert abs(rst.strategy_value("mermin", 3, math.pi / 2.0)[0] - 2.0) < 1e-12
    assert rst.strategy_value("mermin", 3, 0.0)[0] == 0.0
    assert abs(rst.strategy_value("mermin", 4, math.pi / 2.0)[0] - 2.0) < 1e-12
    assert abs(rst.strategy_value("mermin", 3, 0.0)[1] - 2.0) < 1e-12


def test_svetlichny_value_examples():
    assert abs(rst.best_value("svetlichny", 3, math.pi / 4.0) - math.sqrt(2.0)) < 1e-12
    assert abs(rst.best_value("svetlichny", 3, 0.0) - 1.0) < 1e-12


def test_mk_even_value_examples():
    assert abs(rst.best_value("mk", 4, 0.0) - 2.0) < 1e-12
    assert abs(rst.best_value("mk", 2, math.pi / 2.0) - 1.0) < 1e-12
    assert abs(rst.best_value("mk", 4, math.pi / 4.0) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_sine_strategy_violation_condition():
    # For mermin-3 the primary strategy carries the sine: 2 |sin Theta|.
    def violates(theta):
        return rst.strategy_value("mermin", 3, theta)[0] > bp.LHV_BOUND

    assert violates(math.pi / 2.0)
    assert not violates(0.0)
    assert not violates(math.asin(0.5))


def test_closed_forms_match_su2_oracle_on_grid():
    rng = np.random.default_rng(32)
    grid = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False) + 0.0123
    worst = 0.0
    for n in range(2, bp.MAX_PARTIES + 1):
        for family in bp.FAMILIES:
            poly = bp.make_polynomial(family, n)
            for k, strategy in enumerate(rst.STRATEGIES):
                settings = rst.strategy_settings(family, n, strategy)
                for theta in grid[:: max(1, n - 1)]:
                    thetas = rng.dirichlet(np.ones(n)) * theta
                    exact = restricted_exact_value(poly, thetas, settings)
                    closed = rst.strategy_value(family, n, theta)[k]
                    worst = max(worst, abs(exact - closed))
    assert worst < 1e-10


def test_two_strategy_guarantees_on_grid():
    grid = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    for n in (3, 5, 7):
        bound = 2.0 ** (n / 2.0 - 1.0)
        for theta in grid:
            assert rst.best_value("mermin", n, theta) >= bound - 1e-12
        s_bound = 2.0 ** ((n - 3) / 2.0)
        for theta in grid:
            assert rst.best_value("svetlichny", n, theta) >= s_bound - 1e-12
    for n in (2, 4, 6):
        bound = 2.0 ** (n / 2.0 - 1.0)
        for theta in grid:
            assert rst.best_value("mk", n, theta) >= bound - 1e-12


def test_mermin_equality_points():
    # The two-strategy maximum touches 2^(n/2-1) exactly at Theta = pi/4 mod pi/2.
    for n in (3, 5):
        bound = 2.0 ** (n / 2.0 - 1.0)
        for k in range(4):
            theta = math.pi / 4.0 + k * math.pi / 2.0
            assert abs(rst.best_value("mermin", n, theta) - bound) < 1e-12
        assert rst.best_value("mermin", n, 0.3) > bound + 1e-6


def test_periodicity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        theta = float(rng.uniform(0, 2 * math.pi))
        n = int(rng.integers(2, 8))
        family = bp.FAMILIES[int(rng.integers(0, 3))]
        a = rst.strategy_value(family, n, theta)
        b = rst.strategy_value(family, n, theta + 2.0 * math.pi)
        assert all(abs(x - y) < 1e-12 for x, y in zip(a, b))


def test_optimizer_reaches_analytic_maximum():
    # With the {x, y} in-plane candidates and sign flips, the scanned maximum
    # can only beat the two fixed strategies.
    cs = inplane_candidate_set([0.0, math.pi / 2.0])
    rng = np.random.default_rng(34)
    for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        for family in bp.FAMILIES:
            n = 3
            poly = bp.make_polynomial(family, n)
            thetas = rng.dirichlet(np.ones(n)) * theta
            rots = [rst.z_rotation(t) for t in thetas]
            scanned = max_bell_value(poly, rots, cs).bell_value
            assert scanned >= rst.best_value(family, n, theta) - 1e-10


def test_strategy_settings_shapes():
    primary = rst.strategy_settings("mermin", 4, rst.STRATEGY_PRIMARY)
    assert all(np.array_equal(a, su2.X_AXIS) and np.array_equal(ap, su2.Y_AXIS)
               for a, ap in primary)
    # One swapped rule for every family and n: party 1 measures (y, -x).
    swapped_odd = rst.strategy_settings("mk", 5, rst.STRATEGY_SWAPPED)
    assert np.array_equal(swapped_odd[0][0], su2.Y_AXIS)
    assert np.array_equal(swapped_odd[0][1], -su2.X_AXIS)
    assert all(np.array_equal(a, su2.X_AXIS) and np.array_equal(ap, su2.Y_AXIS)
               for a, ap in swapped_odd[1:])
    assert len(swapped_odd) == 5
    swapped_even = rst.strategy_settings("svetlichny", 3, rst.STRATEGY_SWAPPED)
    assert np.array_equal(swapped_even[0][0], su2.Y_AXIS)
    assert np.array_equal(swapped_even[0][1], -su2.X_AXIS)
    assert np.array_equal(swapped_even[1][0], su2.X_AXIS)


@pytest.mark.parametrize("family", bp.FAMILIES)
@pytest.mark.parametrize("n", range(2, bp.MAX_PARTIES + 1))
def test_phasor_modulus_is_ghz_quantum_value(family, n):
    # |g| is the GHZ quantum value, and the two-strategy maximum over Theta
    # reaches it at Theta = -arg g, where the primary quadrature is |g|.
    # ghz_phasor is the only source of both |g| and bounds_table's entry, so
    # both are pinned bit for bit to the closed forms.
    g = bp.ghz_phasor(family, n)
    ghz = ghz_quantum_value(family, n)
    assert abs(g) == ghz
    assert bp.bounds_table(n, family).threshold("GhzQuantumValue") == ghz
    assert abs(rst.best_value(family, n, -cmath.phase(g)) - ghz) < 1e-12
    grid = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    assert max(rst.best_value(family, n, theta) for theta in grid) <= ghz + 1e-12


def test_unknown_family_or_strategy_rejected():
    # strategy_settings takes strategy_value's family and party-count rule:
    # n = 0 gave one party's settings and n = 9 nine, where strategy_value raised.
    for family, n in (("chsh", 3), ("mermin", 0), ("mermin", 1), ("mk", bp.MAX_PARTIES + 1)):
        with pytest.raises(ValueError):
            rst.strategy_value(family, n, 0.1)
        for strategy in rst.STRATEGIES:
            with pytest.raises(ValueError):
                rst.strategy_settings(family, n, strategy)
    with pytest.raises(ValueError):
        rst.strategy_settings("mermin", 3, "diagonal")


def test_scalar_angle_gives_floats():
    # A Python float, an int, a NumPy scalar and a 0-d array are all one angle.
    want = rst.strategy_value("svetlichny", 3, 0.7)
    for theta in (0.7, np.float64(0.7), np.array(0.7)):
        assert rst.strategy_value("svetlichny", 3, theta) == want
    values = [*rst.strategy_value("mermin", 3, 2), *want, rst.best_value("mermin", 3, 0.7)]
    assert all(type(v) is float for v in values)
    rot = rst.z_rotation(0.7)
    assert (rot.q0, rot.q3) == (math.cos(0.35), math.sin(0.35))
    assert all(type(q) is float for q in (rot.q0, rot.q3))
    with pytest.raises(ValueError):
        rst.strategy_value("mermin", 3, math.inf)


@pytest.mark.parametrize("family", bp.FAMILIES)
@pytest.mark.parametrize("n", range(2, bp.MAX_PARTIES + 1))
def test_array_of_angles_gives_the_per_angle_floats_bit_for_bit(family, n):
    # The sweep's grid (2 pi k / grid, built as an array), negative angles and
    # angles above 2 pi. Each scalar call returns two floats equal to the
    # per-angle closed forms in Python floats; the array call gives the same bytes.
    grid = 1009
    sweep = 2.0 * math.pi * np.arange(grid) / grid
    assert sweep.tolist() == [2.0 * math.pi * k / grid for k in range(grid)]
    thetas = np.concatenate([sweep, -np.linspace(0.0, 40.0, 97), np.linspace(6.3, 1e4, 97)])
    g = bp.ghz_phasor(family, n)
    closed = (lambda t: abs(g.real * math.cos(t) - g.imag * math.sin(t)),
              lambda t: abs(g.real * math.sin(t) + g.imag * math.cos(t)))
    pairs = [rst.strategy_value(family, n, t) for t in thetas.tolist()]
    assert all(type(p) is float and type(s) is float for p, s in pairs)
    per_angle = list(zip(*pairs))
    for k, scalars in enumerate(per_angle):
        assert list(scalars) == [closed[k](t) for t in thetas.tolist()]
    values = rst.strategy_value(family, n, thetas)
    assert [v.tobytes() for v in values] == [np.array(p).tobytes() for p in per_angle]
    shaped = rst.strategy_value(family, n, thetas[:-3].reshape(2, -1, 3))
    assert [v.tobytes() for v in shaped] == [v[:-3].tobytes() for v in values]
    best = [rst.best_value(family, n, t) for t in thetas.tolist()]
    assert best == [max(p, s) for p, s in pairs]
    assert rst.best_value(family, n, thetas).tobytes() == np.array(best).tobytes()
