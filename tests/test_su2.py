import itertools
import math
import re

import numpy as np
import pytest

import oracles
from bellframes import su2
from oracles import octant_fractions, quat_multiply, uniform_sphere


class FakeStream:
    """Yields scripted 'standard normal' and 'uniform' draws."""

    def __init__(self, values, uniforms=()):
        self.values = list(values)
        self.uniforms = list(uniforms)

    def standard_normal(self, size):
        out = np.array(self.values[:size], dtype=float)
        del self.values[:size]
        return out

    def random(self):
        return self.uniforms.pop(0)


def test_haar_rotation_of_canonical_draw_is_identity():
    rot = su2.haar_rotation(FakeStream([1.0, 0.0, 0.0, 0.0]))
    assert rot == su2.Rotation(1.0, 0.0, 0.0, 0.0)


def test_haar_rotation_reproducible():
    a = su2.haar_rotation(np.random.default_rng(123))
    b = su2.haar_rotation(np.random.default_rng(123))
    assert a == b


def test_haar_rotated_axis_is_uniform_on_sphere():
    # Oracle: direct uniform sphere sampling shows the same statistics.
    n = 100_000
    rng = np.random.default_rng(6)
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    images = su2.rotate_directions(quats, su2.Z_AXIS)
    reference = uniform_sphere(np.random.default_rng(60), n)

    three_sigma_mean = 3.0 / math.sqrt(3 * n)
    assert np.all(np.abs(images.mean(axis=0)) < three_sigma_mean)
    assert np.all(np.abs(reference.mean(axis=0)) < three_sigma_mean)

    three_sigma_bin = 3.0 * math.sqrt(0.125 * 0.875 / n)
    assert np.all(np.abs(octant_fractions(images) - 0.125) < three_sigma_bin)
    assert np.all(np.abs(octant_fractions(reference) - 0.125) < three_sigma_bin)


def so3_angles(rotations):
    return np.array([2.0 * math.acos(min(1.0, abs(r.q0))) for r in rotations])


def haar_angle_cdf(theta):
    """Integral of the Haar SO(3) angle density (1 - cos t) / pi over [0, theta]."""
    return (theta - np.sin(theta)) / math.pi


def test_uniform_angle_rotation_consumes_axis_normals_then_one_uniform():
    stream = FakeStream([0.0, 0.0, 2.0, 7.0], uniforms=[0.25, 0.9])
    rot = su2.uniform_angle_rotation(stream)
    # a quarter turn about +z; the fourth normal and second uniform stay unread
    assert np.allclose(rot.quaternion, [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)],
                       atol=1e-15)
    assert stream.values == [7.0] and stream.uniforms == [0.9]


def test_uniform_angle_rotation_reproducible():
    a = su2.uniform_angle_rotation(np.random.default_rng(123))
    b = su2.uniform_angle_rotation(np.random.default_rng(123))
    assert a == b
    assert a != su2.haar_rotation(np.random.default_rng(123))


def test_uniform_angle_rotation_angle_is_uniform_not_haar():
    n = 40_000
    edges = np.linspace(0.0, math.pi, 9)
    three_sigma_bin = 3.0 * math.sqrt(0.125 * 0.875 / n)

    rng = np.random.default_rng(31)
    uniform = so3_angles([su2.uniform_angle_rotation(rng) for _ in range(n)])
    fractions = np.histogram(uniform, bins=edges)[0] / n
    assert np.all(np.abs(fractions - 0.125) < three_sigma_bin)

    # Oracle for the other measure: Haar draws follow (1 - cos theta) / pi ...
    rng = np.random.default_rng(32)
    haar = so3_angles([su2.haar_rotation(rng) for _ in range(n)])
    haar_expected = np.diff(haar_angle_cdf(edges))
    assert np.all(np.abs(np.histogram(haar, bins=edges)[0] / n - haar_expected)
                  < 3.0 * np.sqrt(haar_expected * (1 - haar_expected) / n))
    # ... and the uniform-angle draws do not: the end bins are off by ~0.12.
    assert np.max(np.abs(fractions - haar_expected)) > 20 * three_sigma_bin


def test_uniform_angle_rotation_axis_is_uniform_on_sphere():
    n = 40_000
    rng = np.random.default_rng(33)
    quats = np.array([su2.uniform_angle_rotation(rng).quaternion for _ in range(n)])
    axes = quats[:, 1:] / np.linalg.norm(quats[:, 1:], axis=1, keepdims=True)
    reference = uniform_sphere(np.random.default_rng(34), n)
    three_sigma_bin = 3.0 * math.sqrt(0.125 * 0.875 / n)
    assert np.all(np.abs(octant_fractions(axes) - 0.125) < three_sigma_bin)
    assert np.all(np.abs(octant_fractions(reference) - 0.125) < three_sigma_bin)


def test_rotation_validates_norm():
    # The message carries the Python float |q|^2 that the check computed.
    message = "quaternion is not unit-norm: |q|^2 = 2.0"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        su2.Rotation(1.0, 1.0, 0.0, 0.0)


def test_rotation_matrix_is_special_unitary():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = su2.haar_rotation(rng).matrix()
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "direction,expected",
    [
        ((0, 0, 1), [[1, 0], [0, -1]]),
        ((1, 0, 0), [[0, 1], [1, 0]]),
        ((0, 1, 0), [[0, -1j], [1j, 0]]),
    ],
)
def test_observable_matrix_pauli_cases(direction, expected):
    assert np.array_equal(su2.observable_matrix(np.array(direction, dtype=float)),
                          np.array(expected, dtype=complex))


def test_observable_matrix_rejects_non_unit():
    message = f"direction is not unit-norm: |d|^2 = {np.float64(0.25)!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        su2.observable_matrix(np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape("shape (3,), got (2,)")):
        su2.observable_matrix(np.array([1.0, 0.0]))


def test_check_unit_norms_reports_the_vector_furthest_from_unit_norm():
    vectors = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.0, 1.2, 0.0]])
    message = f"direction is not unit-norm: |d|^2 = {np.float64(0.25)!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        su2.check_unit_norms(vectors, "direction")
    su2.check_unit_norms(vectors[:1], "direction")


def test_rotate_direction_identity_and_z_pi():
    d = np.array([0.3, -0.5, math.sqrt(1 - 0.34)])
    assert np.allclose(su2.rotate_direction(su2.Rotation.identity(), d), d, atol=1e-15)
    z_pi = su2.Rotation(0.0, 0.0, 0.0, 1.0)
    assert np.allclose(su2.rotate_direction(z_pi, su2.X_AXIS), [-1, 0, 0], atol=1e-15)


def test_rotate_direction_matches_matrix_conjugation():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rot = su2.haar_rotation(rng)
        d = uniform_sphere(rng, 1)[0]
        out = su2.rotate_direction(rot, d)
        m = rot.matrix()
        conj = m.conj().T @ su2.observable_matrix(d) @ m
        back = np.array([conj[1, 0].real, conj[1, 0].imag, conj[0, 0].real])
        assert np.allclose(out, back, atol=1e-12)
        assert abs(out @ out - 1.0) < 1e-12


def test_rotate_directions_matches_the_vector_formula_bit_for_bit():
    # The per-component form rounds as the np.sum/np.cross form does, so
    # every seeded output keeps its bits: same bytes, signed zeros included,
    # and same strides. Checked on score_frames' (B, n, 1, 4) x (B, n, m, 3)
    # broadcast (per-frame and shared bases), on the 1-D form of
    # rotate_direction and on the (N, 4) x (3,) form. The quaternions are
    # Haar draws and every one with entries from {+-0, +-1, +-sqrt(1/2)},
    # which holds the identity and the half and quarter turns about the
    # axes; the directions likewise hold the Pauli axes with zeros of
    # either sign.
    rng = np.random.default_rng(14)
    quats = rng.standard_normal((24, 3, 1, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    base = rng.standard_normal((24, 3, 5, 3))
    base /= np.linalg.norm(base, axis=-1, keepdims=True)
    grid = (0.0, -0.0, 1.0, -1.0, math.sqrt(0.5))
    grid_quats = np.array(list(itertools.product(grid, repeat=4)))
    grid_dirs = np.array(list(itertools.product(grid, repeat=3)))
    cases = [(quats, base), (quats, np.broadcast_to(base[0, 0], base.shape)),
             (grid_quats[:, None, None], np.broadcast_to(grid_dirs, (625, 1, 125, 3))),
             (grid_quats, su2.Z_AXIS), (grid_quats, -su2.X_AXIS)]
    cases += list(zip(grid_quats[::3], grid_dirs))
    cases += list(zip(quats.reshape(-1, 4), base[:, :, 0].reshape(-1, 3)))
    for q, d in cases:
        got, want = su2.rotate_directions(q, d), oracles.rotate_directions(q, d)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.tobytes() == want.tobytes()


def test_rotate_direction_preserves_inner_products():
    rng = np.random.default_rng(9)
    for _ in range(100):
        rot = su2.haar_rotation(rng)
        d, e = uniform_sphere(rng, 2)
        assert abs(
            su2.rotate_direction(rot, d) @ su2.rotate_direction(rot, e) - d @ e
        ) < 1e-12


def test_rotate_direction_composition_order():
    # Applying r1 then r2 equals the single rotation with matrix r1 @ r2.
    rng = np.random.default_rng(10)
    for _ in range(50):
        r1, r2 = su2.haar_rotation(rng), su2.haar_rotation(rng)
        d = uniform_sphere(rng, 1)[0]
        two_step = su2.rotate_direction(r2, su2.rotate_direction(r1, d))
        combined = quat_multiply(r1.quaternion, r2.quaternion)
        assert np.allclose(two_step, su2.rotate_direction(combined, d), atol=1e-12)


def test_ghz_correlator_stabilizers():
    sx, sy, sz = su2.SIGMA_X, su2.SIGMA_Y, su2.SIGMA_Z
    assert su2.ghz_correlator([sx, sx, sx]) == 1.0
    assert su2.ghz_correlator([sx, sy, sy]) == -1.0
    assert su2.ghz_correlator([sz, sz, sx]) == 0.0


def test_ghz_correlator_rejects_empty():
    with pytest.raises(ValueError):
        su2.ghz_correlator([])


def test_ghz_correlator_bounded_for_unit_observables():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        obs = [su2.observable_matrix(d) for d in uniform_sphere(rng, n)]
        assert abs(su2.ghz_correlator(obs)) <= 1.0 + 1e-12


def test_statevector_identity_rotations():
    ident = su2.Rotation.identity()
    assert abs(su2.statevector_expectation([ident] * 3,
                                           [su2.SIGMA_X] * 3) - 1.0) < 1e-12
    assert abs(su2.statevector_expectation([ident] * 2,
                                           [su2.SIGMA_Z] * 2) - 1.0) < 1e-12


def test_statevector_party_cap():
    ident = su2.Rotation.identity()
    with pytest.raises(ValueError):
        su2.statevector_expectation([ident] * 11, [su2.SIGMA_X] * 11)
    with pytest.raises(ValueError, match="counts differ"):
        su2.statevector_expectation([ident] * 3, [su2.SIGMA_X] * 2)


def test_correlators_reject_a_non_hermitian_observable():
    # <G_1| O |G_1> = O[0, 1] / 2 = i / 2: no real expectation.
    o = np.array([[0.0, 1j], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        su2.ghz_correlator([o])
    with pytest.raises(ValueError, match="non-real expectation"):
        su2.statevector_expectation([su2.Rotation.identity()], [o])


def test_statevector_agrees_with_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        dirs = uniform_sphere(rng, n)
        slow = su2.statevector_expectation(
            rots, [su2.observable_matrix(d) for d in dirs]
        )
        fast = su2.ghz_correlator(
            [su2.observable_matrix(su2.rotate_direction(r, d))
             for r, d in zip(rots, dirs)]
        )
        assert abs(slow - fast) < 1e-12
