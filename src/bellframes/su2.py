"""Small fixed-dimension qubit algebra: rotations, observables, GHZ correlators.

Conventions used throughout the package:

* A measurement direction is a unit 3-vector ``d`` on the Bloch sphere; the
  corresponding observable is ``sigma . d`` with eigenvalues +-1.
* A local rotation is an SU(2) element stored as a unit quaternion
  ``(q0, q1, q2, q3)`` encoding the 2x2 unitary
  ``q0*I - i*(q1*sx + q2*sy + q3*sz)``, i.e. a rotation by angle ``theta``
  about axis ``n`` with ``q0 = cos(theta/2)`` and
  ``(q1, q2, q3) = sin(theta/2) * n``.
* Measuring ``sigma . d`` on the locally rotated state ``(R1 x ... x Rn)|G>``
  is the same as measuring the conjugated observable ``R^dag (sigma . d) R``
  on the unrotated GHZ state ``|G> = (|0...0> + |1...1>)/sqrt(2)``;
  :func:`rotate_direction` returns the Bloch vector of that conjugated
  observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
IMAG_TOL = 1e-12

# Largest party count accepted by the statevector oracle (4096 amplitudes).
STATEVECTOR_MAX_PARTIES = 10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _check_unit_norm2(norm2, name: str) -> None:
    """The unit-norm rule: reject ``|v|^2 = norm2`` unless it is within
    ``64 UNIT_TOL`` of 1, which a NaN is not. Plain arithmetic, so
    :class:`Rotation`'s Python float is checked without NumPy, and the message
    shows each caller's value as it computed it."""
    if not abs(norm2 - 1.0) <= 64 * UNIT_TOL:
        raise ValueError(f"{name} is not unit-norm: |{name[0]}|^2 = {norm2!r}")


def check_unit_direction(direction) -> np.ndarray:
    """Return ``direction`` as a float array, rejecting non-unit vectors."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {d.shape}")
    _check_unit_norm2(d @ d, "direction")
    return d


def check_unit_norms(vectors, name: str) -> None:
    """Reject a stack ``(..., k)`` of vectors unless every ``|v|^2`` passes
    the unit-norm rule. The vector furthest from unit norm, or the first
    NaN, is reported.
    """
    norm2 = np.einsum("...i,...i->...", vectors, vectors).reshape(-1)
    _check_unit_norm2(norm2[np.argmax(abs(norm2 - 1.0))], name)


@dataclass(frozen=True)
class Rotation:
    """An SU(2) rotation stored as a unit quaternion (see module docstring)."""

    q0: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        _check_unit_norm2(self.q0**2 + self.q1**2 + self.q2**2 + self.q3**2, "quaternion")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        """Rotation by ``angle`` about the unit ``axis``."""
        a = check_unit_direction(axis)
        h = 0.5 * angle
        s = math.sin(h)
        return cls(math.cos(h), s * a[0], s * a[1], s * a[2])

    @property
    def quaternion(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])

    def matrix(self) -> np.ndarray:
        """The 2x2 unitary ``q0*I - i*(q1*sx + q2*sy + q3*sz)``."""
        q0, q1, q2, q3 = self.q0, self.q1, self.q2, self.q3
        return np.array(
            [
                [q0 - 1j * q3, -q2 - 1j * q1],
                [q2 - 1j * q1, q0 + 1j * q3],
            ]
        )


def _unit_normal_draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """``rng.standard_normal(size)`` normalized to unit length.

    The draw is repeated only in the measure-zero event that all normals
    underflow to a zero-norm vector.
    """
    while True:
        v = np.asarray(rng.standard_normal(size), dtype=float)
        norm = math.sqrt(float(v @ v))
        if norm > 0.0:
            return v / norm


def haar_rotation(rng: np.random.Generator) -> Rotation:
    """Draw a Haar-distributed SU(2) rotation from ``rng``.

    Draws exactly four standard normals (``rng.standard_normal(4)``) and
    normalizes them to a unit quaternion, which is exactly Haar on SU(2).
    The SO(3) rotation angle then has density ``(1 - cos theta) / pi`` on
    ``[0, pi]``.
    """
    q = _unit_normal_draw(rng, 4)
    return Rotation(float(q[0]), float(q[1]), float(q[2]), float(q[3]))


def uniform_angle_rotation(rng: np.random.Generator) -> Rotation:
    """Draw a rotation with a uniform axis and a uniform rotation angle.

    Draws three standard normals (``rng.standard_normal(3)``) normalized to
    the axis, then one ``u = rng.random()`` for the angle ``theta = 2 pi u``.
    The SO(3) rotation angle ``2 acos(|q0|)`` is then uniform on ``[0, pi]``;
    unlike Haar, this measure favours small rotations.
    """
    axis = _unit_normal_draw(rng, 3)
    return Rotation.from_axis_angle(axis, 2.0 * math.pi * float(rng.random()))


def observable_matrix(direction) -> np.ndarray:
    """The 2x2 Hermitian observable ``sigma . d`` for a unit Bloch vector."""
    d = check_unit_direction(direction)
    return np.array(
        [
            [d[2], d[0] - 1j * d[1]],
            [d[0] + 1j * d[1], -d[2]],
        ]
    )


def rotate_direction(rotation: Rotation, direction) -> np.ndarray:
    """Bloch vector ``d'`` with ``sigma . d' = R^dag (sigma . d) R``.

    This is the direction whose measurement on the unrotated state is
    equivalent to measuring ``sigma . d`` on the state rotated by ``R``.
    """
    return rotate_directions(rotation.quaternion, check_unit_direction(direction))


def rotate_directions(quaternions, directions) -> np.ndarray:
    """Broadcast form of :func:`rotate_direction`.

    ``quaternions`` has shape ``(..., 4)`` and ``directions`` shape
    ``(..., 3)``; leading dimensions broadcast. Implements
    ``d' = (q0^2 - |q|^2) d + 2 q0 (d x q) + 2 (q . d) q``
    with ``q = (q1, q2, q3)``, which is the Pauli decomposition of
    ``R^dag (sigma . d) R``.

    The evaluation order is part of the bit contract (every seeded output
    goes through it): ``|q|^2 = (q1 q1 + q2 q2) + q3 q3``,
    ``q . d = ((0 + q1 d_1) + q2 d_2) + q3 d_3`` as ``np.sum`` adds (three
    negative zeros sum to +0), ``(d x q)_1 = d_2 q3 - d_3 q2`` and cyclic, and
    ``d'_k = ((q0 q0 - |q|^2) d_k + (2 q0) (d x q)_k) + (2 q . d) q_k``, one
    component at a time into a C-contiguous result.
    """
    quat = np.asarray(quaternions, dtype=float)
    d = np.asarray(directions, dtype=float)
    q0, *q = np.moveaxis(quat, -1, 0)
    d = np.moveaxis(d, -1, 0)
    s = q0 * q0 - ((q[0] * q[0] + q[1] * q[1]) + q[2] * q[2])
    qd2 = 2.0 * (((q[0] * d[0] + q[1] * d[1]) + q[2] * d[2]) + 0.0)
    q02 = 2.0 * q0
    out = np.empty(np.broadcast_shapes(quat.shape[:-1], d.shape[1:]) + (3,))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        dk = out[..., k]
        np.multiply(d[i], q[j], out=dk)
        dk -= d[j] * q[i]
        dk *= q02
        dk += s * d[k]
        dk += qd2 * q[k]
    return out


def ghz_correlator(observables) -> float:
    """``<G_n| O_1 x ... x O_n |G_n>`` for 2x2 observables ``O_k``.

    Uses the closed form
    ``0.5 * (prod m00 + prod m01 + prod m10 + prod m11)`` over the four
    matrix entries; the imaginary residue must stay below ``IMAG_TOL`` and
    is discarded (it is exactly zero for Hermitian inputs).
    """
    if len(observables) == 0:
        raise ValueError("ghz_correlator needs at least one observable")
    p00 = p01 = p10 = p11 = 1.0 + 0.0j
    for o in observables:
        p00 *= o[0, 0]
        p01 *= o[0, 1]
        p10 *= o[1, 0]
        p11 *= o[1, 1]
    value = 0.5 * (p00 + p01 + p10 + p11)
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"non-real correlator (imag={value.imag!r}); "
                         "observables are not Hermitian")
    return float(value.real)


def ghz_statevector(n: int) -> np.ndarray:
    """Amplitudes of ``(|0...0> + |1...1>)/sqrt(2)`` on ``n`` qubits."""
    if not 1 <= n <= STATEVECTOR_MAX_PARTIES:
        raise ValueError(f"party count {n} outside [1, {STATEVECTOR_MAX_PARTIES}]")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return amps


def _apply_single_qubit(matrix: np.ndarray, psi: np.ndarray, k: int, n: int) -> np.ndarray:
    out = np.tensordot(matrix, psi.reshape((2,) * n), axes=([1], [k]))
    return np.moveaxis(out, 0, k).reshape(-1)


def statevector_expectation(rotations, observables) -> float:
    """Slow oracle: build ``(R_1 x ... x R_n)|G_n>`` and take the expectation.

    Checks the closed-form path ``ghz_correlator`` + ``rotate_direction``
    by direct tensor application. Party count is capped at
    ``STATEVECTOR_MAX_PARTIES``.
    """
    n = len(rotations)
    if len(observables) != n:
        raise ValueError("rotation and observable counts differ")
    psi = ghz_statevector(n)
    for k, rot in enumerate(rotations):
        psi = _apply_single_qubit(rot.matrix(), psi, k, n)
    phi = psi
    for k, obs in enumerate(observables):
        phi = _apply_single_qubit(np.asarray(obs, dtype=complex), phi, k, n)
    value = np.vdot(psi, phi)
    if abs(value.imag) > 1e-10:
        raise ValueError(f"non-real expectation (imag={value.imag!r})")
    return float(value.real)
