"""Closed-form Bell values when every frame rotation is about the z-axis.

With party ``i`` rotated by ``Rz(theta_i) = cos(theta_i/2) I - i
sin(theta_i/2) sigma_z``, in-plane measurements only see the total angle
``Theta = sum_i theta_i``. Two fixed two-setting strategies then have
closed-form Bell values:

* ``primary``: every party measures ``A = sigma_x``, ``A' = sigma_y``; a
  term with ``p`` primed settings has expectation
  ``cos(Theta - p*pi/2) = Re(e^{i Theta} (-i)^p)``.
* ``swapped``: party 1 changes to ``A_1 = sigma_y``, ``A'_1 = -sigma_x``
  and every other party measures as in ``primary``, for every family and
  every ``n``.

Summing the terms ``c_t`` of a polynomial therefore reduces every family
and every ``n`` to one complex number, its GHZ phasor

    g = sum_t c_t (-i)^{|t|}        (|t| = primed settings in term t),

and one formula: with ``z = e^{i Theta} g``,

    primary = |Re z|,    swapped = |Im z|.

The primary value is the sum of the per-term expectations. Changing party 1
multiplies its two settings' factors ``1, -i`` by ``-i``, hence every term,
which turns ``Re`` into ``Im``. The term coefficients ``c_t = Re(u i^{|t|}) /
2^e`` of :func:`~bellframes.polynomials.product_form` give ``g`` in closed
form (:func:`~bellframes.polynomials.ghz_phasor`), since ``Re(u i^p) (-i)^p =
(u + conj(u) (-1)^p) / 2`` and ``sum_p C(n, p) (-1)^p = 0``:

    g = sum_p C(n, p) Re(u i^p) (-i)^p / 2^e = u 2^(n-1) / 2^e.

The two strategies are the two quadratures of ``e^{i Theta} g``, so their
squares sum to ``|g|^2`` and the better one is at least ``|g|/sqrt(2)`` at
every ``Theta``; ``|g|`` is the GHZ quantum value of the family. The phase
of ``g`` sets the familiar shapes: a multiple of ``pi/2`` for Mermin and
odd-n MK (values ``|g| |sin Theta|`` and ``|g| |cos Theta|``), an odd
multiple of ``pi/4`` for Svetlichny and even-n MK (values
``|g| |sin Theta +- cos Theta| / sqrt 2``).
The better of the two strategies therefore certifies, at every ``Theta``:
lhv violation and full genuine multipartite entanglement for odd-n Mermin
(``>= 2^(n/2-1)``), complete nonseparability for odd-n Svetlichny
(``>= 2^((n-3)/2)``), and the biseparable bound for even-n MK/Svetlichny
(``>= 2^(n/2-1)``). Equality holds only on a measure-zero set of angles,
where the package-wide strict crossing convention reports "bound met, not
exceeded".
"""

from __future__ import annotations

import math

import numpy as np

from .polynomials import ghz_phasor, product_form
from .su2 import Rotation, X_AXIS, Y_AXIS

STRATEGY_PRIMARY = "primary"
STRATEGY_SWAPPED = "swapped"
STRATEGIES = (STRATEGY_PRIMARY, STRATEGY_SWAPPED)


def z_rotation(theta: float) -> Rotation:
    """Rotation by ``theta`` about the z-axis."""
    return Rotation(math.cos(theta / 2.0), 0.0, 0.0, math.sin(theta / 2.0))


def strategy_value(family: str, n: int, theta_total):
    """Closed-form Bell values ``(primary, swapped) = (|Re z|, |Im z|)`` of one
    family, ``z = e^{i Theta} g`` with ``g`` the GHZ phasor (module docstring).

    ``theta_total`` is one angle, giving two floats, or an array of angles,
    giving two arrays of its shape, bit for bit the per-angle floats: the
    cosines and sines come from one :func:`math.cos` and :func:`math.sin` pass.
    """
    g = ghz_phasor(family, n)
    theta = np.asarray(theta_total, dtype=float)
    angles = theta.ravel().tolist()
    c = np.fromiter(map(math.cos, angles), float, len(angles)).reshape(theta.shape)
    s = np.fromiter(map(math.sin, angles), float, len(angles)).reshape(theta.shape)
    primary = np.abs(g.real * c - g.imag * s)
    swapped = np.abs(g.real * s + g.imag * c)
    return (primary, swapped) if theta.ndim else (float(primary), float(swapped))


def best_value(family: str, n: int, theta_total):
    """Best of the two strategies for one family, per angle as :func:`strategy_value`."""
    value = np.maximum(*strategy_value(family, n, theta_total))
    return value if np.ndim(theta_total) else float(value)


def strategy_settings(family: str, n: int, strategy: str):
    """Per-party ``(A, A')`` Bloch directions realizing a strategy.

    Signs are folded into the direction (``-sigma_x`` becomes ``-x``), so the
    closed forms can be checked through the exact correlator machinery. A
    family or party count that :func:`strategy_value` rejects raises here too.
    """
    product_form(family, n)  # raises ValueError as ghz_phasor does
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    first = (X_AXIS, Y_AXIS) if strategy == STRATEGY_PRIMARY else (Y_AXIS, -X_AXIS)
    return (first,) + tuple((X_AXIS, Y_AXIS) for _ in range(n - 1))
