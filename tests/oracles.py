"""Slow, independent reference implementations used to check the fast paths."""

import itertools

import numpy as np

from bellframes import su2


def quat_multiply(a, b):
    """Hamilton product; composing rotations as matrix product a @ b."""
    a0, av = a[0], np.asarray(a[1:])
    b0, bv = b[0], np.asarray(b[1:])
    w = a0 * b0 - av @ bv
    v = a0 * bv + b0 * av + np.cross(av, bv)
    return su2.Rotation(float(w), float(v[0]), float(v[1]), float(v[2]))


def signed_observable(rotation, direction):
    """Observable for a possibly sign-carrying direction in the rotated frame."""
    d = np.asarray(direction, dtype=float)
    s = np.linalg.norm(d)
    return s * su2.observable_matrix(su2.rotate_direction(rotation, d / s))


def brute_force_max(poly, rotations, directions, sign_flips=True, unprimed_signs=False):
    """Reference optimizer: per-assignment evaluation through ghz_correlator."""
    n = poly.n
    eff = [[su2.rotate_direction(r, d) for d in directions] for r in rotations]
    m = len(directions)
    sp = (1.0, -1.0) if sign_flips else (1.0,)
    su_ = (1.0, -1.0) if unprimed_signs else (1.0,)
    options = [
        (i, j, a, b)
        for i in range(m)
        for j in range(m)
        if i != j
        for a in su_
        for b in sp
    ]
    best = -1.0
    for combo in itertools.product(options, repeat=n):
        obs = []
        for k, (i, j, a, b) in enumerate(combo):
            obs.append((a * su2.observable_matrix(eff[k][i]),
                        b * su2.observable_matrix(eff[k][j])))
        value = poly.evaluate(lambda mask: su2.ghz_correlator(
            [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(n)]))
        best = max(best, value)
    return best


def exhaustive_scan(ctensor, W, Z):
    """Reference scan: (best value, flat index) over every option of every party.

    Same contract as ``optimizer.bell_values_over_assignments``, including
    the base-K flat index and the earliest-index tie rule, but every option
    of the last party is scored as one more contracted party. Chunks over
    party 1's options, so memory is O(B * K^(n-1)).
    """
    B, n, _, K = W.shape
    c2 = ctensor.reshape(2, -1)

    def contract(first, tables):
        acc = np.einsum("tr,bt->br", c2, first)[:, None, :]
        for Wk in tables:
            b, p, r = acc.shape
            acc = np.einsum("bptr,bto->bpor", acc.reshape(b, p, 2, r // 2), Wk)
            acc = acc.reshape(b, -1, r // 2)
        return acc[..., 0]

    best = np.full(B, -np.inf)
    best_idx = np.zeros(B, dtype=np.int64)
    for o1 in range(K):
        vals = contract(W[:, 0, :, o1], [W[:, k] for k in range(1, n)]).real
        if n % 2 == 0:
            vals = vals + contract(Z[:, 0, :, o1], [Z[:, k] for k in range(1, n)])
        vals = np.abs(vals)
        chunk_best = vals.max(axis=1)
        improved = chunk_best > best
        best_idx[improved] = vals.argmax(axis=1)[improved] + o1 * K ** (n - 1)
        best[improved] = chunk_best[improved]
    return best, best_idx


def restricted_exact_value(poly, thetas, settings):
    """Bell value of explicit per-party settings under z-rotations, via su2."""
    from bellframes.restricted import z_rotation

    rots = [z_rotation(t) for t in thetas]
    obs = [
        (signed_observable(r, a), signed_observable(r, ap))
        for (a, ap), r in zip(settings, rots)
    ]
    n = poly.n
    return poly.evaluate(lambda mask: su2.ghz_correlator(
        [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(n)]))


def dense_mk_coefficients(n):
    """MK_n as a dense 2^n coefficient vector, built independently with numpy."""
    v = np.zeros(2)
    v[0] = 1.0
    for k in range(1, n):
        size = 1 << k
        full = size - 1
        swapped = np.array([v[mask ^ full] for mask in range(size)])
        nxt = np.zeros(2 * size)
        nxt[:size] = 0.5 * v + 0.5 * swapped
        nxt[size:] = 0.5 * v - 0.5 * swapped
        v = nxt
    return v


def uniform_sphere(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def octant_fractions(points):
    idx = (points[:, 0] > 0) * 4 + (points[:, 1] > 0) * 2 + (points[:, 2] > 0)
    return np.bincount(idx, minlength=8) / len(points)
