"""Slow, independent reference implementations used to check the fast paths."""

import hashlib
import itertools
import math
import struct

import numpy as np

from bellframes import optimizer, su2
from bellframes.montecarlo import CROSSING_TOL, FRAME_HAAR, sample_generator
from bellframes.optimizer import make_candidate_set, random_candidate_set


def quat_multiply(a, b):
    """Hamilton product; composing rotations as matrix product a @ b."""
    a0, av = a[0], np.asarray(a[1:])
    b0, bv = b[0], np.asarray(b[1:])
    w = a0 * b0 - av @ bv
    v = a0 * bv + b0 * av + np.cross(av, bv)
    return su2.Rotation(float(w), float(v[0]), float(v[1]), float(v[2]))


def evaluate(poly, expectations):
    """Bell value ``|sum_t coeff_t * E(mask_t)|`` of ``poly``, term by term.

    ``expectations`` maps a prime mask to the expectation value of the
    corresponding product of settings, either as a mapping or a callable.
    """
    get = expectations if callable(expectations) else expectations.__getitem__
    total = 0.0
    for mask, coeff in poly.terms:
        total += float(coeff) * get(mask)
    return abs(total)


def signed_observable(rotation, direction):
    """Observable for a possibly sign-carrying direction in the rotated frame."""
    d = np.asarray(direction, dtype=float)
    s = np.linalg.norm(d)
    return s * su2.observable_matrix(su2.rotate_direction(rotation, d / s))


def rotate_directions(quaternions, directions):
    """Reference for ``su2.rotate_directions``: the same formula in vector
    form, ``np.sum`` for ``|q|^2`` and ``q . d`` and ``np.cross`` for
    ``d x q``, whose rounding the per-component form keeps bit for bit."""
    quat = np.asarray(quaternions, dtype=float)
    d = np.asarray(directions, dtype=float)
    q0 = quat[..., :1]
    qv = quat[..., 1:]
    qq = np.sum(qv * qv, axis=-1, keepdims=True)
    qd = np.sum(qv * d, axis=-1, keepdims=True)
    return (q0 * q0 - qq) * d + 2.0 * q0 * np.cross(d, qv) + 2.0 * qd * qv


def channel_tables(directions, unprimed_idx, primed_idx, primed_sign):
    """Reference for ``optimizer._channel_tables``: each table a stack of
    last-axis gathers, whose values and strides the option-major form keeps."""
    w = directions[..., 0] + 1j * directions[..., 1]
    W = np.stack([w[..., unprimed_idx], primed_sign * w[..., primed_idx]], axis=-2)
    if directions.shape[-3] % 2:
        return W, None
    z = directions[..., 2]
    return W, np.stack([z[..., unprimed_idx], primed_sign * z[..., primed_idx]], axis=-2)


def sample_key(seed, sample_index):
    """One sample's Philox key by the contract's rule, one sha256 per call:
    the first 16 bytes of ``sha256(b"bellframes:<seed>:<s>")`` as two
    little-endian 64-bit words."""
    digest = hashlib.sha256(b"bellframes:%d:%d" % (seed, sample_index)).digest()
    return list(struct.unpack("<2Q", digest[:16]))


def option_rows(m, sign_flips=True, unprimed_signs=False):
    """Per-party options (i, j, unprimed sign, primed sign) in scan order.

    Signs iterate + before -; ``unprimed_signs`` keeps both unprimed signs
    (the enumeration before the symmetry reduction).
    """
    sp = (1.0, -1.0) if sign_flips else (1.0,)
    su_ = (1.0, -1.0) if unprimed_signs else (1.0,)
    return [
        (i, j, a, b)
        for i in range(m)
        for j in range(m)
        if i != j
        for a in su_
        for b in sp
    ]


def unreduced_tables(directions):
    """Signed option tables ``(W, Z)`` of shape (..., n, 2, 4 m (m-1)) for
    ``directions`` (..., n, m, 3): every option with both signs of both
    settings, in :func:`option_rows` order, laid out as
    ``optimizer._channel_tables`` lays out the reduced ones (``Z`` at every
    n). Only :func:`exhaustive_scan` scores them."""
    rows = np.array(option_rows(directions.shape[-2], unprimed_signs=True))
    idx, signs = rows[:, :2].astype(int).T, rows[:, 2:].T
    w = directions[..., 0] + 1j * directions[..., 1]
    return signs * w[..., idx], signs * directions[..., 2][..., idx]


def brute_force_max(poly, rotations, directions, sign_flips=True, unprimed_signs=False):
    """Reference optimizer: per-assignment evaluation through ghz_correlator."""
    n = poly.n
    eff = [[su2.rotate_direction(r, d) for d in directions] for r in rotations]
    options = option_rows(len(directions), sign_flips, unprimed_signs)
    best = -1.0
    for combo in itertools.product(options, repeat=n):
        obs = []
        for k, (i, j, a, b) in enumerate(combo):
            obs.append((a * su2.observable_matrix(eff[k][i]),
                        b * su2.observable_matrix(eff[k][j])))
        value = evaluate(poly, lambda mask: su2.ghz_correlator(
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


def prefix_values(ctensor, W, Z, last, o1=slice(None)):
    """One step of :func:`full_prefix_scan`: the (B, P) values of the
    prefixes whose party-1 option is in ``o1`` (every option of parties
    2..n-1, the last party maximized out) and their ``a_i``, ``b_j``
    (B, m, 2, P), with ``optimizer``'s folds, matmuls and pair table."""
    B, n, _, K = W.shape
    m = last.shape[-2]
    c = 2 if Z is None else 3
    rows = last[..., :c] * optimizer._ROW_SIGNS[:c]
    ct = ctensor.reshape(2, -1).T
    acc = optimizer._fold_parties(ct @ W[:, 0, :, o1], [W[:, k] for k in range(1, n - 1)])
    parts = [acc.real, acc.imag]
    if Z is not None:
        parts.append(optimizer._fold_parties(ct @ Z[:, 0, :, o1],
                                             [Z[:, k] for k in range(1, n - 1)]))
    P = acc.shape[-1]
    ab = (rows @ np.stack(parts, axis=1).reshape(B, c, 2 * P)).reshape(B, m, 2, P)
    return optimizer._largest_pair_entries(ab, K // (m * (m - 1))), ab


def full_prefix_scan(ctensor, W, Z, last):
    """Reference for ``optimizer.bell_values_over_assignments`` that scores
    every prefix, not one per symmetry orbit: same arguments, groups of
    party-1 options, tie rule and winner decode."""
    B, n, _, K = W.shape
    m = last.shape[-2]
    flips = K // (m * (m - 1))
    group = max(1, min(K, optimizer._batch_frames(m, n, flips > 1) // B))
    frames = np.arange(B)
    best = np.full(B, -np.inf)
    best_prefix = np.zeros(B, dtype=np.int64)
    best_ab = np.zeros((B, m, 2))
    for lo in range(0, K, group):
        per_prefix, ab = prefix_values(ctensor, W, Z, last, slice(lo, lo + group))
        prefix = per_prefix.argmax(axis=1)
        chunk_best = per_prefix[frames, prefix]
        improved = chunk_best > best
        best[improved] = chunk_best[improved]
        best_prefix[improved] = lo * K ** (n - 2) + prefix[improved]
        best_ab[improved] = ab[frames, :, :, prefix][improved]
    uidx, pidx, psign = optimizer._party_options(m, flips > 1)
    score = np.abs(best_ab[:, uidx, 0] + psign * best_ab[:, pidx, 1])
    return best, best_prefix * K + score.argmax(axis=1)


def pair_table_max(ab, flips):
    """Reference for ``optimizer._largest_pair_entries``: one pass per pair.

    ``ab`` (B, m, 2, P); the (B, P) maximum over ordered pairs ``i != j``
    of ``|a_i| + |b_j|`` (``flips`` 2) or ``|a_i + b_j|`` (``flips`` 1).
    """
    best = np.full((ab.shape[0], ab.shape[3]), -np.inf)
    for i, j in itertools.permutations(range(ab.shape[1]), 2):
        a, b = ab[:, i, 0], ab[:, j, 1]
        best = np.maximum(best, np.abs(a) + np.abs(b) if flips > 1 else np.abs(a + b))
    return best


def restricted_term_expectation(theta_total, primed_count):
    """Product expectation ``cos(Theta - p*pi/2)`` of a term with ``p``
    primed settings under the primary z-rotation strategy (``A = sigma_x``,
    ``A' = sigma_y``), ``Theta`` the total angle: the per-term form that
    ``restricted``'s GHZ phasor sums."""
    return math.cos(float(theta_total) - primed_count * math.pi / 2.0)


def restricted_exact_value(poly, thetas, settings):
    """Bell value of explicit per-party settings under z-rotations, via su2."""
    from bellframes.restricted import z_rotation

    rots = [z_rotation(t) for t in thetas]
    obs = [
        (signed_observable(r, a), signed_observable(r, ap))
        for (a, ap), r in zip(settings, rots)
    ]
    n = poly.n
    return evaluate(poly, lambda mask: su2.ghz_correlator(
        [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(n)]))


def ghz_phasor(poly):
    """``g = sum_t c_t (-i)^{|t|}`` of ``poly``, term by term, ``|t|`` the
    primed settings of term t; the dyadic coefficients make the float sum exact."""
    powers = (1, -1j, -1, 1j)  # (-i)^p for p = 0..3
    return sum((float(c) * powers[mask.bit_count() % 4] for mask, c in poly.terms), 0j)


def ghz_quantum_value(family, n):
    """The GHZ state's value of each family, from the paper's closed forms."""
    if family == "mk":
        return 2.0 ** ((n - 1) / 2)
    if family == "mermin":
        return 2.0 ** ((n - 1) / 2) if n % 2 == 1 else 2.0 ** (n / 2 - 1)
    if family == "svetlichny":
        return 2.0 ** ((n - 1) / 2) if n % 2 == 0 else 2.0 ** ((n - 2) / 2)
    raise ValueError(family)


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


def dense_coefficients(poly):
    """A polynomial's coefficients as a dense 2^n vector indexed by setting mask."""
    v = np.zeros(1 << poly.n)
    for mask, coeff in poly.terms:
        v[mask] = float(coeff)
    return v


def uniform_sphere(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def octant_fractions(points):
    idx = (points[:, 0] > 0) * 4 + (points[:, 1] > 0) * 2 + (points[:, 2] > 0)
    return np.bincount(idx, minlength=8) / len(points)


def sample_frames(config, m, s):
    """Sample ``s``'s frame quaternions ``(n, 4)`` and base directions
    (``(n, m, 3)``), replayed on the scalar stream: a generator of its own,
    one call per draw, and each party's random set drawn direction by
    direction. A fixed kind's directions are its candidate set's."""
    rng = sample_generator(config.seed, s)
    draw = su2.haar_rotation if config.frame_measure == FRAME_HAAR else su2.uniform_angle_rotation
    quats = np.array([draw(rng).quaternion for _ in range(config.n)])
    if not config.candidates.startswith("random:"):
        return quats, make_candidate_set(config.candidates).directions
    return quats, np.array([random_candidate_set(m, rng).directions for _ in range(config.n)])


def crossing_prob(values, bound):
    """The share of ``values`` strictly above ``bound + CROSSING_TOL``, as the
    mean of one boolean mask per bound."""
    return float(np.mean(values > bound + CROSSING_TOL))


def histogram_counts(values, edges):
    """Counts of ``values`` per bin ``[edges[k], edges[k+1])``, by ``np.digitize``
    and ``np.bincount``; values outside the edges go to the first or last bin."""
    nbins = len(edges) - 1
    return np.bincount(np.clip(np.digitize(values, edges) - 1, 0, nbins - 1), minlength=nbins)


def csv_rows(header, rows):
    """A CSV document by one ``%`` over rows of Python numbers, each column of
    one type: the first row's types give the line format (``%.17g`` per
    float, ``%d`` per int)."""
    head = ",".join(header) + "\n"
    if not rows:
        return head
    line = ",".join("%.17g" if isinstance(v, float) else "%d" for v in rows[0]) + "\n"
    return head + (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def hist_csv(result):
    """``hist.csv``'s text as one ``%`` over the result's rows, each edge
    formatted once per row it appears in."""
    return csv_rows(("bin_lo", "bin_hi", "count"), result.histogram)
