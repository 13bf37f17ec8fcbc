"""Exact optimization of measurement-setting pairs for fixed rotations.

Each party owns a candidate set of base directions and must pick an ordered
pair of *distinct* bases ``(A_k, A'_k)`` (two genuinely different measurement
bases), plus a sign for the primed setting. The unprimed sign is fixed to +
by a symmetry reduction: flipping both settings of one party negates every
full-correlation term exactly once and leaves the Bell value ``|sum|``
unchanged. :func:`max_bell_value` finds the best of all ``(2 m (m-1))^n``
reduced assignments.

For unit Bloch directions the GHZ correlator of ``sigma . d_1, ...,
sigma . d_n`` reduces to two per-party channels,

    E = Re prod_k (d_k[0] + i d_k[1])          (n odd)
    E = prod_k d_k[2] + Re prod_k (d_k[0] + i d_k[1])   (n even),

so the Bell sum is a contraction of the polynomial's dense coefficient
tensor with per-party option tables. The scan contracts parties 1..n-1 over
all their options (prefixes). The sum is linear in the last party's two
settings. Let ``w = d[0] + i d[1]`` and ``z = d[2]`` for its base
directions, and ``alpha``, ``beta`` (``gamma``, ``delta``) be the prefix's
coefficients of its unprimed and primed transverse (z) channels. Then base
``i`` unprimed and base ``j`` primed with sign ``s`` give ``a_i + s b_j``,
where ``a_i = Re(alpha w_i) [+ gamma z_i]`` and
``b_j = Re(beta w_j) [+ delta z_j]`` are one real matrix product away from
the prefix. The better sign scores ``|a_i| + |b_j|``, so the last party's
``K = 2 m (m-1)`` options collapse into one m x m table per prefix with the
diagonal masked (``|a_i + b_j|`` without sign flips), and the scan needs
only its largest entry.

Assignments are ordered lexicographically (party, then base pair, then
primed sign, + before -), and ties keep the earliest: the earliest
(prefix, i, j) with the largest table entry, primed sign + unless
``a_i b_j < 0``. Results are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import BellPolynomial
from .su2 import check_unit_direction, rotate_directions

KIND_PAULI = "pauli"
KIND_TETRAHEDRON = "tetrahedron"
KIND_TETRAHEDRON_Z = "tetrahedron-z"

# Cap on the last-party values one scan step holds: frames x prefixes x 2m
# bases (float64 entries, 1 MiB).
_SCAN_ENTRIES = 1 << 17
_ROW_SIGNS = np.array([1.0, -1.0, 1.0])


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Base measurement directions available to every party (unsigned)."""

    kind: str
    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or d.shape[0] < 2:
            raise ValueError("directions must have shape (m, 3) with m >= 2")
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("candidate directions must be unit-norm")
        d.setflags(write=False)
        object.__setattr__(self, "directions", d)

    @property
    def size(self) -> int:
        return self.directions.shape[0]


def pauli_candidate_set() -> CandidateSet:
    """The three coordinate axes (sigma_x, sigma_y, sigma_z directions)."""
    return CandidateSet(KIND_PAULI, np.eye(3))


def tetrahedron_candidate_set() -> CandidateSet:
    """Four directions with pairwise dot products -1/3 (regular tetrahedron)."""
    v = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    ) / math.sqrt(3.0)
    return CandidateSet(KIND_TETRAHEDRON, v)


def tetrahedron_z_candidate_set() -> CandidateSet:
    """A regular tetrahedron with vertex 0 on +z and vertex 1 in the x-z plane, x > 0.

    Under Haar frames every orientation gives the same statistics; under
    other frame measures it does not. The paper's abstract does not fix the
    azimuth of the vertex-up tetrahedron, so putting vertex 1 at azimuth 0
    is an assumption of this package.
    """
    r = 2.0 * math.sqrt(2.0) / 3.0
    v = np.array(
        [
            [0.0, 0.0, 1.0],
            [r, 0.0, -1.0 / 3.0],
            [-0.5 * r, 0.5 * math.sqrt(3.0) * r, -1.0 / 3.0],
            [-0.5 * r, -0.5 * math.sqrt(3.0) * r, -1.0 / 3.0],
        ]
    )
    return CandidateSet(KIND_TETRAHEDRON_Z, v)


def random_candidate_set(k: int, rng: np.random.Generator) -> CandidateSet:
    """``k`` independent uniform directions (normalized Gaussian triples)."""
    if k < 2:
        raise ValueError("random candidate sets need at least 2 directions")
    dirs = np.empty((k, 3))
    for i in range(k):
        while True:
            v = rng.standard_normal(3)
            norm = np.linalg.norm(v)
            if norm > 0.0:
                break
        dirs[i] = v / norm
    return CandidateSet(f"random:{k}", dirs)


def inplane_candidate_set(azimuths) -> CandidateSet:
    """Directions ``(cos a, sin a, 0)`` in the equatorial plane."""
    az = np.asarray(azimuths, dtype=float)
    dirs = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)
    return CandidateSet("inplane", dirs)


def make_candidate_set(kind: str, rng: np.random.Generator | None = None) -> CandidateSet:
    """Build a candidate set from its name.

    Kinds: ``pauli``, ``tetrahedron``, ``tetrahedron-z`` (vertex-up, see
    :func:`tetrahedron_z_candidate_set`) or ``random:K``.
    """
    if kind == KIND_PAULI:
        return pauli_candidate_set()
    if kind == KIND_TETRAHEDRON:
        return tetrahedron_candidate_set()
    if kind == KIND_TETRAHEDRON_Z:
        return tetrahedron_z_candidate_set()
    k = _random_kind_size(kind)
    if k is not None:
        if rng is None:
            raise ValueError("random candidate sets need an rng")
        return random_candidate_set(k, rng)
    raise ValueError(f"unknown candidate kind {kind!r}")


def _random_kind_size(kind: str) -> int | None:
    """``K`` of a ``random:K`` kind name; ``None`` for any other kind."""
    if not kind.startswith("random:"):
        return None
    try:
        k = int(kind.split(":", 1)[1])
    except ValueError:
        raise ValueError(
            f"candidate kind {kind!r}: the size after 'random:' must be an integer"
        ) from None
    if k < 2:
        raise ValueError("random candidate sets need at least 2 directions")
    return k


def assignment_count(m: int, n: int, sign_flips: bool = True) -> int:
    """Number of enumerated assignments: ``(2 m (m-1))^n`` (half without sign flips)."""
    per_party = m * (m - 1) * (2 if sign_flips else 1)
    return per_party**n


@functools.lru_cache(maxsize=None)
def _party_options(m: int, sign_flips: bool, unprimed_signs: bool = False):
    """Per-party option table as (unprimed idx, primed idx, unprimed sign, primed sign).

    Options are ordered lexicographically by (base pair, unprimed sign,
    primed sign); signs iterate + before -. ``unprimed_signs`` widens the
    table to the unreduced enumeration used by soundness checks. Tables are
    cached and read-only.
    """
    primed_choices = (1.0, -1.0) if sign_flips else (1.0,)
    unprimed_choices = (1.0, -1.0) if unprimed_signs else (1.0,)
    rows = [
        (i, j, su, sp)
        for i in range(m)
        for j in range(m)
        if i != j
        for su in unprimed_choices
        for sp in primed_choices
    ]
    arr = np.array(rows)
    table = (arr[:, 0].astype(int), arr[:, 1].astype(int), arr[:, 2], arr[:, 3])
    for column in table:
        column.setflags(write=False)
    return table


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best Bell value found, the first assignment achieving it, and scan size.

    ``assignment[k] = (i, j, sign)`` means party ``k+1`` measures
    ``A = sigma . d_i`` and ``A' = sign * sigma . d_j``.
    """

    bell_value: float
    assignment: tuple[tuple[int, int, float], ...]
    evaluations: int


def enumerate_assignments(candidates: CandidateSet, n: int, sign_flips: bool = True):
    """Yield every reduced assignment in the deterministic scan order."""
    uidx, pidx, _, psign = _party_options(candidates.size, sign_flips)
    party_options = [
        (int(i), int(j), float(s)) for i, j, s in zip(uidx, pidx, psign)
    ]
    yield from itertools.product(party_options, repeat=n)


def _channel_tables(directions, unprimed_idx, primed_idx, unprimed_sign, primed_sign):
    """Option tables W (complex transverse) and Z (real z) of shape (..., n, 2, K).

    ``directions`` has shape ``(..., n, m, 3)`` holding each party's
    effective (frame-conjugated) base directions.
    """
    w = directions[..., 0] + 1j * directions[..., 1]
    z = directions[..., 2]
    W = np.stack(
        [unprimed_sign * w[..., unprimed_idx], primed_sign * w[..., primed_idx]], axis=-2
    )
    Z = np.stack(
        [unprimed_sign * z[..., unprimed_idx], primed_sign * z[..., primed_idx]], axis=-2
    )
    return W, Z


def _fold_parties(acc, tables):
    """Contract one party per option table into ``acc``: (B, R, P) -> (B, R/2, P*K).

    ``R`` runs over the bits of the parties not yet contracted, the next
    party's bit most significant; ``P`` runs over the contracted parties'
    options, the newest least significant.
    """
    for Wk in tables:
        b, r, p = acc.shape
        acc = acc.reshape(b, 2, r // 2, p, 1)
        acc = acc[:, 0] * Wk[:, 0, None, None, :] + acc[:, 1] * Wk[:, 1, None, None, :]
        acc = acc.reshape(b, r // 2, -1)
    return acc


def bell_values_over_assignments(ctensor, W, Z, last):
    """Per-batch (best value, flat assignment index) over all combinations.

    ``ctensor`` is the dense (2,)*n coefficient tensor; ``W``/``Z`` have
    shape (B, n, 2, K), built by :func:`_channel_tables` from a
    :func:`_party_options` table, and ``last`` (B, m, 3) holds the last
    party's effective base directions. The flat index encodes the per-party
    option indices in base K, party 1 most significant, matching the
    lexicographic enumeration order; ties resolve to the smallest index.

    The last party is scored from ``last`` rather than from its option
    tables (see the module docstring): a running maximum over the m(m-1)
    off-diagonal pairs gives each prefix of parties 1..n-1 the largest entry
    of its m x m pair table, and only the winning prefix's table is formed.
    The earliest (prefix, i, j) with the largest entry wins, with primed
    sign - exactly when ``a_i b_j < 0``. Party-1 options are scanned in
    groups holding at most ``_SCAN_ENTRIES`` last-party values (at least
    one option per group).
    """
    B, n, _, K = W.shape
    m = last.shape[-2]
    flips = K // (m * (m - 1))  # sign options per base pair: 1, 2 or 4
    if flips * m * (m - 1) != K or flips not in (1, 2, 4):
        raise ValueError(f"{K} options per party do not fit {m} base directions")
    c = 3 if n % 2 == 0 else 2
    # a_i = Re(alpha w_i) [+ gamma z_i] = rows[i] . (Re alpha, Im alpha[, gamma]).
    rows = last[..., :c] * _ROW_SIGNS[:c]
    ct = ctensor.reshape(2, -1).T
    group = max(1, min(K, _SCAN_ENTRIES // (B * K ** (n - 2) * 2 * m)))
    frames = np.arange(B)
    best = np.full(B, -np.inf)
    best_idx = np.zeros(B, dtype=np.int64)
    for lo in range(0, K, group):
        o1 = slice(lo, lo + group)
        acc = _fold_parties(ct @ W[:, 0, :, o1], [W[:, k] for k in range(1, n - 1)])
        parts = [acc.real, acc.imag]
        if c == 3:
            parts.append(_fold_parties(ct @ Z[:, 0, :, o1], [Z[:, k] for k in range(1, n - 1)]))
        P = acc.shape[-1]
        ab = (rows @ np.stack(parts, axis=1).reshape(B, c, 2 * P)).reshape(B, m, 2, P)
        # a[i], b[j]: base i unprimed, base j primed, copied (np.positive) or
        # sized (np.abs, with sign flips) into contiguous (B, P) arrays.
        a, b = (np.abs if flips > 1 else np.positive)(
            ab.transpose(2, 1, 0, 3), out=np.empty((2, m, B, P))
        )
        per_prefix = np.full((B, P), -np.inf)
        pair = np.empty((B, P))
        for i, j in itertools.permutations(range(m), 2):
            np.add(a[i], b[j], out=pair)
            if flips == 1:
                np.abs(pair, out=pair)
            np.maximum(per_prefix, pair, out=per_prefix)
        prefix = per_prefix.argmax(axis=1)
        chunk_best = per_prefix[frames, prefix]
        improved = chunk_best > best
        if not improved.any():
            continue
        ai, bj = a[:, frames, prefix].T, b[:, frames, prefix].T
        table = ai[:, :, None] + bj[:, None, :]
        if flips == 1:
            table = np.abs(table)
        table.reshape(B, m * m)[:, :: m + 1] = -np.inf
        i, j = np.divmod(table.reshape(B, m * m).argmax(axis=1), m)
        digit = (i * (m - 1) + j - (j > i)) * flips
        if flips > 1:
            digit += ab[frames, i, 0, prefix] * ab[frames, j, 1, prefix] < 0.0
        flat = (lo * K ** (n - 2) + prefix) * K + digit
        best_idx[improved] = flat[improved]
        best[improved] = chunk_best[improved]
    return best, best_idx


def effective_directions(rotations, candidates: CandidateSet) -> np.ndarray:
    """Each party's candidate directions conjugated into the GHZ frame; (n, m, 3)."""
    quats = np.stack([r.quaternion for r in rotations])
    return rotate_directions(quats[:, None, :], candidates.directions[None, :, :])


def max_bell_value(
    polynomial: BellPolynomial,
    rotations,
    candidates: CandidateSet,
    sign_flips: bool = True,
) -> OptimizationOutcome:
    """Maximize the Bell value of ``polynomial`` over all setting assignments.

    ``rotations`` are the parties' local frame rotations; each candidate
    direction is conjugated into the GHZ frame once, then every assignment's
    Bell value ``|sum_t coeff_t * E(t)|`` is scored.
    """
    n = polynomial.n
    if len(rotations) != n:
        raise ValueError(f"expected {n} rotations, got {len(rotations)}")
    for d in candidates.directions:
        check_unit_direction(d)
    uidx, pidx, usign, psign = _party_options(candidates.size, sign_flips)
    dirs = effective_directions(rotations, candidates)
    W, Z = _channel_tables(dirs[None, ...], uidx, pidx, usign, psign)
    best, best_idx = bell_values_over_assignments(
        polynomial.coefficient_tensor(), W, Z, dirs[None, -1]
    )
    K = len(uidx)
    digits = []
    flat = int(best_idx[0])
    for _ in range(n):
        digits.append(flat % K)
        flat //= K
    digits.reverse()
    assignment = tuple(
        (int(uidx[o]), int(pidx[o]), float(psign[o])) for o in digits
    )
    return OptimizationOutcome(
        bell_value=float(best[0]),
        assignment=assignment,
        evaluations=K**n,
    )
