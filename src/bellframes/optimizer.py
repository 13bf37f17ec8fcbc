"""Brute-force optimization of measurement-setting pairs for fixed rotations.

Each party owns a candidate set of base directions and must pick an ordered
pair of *distinct* bases ``(A_k, A'_k)`` (two genuinely different measurement
bases), plus a sign for the primed setting. The unprimed sign is fixed to +
by a symmetry reduction: flipping both settings of one party negates every
full-correlation term exactly once and leaves the Bell value ``|sum|``
unchanged. :func:`max_bell_value` scans all ``(2 m (m-1))^n`` reduced
assignments and reports the best one.

The scan is vectorized. For unit Bloch directions the GHZ correlator of
``sigma . d_1, ..., sigma . d_n`` reduces to two per-party channels,

    E = Re prod_k (d_k[0] + i d_k[1])          (n odd)
    E = prod_k d_k[2] + Re prod_k (d_k[0] + i d_k[1])   (n even),

so the Bell sum over every assignment combination is a contraction of the
polynomial's dense coefficient tensor with per-party option tables. The scan
runs in lexicographic assignment order (party, then base pair, then primed
sign) and ties keep the earliest assignment, making results deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import BellPolynomial
from .su2 import check_unit_direction, rotate_directions

KIND_PAULI = "pauli"
KIND_TETRAHEDRON = "tetrahedron"
KIND_TETRAHEDRON_Z = "tetrahedron-z"


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


def _party_options(m: int, sign_flips: bool, unprimed_signs: bool = False):
    """Per-party option table as (unprimed idx, primed idx, unprimed sign, primed sign).

    Options are ordered lexicographically by (base pair, unprimed sign,
    primed sign); signs iterate + before -. ``unprimed_signs`` widens the
    table to the unreduced enumeration used by soundness checks.
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
    return (
        arr[:, 0].astype(int),
        arr[:, 1].astype(int),
        arr[:, 2],
        arr[:, 3],
    )


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


def _contract_remaining(acc, tables):
    """Fold parties 2..n into ``acc``: (B, P, R) -> (B, P * K^(n-1), 1)."""
    for Wk in tables:
        b, p, r = acc.shape
        acc = np.einsum("bptr,bto->bpor", acc.reshape(b, p, 2, r // 2), Wk)
        acc = acc.reshape(b, -1, r // 2)
    return acc


def bell_values_over_assignments(ctensor, W, Z):
    """Per-batch (best value, flat assignment index) over all combinations.

    ``ctensor`` is the dense (2,)*n coefficient tensor; ``W``/``Z`` have
    shape (B, n, 2, K). The flat index encodes the per-party option indices
    in base K, party 1 most significant, matching the lexicographic
    enumeration order; ties resolve to the smallest index. The scan chunks
    over party 1's options so memory stays at O(B * K^(n-1)).
    """
    B, n, _, K = W.shape
    even = n % 2 == 0
    c2 = ctensor.reshape(2, -1)
    best = np.full(B, -np.inf)
    best_idx = np.zeros(B, dtype=np.int64)
    block = K ** (n - 1)
    for o1 in range(K):
        accw = np.einsum("tr,bt->br", c2, W[:, 0, :, o1])[:, None, :]
        accw = _contract_remaining(accw, [W[:, k] for k in range(1, n)])
        if even:
            accz = np.einsum("tr,bt->br", c2, Z[:, 0, :, o1])[:, None, :]
            accz = _contract_remaining(accz, [Z[:, k] for k in range(1, n)])
            vals = np.abs(accw[..., 0].real + accz[..., 0])
        else:
            vals = np.abs(accw[..., 0].real)
        chunk_best = vals.max(axis=1)
        chunk_arg = vals.argmax(axis=1)
        improved = chunk_best > best
        best_idx[improved] = chunk_arg[improved] + o1 * block
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
    best, best_idx = bell_values_over_assignments(polynomial.coefficient_tensor(), W, Z)
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
