"""Exact optimization of measurement-setting pairs for fixed rotations.

Each party owns a candidate set of base directions and must pick an ordered
pair of *distinct* bases ``(A_k, A'_k)`` (two genuinely different measurement
bases), plus a sign for the primed setting. The unprimed sign is fixed to +
by a symmetry reduction: flipping both settings of one party negates every
full-correlation term exactly once and leaves the Bell value ``|sum|``
unchanged. :func:`max_bell_value` returns the best of all ``(2 m (m-1))^n``
reduced assignments, though the scan scores only one prefix per symmetry
orbit (below).

:func:`score_frames` is the one frame-scoring kernel, called by
:func:`max_bell_value`, the Monte Carlo and the CLI sweep. It takes frames:
each party's rotation and base directions. Over any number of frames, in
chunks that bound each scan step's memory, it alone conjugates the
directions into the GHZ frame, builds the per-party option tables from
them and runs the scan.

For unit Bloch directions the GHZ correlator of ``sigma . d_1, ...,
sigma . d_n`` reduces to two per-party channels,

    E = Re prod_k (d_k[0] + i d_k[1])          (n odd)
    E = prod_k d_k[2] + Re prod_k (d_k[0] + i d_k[1])   (n even),

so the Bell sum is a contraction of the polynomial's dense coefficient
tensor with per-party option tables. A party's options are three columns
(unprimed base, primed base, primed sign), the unprimed sign being the
reduction's +, and only even n builds a z-channel table. The scan
contracts parties 1..n-1 over their options (prefixes; one per symmetry
orbit, below). The sum is
linear in the last party's two settings. Let ``w = d[0] + i d[1]`` and
``z = d[2]`` for its base directions, and ``alpha``, ``beta`` (``gamma``,
``delta``) be the prefix's coefficients of its unprimed and primed
transverse (z) channels. Then base ``i`` unprimed and base ``j`` primed
with sign ``s`` give ``a_i + s b_j``, where
``a_i = Re(alpha w_i) [+ gamma z_i]`` and ``b_j = Re(beta w_j) [+ delta z_j]``
are one real matrix product away from the prefix. The better sign scores
``|a_i| + |b_j|``, so the last party's ``K = 2 m (m-1)`` options collapse
into one m x m table per prefix with the diagonal masked (``|a_i + b_j|``
without sign flips), and the scan needs only its largest entry. Suffix and
prefix maxima over the bases find it in O(m) passes rather than m(m-1):
rounding is monotone, so ``a_i`` plus the largest ``b_j`` with ``j != i``
is row i's largest rounded entry.

Assignments are ordered lexicographically (party, then base pair, then
primed sign, + before -), and ties keep the earliest. Each scan step
reports, per frame, its earliest best prefix, that prefix's value and its
``a_i``, ``b_j``; after the loop one ``argmax`` over the steps, which
returns the first maximum, picks each frame's earliest best step. The last
party's digit is then read off the option table: the earliest
``(i, j, s)`` with the largest ``|a_i + s b_j|``, exactly the earliest best
assignment: the ``s`` that gives ``s b_j`` the sign of ``a_i`` scores
``fl(|a_i| + |b_j|)`` bit for bit, the prefix's value, and the other ``s``
no more. Results are deterministic.

Symmetry orbits. With sign flips, option ``(i, j, s)`` of party k sets
``A = d_i`` and ``A' = s d_j``. ``T_k``, ``(i, j, s) -> (j, i, -s)``, maps
``(A, A')`` to ``s (A', -A)``; ``C``, ``(i, j, s) -> (i, j, -s)`` on every
party, flips every primed sign. The scan maximizes over every option of the
last party, which ``T_n`` and ``C`` map onto themselves, so one rule covers
both: a map M of the prefix parties (``T_k`` on one of them, or ``C`` on
all) keeps every prefix's value when M, or M followed by ``T_n``, maps the
coefficient tensor to +-itself. :func:`_orbit_symmetries` applies it to the
tensor, not to a family name. Every family is ``Re(u prod_k (a_k +
i a'_k)) / 2^e``: ``T_k`` multiplies party k's factor by ``-i s``, so
``T_k T_n`` keeps ``|sum|``, and ``C`` takes ``u`` to ``conj(u)``, so
``C T_n`` multiplies ``u`` by ``-i conj(u) / u``, which is +-1 exactly for
Svetlichny and even-n MK (``C`` alone keeps ``u`` for Mermin and odd-n
MK). So every family gets T and C, and the scan scores only the
lexicographically earliest prefix of each orbit: parties 1..n-1 keep the
options with ``i < j`` and party 1 also keeps primed sign +, 2^n times
fewer prefixes. Without sign flips, or for a tensor with neither symmetry,
every prefix is scored.

The earliest-index tie rule and every bit survive because an orbit's
prefixes round to the same value. A map turns a party's table pair
``(u, p)`` into ``s (p, -u)`` or ``(u, -p)``: negations, exact. Under a
tensor symmetry the coefficients the mapped pair meets are +- the ones the
original met. A branch with a T (``T_k``, or the ``T_n`` after ``C``) also
needs ``ct``'s entries to be 0 or +-2^-e (every family's are), so that
party 1's products are exact and its two-term sums round once in either
order, whatever the BLAS kernel; each fold adds two products, and
``fl(x + y) = fl(y + x)``, ``fl(-x) = -fl(x)``. So every partial sum of
the mapped prefix is +- one of the original's, and so are the last
party's coefficients, possibly swapped between its unprimed and primed
channels. ``rows @ parts`` then gives its ``a_i``, ``b_j`` as
+- the original's ``b_i``, ``a_j`` (every column with the same kernel,
which the tests check), so its pair table is the original's transposed and
up to signs, with the same largest entry. ``tests/oracles.py`` keeps the
full-prefix scan, and the tests compare best bytes and flat indices with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import BellPolynomial
from .su2 import _unit_normal_draw, check_unit_norms, rotate_directions

# Bound on the last-party values (frames x prefixes x 2m bases, float64) of
# one scan step: at most max(_SCAN_ENTRIES, K^(n-2) 2m). A frame whose
# single party-1 option holds more is scored alone, over it.
_SCAN_ENTRIES = 1 << 17
_ROW_SIGNS = np.array([1.0, -1.0, 1.0])

_TETRA_Z_R = 2.0 * math.sqrt(2.0) / 3.0
# Base directions of the fixed candidate kinds, as read-only (m, 3) arrays.
FIXED_KINDS = {
    # The coordinate axes: the sigma_x, sigma_y and sigma_z directions.
    "pauli": np.eye(3),
    # A regular tetrahedron: pairwise dot products -1/3.
    "tetrahedron": np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / math.sqrt(3.0),
    # Vertex-up: vertex 0 on +z, vertex 1 in the x-z plane with x > 0. Under
    # Haar frames every orientation gives the same statistics; under other
    # frame measures it does not. The paper's abstract does not fix the
    # azimuth, so vertex 1 at azimuth 0 is an assumption of this package.
    "tetrahedron-z": np.array(
        [
            [0.0, 0.0, 1.0],
            [_TETRA_Z_R, 0.0, -1.0 / 3.0],
            [-0.5 * _TETRA_Z_R, 0.5 * math.sqrt(3.0) * _TETRA_Z_R, -1.0 / 3.0],
            [-0.5 * _TETRA_Z_R, -0.5 * math.sqrt(3.0) * _TETRA_Z_R, -1.0 / 3.0],
        ]
    ),
}
for _directions in FIXED_KINDS.values():
    _directions.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Base measurement directions available to every party (unsigned)."""

    kind: str
    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.ndim != 2 or d.shape[0] < 2 or d.shape[1] != 3:
            raise ValueError(f"directions must have shape (m, 3) with m >= 2, got {d.shape}")
        check_unit_norms(d, "direction")
        d.setflags(write=False)
        object.__setattr__(self, "directions", d)

    @property
    def size(self) -> int:
        return self.directions.shape[0]


def random_candidate_set(k: int, rng: np.random.Generator) -> CandidateSet:
    """``k`` independent uniform directions (normalized Gaussian triples)."""
    dirs = np.array([_unit_normal_draw(rng, 3) for _ in range(k)])
    return CandidateSet(f"random:{k}", dirs)


def inplane_candidate_set(azimuths) -> CandidateSet:
    """Directions ``(cos a, sin a, 0)`` in the equatorial plane."""
    az = np.asarray(azimuths, dtype=float)
    dirs = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)
    return CandidateSet("inplane", dirs)


def make_candidate_set(kind: str, rng: np.random.Generator | None = None) -> CandidateSet:
    """Build a candidate set from its name: a key of :data:`FIXED_KINDS` or ``random:K``."""
    if kind in FIXED_KINDS:
        return CandidateSet(kind, FIXED_KINDS[kind])
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
        k = int(kind[len("random:"):])
    except ValueError:
        k = None
    # One spelling per kind: summary.json echoes it, and merges compare it.
    if k is None or kind != f"random:{k}":
        raise ValueError(f"candidate kind {kind!r}: the size after 'random:' must be an "
                         "integer in plain digits")
    if k < 2:  # CandidateSet's rule, checked before run_experiment sizes batches from K
        raise ValueError("random candidate sets need at least 2 directions")
    return k


def assignment_count(m: int, n: int, sign_flips: bool = True) -> int:
    """Number of enumerated assignments: ``(2 m (m-1))^n`` (half without sign flips)."""
    per_party = m * (m - 1) * (2 if sign_flips else 1)
    return per_party**n


@functools.lru_cache(maxsize=None)
def _party_options(m: int, sign_flips: bool):
    """Per-party option table as (unprimed idx, primed idx, primed sign).

    Options are ordered lexicographically by (base pair, primed sign); signs
    iterate + before -. The unprimed sign is + (the symmetry reduction), so
    it has no column. Tables are cached and read-only.
    """
    signs = [1.0, -1.0] if sign_flips else [1.0]
    unprimed, primed = np.nonzero(~np.eye(m, dtype=bool))
    table = (np.repeat(unprimed, len(signs)), np.repeat(primed, len(signs)),
             np.tile(signs, len(unprimed)))
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


def _channel_tables(directions, unprimed_idx, primed_idx, primed_sign):
    """Option tables W (complex transverse) and Z (real z) of shape (..., n, 2, K).

    ``directions`` has shape ``(..., n, m, 3)`` holding each party's
    effective (frame-conjugated) base directions. ``Z`` is ``None`` for odd
    n, whose correlator has no z channel.

    Tables are stored option-major: each is gathered along a leading option
    axis into a C-contiguous (K, ..., n, 2) array and viewed as (..., n, 2, K).
    That is the layout a stack of last-axis gathers has, and the scan's
    kernels downstream are chosen by layout, so their bits depend on it.
    """
    sign = primed_sign.reshape((-1,) + (1,) * (directions.ndim - 2))

    def table(x):  # (..., n, m) -> (..., n, 2, K)
        xT = np.moveaxis(x, -1, 0)
        T = np.empty((len(unprimed_idx),) + xT.shape[1:] + (2,), x.dtype)
        T[..., 0] = xT[unprimed_idx]
        np.multiply(sign, xT[primed_idx], out=T[..., 1])
        return np.moveaxis(T, 0, -1)

    W = table(directions[..., 0] + 1j * directions[..., 1])
    return W, None if directions.shape[-3] % 2 else table(directions[..., 2])


def _fold_parties(acc, tables):
    """Contract one party per option table into ``acc``: (B, R, P) -> (B, R/2, P*K).

    ``R`` runs over the bits of the parties not yet contracted, the next
    party's bit most significant; ``P`` runs over the contracted parties'
    options, the newest least significant. The second product is added into
    the first in place: the same sums, one temporary fewer at a step's peak.
    """
    for Wk in tables:
        b, r, p = acc.shape
        acc = acc.reshape(b, 2, r // 2, p, 1)
        head = acc[:, 0] * Wk[:, 0, None, None, :]
        head += acc[:, 1] * Wk[:, 1, None, None, :]
        acc = head.reshape(b, r // 2, -1)
    return acc


def _largest_pair_entries(ab, flips):
    """Per prefix, the largest off-diagonal entry of its m x m pair table.

    ``ab`` (B, m, 2, P) holds ``a_i`` (``ab[:, i, 0]``) and ``b_j``
    (``ab[:, j, 1]``) of every prefix and is left as it is; the (B, P)
    result is ``max_{i != j} (|a_i| + |b_j|)`` with two primed signs per
    base pair (``flips`` 2) and ``max_{i != j} |a_i + b_j|`` with one, the
    larger of the ``(a, b)`` and ``(-a, -b)`` reductions. A reduction adds
    ``excl[i] = max_{j != i} b_j``, built from suffix and prefix maxima,
    to ``a_i`` and takes the largest row: O(m) passes over (B, P) arrays.
    Rounding is monotone, so ``fl(a_i + excl[i])`` is row i's largest
    rounded sum and the result equals the pairwise maximum bit for bit
    (``np.abs`` makes a zero +0.0 without sign flips).
    """
    B, m, _, P = ab.shape
    sides = np.empty((2, m, B, P))
    a, b = sides
    excl = np.empty((m, B, P))
    best = None
    for side in (np.abs,) if flips > 1 else (np.positive, np.negative):
        side(ab.transpose(2, 1, 0, 3), out=sides)
        # Suffix maxima first; then b[i] becomes the maximum of bases 0..i.
        np.copyto(excl[m - 2], b[m - 1])
        for i in range(m - 3, -1, -1):
            np.maximum(excl[i + 1], b[i + 1], out=excl[i])
        for i in range(1, m - 1):
            np.maximum(excl[i], b[i - 1], out=excl[i])
            np.maximum(b[i], b[i - 1], out=b[i])
        np.copyto(excl[m - 1], b[m - 2])
        side_best = np.add(excl, a, out=excl).max(axis=0)
        best = side_best if best is None else np.maximum(best, side_best)
    if flips == 1:
        np.abs(best, out=best)
    return best


def _orbit_symmetries(ctensor):
    """Whether the scan may keep one prefix per orbit of T and of C.

    One rule: a prefix map M, ``T_k`` on prefix party k (``(A, A') ->
    (A', -A)``, a flip of axis k up to signs) or C (every primed sign
    flipped), is granted when M, or M followed by ``T_n``, maps the
    coefficient tensor to exactly +-itself. T is granted when every
    ``T_k`` is. A branch with a T also needs every nonzero coefficient to
    be +- a power of two: T swaps a party's two channels, and their
    products keep their bits only when exact. Every family passes both:
    in the product form ``C T_n`` multiplies ``u`` by ``-i conj(u) / u``,
    +-1 exactly for Svetlichny and even-n MK, where ``C`` alone fails.
    """
    bits = np.indices(ctensor.shape)
    dyadic = np.all(np.abs(np.frexp(ctensor[ctensor != 0])[0]) == 0.5)

    def granted(axes, parity):  # M flips ``axes`` and signs entries by (-1)^parity
        maps = ((axes, parity), (axes + (-1,), parity + bits[-1]))  # M; M then T_n
        # Only a dyadic tensor may take the T_n branch; ``t`` asks it of T_k too.
        return any(np.array_equal(np.flip(ctensor, a) * (-1.0) ** p, s * ctensor)
                   for a, p in (maps if dyadic else maps[:1]) for s in (1, -1))

    t = dyadic and all(granted((k,), bits[k]) for k in range(ctensor.ndim - 1))
    return t, granted((), bits.sum(axis=0))


@functools.lru_cache(maxsize=None)
def _orbit_representatives(m: int, sign_flips: bool, n: int, coefficients: bytes):
    """Options the scan keeps, one per orbit: (party 1's, parties 2..n-1's).

    With T, options with ``uidx < pidx``; with C, party 1 keeps primed sign
    + only. Indices into the :func:`_party_options` table, ascending, so each
    kept option is its orbit's lexicographically earliest member.
    ``coefficients`` holds the bytes of the float64 (2,)*n coefficient
    tensor. Cached and read-only: the tensor test runs once per polynomial.
    """
    uidx, pidx, psign = _party_options(m, sign_flips)
    ctensor = np.frombuffer(coefficients).reshape((2,) * n)
    t, c = _orbit_symmetries(ctensor) if sign_flips else (False, False)
    keep = uidx < pidx if t else np.full(len(uidx), True)
    rest = np.flatnonzero(keep)
    first = np.flatnonzero(keep & (psign > 0)) if c else rest
    for column in (first, rest):
        column.setflags(write=False)
    return first, rest


def bell_values_over_assignments(ctensor, W, Z, last):
    """Per-batch (best value, flat assignment index) over all combinations.

    ``ctensor`` is the dense (2,)*n coefficient tensor; ``W`` (and ``Z``,
    ``None`` for odd n) have shape (B, n, 2, K), built by
    :func:`_channel_tables` from a :func:`_party_options` table (see
    :func:`score_frames`), and ``last`` (B, m, 3) holds the last party's
    effective base directions. The flat index encodes the per-party option
    indices in base K, party 1 most significant, matching the lexicographic
    enumeration order; ties resolve to the smallest index.

    Only each symmetry orbit's earliest prefix of parties 1..n-1 is scored,
    over the options of :func:`_orbit_representatives` (see the module
    docstring). The last party is scored from ``last`` rather than from its
    option tables: :func:`_largest_pair_entries` gives each prefix the
    largest entry of its m x m pair table in O(m) passes. Party-1 options
    are scanned in groups of ``_batch_frames(...) // B`` (at least one
    option per group), the one memory rule. Each step reports per frame its
    earliest best prefix, the value and the prefix's ``a_i``, ``b_j``; one
    ``argmax`` over the steps then picks the earliest best step. The last
    party's digit is the earliest option ``(i, j, s)`` of
    :func:`_party_options` with the largest ``|a_i + s b_j|``, and one
    ``np.ravel_multi_index`` over the n digits gives the flat index.
    """
    B, n, _, K = W.shape
    m = last.shape[-2]
    flips = K // (m * (m - 1))  # primed-sign options per base pair: 1 or 2
    if flips * m * (m - 1) != K or flips not in (1, 2):
        raise ValueError(f"{K} options per party do not fit {m} base directions")
    first, rest = _orbit_representatives(m, flips > 1, n, ctensor.astype(float).tobytes())
    c = 2 if Z is None else 3
    # a_i = Re(alpha w_i) [+ gamma z_i] = rows[i] . (Re alpha, Im alpha[, gamma]).
    rows = last[..., :c] * _ROW_SIGNS[:c]
    ct = ctensor.reshape(2, -1).T
    # Parties 2..n-1 keep their representative options: (n-2, B, 2, len(rest)).
    W_rest, Z_rest = (T if T is None else T[:, 1 : n - 1][..., rest].swapaxes(0, 1)
                      for T in (W, Z))
    group = max(1, min(len(first), _batch_frames(m, n, flips > 1) // B))
    frames = np.arange(B)
    steps = []  # per step: each frame's best value, its prefix and the prefix's a_i, b_j
    for lo in range(0, len(first), group):
        o1 = first[lo : lo + group]
        acc = _fold_parties(ct @ W[:, 0][..., o1], W_rest)
        parts = [acc.real, acc.imag]
        if Z is not None:
            parts.append(_fold_parties(ct @ Z[:, 0][..., o1], Z_rest))
        P = acc.shape[-1]
        ab = (rows @ np.stack(parts, axis=1).reshape(B, c, 2 * P)).reshape(B, m, 2, P)
        per_prefix = _largest_pair_entries(ab, flips)
        prefix = per_prefix.argmax(axis=1)
        steps.append((per_prefix[frames, prefix], lo * len(rest) ** (n - 2) + prefix,
                      ab[frames, :, :, prefix]))
    # argmax takes the first maximum: ties keep the earliest step.
    best, prefix, ab = map(np.stack, zip(*steps))
    step = best.argmax(axis=0)
    best, prefix, ab = best[step, frames], prefix[step, frames], ab[step, frames]
    digits = np.unravel_index(prefix, (len(first),) + (len(rest),) * (n - 2))
    uidx, pidx, psign = _party_options(m, flips > 1)
    last_digit = np.abs(ab[:, uidx, 0] + psign * ab[:, pidx, 1]).argmax(axis=1)
    return best, np.ravel_multi_index(
        (first[digits[0]], *(rest[d] for d in digits[1:]), last_digit), (K,) * n)


def _batch_frames(m: int, n: int, sign_flips: bool) -> int:
    """Frames per scan call of :func:`score_frames`, for ``m`` base directions
    and ``n`` parties: one party-1 option of a chunk holds at most
    ``K^(n-2) 2m`` last-party values per frame (fewer where the scan keeps
    one prefix per orbit), at most ``_SCAN_ENTRIES`` in all (at least one
    frame). The scan's party-1 groups follow the same rule."""
    return max(1, _SCAN_ENTRIES // (assignment_count(m, n - 2, sign_flips) * 2 * m))


def score_frames(ctensor, quats, base, sign_flips: bool = True):
    """Per-frame (best value, flat assignment index) over all reduced assignments.

    ``quats`` (B, n, 4) holds each frame's party rotations and ``base`` the
    base directions, shared (m, 3) or per frame and party (B, n, m, 3). Any
    number of frames is scored, in chunks of at most ``_batch_frames``
    frames; each chunk's directions are conjugated into the GHZ frame
    (:func:`rotate_directions`) just before its own option tables and scan
    call. The flat index counts options of the table
    ``_party_options(m, sign_flips)`` (see :func:`bell_values_over_assignments`).
    """
    B, n, _ = quats.shape
    m = base.shape[-2]
    base = np.broadcast_to(base, (B, n, m, 3))
    options = _party_options(m, sign_flips)
    batch = _batch_frames(m, n, sign_flips)

    def score(lo):
        dirs = rotate_directions(quats[lo : lo + batch, :, None], base[lo : lo + batch])
        return bell_values_over_assignments(ctensor, *_channel_tables(dirs, *options), dirs[:, -1])

    best, index = zip(*map(score, range(0, B, batch)))
    return np.concatenate(best), np.concatenate(index)


def max_bell_value(
    polynomial: BellPolynomial,
    rotations,
    candidates: CandidateSet,
    sign_flips: bool = True,
) -> OptimizationOutcome:
    """Maximize the Bell value of ``polynomial`` over all setting assignments.

    ``rotations`` are the parties' local frame rotations, scored as one
    frame: every assignment's Bell value ``|sum_t coeff_t * E(t)|``.
    """
    n = polynomial.n
    if len(rotations) != n:
        raise ValueError(f"expected {n} rotations, got {len(rotations)}")
    quats = np.stack([r.quaternion for r in rotations])[None]
    best, best_idx = score_frames(polynomial.coefficient_tensor(), quats,
                                  candidates.directions, sign_flips)
    uidx, pidx, psign = _party_options(candidates.size, sign_flips)
    digits = np.unravel_index(int(best_idx[0]), (len(uidx),) * n)
    assignment = tuple((int(uidx[o]), int(pidx[o]), float(psign[o])) for o in digits)
    return OptimizationOutcome(
        bell_value=float(best[0]),
        assignment=assignment,
        evaluations=assignment_count(candidates.size, n, sign_flips),
    )
