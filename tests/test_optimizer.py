import hashlib
import itertools
import math

import numpy as np
import pytest

from bellframes import polynomials as bp
from bellframes import su2
from bellframes.optimizer import (
    _SCAN_ENTRIES,
    CandidateSet,
    _batch_frames,
    _channel_tables,
    _orbit_representatives,
    _orbit_symmetries,
    _party_options,
    assignment_count,
    inplane_candidate_set,
    make_candidate_set,
    max_bell_value,
    random_candidate_set,
    score_frames,
)
from oracles import (
    brute_force_max,
    channel_tables,
    evaluate,
    exhaustive_scan,
    full_prefix_scan,
    option_rows,
    pair_table_max,
    quat_multiply,
    uniform_sphere,
)

IDENT = su2.Rotation.identity()
RANDOM_KIND_MISSPELLINGS = ("random:x", "random: 7", "random:07", "random:+7", "random:1_0",
                            "random:7\n")


def test_pauli_candidate_set():
    cs = make_candidate_set("pauli")
    assert cs.size == 3
    dots = cs.directions @ cs.directions.T
    assert np.allclose(dots, np.eye(3), atol=1e-15)


def test_tetrahedron_candidate_set_geometry():
    cs = make_candidate_set("tetrahedron")
    assert cs.size == 4
    dots = cs.directions @ cs.directions.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / 3.0, atol=1e-12)
    assert np.allclose(np.diag(dots), 1.0, atol=1e-12)


def test_tetrahedron_z_candidate_set_geometry():
    cs = make_candidate_set("tetrahedron-z")
    assert cs.kind == "tetrahedron-z"
    assert cs.size == 4
    dots = cs.directions @ cs.directions.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / 3.0, atol=1e-12)
    assert np.allclose(np.diag(dots), 1.0, atol=1e-12)
    assert np.array_equal(cs.directions[0], [0.0, 0.0, 1.0])
    assert cs.directions[1][1] == 0.0 and cs.directions[1][0] > 0.0


def test_random_candidate_set_reproducible():
    a = make_candidate_set("random:7", np.random.default_rng(5))
    b = make_candidate_set("random:7", np.random.default_rng(5))
    assert a.size == 7
    assert np.array_equal(a.directions, b.directions)
    assert np.allclose(np.linalg.norm(a.directions, axis=1), 1.0, atol=1e-12)


def test_random_candidate_set_needs_two_directions():
    with pytest.raises(ValueError):
        make_candidate_set("random:1", np.random.default_rng(0))
    with pytest.raises(ValueError, match="m >= 2"):
        random_candidate_set(1, np.random.default_rng(0))


def test_make_candidate_set_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_candidate_set("cube")
    with pytest.raises(ValueError, match="need an rng"):
        make_candidate_set("random:3")
    # Spellings int() accepts but that would not name the kind random:7 or random:10.
    for kind in RANDOM_KIND_MISSPELLINGS:
        with pytest.raises(ValueError, match="must be an integer"):
            make_candidate_set(kind, np.random.default_rng(0))


@pytest.mark.parametrize("build", [
    lambda: CandidateSet("bad", np.array([[math.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])),
    lambda: inplane_candidate_set([math.nan, 0.0]),
    lambda: su2.Rotation(math.nan, 0.0, 0.0, 0.0),
    lambda: su2.Rotation.from_axis_angle([1.0, 0.0, 0.0], math.nan),
    lambda: su2.check_unit_direction([math.nan, 0.0, 0.0]),
    lambda: su2.observable_matrix([0.0, math.nan, 0.0]),
], ids=["CandidateSet", "inplane_candidate_set", "Rotation", "from_axis_angle",
        "check_unit_direction", "observable_matrix"])
def test_nan_fails_the_unit_norm_rule(build):
    # |v|^2 = nan is not within the tolerance of 1. Let through, a NaN
    # candidate set makes max_bell_value return -inf.
    with pytest.raises(ValueError, match="not unit-norm"):
        build()


def test_candidate_set_validates_directions():
    with pytest.raises(ValueError):
        CandidateSet("bad", np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    # |d|^2 = 1 + 1e-10 breaks su2's unit rule, which max_bell_value relies on.
    with pytest.raises(ValueError):
        CandidateSet("bad", np.eye(3) * (1 + 5e-11))
    with pytest.raises(ValueError, match="m >= 2"):
        CandidateSet("one", np.eye(3)[:1])
    for shape in [(3,), (2, 2), (2, 4)]:
        with pytest.raises(ValueError, match=r"shape \(m, 3\)"):
            CandidateSet("bad", np.ones(shape) / math.sqrt(shape[-1]))


def test_assignment_counts():
    assert assignment_count(3, 1) == 12
    assert assignment_count(4, 3) == 13824
    assert assignment_count(3, 5) == 248832
    assert assignment_count(3, 2, sign_flips=False) == 36


@pytest.mark.parametrize("sign_flips", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_batch_frames_bound_one_party1_option_to_scan_entries(m, sign_flips):
    for n in range(2, 9):
        # Last-party values of one party-1 option of one frame.
        per_frame = assignment_count(m, n - 2, sign_flips) * 2 * m
        batch = _batch_frames(m, n, sign_flips)
        if per_frame <= _SCAN_ENTRIES:
            assert batch * per_frame <= _SCAN_ENTRIES < (batch + 1) * per_frame
        else:
            assert batch == 1


@pytest.mark.parametrize("sign_flips", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_party_options_match_oracle_rows(m, sign_flips):
    # Scan order, option count and i != j, row for row against the oracle.
    columns = _party_options(m, sign_flips)
    rows = option_rows(m, sign_flips)
    assert len(rows) == assignment_count(m, 1, sign_flips)
    # The unprimed sign is the reduction's constant +, so it has no column.
    assert all(su == 1.0 for _, _, su, _ in rows)
    assert [tuple(map(float, row)) for row in zip(*columns)] == [
        (float(i), float(j), sp) for i, j, _, sp in rows
    ]
    assert all(i != j for i, j, _, _ in rows)


def test_m3_identity_pauli_reaches_two():
    out = max_bell_value(bp.make_polynomial("mermin", 3), [IDENT] * 3, make_candidate_set("pauli"))
    assert abs(out.bell_value - 2.0) < 1e-12
    assert out.evaluations == 12**3
    # the reported assignment must reproduce the reported value
    eff = [su2.rotate_direction(IDENT, d) for d in make_candidate_set("pauli").directions]
    obs = [(su2.observable_matrix(eff[i]), s * su2.observable_matrix(eff[j]))
           for i, j, s in out.assignment]
    value = evaluate(bp.make_polynomial("mermin", 3), lambda mask: su2.ghz_correlator(
        [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(3)]))
    assert abs(value - out.bell_value) < 1e-12


def test_tilted_rotation_counterexample_value():
    axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    tilt = su2.Rotation.from_axis_angle(axis, math.atan(math.sqrt(2.0)))
    out = max_bell_value(bp.make_polynomial("mermin", 3), [tilt] * 3, make_candidate_set("pauli"))
    assert abs(out.bell_value - 0.98) < 0.005
    assert out.bell_value < 1.0


def test_x_rotation_tetrahedron_counterexample_value():
    xrot = su2.Rotation.from_axis_angle(su2.X_AXIS, 3.0 * math.pi / 10.0)
    out = max_bell_value(
        bp.make_polynomial("mermin", 3), [IDENT, IDENT, xrot], make_candidate_set("tetrahedron")
    )
    # regression constant computed by three independent evaluation paths
    assert abs(out.bell_value - 0.9225296148718236) < 1e-9
    assert out.bell_value < 1.0


def test_matches_brute_force_reference():
    rng = np.random.default_rng(21)
    pauli = make_candidate_set("pauli").directions
    for trial in range(4):
        n = 2 + trial % 2
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        for family in bp.FAMILIES:
            poly = bp.make_polynomial(family, n)
            fast = max_bell_value(poly, rots, make_candidate_set("pauli")).bell_value
            slow = brute_force_max(poly, rots, pauli)
            assert abs(fast - slow) < 1e-12


def test_symmetry_reduction_sound():
    # The reduced scan (unprimed sign fixed to +) equals the full signed scan.
    rng = np.random.default_rng(22)
    pauli = make_candidate_set("pauli").directions
    for _ in range(3):
        rots = [su2.haar_rotation(rng) for _ in range(3)]
        poly = bp.make_polynomial("svetlichny", 3)
        reduced = max_bell_value(poly, rots, make_candidate_set("pauli")).bell_value
        full = brute_force_max(poly, rots, pauli, unprimed_signs=True)
        assert abs(reduced - full) < 1e-12


def test_frame_covariance():
    # Extra rotation on party k's frame + counter-rotated candidates for that
    # party leaves the maximum unchanged.
    rng = np.random.default_rng(23)
    base = make_candidate_set("pauli")

    def best(poly, rots, per_party_base):
        quats = np.stack([r.quaternion for r in rots])[None]
        values, _ = score_frames(poly.coefficient_tensor(), quats, per_party_base[None])
        return float(values[0])

    for trial in range(10):
        n = 3
        poly = bp.make_polynomial(bp.FAMILIES[trial % 3], n)
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        k = trial % n
        extra = su2.haar_rotation(rng)
        inverse = su2.Rotation(extra.q0, -extra.q1, -extra.q2, -extra.q3)

        plain = max_bell_value(poly, rots, base).bell_value
        twisted_rots = list(rots)
        twisted_rots[k] = quat_multiply(extra.quaternion, rots[k].quaternion)
        per_party = np.stack([base.directions] * n)
        per_party[k] = [su2.rotate_direction(inverse, d) for d in base.directions]
        assert abs(best(poly, twisted_rots, per_party) - plain) < 1e-12


SCAN_KINDS = ("pauli", "tetrahedron", "tetrahedron-z",
              "random:3", "random:4", "random:5", "random:6", "random:7")
# Largest per-frame table the exhaustive reference scans here (assignments).
ORACLE_ASSIGNMENTS = 1_500_000


# Every (kind, n) whose smallest (unsigned) table the reference can scan.
SCAN_CASES = [
    (kind, n)
    for kind in SCAN_KINDS
    for n in range(2, 6)
    if assignment_count(make_candidate_set(kind, np.random.default_rng(0)).size, n,
                        sign_flips=False) <= ORACLE_ASSIGNMENTS
]


@pytest.mark.parametrize("kind,n", SCAN_CASES)
def test_scan_matches_exhaustive(monkeypatch, kind, n):
    # The last-party pair table against scoring every option of every party:
    # same values and the same flat index (base K, earliest index on ties).
    # For Pauli candidates frame 0 is unrotated: every table entry is 0 or
    # +-1, so its many ties are exact and the tie rule decides them. The
    # tensor with only the all-unprimed term zeroes every primed value of
    # the last party, so its pairs tie exactly in j and in the primed sign.
    # Each case is scanned twice: as sized, and bounded to one party-1
    # option per step, so that ties are also decided across steps.
    from bellframes import optimizer
    from bellframes.optimizer import _channel_tables, _party_options

    m = make_candidate_set(kind, np.random.default_rng(0)).size
    rng = np.random.default_rng([n, SCAN_KINDS.index(kind)])
    unprimed_only = np.zeros((2,) * n)
    unprimed_only[(0,) * n] = 1.0
    tensors = [bp.make_polynomial(f, n).coefficient_tensor() for f in bp.FAMILIES]
    for case, ctensor in enumerate(tensors + [unprimed_only]):
        quats = np.empty((3, n, 4))
        base = np.empty((3, n, m, 3))
        for b in range(3):
            for k in range(n):
                base[b, k] = make_candidate_set(kind, rng).directions
                rot = IDENT if b == 0 and kind == "pauli" else su2.haar_rotation(rng)
                quats[b, k] = rot.quaternion
        dirs = su2.rotate_directions(quats[:, :, None], base)
        for sign_flips in (True, False):
            if assignment_count(m, n, sign_flips) > ORACLE_ASSIGNMENTS:
                continue
            W, Z = _channel_tables(dirs, *_party_options(m, sign_flips))
            ref_value, ref_index = exhaustive_scan(ctensor, W, Z)
            for bounded in (False, True):
                with monkeypatch.context() as patch:
                    if bounded:
                        patch.setattr(optimizer, "_SCAN_ENTRIES", 1)
                    value, index = score_frames(ctensor, quats, base, sign_flips)
                assert np.max(np.abs(value - ref_value)) <= 1e-12
                assert np.array_equal(index, ref_index), (case, sign_flips, bounded)


# (kind, n) of the full-prefix comparison: random:7 at n <= 4, random:3 at
# n = 5, where random:7's full scan would take seconds per frame.
ORBIT_CASES = [(kind, n) for n in range(2, 6)
               for kind in ("pauli", "tetrahedron", "tetrahedron-z",
                            "random:7" if n < 5 else "random:3")]


@pytest.mark.parametrize("kind,n", ORBIT_CASES)
def test_orbit_scan_matches_the_full_prefix_scan(monkeypatch, kind, n):
    # Scoring one prefix per symmetry orbit gives the best bytes and flat
    # indices of scoring every prefix, with the full scan's tie rule: frame 0
    # is unrotated (Pauli ties exactly), frame 1 gives every party one
    # rotation, and the unprimed-only tensor ties in every primed setting.
    # A random dyadic tensor has neither symmetry, and 0.7 MK (T-symmetric,
    # not dyadic) keeps no T, so the full scan stays.
    # Scored with _SCAN_ENTRIES at its default, at 64 and at 1.
    from bellframes import optimizer

    rng = np.random.default_rng([n, ORBIT_CASES.index((kind, n))])
    base = np.array([[make_candidate_set(kind, rng).directions for _ in range(n)]
                     for _ in range(4)])
    quats = rng.standard_normal((4, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    quats[0] = [1.0, 0.0, 0.0, 0.0]
    quats[1] = quats[1, 0].copy()
    unprimed_only = np.zeros((2,) * n)
    unprimed_only[(0,) * n] = 1.0
    dyadic = rng.integers(-4, 5, (2,) * n) / 8.0
    tensors = [bp.make_polynomial(f, n).coefficient_tensor() for f in bp.FAMILIES]
    for case, ctensor in enumerate(tensors + [unprimed_only, dyadic, 0.7 * tensors[1]]):
        for sign_flips, entries in itertools.product((True, False), (_SCAN_ENTRIES, 64, 1)):
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_SCAN_ENTRIES", entries)
                best, index = score_frames(ctensor, quats, base, sign_flips)
                patch.setattr(optimizer, "bell_values_over_assignments", full_prefix_scan)
                ref_best, ref_index = score_frames(ctensor, quats, base, sign_flips)
            assert best.tobytes() == ref_best.tobytes(), (case, sign_flips, entries)
            assert np.array_equal(index, ref_index), (case, sign_flips, entries)


def test_orbit_symmetries_read_off_the_coefficient_tensor():
    # One rule, M or M T_n maps the tensor to +-itself, grants T (M = T_k)
    # and C (M = every primed sign flipped) to every family.
    for family in bp.FAMILIES:
        for n in range(2, 9):
            assert _orbit_symmetries(bp.make_polynomial(family, n).coefficient_tensor()) == (
                True, True), (family, n)
    # The all-unprimed term alone: C holds (it has no primed setting), T not.
    unprimed_only = np.zeros((2,) * 3)
    unprimed_only[0, 0, 0] = 1.0
    assert _orbit_symmetries(unprimed_only) == (False, True)
    dyadic = np.random.default_rng(5).integers(-4, 5, (2,) * 4) / 8.0
    assert _orbit_symmetries(dyadic) == (False, False)
    # Symmetric, but T would swap inexact products: C alone holds for
    # Mermin-3, and Svetlichny-3 and MK-4 need C T_n, which a T bars.
    mermin3 = bp.make_polynomial("mermin", 3).coefficient_tensor()
    assert _orbit_symmetries(0.7 * mermin3) == (False, True)
    for scaled in (bp.make_polynomial("svetlichny", 3), bp.make_polynomial("mk", 4)):
        assert _orbit_symmetries(0.7 * scaled.coefficient_tensor()) == (False, False)


def test_orbit_representatives_keep_one_option_per_orbit():
    # m = 4, n = 4: with T, parties 2..n-1 keep the options with i < j; with
    # C, party 1 keeps those with primed sign + too. Without sign flips, all.
    uidx, pidx, psign = _party_options(4, True)
    everything, plus = np.arange(len(uidx)), np.flatnonzero(psign > 0)
    i_lt_j = np.flatnonzero(uidx < pidx)
    mermin, svetlichny = (bp.make_polynomial(f, 4).coefficient_tensor()
                          for f in ("mermin", "svetlichny"))
    unprimed_only = np.zeros((2,) * 4)
    unprimed_only[(0,) * 4] = 1.0
    unsigned = np.arange(len(uidx) // 2)
    cases = [(mermin, True, np.intersect1d(i_lt_j, plus), i_lt_j),
             (svetlichny, True, np.intersect1d(i_lt_j, plus), i_lt_j),
             (unprimed_only, True, plus, everything),
             (mermin, False, unsigned, unsigned)]
    for ctensor, sign_flips, first, rest in cases:
        got = _orbit_representatives(4, sign_flips, 4, ctensor.tobytes())
        assert [r.tolist() for r in got] == [first.tolist(), rest.tolist()]


# sha256 over score_frames' best bytes and int64 flat indices, for a seeded
# frame set: 3 families x n = 2..5 x pauli, tetrahedron, random:3 and
# random:7 (n <= 4 only) x sign flips on and off, scored with _SCAN_ENTRIES
# at its default and at 64 (one party-1 option per step). Frame 0 is
# unrotated, so the fixed kinds' exact ties are decided by the tie rule. The
# digest follows the float rounding of the numpy/BLAS build.
SCORE_FRAMES_DIGEST = "1b23639b9255399110bf4760bcab35d0b1c2c355780e4a01cf8951a5d71ecd20"


def test_score_frames_matches_pinned_digest(monkeypatch):
    from bellframes import optimizer

    kinds = ("pauli", "tetrahedron", "random:3", "random:7")
    digest = hashlib.sha256()
    for entries in (_SCAN_ENTRIES, 64):
        monkeypatch.setattr(optimizer, "_SCAN_ENTRIES", entries)
        for family in bp.FAMILIES:
            for n in range(2, 6):
                ctensor = bp.make_polynomial(family, n).coefficient_tensor()
                for kind in kinds[: 4 if n < 5 else 3]:
                    rng = np.random.default_rng([n, kinds.index(kind)])
                    base = np.array([[make_candidate_set(kind, rng).directions
                                      for _ in range(n)] for _ in range(3)])
                    quats = rng.standard_normal((3, n, 4))
                    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
                    quats[0] = [1.0, 0.0, 0.0, 0.0]
                    for sign_flips in (True, False):
                        best, index = score_frames(ctensor, quats, base, sign_flips)
                        digest.update(best.tobytes())
                        digest.update(index.astype(np.int64).tobytes())
    assert digest.hexdigest() == SCORE_FRAMES_DIGEST


@pytest.mark.parametrize("sign_flips", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_score_frames_hands_the_scan_a_z_table_only_at_even_n(monkeypatch, n, sign_flips):
    # perfbench/tracing.py counts frames, n and K from the shape of W.
    from bellframes import optimizer

    scan = optimizer.bell_values_over_assignments
    shapes = []

    def spy(ctensor, W, Z, last):
        shapes.append((W.shape, None if Z is None else Z.shape))
        return scan(ctensor, W, Z, last)

    monkeypatch.setattr(optimizer, "bell_values_over_assignments", spy)
    rng = np.random.default_rng(n)
    quats = np.stack([su2.haar_rotation(rng).quaternion for _ in range(n)])
    score_frames(bp.make_polynomial("mermin", n).coefficient_tensor(), np.stack([quats] * 2),
                 make_candidate_set("pauli").directions, sign_flips)
    table = (2, n, 2, assignment_count(3, 1, sign_flips))
    assert shapes == [(table, None if n % 2 else table)]


@pytest.mark.parametrize("sign_flips", [True, False])
def test_score_frames_scans_at_most_a_batch_of_frames_per_call(monkeypatch, sign_flips):
    # score_frames owns the batching rule: given more frames than
    # _batch_frames, it hands the scan chunks of at most that many, and the
    # result is that of scoring each chunk alone, bit for bit.
    from bellframes import optimizer

    monkeypatch.setattr(optimizer, "_SCAN_ENTRIES",
                        2 * assignment_count(3, 1, sign_flips) * 2 * 3)
    batch = optimizer._batch_frames(3, 3, sign_flips)
    assert batch == 2
    scan = optimizer.bell_values_over_assignments
    chunks = []

    def spy(ctensor, W, Z, last):
        chunks.append(W.shape[0])
        return scan(ctensor, W, Z, last)

    rng = np.random.default_rng(7)
    frames = [([su2.haar_rotation(rng).quaternion for _ in range(3)],
               [make_candidate_set("random:3", rng).directions] * 3) for _ in range(7)]
    quats, base = (np.array(part) for part in zip(*frames))
    ctensor = bp.make_polynomial("svetlichny", 3).coefficient_tensor()
    alone = [score_frames(ctensor, quats[lo : lo + batch], base[lo : lo + batch], sign_flips)
             for lo in range(0, 7, 2)]
    monkeypatch.setattr(optimizer, "bell_values_over_assignments", spy)
    best, index = score_frames(ctensor, quats, base, sign_flips)
    assert chunks == [2, 2, 2, 1]
    assert best.tobytes() == np.concatenate([b for b, _ in alone]).tobytes()
    assert index.tobytes() == np.concatenate([i for _, i in alone]).tobytes()


@pytest.mark.parametrize("sign_flips", [True, False])
def test_score_frames_shared_base_equals_it_given_per_frame(monkeypatch, sign_flips):
    # A shared (m, 3) base scores as that base given to every party of every
    # frame, (B, n, m, 3), bit for bit: in one chunk and in one-frame chunks.
    from bellframes import optimizer

    rng = np.random.default_rng(11)
    quats = rng.standard_normal((5, 3, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    base = make_candidate_set("tetrahedron").directions
    ctensor = bp.make_polynomial("mk", 3).coefficient_tensor()
    for entries in (_SCAN_ENTRIES, 1):
        monkeypatch.setattr(optimizer, "_SCAN_ENTRIES", entries)
        shared = score_frames(ctensor, quats, base, sign_flips)
        per_frame = score_frames(ctensor, quats, np.tile(base, (5, 3, 1, 1)), sign_flips)
        assert shared[0].tobytes() == per_frame[0].tobytes()
        assert shared[1].tobytes() == per_frame[1].tobytes()


def test_rounded_away_primed_term_keeps_the_earliest_option():
    # S = E(A_1, A_2) + 1e-20 E(A_1, A'_2) on in-plane x-z directions, where
    # E is the dot product: party 1 unprimed x, party 2 bases x and
    # (-0.6, 0, -0.8) give a_0 = 1 and b_1 = -6e-21, which rounding absorbs,
    # so party 2's options (0, 1, +) and (0, 1, -) both score 1.0. The
    # earliest of them wins, as in the exhaustive scan.
    from bellframes.optimizer import _channel_tables

    ctensor = np.array([[1.0, 1e-20], [0.0, 0.0]])
    dirs = np.array([[[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                      [[1.0, 0.0, 0.0], [-0.6, 0.0, -0.8]]]])
    unrotated = np.array([[[1.0, 0.0, 0.0, 0.0]] * 2])
    for sign_flips in (True, False):
        ref_value, ref_index = exhaustive_scan(
            ctensor, *_channel_tables(dirs, *_party_options(2, sign_flips)))
        value, index = score_frames(ctensor, unrotated, dirs, sign_flips)
        assert value.tolist() == ref_value.tolist() == [1.0]
        assert index.tolist() == ref_index.tolist(), sign_flips


def _pair_inputs(m):
    """(name, ab) inputs of shape (B, m, 2, P) for the pair-table reduction."""
    rng = np.random.default_rng(m)
    ab = rng.standard_normal((3, m, 2, 5))
    duplicated = ab.copy()
    duplicated[:, 1:] = duplicated[:, :1]  # every base the same: ties in i and j
    small = rng.integers(-2, 3, size=(3, m, 2, 5)).astype(float)  # many equal sums
    tied = ab.copy()
    tied[:, :, 1] = 0.5
    tied[:, [0, m - 1], 1] = 2.0  # the largest b_j at two bases
    mixed_zero = np.zeros((3, m, 2, 5))
    mixed_zero[..., ::2] = -0.0
    return [
        ("random", ab),
        ("duplicated", duplicated),
        ("small integers", small),
        ("equal maxima", tied),
        ("+0.0", np.zeros((3, m, 2, 5))),
        ("-0.0", np.full((3, m, 2, 5), -0.0)),
        ("mixed zeros", mixed_zero),
    ]


@pytest.mark.parametrize("sign_flips", [True, False])
@pytest.mark.parametrize("m", [2, 3, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_channel_tables_match_the_stacked_gathers(n, m, sign_flips):
    # The option-major tables hold the bytes of a stack of last-axis gathers
    # (signed zeros included) and have its strides. The strides are part of
    # the contract: the scan's matmuls and folds pick their kernels by memory
    # layout, and C-contiguous tables with equal values changed the last bit
    # of the orbit scan against full_prefix_scan (a random dyadic tensor at
    # _SCAN_ENTRIES = 64, tetrahedron-z at n = 4).
    rng = np.random.default_rng([n, m, sign_flips])
    quats = rng.standard_normal((5, n, 1, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    base = np.array([[random_candidate_set(m, rng).directions for _ in range(n)]
                     for _ in range(5)])
    dirs = su2.rotate_directions(quats, base)
    dirs[0] = rng.choice([0.0, -0.0, 1.0, -1.0], dirs[0].shape)
    options = _party_options(m, sign_flips)
    got, want = _channel_tables(dirs, *options), channel_tables(dirs, *options)
    assert (got[1] is None) == (want[1] is None) == (n % 2 == 1)
    for table, ref in zip(got, want):
        if ref is not None:
            assert (table.shape, table.strides, table.dtype) == (ref.shape, ref.strides, ref.dtype)
            assert table.tobytes() == ref.tobytes()


@pytest.mark.parametrize("sign_flips", [True, False])
@pytest.mark.parametrize("kind", ["pauli", "tetrahedron", "random:7"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_channel_tables_layout_sets_speed_never_values(n, kind, sign_flips):
    # score_frames hands _channel_tables the (B, n, m, 3) view of option-major
    # component planes, (3, m, B, n) in memory. The tables it returns have
    # the bytes and strides they have for C-contiguous directions: the
    # input's layout changes how fast the gathers stream, never the tables.
    rng = np.random.default_rng([n, len(kind), sign_flips])
    quats = rng.standard_normal((4, n, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    base = np.array([[make_candidate_set(kind, rng).directions for _ in range(n)]
                     for _ in range(4)])
    planar = su2.rotate_directions(quats[None], base.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)
    contiguous = np.ascontiguousarray(planar)
    assert not planar.flags.c_contiguous
    options = _party_options(base.shape[-2], sign_flips)
    got, want = _channel_tables(planar, *options), _channel_tables(contiguous, *options)
    for table, ref in zip(got, want):
        if ref is not None:
            assert (table.shape, table.strides, table.dtype) == (ref.shape, ref.strides, ref.dtype)
            assert table.tobytes() == ref.tobytes()


def test_score_frames_bits_do_not_depend_on_the_rotation_layout(monkeypatch):
    # The same frames scored with the conjugated directions made C-contiguous
    # give the same best values and flat indices, byte for byte: in whole
    # chunks and, at _SCAN_ENTRIES = 64, in many small chunks and steps.
    from bellframes import optimizer

    def scores():
        out = []
        for family, n, kind in itertools.product(bp.FAMILIES, range(2, 6), ("pauli", "random:5")):
            rng = np.random.default_rng([n, len(kind)])
            ctensor = bp.make_polynomial(family, n).coefficient_tensor()
            base = np.array([[make_candidate_set(kind, rng).directions for _ in range(n)]
                             for _ in range(5)])
            quats = rng.standard_normal((5, n, 4))
            quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
            quats[0] = [1.0, 0.0, 0.0, 0.0]
            for sign_flips in (True, False):
                best, index = score_frames(ctensor, quats, base, sign_flips)
                out.append(best.tobytes() + index.astype(np.int64).tobytes())
        return out

    rotate = optimizer.rotate_directions
    for entries in (_SCAN_ENTRIES, 64):
        monkeypatch.setattr(optimizer, "_SCAN_ENTRIES", entries)
        planar = scores()
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "rotate_directions",
                          lambda quats, base: np.ascontiguousarray(rotate(quats, base)))
            assert scores() == planar


@pytest.mark.parametrize("flips", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_largest_pair_entries_match_pair_loop(m, flips):
    # Bytes, not np.array_equal: that calls -0.0 equal to +0.0, and the
    # pair loop gives +0.0 for a prefix whose every entry is zero.
    from bellframes.optimizer import _largest_pair_entries

    for name, ab in _pair_inputs(m):
        kept = ab.copy()
        got = _largest_pair_entries(ab, flips)
        assert got.tobytes() == pair_table_max(kept, flips).tobytes(), name
        assert ab.tobytes() == kept.tobytes(), name  # the winner's signs are read from ab


def test_monotone_in_candidate_directions():
    rng = np.random.default_rng(24)
    poly = bp.make_polynomial("mermin", 3)
    for _ in range(5):
        rots = [su2.haar_rotation(rng) for _ in range(3)]
        small = CandidateSet("small", uniform_sphere(rng, 3))
        grown = CandidateSet("grown", np.vstack([small.directions, uniform_sphere(rng, 2)]))
        assert (max_bell_value(poly, rots, grown).bell_value
                >= max_bell_value(poly, rots, small).bell_value - 1e-12)


def test_never_exceeds_algebraic_max():
    rng = np.random.default_rng(25)
    for family in bp.FAMILIES:
        poly = bp.make_polynomial(family, 3)
        for _ in range(10):
            rots = [su2.haar_rotation(rng) for _ in range(3)]
            out = max_bell_value(poly, rots, make_candidate_set("tetrahedron"))
            assert out.bell_value <= poly.algebraic_max() + 1e-12


def test_inplane_optimal_settings():
    azimuths = [0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0]
    cs = inplane_candidate_set(azimuths)
    s3 = max_bell_value(bp.make_polynomial("svetlichny", 3), [IDENT] * 3, cs)
    assert abs(s3.bell_value - math.sqrt(2.0)) < 1e-9
    mk4 = max_bell_value(bp.make_polynomial("mk", 4), [IDENT] * 4, cs)
    assert abs(mk4.bell_value - 2.0**1.5) < 1e-9


def test_sign_flips_off_restricts_search():
    rng = np.random.default_rng(26)
    poly = bp.make_polynomial("mermin", 3)
    rots = [su2.haar_rotation(rng) for _ in range(3)]
    cs = make_candidate_set("pauli")
    on = max_bell_value(poly, rots, cs, sign_flips=True)
    off = max_bell_value(poly, rots, cs, sign_flips=False)
    assert off.evaluations == 6**3
    assert on.bell_value >= off.bell_value - 1e-12
    assert abs(off.bell_value - brute_force_max(
        poly, rots, cs.directions, sign_flips=False)) < 1e-12


def test_rotation_count_must_match():
    with pytest.raises(ValueError):
        max_bell_value(bp.make_polynomial("mermin", 3), [IDENT] * 2, make_candidate_set("pauli"))


def test_scan_rejects_tables_it_cannot_fold():
    # The scan folds one or two primed signs per base pair; the unreduced
    # table (both unprimed signs too) is for the exhaustive reference only.
    from bellframes.optimizer import bell_values_over_assignments
    from oracles import unreduced_tables

    dirs = np.array([[np.eye(3)] * 2])
    W, Z = unreduced_tables(dirs)
    with pytest.raises(ValueError, match="do not fit"):
        bell_values_over_assignments(bp.make_polynomial("mk", 2).coefficient_tensor(), W, Z,
                                     dirs[:, -1])
