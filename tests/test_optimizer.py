import math

import numpy as np
import pytest

from bellframes import polynomials as bp
from bellframes import su2
from bellframes.montecarlo import _candidate_size
from bellframes.optimizer import (
    CandidateSet,
    assignment_count,
    effective_directions,
    enumerate_assignments,
    inplane_candidate_set,
    make_candidate_set,
    max_bell_value,
)
from oracles import brute_force_max, exhaustive_scan, quat_multiply, uniform_sphere

IDENT = su2.Rotation.identity()


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


def test_make_candidate_set_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_candidate_set("cube")
    with pytest.raises(ValueError, match="must be an integer"):
        make_candidate_set("random:x", np.random.default_rng(0))


def test_candidate_set_validates_directions():
    with pytest.raises(ValueError):
        CandidateSet("bad", np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))


def test_assignment_counts():
    assert assignment_count(3, 1) == 12
    assert assignment_count(4, 3) == 13824
    assert assignment_count(3, 5) == 248832
    assert assignment_count(3, 2, sign_flips=False) == 36


def test_enumerate_assignments_counts_and_order():
    pauli = make_candidate_set("pauli")
    singles = list(enumerate_assignments(pauli, 1))
    assert len(singles) == 12
    assert singles[0] == ((0, 1, 1.0),)
    assert singles[1] == ((0, 1, -1.0),)
    pairs = list(enumerate_assignments(pauli, 2))
    assert len(pairs) == 144
    for (i, j, s), in singles:
        assert i != j
    tetra = make_candidate_set("tetrahedron")
    assert sum(1 for _ in enumerate_assignments(tetra, 3)) == 13824


def test_m3_identity_pauli_reaches_two():
    out = max_bell_value(bp.mermin_polynomial(3), [IDENT] * 3, make_candidate_set("pauli"))
    assert abs(out.bell_value - 2.0) < 1e-12
    assert out.evaluations == 12**3
    # the reported assignment must reproduce the reported value
    eff = [su2.rotate_direction(IDENT, d) for d in make_candidate_set("pauli").directions]
    obs = [(su2.observable_matrix(eff[i]), s * su2.observable_matrix(eff[j]))
           for i, j, s in out.assignment]
    value = bp.mermin_polynomial(3).evaluate(lambda mask: su2.ghz_correlator(
        [obs[k][1] if (mask >> k) & 1 else obs[k][0] for k in range(3)]))
    assert abs(value - out.bell_value) < 1e-12


def test_tilted_rotation_counterexample_value():
    axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    tilt = su2.Rotation.from_axis_angle(axis, math.atan(math.sqrt(2.0)))
    out = max_bell_value(bp.mermin_polynomial(3), [tilt] * 3, make_candidate_set("pauli"))
    assert abs(out.bell_value - 0.98) < 0.005
    assert out.bell_value < 1.0


def test_x_rotation_tetrahedron_counterexample_value():
    xrot = su2.Rotation.from_axis_angle(su2.X_AXIS, 3.0 * math.pi / 10.0)
    out = max_bell_value(
        bp.mermin_polynomial(3), [IDENT, IDENT, xrot], make_candidate_set("tetrahedron")
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
        poly = bp.svetlichny_polynomial(3)
        reduced = max_bell_value(poly, rots, make_candidate_set("pauli")).bell_value
        full = brute_force_max(poly, rots, pauli, unprimed_signs=True)
        assert abs(reduced - full) < 1e-12


def test_frame_covariance():
    # Extra rotation on party k's frame + counter-rotated candidates for that
    # party leaves the maximum unchanged.
    from bellframes.optimizer import (
        _channel_tables,
        _party_options,
        bell_values_over_assignments,
        effective_directions,
    )

    rng = np.random.default_rng(23)
    base = make_candidate_set("pauli")
    options = _party_options(base.size, sign_flips=True)

    def best(poly, per_party_dirs):
        eff = np.stack(per_party_dirs)[None, ...]
        W, Z = _channel_tables(eff, *options)
        values, _ = bell_values_over_assignments(poly.coefficient_tensor(), W, Z, eff[:, -1])
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
        counter = np.array([su2.rotate_direction(inverse, d) for d in base.directions])
        per_party = [effective_directions([r], base)[0] for r in twisted_rots]
        per_party[k] = np.array(
            [su2.rotate_direction(twisted_rots[k], d) for d in counter])
        assert abs(best(poly, per_party) - plain) < 1e-12


SCAN_KINDS = ("pauli", "tetrahedron", "tetrahedron-z",
              "random:3", "random:4", "random:5", "random:6", "random:7")
# Largest per-frame table the exhaustive reference scans here (assignments).
ORACLE_ASSIGNMENTS = 1_500_000


# Every (kind, n) whose smallest (unsigned) table the reference can scan.
SCAN_CASES = [
    (kind, n)
    for kind in SCAN_KINDS
    for n in range(2, 6)
    if assignment_count(_candidate_size(kind), n, sign_flips=False) <= ORACLE_ASSIGNMENTS
]


@pytest.mark.parametrize("kind,n", SCAN_CASES)
def test_scan_matches_exhaustive(kind, n):
    # The last-party pair table against scoring every option of every party:
    # same values and the same flat index (base K, earliest index on ties).
    # For Pauli candidates frame 0 is unrotated: every table entry is 0 or
    # +-1, so its many ties are exact and the tie rule decides them. The
    # tensor with only the all-unprimed term zeroes every primed value of
    # the last party, so its pairs tie exactly in j and in the primed sign.
    from bellframes.optimizer import (
        _channel_tables,
        _party_options,
        bell_values_over_assignments,
    )

    m = _candidate_size(kind)
    rng = np.random.default_rng([n, SCAN_KINDS.index(kind)])
    unprimed_only = np.zeros((2,) * n)
    unprimed_only[(0,) * n] = 1.0
    tensors = [bp.make_polynomial(f, n).coefficient_tensor() for f in bp.FAMILIES]
    for case, ctensor in enumerate(tensors + [unprimed_only]):
        dirs = np.empty((3, n, m, 3))
        for b in range(3):
            for k in range(n):
                cs = make_candidate_set(kind, rng)
                rot = IDENT if b == 0 and kind == "pauli" else su2.haar_rotation(rng)
                dirs[b, k] = effective_directions([rot], cs)[0]
        for sign_flips, unprimed_signs in ((True, False), (False, False), (True, True)):
            options = _party_options(m, sign_flips, unprimed_signs)
            if len(options[0]) ** n > ORACLE_ASSIGNMENTS:
                continue
            W, Z = _channel_tables(dirs, *options)
            value, index = bell_values_over_assignments(ctensor, W, Z, dirs[:, -1])
            ref_value, ref_index = exhaustive_scan(ctensor, W, Z)
            assert np.max(np.abs(value - ref_value)) <= 1e-12
            assert np.array_equal(index, ref_index), (case, sign_flips, unprimed_signs)


def test_monotone_in_candidate_directions():
    rng = np.random.default_rng(24)
    poly = bp.mermin_polynomial(3)
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
    s3 = max_bell_value(bp.svetlichny_polynomial(3), [IDENT] * 3, cs)
    assert abs(s3.bell_value - math.sqrt(2.0)) < 1e-9
    mk4 = max_bell_value(bp.mk_polynomial(4), [IDENT] * 4, cs)
    assert abs(mk4.bell_value - 2.0**1.5) < 1e-9


def test_sign_flips_off_restricts_search():
    rng = np.random.default_rng(26)
    poly = bp.mermin_polynomial(3)
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
        max_bell_value(bp.mermin_polynomial(3), [IDENT] * 2, make_candidate_set("pauli"))
