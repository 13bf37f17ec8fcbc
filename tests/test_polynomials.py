import math
from fractions import Fraction

import numpy as np
import pytest

from bellframes import polynomials as bp
from bellframes import su2
import oracles
from oracles import dense_coefficients, dense_mk_coefficients, evaluate

HALF = Fraction(1, 2)


def test_chsh_term_list():
    assert bp.make_polynomial("mk", 2).terms == (
        (0b00, HALF),
        (0b01, HALF),
        (0b10, HALF),
        (0b11, -HALF),
    )


def test_mk3_term_list():
    assert bp.make_polynomial("mk", 3).terms == (
        (0b001, HALF),
        (0b010, HALF),
        (0b100, HALF),
        (0b111, -HALF),
    )


def test_mk4_against_independent_expansion():
    poly = bp.make_polynomial("mk", 4)
    assert len(poly.terms) == 16
    assert {abs(c) for _, c in poly.terms} == {Fraction(1, 4)}
    dense = dense_mk_coefficients(4)
    for mask, coeff in poly.terms:
        assert float(coeff) == dense[mask]


@pytest.mark.parametrize("n", range(2, 9))
def test_mk_recursion_matches_dense_oracle(n):
    assert np.array_equal(dense_coefficients(bp.make_polynomial("mk", n)), dense_mk_coefficients(n))


def test_party_count_caps():
    for family in bp.FAMILIES:
        with pytest.raises(ValueError):
            bp.make_polynomial(family, 1)
        with pytest.raises(ValueError):
            bp.make_polynomial(family, 9)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_mermin_even_expansion(n):
    poly = bp.make_polynomial("mermin", n)
    assert len(poly.terms) == 1 << (n - 1)
    unit = Fraction(1, 2 ** (n // 2))
    for mask, coeff in poly.terms:
        p = bin(mask).count("1")
        assert p % 2 == 1
        expected = unit if p % 4 == 1 else -unit
        assert coeff == expected


@pytest.mark.parametrize("n", (3, 5, 7))
def test_mermin_equals_mk_for_odd_n(n):
    assert bp.make_polynomial("mermin", n).terms == bp.make_polynomial("mk", n).terms


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_svetlichny_equals_mk_for_even_n(n):
    assert bp.make_polynomial("svetlichny", n).terms == bp.make_polynomial("mk", n).terms


@pytest.mark.parametrize("n", (3, 5, 7))
def test_svetlichny_odd_merges_both_swap_sectors(n):
    poly = bp.make_polynomial("svetlichny", n)
    assert len(poly.terms) == 1 << n
    assert {abs(c) for _, c in poly.terms} == {Fraction(1, 2 ** ((n + 1) // 2))}
    # oracle: merge the dense MK_n and its prime swap by hand
    d = dense_mk_coefficients(n)
    full = (1 << n) - 1
    assert np.array_equal(dense_coefficients(poly),
                          [(d[mask] + d[mask ^ full]) / 2 for mask in range(1 << n)])


def test_evaluate_algebraic_maximum_case():
    mk3 = bp.make_polynomial("mk", 3)
    expectations = {0b001: 1.0, 0b010: 1.0, 0b100: 1.0, 0b111: -1.0}
    assert evaluate(mk3, expectations) == 2.0


def test_evaluate_on_unrotated_ghz_with_xy_settings():
    m3 = bp.make_polynomial("mermin", 3)

    def provider_for(a_dir, ap_dir):
        def provider(mask):
            return su2.ghz_correlator([
                su2.observable_matrix(ap_dir if (mask >> k) & 1 else a_dir)
                for k in range(3)
            ])
        return provider

    assert abs(evaluate(m3, provider_for(su2.X_AXIS, su2.Y_AXIS))) < 1e-15
    assert abs(evaluate(m3, provider_for(su2.Y_AXIS, su2.X_AXIS)) - 2.0) < 1e-15


def test_evaluate_missing_mask_raises():
    with pytest.raises(KeyError):
        evaluate(bp.make_polynomial("mk", 2), {0b00: 1.0})


def test_evaluate_is_linear_in_each_expectation():
    poly = bp.make_polynomial("svetlichny", 3)
    rng = np.random.default_rng(13)
    base = {mask: float(e) for mask, e in
            zip([m for m, _ in poly.terms], rng.uniform(-1, 1, len(poly.terms)))}
    raw = sum(float(c) * base[m] for m, c in poly.terms)
    for mask, coeff in poly.terms:
        for eps in (1e-3, -2e-3):
            bumped = dict(base)
            bumped[mask] += eps
            raw_bumped = sum(float(c) * bumped[m] for m, c in poly.terms)
            assert abs((raw_bumped - raw) - float(coeff) * eps) < 1e-15


def test_evaluate_invariant_under_party_sign_flip():
    # Flipping both settings of any one party negates every full-correlation
    # term exactly once, so all expectations flip sign and |sum| is unchanged.
    rng = np.random.default_rng(14)
    for family in bp.FAMILIES:
        poly = bp.make_polynomial(family, 4)
        base = {mask: float(e) for mask, e in
                zip([m for m, _ in poly.terms], rng.uniform(-1, 1, len(poly.terms)))}
        flipped = {mask: -e for mask, e in base.items()}
        assert abs(evaluate(poly, base) - evaluate(poly, flipped)) < 1e-14


@pytest.mark.parametrize("family", bp.FAMILIES)
@pytest.mark.parametrize("n", range(2, 9))
def test_bell_sum_in_product_form(family, n):
    # Every family is Re(u prod_k (a_k + i a'_k)) / 2^e, with (u, e) read
    # from bp.product_form and the value from the term list. The GHZ correlator is
    # Re prod_k w_k [+ prod_k z_k at even n], w = d_x + i d_y and z = d_z of
    # each party's setting, so the Bell sum is
    # Re(u/2^e (prod p_k + prod q_k)) / 2 [+ Re(u/2^e prod r_k)], with
    # p_k = w_k + i w'_k, q_k = conj(w_k) + i conj(w'_k), r_k = z_k + i z'_k.
    poly = bp.make_polynomial(family, n)
    u, e = bp.product_form(family, n)
    u /= 2**e
    rng = np.random.default_rng([n, bp.FAMILIES.index(family)])
    for _ in range(5):
        d = rng.standard_normal((n, 2, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        w, z = d[..., 0] + 1j * d[..., 1], d[..., 2]
        p, q = w[:, 0] + 1j * w[:, 1], w[:, 0].conj() + 1j * w[:, 1].conj()
        r = z[:, 0] + 1j * z[:, 1]
        s = (u * (p.prod() + q.prod())).real / 2 + (n % 2 == 0) * (u * r.prod()).real
        obs = [[su2.observable_matrix(v) for v in party] for party in d]
        value = evaluate(
            poly, lambda mask: su2.ghz_correlator([obs[k][(mask >> k) & 1] for k in range(n)]))
        assert abs(abs(s) - value) <= 1e-14, (family, n)


@pytest.mark.parametrize("family", bp.FAMILIES)
@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_phasor_is_the_term_sum(family, n):
    # u 2^(n-1-e) equals the sum over the 2^(n-1) terms, and so bounds_table's
    # GhzQuantumValue keeps the term sum's modulus bit for bit; only the sign
    # of a zero part may differ (mermin and mk at n = 5 and 7).
    g = oracles.ghz_phasor(bp.make_polynomial(family, n))
    assert bp.ghz_phasor(family, n) == g
    assert bp.bounds_table(n, family).threshold("GhzQuantumValue") == abs(g)


@pytest.mark.parametrize("family", bp.FAMILIES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_lhv_deterministic_max_is_exactly_one(family, n):
    assert bp.lhv_deterministic_max(bp.make_polynomial(family, n)) == 1.0


def test_lhv_enumeration_cap():
    with pytest.raises(ValueError):
        bp.lhv_deterministic_max(bp.make_polynomial("mk", 6))


def test_algebraic_max_values():
    assert bp.make_polynomial("mermin", 3).algebraic_max() == 2.0
    assert bp.make_polynomial("mk", 2).algebraic_max() == 2.0
    assert bp.make_polynomial("mermin", 4).algebraic_max() == 2.0
    assert bp.make_polynomial("mk", 5).algebraic_max() == 4.0


def test_bounds_table_mk3():
    table = bp.bounds_table(3, "mk")
    assert table.lhv_bound == 1.0
    assert table.threshold("GME(2)") == 1.0
    assert abs(table.threshold("GME(3)") - math.sqrt(2)) < 1e-15
    with pytest.raises(KeyError):
        table.threshold("nope")


def test_bounds_table_svetlichny():
    t3 = bp.bounds_table(3, "svetlichny")
    assert t3.threshold("Sep(1)") == 1.0
    assert abs(t3.threshold("GhzQuantumValue") - math.sqrt(2)) < 1e-15
    t5 = bp.bounds_table(5, "svetlichny")
    assert t5.threshold("Sep(1)") == 2.0
    assert abs(t5.threshold("Sep(2)") - math.sqrt(2)) < 1e-15


def test_bounds_table_mk4_biseparable():
    assert bp.bounds_table(4, "mk").threshold("GME(4)") == 2.0


def test_bounds_table_monotone():
    for n in (3, 4, 5):
        values = [v for label, v in bp.bounds_table(n, "mk").thresholds
                  if label.startswith("GME")]
        assert values == sorted(values)
        seps = [v for label, v in bp.bounds_table(n, "svetlichny").thresholds
                if label.startswith("Sep")]
        assert seps == sorted(seps, reverse=True)


def test_bounds_table_ladder_only_up_to_five_parties():
    table = bp.bounds_table(6, "mk")
    gme = [label for label, _ in table.thresholds if label.startswith("GME")]
    assert gme == ["GME(6)"]
    assert table.threshold("GME(6)") == 4.0


def test_bounds_table_even_mermin_has_no_ladder():
    labels = [label for label, _ in bp.bounds_table(4, "mermin").thresholds]
    assert labels == ["AlgebraicMax", "GhzQuantumValue"]


def test_bounds_table_rejects_unknown_family():
    with pytest.raises(ValueError):
        bp.bounds_table(3, "chsh")
