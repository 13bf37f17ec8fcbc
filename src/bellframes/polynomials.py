"""Mermin, Mermin-Klyshko (MK) and Svetlichny polynomials and their bounds.

A full-correlation Bell polynomial on ``n`` parties is stored as a sorted
tuple of ``(prime_mask, coefficient)`` terms. Bit ``k-1`` of ``prime_mask``
is set when party ``k`` contributes its primed setting ``A'_k``; every party
contributes exactly one operator to every term. Coefficients are exact
dyadic rationals (``fractions.Fraction``), so construction is drift-free and
polynomial-identity checks are exact; they are converted to floats only when
a polynomial is scored or bounded.

Every family comes from one rule. Write ``a_t`` for the product that takes
``A'_k`` where bit ``k-1`` of ``t`` is set and ``A_k`` elsewhere, and ``|t|``
for its number of primed settings; then ``prod_k (a_k + i a'_k) =
sum_t i^{|t|} a_t``. Each family is ``Re(u prod_k (a_k + i a'_k)) / 2^e``
for a small Gaussian integer ``u`` and an exponent ``e``
(:func:`product_form`), so term ``t`` has coefficient
``Re(u i^{|t|}) / 2^e``: it depends only on ``|t|``. For MK_n,
``u = (1 - i)^(n-1)`` is the two-channel recursion
``MK_k = (MK_{k-1} (a_k + a'_k) + MK'_{k-1} (a_k - a'_k)) / 2`` in closed
form.

All three families are normalized so the local-hidden-variable bound is 1,
which :func:`lhv_deterministic_max` verifies by exhaustive enumeration of
deterministic strategies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FAMILY_MERMIN = "mermin"
FAMILY_MK = "mk"
FAMILY_SVETLICHNY = "svetlichny"
FAMILIES = (FAMILY_MERMIN, FAMILY_MK, FAMILY_SVETLICHNY)

# Polynomial construction cap; term count 2^(n-1) stays trivial up to here.
MAX_PARTIES = 8
# Exhaustive lhv enumeration cap (4^n deterministic strategies).
MAX_LHV_PARTIES = 5
# The fine-grained GME(m) ladder for MK is only offered up to here; beyond,
# only the biseparable bound 2^(n/2-1) certifying GME(n) is exposed.
MAX_GME_LADDER_PARTIES = 5

LHV_BOUND = 1.0


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class BellPolynomial:
    """A full-correlation Bell polynomial in canonical (merged, sorted) form."""

    n: int
    family: str
    terms: tuple[tuple[int, Fraction], ...]

    def algebraic_max(self) -> float:
        """Sum of absolute coefficients: the largest conceivable Bell value."""
        return float(sum(abs(c) for _, c in self.terms))

    def coefficient_tensor(self) -> np.ndarray:
        """Dense coefficients with shape ``(2,)*n``; axis k indexes party k+1's prime bit."""
        dense = np.zeros((2,) * self.n)
        for mask, coeff in self.terms:
            idx = tuple((mask >> k) & 1 for k in range(self.n))
            dense[idx] = float(coeff)
        return dense

    def term_strings(self) -> list[str]:
        """Human-readable terms like ``+1/2 a1 a2'``, in mask order."""
        out = []
        for mask, coeff in self.terms:
            ops = " ".join(
                f"a{k + 1}'" if (mask >> k) & 1 else f"a{k + 1}" for k in range(self.n)
            )
            sign = "+" if coeff > 0 else "-"
            out.append(f"{sign}{abs(coeff)} {ops}")
        return out


def product_form(family: str, n: int) -> tuple[complex, int]:
    """``(u, e)`` of the ``family`` polynomial on ``n`` parties, which is
    ``Re(u prod_k (a_k + i a'_k)) / 2^e`` (module docstring).

    MK_n and odd-n Mermin: ``u = (1 - i)^(n-1)``, ``e = n - 1``. Svetlichny:
    ``u = (1 - i)^e`` with ``e = n`` for odd ``n``, ``n - 1`` for even ``n``.
    Even-n Mermin: ``u = -i``, ``e = n/2``.
    """
    _check_family(family)
    if not 2 <= n <= MAX_PARTIES:
        raise ValueError(f"party count {n} outside [2, {MAX_PARTIES}]")
    if family == FAMILY_MERMIN and n % 2 == 0:
        return -1j, n // 2
    e = n if family == FAMILY_SVETLICHNY and n % 2 == 1 else n - 1
    return (1 - 1j) ** e, e


def ghz_phasor(family: str, n: int) -> complex:
    """``g = sum_t c_t (-i)^{|t|} = u 2^(n-1-e)``, ``|t|`` the primed settings of
    term t and ``(u, e)`` the :func:`product_form`; ``|g|`` is the GHZ quantum
    value (:mod:`bellframes.restricted`). The product is exact, though its
    zero part may be ``-0`` where the term sum gives ``+0``.
    """
    u, e = product_form(family, n)
    return u * 2.0 ** (n - 1 - e)


@functools.lru_cache(maxsize=None)
def make_polynomial(family: str, n: int) -> BellPolynomial:
    """The ``family`` polynomial on ``n`` parties, from its :func:`product_form`.

    MK_2 is the CHSH polynomial. At odd ``n`` Mermin's term list is MK_n's,
    and the Svetlichny polynomial is ``S_n = (MK_n + MK'_n)/2``, where
    ``MK'_n`` is MK_n with every party's primed and unprimed settings
    exchanged; at even ``n``, S_n is MK_n. Polynomials are cached; one is
    frozen and holds tuples, so callers share it.
    """
    u, e = product_form(family, n)
    # Re(u i^p) for p = 0..3: u is a small Gaussian integer, so the floats are exact.
    by_p = [Fraction(int((u * 1j**p).real), 2**e) for p in range(4)]
    terms = ((mask, by_p[mask.bit_count() % 4]) for mask in range(1 << n))
    return BellPolynomial(n, family, tuple((mask, c) for mask, c in terms if c))


def lhv_deterministic_max(p: BellPolynomial) -> float:
    """True lhv bound by exhaustive enumeration of deterministic strategies.

    Scans all assignments ``a_k, a'_k in {-1, +1}`` (the extreme points of
    the local model) and returns the maximum ``|sum coeff * product|``. The
    accumulation is exact rational arithmetic, so the result is exact.
    """
    if p.n > MAX_LHV_PARTIES:
        raise ValueError(f"lhv enumeration capped at {MAX_LHV_PARTIES} parties")
    best = Fraction(0)
    for outcomes in itertools.product((1, -1), repeat=2 * p.n):
        total = Fraction(0)
        for mask, coeff in p.terms:
            prod = 1
            for k in range(p.n):
                prod *= outcomes[2 * k + ((mask >> k) & 1)]
            total += coeff * prod
        best = max(best, abs(total))
    return float(best)


@dataclass(frozen=True)
class BoundsTable:
    """Violation thresholds for one (family, party count) pair.

    ``thresholds`` holds ``(label, value)`` pairs. A value is the quantity a
    Bell value must strictly exceed to demonstrate the labelled property:
    ``GME(m)`` genuine m-party entanglement, ``Sep(l)`` that no partition
    into more than ``l`` groups admits a local model. ``AlgebraicMax`` and
    ``GhzQuantumValue`` are reference ceilings, not demonstration targets.
    """

    n: int
    family: str
    lhv_bound: float
    thresholds: tuple[tuple[str, float], ...]

    def threshold(self, label: str) -> float:
        for lab, value in self.thresholds:
            if lab == label:
                return value
        raise KeyError(label)


def _sep_membership_bound(n: int, m: int) -> float:
    # 2^((n-m)/2) at even n, 2^((n-m-1)/2) at odd n; a fully local model
    # (m >= n groups) is bounded by the lhv bound itself.
    return max(LHV_BOUND, 2.0 ** ((n - m - n % 2) / 2))


@functools.lru_cache(maxsize=None)
def bounds_table(n: int, family: str) -> BoundsTable:
    """Demonstration thresholds for the given family and party count.

    For MK (and Mermin at odd ``n``, where the term lists coincide) the
    entanglement ladder ``GME(m)`` has threshold ``2^((m-2)/2)`` for
    ``m = 2..n``; the ladder is exposed only for ``n <= 5``, beyond which
    just the biseparable bound ``GME(n) = 2^(n/2-1)`` is kept. For
    Svetlichny, ``Sep(l)`` is demonstrated by exceeding the membership bound
    of ``Sep(l+1)`` models. Mermin at even ``n`` carries no ladder. Tables
    are cached; a table is frozen and holds tuples, so callers share it.
    """
    poly = make_polynomial(family, n)
    thresholds: list[tuple[str, float]] = []
    ladder = family == FAMILY_MK or (family == FAMILY_MERMIN and n % 2 == 1)
    if ladder:
        if n <= MAX_GME_LADDER_PARTIES:
            for m in range(2, n + 1):
                thresholds.append((f"GME({m})", 2.0 ** ((m - 2) / 2)))
        else:
            thresholds.append((f"GME({n})", 2.0 ** (n / 2 - 1)))
    elif family == FAMILY_SVETLICHNY:
        for m in range(1, n):
            thresholds.append((f"Sep({m})", _sep_membership_bound(n, m + 1)))
    thresholds.append(("AlgebraicMax", poly.algebraic_max()))
    thresholds.append(("GhzQuantumValue", abs(ghz_phasor(family, n))))
    return BoundsTable(n=n, family=family, lhv_bound=LHV_BOUND, thresholds=tuple(thresholds))
