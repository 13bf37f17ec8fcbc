"""Command-line front end: sample, sweep, verify and bounds subcommands.

Every invocation with identical flags (including the seed) produces
byte-identical output files; ``--threads`` only changes runtime. Exit codes:
0 success, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import polynomials, restricted, su2
from .montecarlo import (
    BudgetExceededError,
    DEFAULT_BIN_WIDTH,
    DEFAULT_BUDGET,
    ExperimentConfig,
    csv_document,
    json_document,
    run_experiment,
    write_histogram_csv,
    write_lf,
    write_summary_json,
)
from .optimizer import (FIXED_KINDS, inplane_candidate_set, make_candidate_set, max_bell_value,
                        score_frames)
from .polynomials import FAMILIES, MAX_PARTIES, bounds_table, make_polynomial

_STATEVECTOR_SEED = 20_260_808
# Sweep grid points a run may ask for. A point costs about 0.6 KB of peak
# memory at n = MAX_PARTIES, so a sweep at the cap peaks near 0.65 GB.
MAX_GRID = 10**6


def _out_dir(value: str) -> Path:
    """``--out`` as a Path, checked before any work: it, or else its nearest
    existing parent, must be a directory. The writers create what is missing."""
    out = Path(value)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellframes",
        description="Bell-inequality violation of GHZ states under unknown local frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="estimate the Bell-value distribution")
    sample.set_defaults(run=cmd_sample)
    sample.add_argument("--n", type=int, required=True, choices=range(2, 6))
    sample.add_argument("--family", required=True, choices=FAMILIES)
    sample.add_argument("--candidates", required=True,
                        help=", ".join(FIXED_KINDS) + ", or random:K")
    sample.add_argument("--samples", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", type=_out_dir, required=True, help="output directory")
    sample.add_argument("--sign-flips", choices=("on", "off"), default="on")
    sample.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH)
    sample.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="cap on samples x assignments")
    sample.add_argument("--threads", type=int, default=os.cpu_count() or 1)

    sweep = sub.add_parser("sweep", help="shared-axis rotation sweep")
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument("--n", type=int, required=True, choices=range(2, MAX_PARTIES + 1))
    sweep.add_argument("--family", required=True, choices=FAMILIES)
    sweep.add_argument("--grid", type=int, required=True,
                       help=f"number of total-angle grid points over [0, 2pi), 1 to {MAX_GRID}, "
                            "scored in chunks sized to bound each scan step's memory")
    sweep.add_argument("--out", type=_out_dir, required=True, help="output directory")

    verify = sub.add_parser("verify", help="run the cross-module check suite")
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--quick", action="store_true",
                        help="reduced oracle case counts")

    bounds = sub.add_parser("bounds", help="print violation thresholds as JSON")
    bounds.set_defaults(run=cmd_bounds)
    bounds.add_argument("--n", type=int, required=True, choices=range(2, MAX_PARTIES + 1))
    bounds.add_argument("--family", required=True, choices=FAMILIES)
    bounds.add_argument("--out", type=_out_dir,
                        help="also write bounds.json to this directory")
    return parser


def cmd_sample(args) -> int:
    try:
        config = ExperimentConfig(
            n=args.n,
            family=args.family,
            candidates=args.candidates,
            samples=args.samples,
            seed=args.seed,
            bin_width=args.bin_width,
            sign_flips=args.sign_flips == "on",
            budget=args.budget,
        )
        result = run_experiment(config, threads=max(1, args.threads))
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_histogram_csv(result, args.out / "hist.csv")
    write_summary_json(result, args.out / "summary.json")
    print(f"wrote {args.out / 'hist.csv'} and {args.out / 'summary.json'}")
    print(f"lhv violation probability: {result.lhv_violation_prob:.6f}")
    return 0


def cmd_sweep(args) -> int:
    if not 1 <= args.grid <= MAX_GRID:
        print(f"error: grid must be in [1, {MAX_GRID}]", file=sys.stderr)
        return 2
    candidates = inplane_candidate_set([0.0, math.pi / 2.0])
    poly = make_polynomial(args.family, args.n)
    # Bit-equal to 2.0 * math.pi * k / grid per k.
    thetas = 2.0 * math.pi * np.arange(args.grid) / args.grid
    # Party 1 turns by theta about z (restricted.z_rotation); the others hold still.
    quats = np.zeros((args.grid, args.n, 4))
    quats[:, :, 0] = 1.0
    half = (thetas / 2.0).tolist()
    quats[:, 0, 0] = list(map(math.cos, half))
    quats[:, 0, 3] = list(map(math.sin, half))
    best, _ = score_frames(poly.coefficient_tensor(), quats, candidates.directions)
    primary = restricted.strategy_value(args.family, args.n, thetas, restricted.STRATEGY_PRIMARY)
    swapped = restricted.strategy_value(args.family, args.n, thetas, restricted.STRATEGY_SWAPPED)
    rows = np.column_stack((thetas, primary, swapped, np.maximum(primary, swapped), best))
    path = args.out / "sweep.csv"
    write_lf(path, csv_document(
        ("theta", "primary", "swapped", "analytic_max", "optimizer_max"), rows))
    print(f"wrote {path}")
    return 0


def check_lhv_bound():
    """The deterministic-strategy (lhv) maximum is exactly 1, every family, n = 2..5."""
    worst = None
    for family in FAMILIES:
        for n in range(2, 6):
            value = polynomials.lhv_deterministic_max(make_polynomial(family, n))
            if value != 1.0 and (worst is None or abs(value - 1.0) > abs(worst[2] - 1.0)):
                worst = (family, n, value)
    return ("lhv deterministic bound == 1 (all families, n=2..5)",
            worst is None,
            "exact" if worst is None else f"{worst[0]} n={worst[1]} gave {worst[2]}")


def check_statevector_oracle(cases: int = 10_000):
    """Closed-form GHZ correlator vs the statevector oracle, ``cases`` seeded draws."""
    rng = np.random.default_rng(_STATEVECTOR_SEED)
    max_err = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        rots = [su2.haar_rotation(rng) for _ in range(n)]
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        slow = su2.statevector_expectation(
            rots, [su2.observable_matrix(d) for d in dirs]
        )
        fast = su2.ghz_correlator(
            [su2.observable_matrix(su2.rotate_direction(r, d)) for r, d in zip(rots, dirs)]
        )
        max_err = max(max_err, abs(slow - fast))
    return (f"statevector oracle vs closed-form correlator ({cases} cases)",
            max_err <= 1e-12,
            f"max |diff| = {max_err:.2e}")


def _half_sum(*term_lists):
    """``(sum of the term lists) / 2``, exact, as a sorted term tuple without zeros."""
    total = defaultdict(Fraction)
    for mask, c in itertools.chain(*term_lists):
        total[mask] += c / 2
    return tuple(sorted((mask, c) for mask, c in total.items() if c))


def _mk_recursion(n):
    """MK_n from MK_1 = a_1 and the two-channel recursion
    ``MK_k = (MK_{k-1} (a_k + a'_k) + MK'_{k-1} (a_k - a'_k)) / 2``,
    where MK' (:func:`~bellframes.polynomials.prime_swap`) exchanges every
    party's primed and unprimed settings."""
    mk = polynomials.BellPolynomial(1, polynomials.FAMILY_MK, ((0, Fraction(1)),))
    for k in range(1, n):
        swapped = polynomials.prime_swap(mk).terms
        terms = _half_sum(mk.terms, [(mask | 1 << k, c) for mask, c in mk.terms],
                          swapped, [(mask | 1 << k, -c) for mask, c in swapped])
        mk = polynomials.BellPolynomial(k + 1, polynomials.FAMILY_MK, terms)
    return mk


def check_polynomial_identities():
    """Mermin = MK (odd n), Svetlichny = MK (even n), explicit CHSH and MK-3
    terms, and two checks independent of :func:`make_polynomial`'s rule:
    MK_n against its exact two-channel recursion (n = 2..8) and odd-n
    Svetlichny against ``(MK_n + MK'_n) / 2`` (n = 3, 5, 7)."""
    odd = all(
        polynomials.mermin_polynomial(n).terms == polynomials.mk_polynomial(n).terms
        for n in (3, 5, 7)
    )
    even = all(
        polynomials.svetlichny_polynomial(n).terms == polynomials.mk_polynomial(n).terms
        for n in (2, 4, 6, 8)
    )
    half = Fraction(1, 2)
    chsh = polynomials.mk_polynomial(2).terms == ((0, half), (1, half), (2, half), (3, -half))
    mk3 = polynomials.mk_polynomial(3).terms == ((1, half), (2, half), (4, half), (7, -half))
    recursion = all(
        polynomials.mk_polynomial(n).terms == _mk_recursion(n).terms for n in range(2, 9)
    )
    swap = all(
        polynomials.svetlichny_polynomial(n).terms
        == _half_sum(_mk_recursion(n).terms, polynomials.prime_swap(_mk_recursion(n)).terms)
        for n in (3, 5, 7)
    )
    return ("polynomial identities (mermin=mk odd, svetlichny=mk even, explicit term lists)",
            odd and even and chsh and mk3 and recursion and swap,
            f"odd={odd} even={even} chsh={chsh} mk3={mk3} recursion={recursion} swap={swap}")


def check_counterexamples():
    """The tilted and x-rotated counterexample frames keep their values: the
    symmetric tilt (axis (1,1,0)/sqrt(2), angle arctan sqrt(2)) of every
    party defeats Pauli candidates for the three-party Mermin test, and one
    party's x-axis rotation by 3pi/10 defeats tetrahedral candidates."""
    m3 = polynomials.mermin_polynomial(3)
    tilted = su2.Rotation.from_axis_angle(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
                                          math.atan(math.sqrt(2.0)))
    value_t = max_bell_value(m3, [tilted] * 3, make_candidate_set("pauli")).bell_value
    xrot = su2.Rotation.from_axis_angle(su2.X_AXIS, 3.0 * math.pi / 10.0)
    idrot = su2.Rotation.identity()
    value_s = max_bell_value(
        m3, [idrot, idrot, xrot], make_candidate_set("tetrahedron")
    ).bell_value
    ok_t = abs(value_t - 0.98) <= 0.005
    # The x-rotated state must stay non-violating for the tetrahedron; its
    # exact value is pinned as a regression constant.
    ok_s = abs(value_s - 0.9225296148718236) <= 1e-6 and value_s < 1.0
    return ("counterexample rotations (tilted Pauli ~0.98, x-rotated tetrahedron < 1)",
            ok_t and ok_s,
            f"got {value_t:.4f} and {value_s:.4f}")


def verification_checks(quick: bool = False):
    """The cross-module check suite as (name, passed, detail) rows.

    Each row comes from one ``check_*`` function; the acceptance suite
    asserts the same functions.
    """
    return [
        check_lhv_bound(),
        check_statevector_oracle(100 if quick else 10_000),
        check_polynomial_identities(),
        check_counterexamples(),
    ]


def cmd_verify(args) -> int:
    checks = verification_checks(quick=args.quick)
    width = max(len(name) for name, _, _ in checks)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  {detail}")
    failed = sum(not passed for _, passed, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_bounds(args) -> int:
    table = bounds_table(args.n, args.family)
    text = json_document([
        ("n", table.n), ("family", table.family), ("lhv_bound", table.lhv_bound),
        ("thresholds", [(("label", lab), ("value", v)) for lab, v in table.thresholds]),
    ])
    print(text, end="")
    if args.out:
        write_lf(args.out / "bounds.json", text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
