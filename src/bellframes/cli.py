"""Command-line front end: sample, sweep and bounds subcommands.

Every invocation with identical flags (including the seed) produces
byte-identical output files; ``--threads`` only changes runtime. Exit codes:
0 success, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import restricted
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
# Not called here: perfbench/tracing.py times the optimizer.max_bell_value
# layer only through this module's name for it.
from .optimizer import FIXED_KINDS, inplane_candidate_set, max_bell_value, score_frames
from .polynomials import FAMILIES, MAX_PARTIES, bounds_table, make_polynomial

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
        result = run_experiment(config, threads=args.threads)
    except (BudgetExceededError, MemoryError, ValueError) as exc:
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
    primary, swapped = restricted.strategy_value(args.family, args.n, thetas)
    rows = np.column_stack((thetas, primary, swapped, np.maximum(primary, swapped), best))
    path = args.out / "sweep.csv"
    write_lf(path, csv_document(
        ("theta", "primary", "swapped", "analytic_max", "optimizer_max"), rows))
    print(f"wrote {path}")
    return 0


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
