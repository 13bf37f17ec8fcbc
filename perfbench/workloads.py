"""The benchmark's workloads: inputs made from the seed, one timed unit, checks.

A *frame* is one frame configuration maximised over all setting assignments:
one Monte Carlo sample, or one point of the shared-axis sweep grid. Every
workload runs its timed units through the package's public entry points and
checks every output. Reasons for each choice are in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

TOL = 1e-12


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


@dataclass(frozen=True)
class McWorkload:
    """``run_experiment`` + ``write_histogram_csv`` + ``write_summary_json``.

    Unit ``rep`` of seed ``seed`` runs the config with seed ``seed * 1000 + rep``.
    """

    name: str
    candidates: str
    samples: int  # frames per timed unit
    quick_samples: int
    recheck_samples: int  # frames of unit 0 recomputed as a separate slice
    oracle_frames: bool  # small enough for the per-assignment brute-force oracle
    family: str = "mermin"
    n: int = 3
    gate_samples: int = 2000
    gate_seed: int = 20141408
    warm_samples: int = 1
    array_scan: bool = True  # batched scans over large arrays (picks the kernel of RefClock)

    def unit_input(self, bf, seed, rep, quick):
        samples = self.quick_samples if quick else self.samples
        return self._config(bf, samples, seed * 1000 + rep)

    def _config(self, bf, samples, seed):
        return bf.montecarlo.ExperimentConfig(
            n=self.n, family=self.family, candidates=self.candidates,
            samples=samples, seed=seed)

    @staticmethod
    def frames(config):
        return config.samples

    @staticmethod
    def run(bf, config, out_dir):
        mc = bf.montecarlo
        result = mc.run_experiment(config, threads=1)
        mc.write_histogram_csv(result, out_dir / "hist.csv")
        mc.write_summary_json(result, out_dir / "summary.json")
        return result

    @staticmethod
    def collect(out_dir, result):
        return result

    def warm_up(self, bf, out_dir):
        self.run(bf, self._config(bf, self.warm_samples, 0), out_dir)

    def check_unit(self, bf, config, result, out_dir):
        values = result.values
        top = bf.polynomials.make_polynomial(self.family, self.n).algebraic_max()
        lhv = float(np.mean(values > 1.0 + TOL))
        summary = json.loads((out_dir / "summary.json").read_text())
        rows = (out_dir / "hist.csv").read_text().splitlines()
        file_counts = [int(row.rsplit(",", 1)[1]) for row in rows[1:]]
        tag = f"seed {config.seed}"
        return [
            _check(f"{tag}: one value per sample, in [0, algebraic max]",
                   len(values) == config.samples and values.min() >= 0.0
                   and values.max() <= top + TOL),
            _check(f"{tag}: histogram counts sum to samples",
                   sum(c for _, _, c in result.histogram) == config.samples),
            _check(f"{tag}: lhv probability is the share of values above 1",
                   result.lhv_violation_prob == lhv,
                   f"{result.lhv_violation_prob!r} vs {lhv!r}"),
            _check(f"{tag}: min <= mean <= max",
                   result.min <= result.mean <= result.max),
            _check(f"{tag}: summary.json matches the result",
                   summary["samples"] == config.samples and summary["seed"] == config.seed
                   and summary["mean"] == result.mean
                   and summary["lhv_violation_prob"] == result.lhv_violation_prob),
            _check(f"{tag}: hist.csv holds the histogram",
                   file_counts == [c for _, _, c in result.histogram]),
        ]

    def recheck(self, bf, config, result):
        """Recompute a slice of unit 0 on its own; the per-sample streams make it exact."""
        k = min(self.recheck_samples, config.samples)
        start = (config.samples - k) // 2
        part = replace(config, samples=k, sample_offset=config.sample_offset + start)
        again = bf.montecarlo.run_experiment(part).values
        return [_check(f"seed {config.seed}: samples {start}..{start + k - 1} recomputed "
                       "as a slice are identical",
                       np.array_equal(again, result.values[start:start + k]))]

    def oracle(self, bf, oracles, config, result):
        """Rebuild frames from their sample streams and re-score them per assignment."""
        if not self.oracle_frames:
            return []
        poly = bf.polynomials.make_polynomial(self.family, self.n)
        directions = bf.optimizer.make_candidate_set(self.candidates).directions
        checks = []
        picks = sorted({0, int(np.argmin(result.values)), int(np.argmax(result.values))})
        for i in picks:
            s = int(result.sample_indices[i])
            rng = bf.montecarlo.sample_generator(config.seed, s)
            rotations = [bf.su2.haar_rotation(rng) for _ in range(self.n)]
            ref = oracles.brute_force_max(poly, rotations, directions)
            got = float(result.values[i])
            checks.append(_check(f"seed {config.seed} sample {s}: brute-force oracle",
                                 abs(ref - got) <= TOL, f"{got!r} vs {ref!r}"))
        return checks

    def gate_output(self, bf, out_dir):
        config = self._config(bf, self.gate_samples, self.gate_seed)
        result = self.run(bf, config, out_dir)
        return {
            "config": {"family": self.family, "n": self.n, "candidates": self.candidates,
                       "samples": self.gate_samples, "seed": self.gate_seed},
            "counts": [c for _, _, c in result.histogram],
            "lhv_violation_prob": result.lhv_violation_prob,
            "bounds": {b.label: b.prob for b in result.bounds},
            "mean": result.mean,
            "min": result.min,
            "max": result.max,
        }

    @staticmethod
    def compare_gate(got, pinned):
        checks = [
            _check("gate: same config as pinned", got["config"] == pinned["config"]),
            _check("gate: histogram counts equal pinned", got["counts"] == pinned["counts"]),
            _check("gate: lhv probability equals pinned",
                   got["lhv_violation_prob"] == pinned["lhv_violation_prob"]),
            _check("gate: crossing probabilities equal pinned",
                   got["bounds"] == pinned["bounds"]),
        ]
        for key in ("mean", "min", "max"):
            diff = abs(got[key] - pinned[key])
            checks.append(_check(f"gate: {key} within {TOL} of pinned", diff <= TOL,
                                 f"|diff| = {diff:.3e}"))
        return checks


@dataclass(frozen=True)
class SweepWorkload:
    """``bellframes sweep`` through ``cli.main``; the seed picks the grid sizes.

    Unit ``rep`` of seed ``seed`` uses ``grid + (31 * seed + rep) % 64`` points.
    """

    name: str
    family: str
    n: int
    grid: int  # smallest grid of a timed unit
    quick_grid: int
    gate_grid: int = 120
    warm_grid: int = 16
    array_scan: bool = False  # one small scan per point (picks the kernel of RefClock)

    def unit_input(self, bf, seed, rep, quick):
        base = self.quick_grid if quick else self.grid
        return base + (31 * seed + rep) % 64

    @staticmethod
    def frames(grid):
        return grid

    def run(self, bf, grid, out_dir):
        argv = ["sweep", "--n", str(self.n), "--family", self.family,
                "--grid", str(grid), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = bf.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bellframes {' '.join(argv)} exited with {code}")

    def warm_up(self, bf, out_dir):
        self.run(bf, self.warm_grid, out_dir)

    @staticmethod
    def collect(out_dir, _):
        """The rows of ``sweep.csv`` as floats."""
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        if lines[0] != "theta,primary,swapped,analytic_max,optimizer_max":
            raise RuntimeError(f"unexpected sweep.csv header {lines[0]!r}")
        return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]

    def check_unit(self, bf, grid, rows, out_dir):
        top = bf.polynomials.make_polynomial(self.family, self.n).algebraic_max()
        tag = f"grid {grid}"
        return [
            _check(f"{tag}: one row per grid angle 2 pi k / grid",
                   [r[0] for r in rows] == [2.0 * math.pi * k / grid for k in range(grid)]),
            _check(f"{tag}: analytic_max = max(primary, swapped)",
                   all(r[3] == max(r[1], r[2]) for r in rows)),
            _check(f"{tag}: values in [0, algebraic max]",
                   all(0.0 <= x <= top + TOL for r in rows for x in r[1:])),
            _check(f"{tag}: optimizer_max >= max(primary, swapped) - {TOL}",
                   all(r[4] >= max(r[1], r[2]) - TOL for r in rows)),
        ]

    def recheck(self, bf, grid, _):
        return []

    def oracle(self, bf, oracles, grid, rows):
        """Re-score three grid points per assignment and per closed-form strategy."""
        rst = bf.restricted
        poly = bf.polynomials.make_polynomial(self.family, self.n)
        directions = bf.optimizer.inplane_candidate_set([0.0, math.pi / 2.0]).directions
        checks = []
        for k in (1, grid // 3 + 1, 2 * grid // 3 + 1):
            theta, primary, swapped, _, best = rows[k]
            rotations = [rst.z_rotation(theta)] + [
                bf.su2.Rotation.identity() for _ in range(self.n - 1)]
            thetas = (theta,) + (0.0,) * (self.n - 1)
            refs = {
                "optimizer_max": (best, oracles.brute_force_max(poly, rotations, directions)),
                "primary": (primary, oracles.restricted_exact_value(
                    poly, thetas, rst.strategy_settings(self.family, self.n, "primary"))),
                "swapped": (swapped, oracles.restricted_exact_value(
                    poly, thetas, rst.strategy_settings(self.family, self.n, "swapped"))),
            }
            for column, (got, ref) in refs.items():
                checks.append(_check(f"grid {grid} point {k}: {column} vs oracle",
                                     abs(got - ref) <= TOL, f"{got!r} vs {ref!r}"))
        return checks

    def gate_output(self, bf, out_dir):
        self.run(bf, self.gate_grid, out_dir)
        return {"config": {"family": self.family, "n": self.n, "grid": self.gate_grid},
                "rows": self.collect(out_dir, None)}

    def compare_gate(self, got, pinned):
        checks = [_check("gate: same config as pinned", got["config"] == pinned["config"])]
        rows, ref = got["rows"], [tuple(r) for r in pinned["rows"]]
        checks.append(_check("gate: one row per pinned row", len(rows) == len(ref)))
        worst = max((abs(a - b) for r, p in zip(rows, ref) for a, b in zip(r, p)), default=0.0)
        checks.append(_check(f"gate: every column within {TOL} of pinned", worst <= TOL,
                             f"max |diff| = {worst:.3e}"))
        checks.append(_check(f"gate: optimizer_max >= max(primary, swapped) - {TOL}",
                             all(r[4] >= max(r[1], r[2]) - TOL for r in rows)))
        return checks


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload("mc-pauli3", candidates="pauli", samples=4000,
                   quick_samples=300, recheck_samples=1000, oracle_frames=True),
        McWorkload("mc-random7", candidates="random:7", samples=33,
                   quick_samples=3, recheck_samples=4, oracle_frames=False,
                   gate_samples=24),
        SweepWorkload("sweep-axis3", family="svetlichny", n=3, grid=1000, quick_grid=40),
    )
}
