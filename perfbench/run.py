#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bellframes frame-sampling pipeline.

Run from the repository root; bellframes is imported from ``./src`` only.

    python3 perfbench/run.py --workload mc-pauli3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mc-random7 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --quick        # every workload, tiny sizes, both modes

One invocation runs one workload in its own process. ``--trace 0`` reports the
end-to-end metrics, measured untraced; ``--trace 1`` reports the per-layer
metrics from a traced run. Metric names and units are those of
``BENCHMARK.json``; ``README.md`` says what each one measures. Every output
is checked, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` counting those checks.

Exit codes: 0 all checks passed, 1 a check failed (the result is still
printed), 2 the benchmark could not run (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np  # imported before set-up, which excludes numpy's import

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

SETUP_REPEATS = 7
MIN_UNITS = 2
QUICK_SECONDS = 0.2
UNIT = "bench.unit"

# The 2-vCPU VM (Intel Xeon, 2.0 GHz) this benchmark was written on is shared
# with other tenants, and its speed drifts by 25-40% over minutes: more than
# any bound a regression gate can use. So every end-to-end time is reported in
# reference seconds, wall time x reference / kernel time, where a fixed kernel
# runs before and after each timed piece of work. The kernel does the kind of
# work the workload does, which is what tracked each workload's drift: an
# interpreter loop, small NumPy calls and a scan-sized complex einsum for the
# batched Monte Carlo scans; a small-array pipeline like one sweep point for
# the sweep. The reference is the kernel's time on an uncontended vCPU of that
# VM, so reference seconds read as wall seconds there. Raw wall figures are
# printed beside them.
_U = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
_V = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
_ACC = np.full((4, 84, 2, 42), 0.5 + 0.25j)
_TABLE = np.full((4, 2, 84), 0.75 + 0.0j)
_Q = np.array([0.9, 0.1, 0.3, 0.2])
_C = np.arange(8.0).reshape(2, 4)


def _array_kernel():
    total = 0
    for k in range(150_000):
        total += k * k
    for _ in range(500):
        np.cross(_U, _V)
    np.einsum("bptr,bto->bpor", _ACC, _TABLE)


def _call_kernel():
    for k in range(300):
        quats = np.stack([_Q, _Q, _Q])
        w = np.cross(_U, _Q[1:]) + quats[:, None, 1:] * _U[None]
        z = np.stack([w[..., 0] + 1j * w[..., 1], w[..., 0] - 1j * w[..., 1]], axis=-2)
        vals = np.abs(np.einsum("tr,bt->br", _C, z[:, 0, :2].real))
        vals.max(axis=1)
        vals.argmax(axis=1)
        "%.17g,%.17g" % (math.cos(0.1 * k), math.sin(0.1 * k))


# (kernel, its reference seconds), keyed by the workload's ``array_scan``.
KERNELS = {True: (_array_kernel, 0.030), False: (_call_kernel, 0.0155)}


class RefClock:
    """Times work in reference seconds (see ``KERNELS``)."""

    def __init__(self, array_scan):
        self.run_kernel, self.reference = KERNELS[array_scan]
        self.kernel = self._kernel_seconds()

    def _kernel_seconds(self):
        t0 = time.perf_counter()
        self.run_kernel()
        return time.perf_counter() - t0

    def measure(self, work):
        """Run ``work()``; returns (its result, wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        out = work()
        wall = time.perf_counter() - t0
        before, self.kernel = self.kernel, self._kernel_seconds()
        return out, wall, wall * 2.0 * self.reference / (before + self.kernel)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy number."""


def load_program():
    """Import bellframes afresh from ./src (every set-up pays the full import)."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "bellframes"]:
        del sys.modules[name]
    try:
        import bellframes
        import bellframes.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import bellframes from {SRC}: {exc}") from exc
    if Path(bellframes.__file__).resolve().parent != SRC / "bellframes":
        raise BenchError(f"imported bellframes from {bellframes.__file__}, not from {SRC}")
    return bellframes


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError(f"missing reference implementations {path}")
    spec = importlib.util.spec_from_file_location("bellframes_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(wl, seed, quick, out_dir):
    """Import, build unit 0's input and make one warm-up call; returns the package."""
    bf = load_program()
    wl.unit_input(bf, seed, 0, quick)
    wl.warm_up(bf, out_dir)
    return bf


def run_unit(wl, bf, x, out_dir, checks, clock, tracer=None):
    """Time one unit on input ``x``, then check its output.

    Returns ((frames, wall s, reference s), output).
    """
    def work():
        with tracer.root(UNIT) if tracer else contextlib.nullcontext():
            return wl.run(bf, x, out_dir)

    result, wall, ref = clock.measure(work)
    output = wl.collect(out_dir, result)
    checks += wl.check_unit(bf, x, output, out_dir)
    return (wl.frames(x), wall, ref), output


def rate(units, column):
    """Median over units of frames per second of ``column`` (1 wall, 2 reference)."""
    return statistics.median(u[0] / u[column] for u in units)


def correctness(wl, bf, first, out_dir, checks):
    """Checks outside the timed region: pinned gate, slice recheck, oracle."""
    pinned = json.loads((BENCH_DIR / "reference.json").read_text())[wl.name]
    checks += wl.compare_gate(wl.gate_output(bf, out_dir), pinned)
    checks += wl.recheck(bf, *first)
    checks += wl.oracle(bf, load_oracles(), *first)


def end_to_end(wl, args, out_dir, checks):
    clock = RefClock(wl.array_scan)
    setups = [clock.measure(lambda: set_up(wl, args.seed, args.quick, out_dir))
              for _ in range(2 if args.quick else SETUP_REPEATS)]
    bf = setups[-1][0]
    units, first = [], None
    deadline = time.perf_counter() + args.seconds
    while len(units) < MIN_UNITS or time.perf_counter() + units[-1][1] <= deadline:
        x = wl.unit_input(bf, args.seed, len(units), args.quick)
        unit, output = run_unit(wl, bf, x, out_dir, checks, clock)
        units.append(unit)
        first = first or (x, output)
    correctness(wl, bf, first, out_dir, checks)
    metrics = {
        "frames_per_s": rate(units, 2),
        "setup_s": statistics.median(ref for _, _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, (
        f"{len(units)} units of {units[0][0]} frames; wall: "
        f"{rate(units, 1):.6g} frames/s, set-up "
        f"{statistics.median(wall for _, wall, _ in setups):.6g} s")


def per_layer(wl, args, out_dir, checks):
    """Untraced and traced units alternate on unit 0's input.

    Every traced unit repeats the same input, so its exact counts must agree.
    """
    clock = RefClock(wl.array_scan)
    bf = set_up(wl, args.seed, args.quick, out_dir)
    x = wl.unit_input(bf, args.seed, 0, args.quick)
    tracer = Tracer()
    plain, traced, marks = [], [], []
    deadline = time.perf_counter() + args.seconds
    while (len(traced) < MIN_UNITS
           or time.perf_counter() + plain[-1][1] + traced[-1][1] <= deadline):
        unit, output = run_unit(wl, bf, x, out_dir, checks, clock)
        plain.append(unit)
        marks.append(len(tracer.spans))
        tracer.install(bf)
        try:
            traced.append(run_unit(wl, bf, x, out_dir, checks, clock, tracer)[0])
        finally:
            tracer.restore()
    tracer.check_single_thread()
    tracer.write_csv(out_dir / "spans.csv")
    ranges = list(zip(marks, marks[1:] + [len(tracer.spans)]))
    counts = {tracer.scan_counts(lo, hi) for lo, hi in ranges}
    if len(counts) != 1:
        raise BenchError(f"scan counts differ between runs of the same input: {counts}")
    correctness(wl, bf, (x, output), out_dir, checks)

    # Span times in reference seconds: each unit's spans scale by its ref/wall.
    calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for (lo, hi), (_, wall, ref) in zip(ranges, traced):
        unit_calls, unit_incl, unit_own = tracer.totals(lo, hi)
        for name in unit_calls:
            calls[name] += unit_calls[name]
            incl[name] += unit_incl[name] * ref / wall
            own[name] += unit_own[name] * ref / wall

    scan_calls, scan_frames, scan_assignments = counts.pop()
    units = len(traced)
    frames = units * traced[0][0]

    def us_per_frame(*names, table=incl):
        return sum(table[n] for n in names) / frames * 1e6

    def ms_per_unit(*names, table=incl):
        return sum(table[n] for n in names) / units * 1e3

    def us_per_call(name, table):
        return table[name] / calls[name] * 1e6 if calls[name] else 0.0

    wall = incl[UNIT]
    metrics = {
        "montecarlo.sample_generator.us_per_frame": us_per_frame("montecarlo.sample_generator"),
        "su2.haar_rotation.us_per_frame": us_per_frame("su2.haar_rotation"),
        "montecarlo.compute_batch.self_us_per_frame":
            us_per_frame("montecarlo.compute_batch", table=own),
        "montecarlo.run_experiment.self_us_per_frame":
            us_per_frame("montecarlo.run_experiment", table=own),
        "optimizer.random_candidate_set.us_per_frame":
            us_per_frame("optimizer.random_candidate_set"),
        "su2.rotate_directions.us_per_frame": us_per_frame("su2.rotate_directions"),
        "optimizer.channel_tables.us_per_frame": us_per_frame("optimizer.channel_tables"),
        "optimizer.scan.us_per_frame": us_per_frame("optimizer.scan"),
        "optimizer.scan.assignments_per_s":
            scan_assignments * units / incl["optimizer.scan"] if incl["optimizer.scan"] else 0.0,
        "optimizer.scan.calls": scan_calls,
        "optimizer.scan.frames_per_call": scan_frames / scan_calls if scan_calls else 0.0,
        "optimizer.assignments_per_frame":
            scan_assignments / scan_frames if scan_frames else 0.0,
        "optimizer.max_bell_value.self_us_per_call":
            us_per_call("optimizer.max_bell_value", own),
        "restricted.strategy_value.us_per_call": us_per_call("restricted.strategy_value", incl),
        "montecarlo.build_result.ms": ms_per_unit("montecarlo.build_result"),
        "montecarlo.write.ms": ms_per_unit("montecarlo.write"),
        "cli.self_ms": ms_per_unit("cli.main", "cli.cmd_sweep", table=own),
        "polynomials.setup_ms": ms_per_unit(
            "polynomials.make_polynomial", "polynomials.coefficient_tensor",
            "polynomials.bounds_table"),
        "trace.frames": frames,
        "trace.accounted_frac": (wall - own[UNIT]) / wall,
        "trace.overhead_frac": 1.0 - rate(traced, 2) / rate(plain, 2),
    }
    return metrics, f"{units} traced and {len(plain)} untraced units of {frames // units} frames"


def load_metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args):
    wl = WORKLOADS[args.workload]
    if args.quick:
        args.seconds = min(args.seconds, QUICK_SECONDS)
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    units = load_metric_units(args.trace)
    checks = []
    measure = per_layer if args.trace else end_to_end
    values, note = measure(wl, args, out_dir, checks)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED check: {name} {detail}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {note}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed, "
          f"failed_frac = {len(failed) / len(checks):.6g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if failed else 0


def run_quick_suite(args):
    """Every workload in both modes, each in a fresh process, at tiny sizes."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            passed = bool(result and result["correct"])
            ok = ok and passed
            print(f"{'PASS' if passed else 'FAIL'}  {name} trace {trace}"
                  + ("" if result else f"  exit {proc.returncode}: {proc.stderr.strip()}"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes through the same checks; without --workload, "
                             "every workload in both modes")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required unless --quick is given")
        return run_quick_suite(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001  (no result may be printed after a crash)
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    sys.exit(main())
