"""Run one benchmark workload on two checkouts in alternating pairs and
summarise the runs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc-pauli3 \\
        --pairs 10 --seed 37 --seconds 20 [--trace 0|1] [--quick] --out BENCH_N.json

Each pair runs ``perfbench/run.py`` once in each checkout, with this
interpreter and from that checkout's root, so each side runs its own source.
The side that goes first alternates per pair, the parent first in pair 0.
Every run's final JSON line is kept under ``runs`` (``result`` is ``null``
when a run printed none). An existing ``--out`` file is extended: its runs
are kept, the new pairs are numbered after its last pair of the same group,
the summary is recomputed, and its other keys are left as they are.

``summary`` has one block per group of runs (workload, seed, trace mode,
quick) and, in it, one per metric that ``BENCHMARK.json`` names: each
side's median and NumPy linear-interpolation quartiles, the distance
between the parent's quartiles, the ratio of medians (change / parent) and
``change_better``, the count of pairs in which the change reads better by
the metric's ``better`` field (a tie is not better).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def better_directions(benchmark):
    """``{metric: "higher" | "lower"}`` from a ``BENCHMARK.json`` document."""
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in benchmark.get(key, ())}


def _stats(values):
    q1, q3 = np.percentile(values, [25, 75])
    return float(np.median(values)), [float(q1), float(q3)]


def summarize(runs, better):
    """Per group and metric, the medians, quartiles and pair counts of ``runs``."""
    summary = {}
    for group in dict.fromkeys(run["group"] for run in runs):
        pairs = {}
        for run in runs:
            if run["group"] == group and run["result"] is not None:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        block = {"pairs": len(pairs),
                 "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES)}
        for metric, direction in better.items():
            if not pairs or not all(metric in p[side]["metrics"] for p in pairs for side in SIDES):
                continue
            values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
            (pm, pq), (cm, cq) = _stats(values["parent"]), _stats(values["change"])
            wins = sum((c > p) if direction == "higher" else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            block[metric] = {
                "better": direction,
                "parent_median": pm, "change_median": cm,
                "ratio": cm / pm if pm else None,
                "parent_quartiles": pq, "parent_iqr": pq[1] - pq[0],
                "change_quartiles": cq,
                "change_better": f"{wins}/{len(pairs)}",
                "parent_runs": values["parent"], "change_runs": values["change"],
            }
        summary[group] = block
    return summary


def run_once(checkout, args):
    """One ``perfbench/run.py`` process in ``checkout``: (exit code, final JSON line or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd + ["--quick"] * args.quick, cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = doc.setdefault("runs", [])
    group = (f"{args.workload} seed {args.seed}" + " trace" * args.trace
             + " quick" * args.quick)
    start = 1 + max((r["pair"] for r in runs if r["group"] == group), default=-1)
    dirs = {"parent": args.parent, "change": args.change}
    for pair in range(start, start + args.pairs):
        for side in SIDES[::-1] if pair % 2 else SIDES:
            code, result = run_once(dirs[side], args)
            runs.append({"group": group, "workload": args.workload, "seed": args.seed,
                         "trace": args.trace, "quick": args.quick, "pair": pair,
                         "side": side, "exit": code, "result": result})
            print(f"{group} pair {pair} {side}: exit {code}", file=sys.stderr)
    doc["command"] = ("perfbench/run.py --workload W --seed S --seconds T --trace X [--quick], "
                      "run from each checkout's root (final stdout line per run)")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    doc["summary"] = summarize(runs, better_directions(benchmark))
    doc["runs"] = doc.pop("runs")  # last, after the summary
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
