"""Monte Carlo estimation of Bell-value distributions over random local frames.

Each sample draws an independent frame rotation for every party (and, for
``random:K`` candidate sets, a fresh direction set), maximizes the Bell
value over all measurement assignments, and records it. The result holds
the full per-sample value array, so histograms, bound-crossing probabilities
and summary statistics are all derived deterministically from it and results
merge exactly.

Frame measures (``ExperimentConfig.frame_measure``):

* ``haar`` (the default): exact Haar rotations, :func:`haar_rotation`.
* ``uniform-angle``: a uniform axis and a uniform rotation angle,
  :func:`uniform_angle_rotation`. This is the model under which the paper's
  reported probabilities are reproduced (see README).

Reproducibility contract: sample ``s`` of a run with seed ``seed`` uses a
private random stream keyed by ``sha256(b"bellframes:<seed>:<s>")[:16]``
feeding a Philox counter-based generator. Within a sample the stream is
consumed in a fixed order: first one frame rotation per party, parties in
order, then, for random candidate kinds only, each party's own candidate
set in party order (three standard normals per direction; the parties'
direction sets are independent because their local frames are). A Haar
rotation takes four standard normals; a uniform-angle rotation takes three
standard normals for its axis, then one ``random()`` for its angle. Haar is
the default measure and its stream is unchanged from earlier versions, so
default results keep their bits. Identical configs therefore produce
bit-identical results regardless of batching, threading or sample
partitioning.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .optimizer import (
    _channel_tables,
    _party_options,
    _random_kind_size,
    assignment_count,
    bell_values_over_assignments,
    make_candidate_set,
    random_candidate_set,
)
from .polynomials import bounds_table, make_polynomial
from .su2 import haar_rotation, rotate_directions, uniform_angle_rotation

# A Bell value must exceed a bound by more than this to count as a crossing,
# so exact-equality cases are never reported as violations.
CROSSING_TOL = 1e-12

DEFAULT_BIN_WIDTH = 0.01
DEFAULT_BUDGET = 10**10

FRAME_HAAR = "haar"
FRAME_UNIFORM_ANGLE = "uniform-angle"
FRAME_MEASURES = (FRAME_HAAR, FRAME_UNIFORM_ANGLE)

_BATCH_ENTRIES = 1 << 21


class BudgetExceededError(RuntimeError):
    """Requested samples x assignments exceed the configured budget."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one distribution-estimation run.

    ``candidates`` is a kind name (``pauli``, ``tetrahedron``,
    ``tetrahedron-z``, ``random:K``); random kinds are redrawn per sample,
    fixed kinds are shared. ``sample_offset`` names the first global sample
    index, letting disjoint ranges of one logical experiment run separately
    and merge exactly.

    ``frame_measure`` names the distribution of each party's frame rotation:
    ``haar`` (the default; four standard normals per party, the stream this
    package has always used, so default results are unchanged) or
    ``uniform-angle`` (a uniform axis from three standard normals, then a
    uniform angle from one ``random()``, per party in party order). Runs
    with different measures never merge.
    """

    n: int
    family: str
    candidates: str
    samples: int
    seed: int
    bin_width: float = DEFAULT_BIN_WIDTH
    sign_flips: bool = True
    sample_offset: int = 0
    budget: int = DEFAULT_BUDGET
    frame_measure: str = FRAME_HAAR

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError("bin width must be positive and finite")
        if self.frame_measure not in FRAME_MEASURES:
            raise ValueError(
                f"unknown frame measure {self.frame_measure!r}; "
                f"expected one of {', '.join(FRAME_MEASURES)}"
            )


@dataclass(frozen=True)
class BoundCrossing:
    """Estimated probability that the Bell value strictly exceeds ``value``."""

    label: str
    value: float
    prob: float
    stderr: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    sample_indices: np.ndarray
    values: np.ndarray
    histogram: tuple[tuple[float, float, int], ...]
    bounds: tuple[BoundCrossing, ...]
    lhv_violation_prob: float
    lhv_stderr: float
    mean: float
    min: float
    max: float
    evaluations: int


def sample_generator(seed: int, sample_index: int) -> np.random.Generator:
    """The private random stream of one sample (see module docstring)."""
    digest = hashlib.sha256(b"bellframes:%d:%d" % (seed, sample_index)).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _binomial_stderr(p: float, samples: int) -> float:
    return math.sqrt(p * (1.0 - p) / samples)


def _candidate_size(kind: str) -> int:
    k = _random_kind_size(kind)
    return make_candidate_set(kind).size if k is None else k


def _compute_batch(config, ctensor, fixed_set, options, indices, out):
    """Score samples ``indices`` (global sample ids) into ``out`` (same length)."""
    n = config.n
    m = _candidate_size(config.candidates)
    uidx, pidx, usign, psign = options
    B = len(indices)
    # Resolved per batch, so a replaced module-level haar_rotation is the one called.
    draw = haar_rotation if config.frame_measure == FRAME_HAAR else uniform_angle_rotation
    quats = np.empty((B, n, 4))
    if fixed_set is not None:
        base = np.broadcast_to(fixed_set.directions, (B, n, m, 3))
    else:
        base = np.empty((B, n, m, 3))
    for b, s in enumerate(indices):
        rng = sample_generator(config.seed, int(s))
        for k in range(n):
            quats[b, k] = draw(rng).quaternion
        if fixed_set is None:
            for k in range(n):
                base[b, k] = random_candidate_set(m, rng).directions
    dirs = rotate_directions(quats[:, :, None, :], base)
    W, Z = _channel_tables(dirs, uidx, pidx, usign, psign)
    best, _ = bell_values_over_assignments(ctensor, W, Z, dirs[:, -1])
    out[:] = best


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Estimate the distribution of maximal Bell values for ``config``.

    ``threads`` only partitions the batched scan across a thread pool; the
    per-sample streams make the output independent of the partitioning.
    """
    poly = make_polynomial(config.family, config.n)
    m = _candidate_size(config.candidates)
    per_sample = assignment_count(m, config.n, config.sign_flips)
    total = per_sample * config.samples
    if total > config.budget:
        raise BudgetExceededError(
            f"{config.samples} samples x {per_sample} assignments = {total} "
            f"evaluations exceed the budget of {config.budget}"
        )
    fixed_set = None
    if not config.candidates.startswith("random:"):
        fixed_set = make_candidate_set(config.candidates)
    options = _party_options(m, config.sign_flips)
    K = len(options[0])
    ctensor = poly.coefficient_tensor()

    indices = np.arange(config.sample_offset, config.sample_offset + config.samples)
    values = np.empty(config.samples)
    batch = max(1, min(config.samples, _BATCH_ENTRIES // K ** max(1, config.n - 1)))
    jobs = [
        (indices[lo : lo + batch], values[lo : lo + batch])
        for lo in range(0, config.samples, batch)
    ]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(
                pool.map(
                    lambda job: _compute_batch(config, ctensor, fixed_set, options, *job),
                    jobs,
                )
            )
    else:
        for job in jobs:
            _compute_batch(config, ctensor, fixed_set, options, *job)
    return _build_result(config, indices, values, per_sample)


def _build_result(config, indices, values, per_sample) -> ExperimentResult:
    poly = make_polynomial(config.family, config.n)
    table = bounds_table(config.n, config.family)
    samples = len(values)

    top = poly.algebraic_max()
    nbins = max(1, math.ceil(top / config.bin_width - 1e-9))
    edges = np.arange(nbins + 1) * config.bin_width
    which = np.clip(np.digitize(values, edges) - 1, 0, nbins - 1)
    counts = np.bincount(which, minlength=nbins)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(nbins)
    )

    lhv_prob = float(np.mean(values > table.lhv_bound + CROSSING_TOL))
    crossings = []
    for label, bound in table.thresholds:
        p = float(np.mean(values > bound + CROSSING_TOL))
        crossings.append(
            BoundCrossing(label=label, value=bound, prob=p, stderr=_binomial_stderr(p, samples))
        )
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    indices.setflags(write=False)
    values.setflags(write=False)
    return ExperimentResult(
        config=config,
        sample_indices=indices,
        values=values,
        histogram=histogram,
        bounds=tuple(crossings),
        lhv_violation_prob=lhv_prob,
        lhv_stderr=_binomial_stderr(lhv_prob, samples),
        mean=float(np.mean(values)),
        min=float(np.min(values)),
        max=float(np.max(values)),
        evaluations=per_sample * samples,
    )


def merge_results(a: ExperimentResult, b: ExperimentResult) -> ExperimentResult:
    """Combine two runs of the same experiment over disjoint sample ranges.

    Everything is recomputed from the concatenated per-sample values, so the
    merge equals the single run covering both index ranges.
    """
    ca = replace(a.config, samples=1, sample_offset=0, budget=0)
    cb = replace(b.config, samples=1, sample_offset=0, budget=0)
    if ca != cb:
        raise ValueError("results come from different experiment configs")
    indices = np.concatenate([a.sample_indices, b.sample_indices])
    if len(np.unique(indices)) != len(indices):
        raise ValueError("sample index ranges overlap")
    values = np.concatenate([a.values, b.values])
    order = np.argsort(indices)
    merged_config = replace(
        a.config,
        samples=len(indices),
        sample_offset=int(indices.min()),
    )
    per_sample = a.evaluations // len(a.values)
    return _build_result(merged_config, indices[order], values[order], per_sample)


def _fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return "%.17g" % float(x)


def write_histogram_csv(result: ExperimentResult, path) -> None:
    """CSV with header ``bin_lo,bin_hi,count``, one row per bin, LF endings."""
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in result.histogram:
        lines.append(f"{_fmt_float(lo)},{_fmt_float(hi)},{count}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_json(result: ExperimentResult) -> str:
    """The summary document as canonical JSON text (fixed key order).

    ``frame_measure`` follows ``sign_flips`` only for a non-default measure,
    so Haar runs keep the document they have always had.
    """
    cfg = result.config
    measure = (
        f'  "frame_measure": "{cfg.frame_measure}",\n'
        if cfg.frame_measure != FRAME_HAAR else ""
    )
    bound_rows = ",\n".join(
        "    {"
        + f'"label": "{c.label}", "value": {_fmt_float(c.value)}, '
        + f'"prob": {_fmt_float(c.prob)}, "stderr": {_fmt_float(c.stderr)}'
        + "}"
        for c in result.bounds
    )
    return (
        "{\n"
        f'  "n": {cfg.n},\n'
        f'  "family": "{cfg.family}",\n'
        f'  "candidates": "{cfg.candidates}",\n'
        f'  "samples": {cfg.samples},\n'
        f'  "seed": {cfg.seed},\n'
        f'  "sign_flips": {"true" if cfg.sign_flips else "false"},\n'
        f"{measure}"
        f'  "lhv_violation_prob": {_fmt_float(result.lhv_violation_prob)},\n'
        f'  "bounds": [\n{bound_rows}\n  ],\n'
        f'  "mean": {_fmt_float(result.mean)},\n'
        f'  "min": {_fmt_float(result.min)},\n'
        f'  "max": {_fmt_float(result.max)}\n'
        "}\n"
    )


def write_summary_json(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(summary_json(result))
