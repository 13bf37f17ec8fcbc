"""Monte Carlo estimation of Bell-value distributions over random local frames.

Each sample draws an independent frame rotation for every party (and, for
``random:K`` candidate sets, a fresh direction set), maximizes the Bell
value over all measurement assignments, and records it. The result holds
the full per-sample value array, so histograms, bound-crossing probabilities
and summary statistics are all derived deterministically from it, and runs
over adjacent sample ranges merge exactly.

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
standard normals for its axis, then one ``random()`` for its angle.
Identical configs therefore produce bit-identical results regardless of
batching, threading or sample partitioning.

Each batch derives its samples' keys in one pass (one sha256 per sample,
the digests read as one array; the contract is unchanged), re-keys one
Philox generator of its own to every sample's stream and draws the sample's
normals in one call (uniform-angle rotations first, party by party): the
same sequence as one call per draw, normalized with the rounding of
``v / math.sqrt(v @ v)``. The scalar :func:`sample_generator`,
:func:`haar_rotation`, :func:`uniform_angle_rotation` and
:func:`random_candidate_set` stay the oracle, and redraw a sample whose draw
has zero norm (measure zero).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .optimizer import (
    _batch_frames,
    _random_kind_size,
    assignment_count,
    make_candidate_set,
    random_candidate_set,
    score_frames,
)
from .polynomials import bounds_table, make_polynomial
from .su2 import check_unit_norms, haar_rotation, uniform_angle_rotation

# A Bell value must exceed a bound by more than this to count as a crossing,
# so exact-equality cases are never reported as violations.
CROSSING_TOL = 1e-12

DEFAULT_BIN_WIDTH = 0.01
# Histogram bins a run may ask for; finer widths are rejected before sampling.
MAX_BINS = 10**6
DEFAULT_BUDGET = 10**10

FRAME_HAAR = "haar"
FRAME_UNIFORM_ANGLE = "uniform-angle"
FRAME_MEASURES = (FRAME_HAAR, FRAME_UNIFORM_ANGLE)


class BudgetExceededError(RuntimeError):
    """Requested samples x assignments exceed the configured budget."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one distribution-estimation run.

    ``candidates`` is a kind name (a key of ``optimizer.FIXED_KINDS`` or
    ``random:K``); random kinds are redrawn per sample, fixed kinds are
    shared. ``sample_offset`` names the first global sample
    index, letting adjacent ranges of one logical experiment run separately
    and merge exactly.

    ``frame_measure`` names the distribution of each party's frame rotation:
    ``haar`` (the default; four standard normals per party) or
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
        types = dict(n=int, family=str, candidates=str, samples=int, seed=int,
                     sample_offset=int, sign_flips=bool, budget=int)
        for name, kind in types.items():
            if type(getattr(self, name)) is not kind:
                raise ValueError(f"{name} must be of type {kind.__name__}")
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
    values: np.ndarray
    histogram: tuple[tuple[float, float, int], ...]
    bounds: tuple[BoundCrossing, ...]
    lhv_violation_prob: float
    lhv_stderr: float
    mean: float
    min: float
    max: float
    evaluations: int

    @property
    def sample_indices(self) -> np.ndarray:
        """The global sample index of each value, from the config's range."""
        return self.config.sample_offset + np.arange(self.config.samples, dtype=np.int64)


def _sample_keys(seed: int, indices) -> list[list[int]]:
    """The Philox keys of the streams of samples ``indices``: the first 16
    bytes of one sha256 per sample as two little-endian 64-bit words, read
    from the joined digests in one pass."""
    sha256 = hashlib.sha256
    digests = b"".join([sha256(b"bellframes:%d:%d" % (seed, s)).digest() for s in indices])
    return np.frombuffer(digests, "<u8").reshape(-1, 4)[:, :2].tolist()


def sample_generator(seed: int, sample_index: int) -> np.random.Generator:
    """The private random stream of one sample (see module docstring)."""
    key = np.array(_sample_keys(seed, [sample_index])[0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _binomial_stderr(p: float, samples: int) -> float:
    return math.sqrt(p * (1.0 - p) / samples)


def _normalize(v):
    """Scale the vectors of ``v`` ``(B, ..., k)`` to unit norm in place, bit
    for bit as ``v / math.sqrt(v @ v)``; returns which samples hold a zero."""
    norm = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    zero = norm == 0.0
    np.divide(v, norm, out=v, where=~zero)
    return zero.reshape(len(v), -1).any(axis=1)


def _draw_frames(config, m, indices, fixed_set):
    """Frame quaternions ``(B, n, 4)`` and base directions of samples ``indices``.

    The base directions are ``fixed_set``'s, or, when it is ``None``, each
    sample's own random sets ``(B, n, m, 3)``. One generator, private to
    this call so that batches on other threads never share it, is re-keyed
    to each sample's stream. A sample with a zero-norm vector (measure zero)
    is drawn again on the scalar path.
    """
    n, B = config.n, len(indices)
    haar = config.frame_measure == FRAME_HAAR
    head = 4 * n if haar else 0
    normals = np.empty((B, head + (3 * m * n if fixed_set is None else 0)))
    quats = None if haar else np.empty((B, n, 4))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # A fresh stream: counter 0, empty buffer; lists keep the setter cheap.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    normal = rng.standard_normal
    for b, (key, row) in enumerate(zip(_sample_keys(config.seed, indices.tolist()), normals)):
        state["state"]["key"] = key
        bitgen.state = state
        if not haar:  # uniform-angle rotations come first, party by party
            quats[b] = [uniform_angle_rotation(rng).quaternion for _ in range(n)]
        normal(out=row)

    redraw = np.zeros(B, dtype=bool)
    if haar:
        quats = normals[:, :head].reshape(B, n, 4)
        redraw |= _normalize(quats)
    if fixed_set is None:
        base = normals[:, head:].reshape(B, n, m, 3)
        redraw |= _normalize(base)
    else:
        base = fixed_set.directions
    draw = haar_rotation if haar else uniform_angle_rotation
    for b in np.flatnonzero(redraw):
        rng = sample_generator(config.seed, int(indices[b]))
        quats[b] = [draw(rng).quaternion for _ in range(n)]
        if fixed_set is None:
            base[b] = [random_candidate_set(m, rng).directions for _ in range(n)]
    check_unit_norms(quats, "quaternion")
    if fixed_set is None:
        check_unit_norms(base, "direction")
    return quats, base


def _compute_batch(config, ctensor, fixed_set, m, indices):
    """The best values of samples ``indices`` (global sample ids)."""
    return score_frames(ctensor, *_draw_frames(config, m, indices, fixed_set),
                        config.sign_flips)[0]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Estimate the distribution of maximal Bell values for ``config``.

    Each batch returns its values; ``threads`` only maps batches over a pool,
    and per-sample streams make the output independent of the partitioning.
    """
    top = bounds_table(config.n, config.family).threshold("AlgebraicMax")
    if _bin_count(top, config.bin_width) > MAX_BINS:
        raise ValueError(f"bin width {config.bin_width!r} gives more than {MAX_BINS} bins")
    k = _random_kind_size(config.candidates)
    fixed_set = None if k else make_candidate_set(config.candidates)
    m = k or fixed_set.size
    per_sample = assignment_count(m, config.n, config.sign_flips)
    total = per_sample * config.samples
    if total > config.budget:
        raise BudgetExceededError(
            f"{config.samples} samples x {per_sample} assignments = {total} "
            f"evaluations exceed the budget of {config.budget}"
        )
    ctensor = make_polynomial(config.family, config.n).coefficient_tensor()

    indices = np.arange(config.sample_offset, config.sample_offset + config.samples)
    batch = _batch_frames(m, config.n, config.sign_flips)
    batches = [indices[lo : lo + batch] for lo in range(0, config.samples, batch)]
    compute = functools.partial(_compute_batch, config, ctensor, fixed_set, m)
    if threads <= 1 or len(batches) == 1:
        values = np.concatenate(list(map(compute, batches)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = np.concatenate(list(pool.map(compute, batches)))
    return _build_result(config, values, total)


def _bin_count(top: float, bin_width: float):
    """Histogram bins of ``bin_width`` covering ``[0, top]``; ``inf`` when
    ``top / bin_width`` overflows, so that the bins check rejects it."""
    bins = top / bin_width - 1e-9
    return max(1, math.ceil(bins)) if bins < math.inf else bins


def _build_result(config, values, evaluations) -> ExperimentResult:
    table = bounds_table(config.n, config.family)
    samples = len(values)

    nbins = _bin_count(table.threshold("AlgebraicMax"), config.bin_width)
    edges = np.arange(nbins + 1) * config.bin_width
    which = np.clip(np.digitize(values, edges) - 1, 0, nbins - 1)
    counts = np.bincount(which, minlength=nbins)
    histogram = tuple(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))

    lhv_prob = float(np.mean(values > table.lhv_bound + CROSSING_TOL))
    crossings = []
    for label, bound in table.thresholds:
        p = float(np.mean(values > bound + CROSSING_TOL))
        crossings.append(
            BoundCrossing(label=label, value=bound, prob=p, stderr=_binomial_stderr(p, samples))
        )
    values = np.asarray(values, dtype=float)
    values.setflags(write=False)
    return ExperimentResult(
        config=config,
        values=values,
        histogram=histogram,
        bounds=tuple(crossings),
        lhv_violation_prob=lhv_prob,
        lhv_stderr=_binomial_stderr(lhv_prob, samples),
        mean=float(np.mean(values)),
        min=float(np.min(values)),
        max=float(np.max(values)),
        evaluations=evaluations,
    )


def merge_results(a: ExperimentResult, b: ExperimentResult) -> ExperimentResult:
    """Combine two runs of the same experiment over adjacent sample ranges,
    in either order; overlapping ranges and ranges with a gap are rejected.

    Everything is recomputed from the concatenated per-sample values, so the
    merge equals the single run covering both index ranges. The merged
    budget is the sum of both budgets, which covers both runs' evaluations,
    so the merged config runs again as it is.
    """
    a, b = sorted((a, b), key=lambda r: r.config.sample_offset)
    ca = replace(a.config, samples=1, sample_offset=0, budget=0)
    cb = replace(b.config, samples=1, sample_offset=0, budget=0)
    if ca != cb:
        raise ValueError("results come from different experiment configs")
    if a.config.sample_offset + a.config.samples != b.config.sample_offset:
        raise ValueError("sample ranges must be adjacent: they overlap or leave a gap")
    values = np.concatenate([a.values, b.values])
    merged = replace(a.config, samples=len(values), budget=a.config.budget + b.config.budget)
    return _build_result(merged, values, a.evaluations + b.evaluations)


def _fmt_value(v) -> str:
    """One value of an output file: a float (``np.float64`` included) as
    ``%.17g``, whose 17 significant digits round-trip any double exactly; a
    list as objects (iterables of ``(key, value)`` pairs) one per line; and
    anything else as JSON, which writes an int as ``%d`` does."""
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, list):
        return "[\n" + ",\n".join("    {" + _json_pairs(obj, ", ") + "}" for obj in v) + "\n  ]"
    return json.dumps(v)


def _json_pairs(pairs, sep: str) -> str:
    return sep.join(f"{json.dumps(key)}: {_fmt_value(value)}" for key, value in pairs)


def json_document(fields) -> str:
    """``fields``, ``(key, value)`` pairs in order, as a JSON document with
    one key per line, indented two spaces."""
    return "{\n  " + _json_pairs(fields, ",\n  ") + "\n}\n"


def csv_document(header, rows) -> str:
    """A CSV document: the ``header`` names, then one line per row of the 2-D
    float64 array ``rows``, each value ``%.17g``, written by
    :func:`_float_table` in blocks of rows (its kernel writes the positive
    values in ``[1e-4, 1e15)`` from one error-free float64 product each,
    ``%`` every other value)."""
    step = -(-_TABLE_BLOCK // rows.shape[1])
    return ",".join(header) + "\n" + "".join(
        _float_table(rows[lo : lo + step]) for lo in range(0, len(rows), step))


# _float_table writes positive x in [1e-4, 1e15), all fixed notation in %g.
# Each fl(10^k) here, parsed (not 10.0**k), is >= 10^k (fl(1e-6) is not), so
# searchsorted gives x's decimal exponent e in -4..14 exactly. Then k = 16 - e
# <= 20, so 10^k = 2^k 5^k with 5^k < 2^47 is an exact double (_TEN), and
# x 10^k is one float64 product plus its exact error (see _decimal).
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 16)])
_TEN = np.array([float(10**k) for k in range(21)])
# Per exponent e = -4..15 (row e + 4): the digit that the point follows (17:
# none, the prefix holds it), and the prefix "0.000" in 8 bytes.
_LAYOUT = [(e, b"") if e >= 0 else (17, b"0." + b"0" * (-e - 1)) for e in range(-4, 16)]
_DOT = np.array([dot for dot, _ in _LAYOUT], dtype=np.int8)
_PREFIX = np.frombuffer(b"".join(p.ljust(8, b"\0") for _, p in _LAYOUT), dtype=np.uint64)
_DIGIT = np.arange(17, dtype=np.int8)[:, None]
# One value's bytes: prefix, 17 digits and a point, separator; the %-path's
# widest value, -1.7976931348623157e+308, fills 24. Zero bytes are dropped.
_CELL = 25
# Values per _float_table call, which bounds its working memory.
_TABLE_BLOCK = 1 << 14


def _split(a):
    """Dekker's halves of ``a``: ``hi + lo == a``, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _decimal(x):
    """``(exact, N, e)``: where ``exact`` (positive ``x`` in ``[1e-4,
    1e15)``), ``x`` rounds half to even to ``N 10^(e-16)`` with ``10^16 <= N
    < 10^17``, ``e`` exact from ``_POW10``; elsewhere ``N`` and ``e`` are
    those of 1. ``N`` is uint64, as the digit pass subtracts uint64 products.

    ``x 10^(16-e) = p + err`` exactly, with ``p`` the float64 product and
    ``err`` its error from Dekker's split product (T. J. Dekker, Numer. Math.
    18, 1971). ``p >= 10^16 > 2^53`` is an even integer, so ``p +
    rint(err)`` rounds ``p + err`` half to even. ``x >= 10^e`` makes ``N >=
    10^16``. ``N`` never rounds up to ``10^17``: the largest double below each
    power of ten in the exact range rounds to 17 digits below that power."""
    exact = (x >= _POW10[0]) & (x < _POW10[-1])
    a = np.where(exact, x, 1.0)
    e = np.searchsorted(_POW10, a, side="right") - 5
    b = _TEN.take(16 - e)
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    N = p.astype(np.int64) + np.rint(err).astype(np.int64)
    return exact, N.view(np.uint64), e


def _float_table(values) -> str:
    """The CSV lines of a 2-D float64 array, byte for byte one ``%.17g`` per
    value joined with ``,`` and ``\\n`` (the ``%`` path is its oracle).

    :func:`_decimal` gives the 17 digits of each positive value in ``[1e-4,
    1e15)``, which ``%g`` writes in fixed notation, as one uint64 from a
    float64 product and its exact error, and they are laid out
    as ``%g`` does, trailing zeros dropped. ``%`` writes every other
    value (negatives, zeros, ``x < 1e-4``, ``x >= 1e15``, inf, nan) into the
    same cells.
    """
    C = values.shape[1]
    x = values.ravel()
    exact, N, e = _decimal(x)
    V = len(x)
    v = np.empty((2, V), np.uint32)  # N's digits 0..8 and 9..16
    v[0] = N // 10**8
    v[1] = N - v[0] * np.uint64(10**8)
    digits = np.empty((17, V), np.uint8)
    for j in range(8, 0, -1):
        quotient = v // 10
        digits[j::8] = v - quotient * 10
        v = quotient
    digits[0] = v[0]
    last = ((digits != 0) * _DIGIT).max(axis=0)
    digits += 48
    digits *= _DIGIT <= np.maximum(last, e.astype(np.int8))
    dot = _DOT.take(e + 4)
    cells = np.zeros((_CELL, V), np.uint8)
    np.multiply(digits, _DIGIT <= dot, out=cells[5:22])
    cells[6:23] += digits * (_DIGIT > dot)
    pointed = np.flatnonzero(last > dot)
    cells.ravel()[(6 + dot[pointed].astype(np.intp)) * V + pointed] = 46
    cells[:5] = _PREFIX.take(e + 4).view(np.uint8).reshape(V, 8)[:, :5].T
    cells[24] = 44
    cells[24, C - 1 :: C] = 10
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = ("%-24.17g" * rest.size) % tuple(x[rest].tolist())
        padded = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
        cells[:24, rest] = (padded * (padded != 32)).T
    return cells.tobytes(order="F").translate(None, b"\0").decode()


def write_lf(path, text: str) -> None:
    """Write ``text`` to ``path`` with LF line endings, creating its directory.

    The file is truncated to zero and then written, so an interrupted write
    leaves a short file, never new bytes followed by old ones. The text is
    encoded once and written in binary mode, and the directory is made only
    when the open finds it missing.
    """
    try:
        out = open(path, "wb")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        out = open(path, "wb")
    with out:
        out.write(text.encode())


def write_histogram_csv(result: ExperimentResult, path) -> None:
    """CSV with header ``bin_lo,bin_hi,count``, one row per bin, LF endings."""
    rows = result.histogram
    line = "%.17g,%.17g,%d\n"
    write_lf(path, "bin_lo,bin_hi,count\n"
             + (line * len(rows)) % tuple(itertools.chain.from_iterable(rows)))


def summary_json(result: ExperimentResult) -> str:
    """The summary document as canonical JSON text (fixed key order).

    ``sample_offset`` follows ``samples`` only for a range that does not
    start at 0, and ``frame_measure`` follows ``sign_flips`` only for a
    non-default measure.
    """
    cfg = result.config
    offset = [("sample_offset", cfg.sample_offset)] if cfg.sample_offset else []
    measure = [("frame_measure", cfg.frame_measure)] if cfg.frame_measure != FRAME_HAAR else []
    return json_document([
        ("n", cfg.n), ("family", cfg.family), ("candidates", cfg.candidates),
        ("samples", cfg.samples), *offset, ("seed", cfg.seed), ("sign_flips", cfg.sign_flips),
        *measure,
        ("lhv_violation_prob", result.lhv_violation_prob),
        ("bounds", [vars(c).items() for c in result.bounds]),
        ("mean", result.mean), ("min", result.min), ("max", result.max),
    ])


def write_summary_json(result: ExperimentResult, path) -> None:
    write_lf(path, summary_json(result))
