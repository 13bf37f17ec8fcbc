"""Spans recorded from outside the program, around the calls into each layer.

:class:`Tracer` replaces module-level names (and one method) of the
``bellframes`` package with wrappers that record one span per call: id,
name, start, end, parent span id and thread. Spans stay in memory until the
run ends. The program's own files are not touched; :meth:`Tracer.restore`
puts every original back.

A layer's self time is its span duration minus the time covered by its
child spans. Traced runs are single-threaded, so children of one span never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

# (owner attribute path, attribute, span name). Owner paths are relative to
# the bellframes package. Two entries may share a span name when the same
# layer is reached through two modules' imports of it. A name the program no
# longer has is skipped, so its layer simply reports no calls.
WRAPPED = (
    ("montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("montecarlo", "_compute_batch", "montecarlo.compute_batch"),
    ("montecarlo", "sample_generator", "montecarlo.sample_generator"),
    ("montecarlo", "haar_rotation", "su2.haar_rotation"),
    ("montecarlo", "random_candidate_set", "optimizer.random_candidate_set"),
    ("montecarlo", "rotate_directions", "su2.rotate_directions"),
    ("montecarlo", "_channel_tables", "optimizer.channel_tables"),
    ("montecarlo", "bell_values_over_assignments", "optimizer.scan"),
    ("montecarlo", "_build_result", "montecarlo.build_result"),
    ("montecarlo", "make_polynomial", "polynomials.make_polynomial"),
    ("montecarlo", "bounds_table", "polynomials.bounds_table"),
    ("montecarlo", "write_histogram_csv", "montecarlo.write"),
    ("montecarlo", "write_summary_json", "montecarlo.write"),
    ("optimizer", "rotate_directions", "su2.rotate_directions"),
    ("optimizer", "_channel_tables", "optimizer.channel_tables"),
    ("optimizer", "bell_values_over_assignments", "optimizer.scan"),
    ("polynomials.BellPolynomial", "coefficient_tensor", "polynomials.coefficient_tensor"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
    ("cli", "make_polynomial", "polynomials.make_polynomial"),
    ("cli", "max_bell_value", "optimizer.max_bell_value"),
    ("restricted", "strategy_value", "restricted.strategy_value"),
)

SCAN = "optimizer.scan"


def _scan_counts(args):
    """(frames, assignments) scored by one scan call ``(ctensor, W, Z)``."""
    W = args[1]
    frames, n, _, k = W.shape
    return frames, frames * k**n


class Tracer:
    """In-memory span recorder.

    ``spans`` holds finished spans in the order they ended, as tuples
    ``(id, name, start, end, parent id, thread, counts)``; a root span has
    parent ``-1``. Tuples of plain values keep the garbage collector from
    walking the span list while the traced program runs.
    """

    def __init__(self):
        self.spans = []
        self.next_id = 0
        self._stack = []
        self._patched = []

    def install(self, package):
        for path, attr, name in WRAPPED:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            if hasattr(owner, attr):
                self._wrap(owner, attr, name)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        tracer, spans, stack = self, self.spans, self._stack
        count = _scan_counts if name == SCAN else None

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(),
                               count(args) if count else None))

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself, around one unit of work."""
        sid = self.next_id
        self.next_id = sid + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), None))

    def check_single_thread(self):
        if len({span[5] for span in self.spans}) > 1:
            raise RuntimeError("traced run used several threads; self times would overlap")

    def totals(self, lo, hi):
        """Per span name: calls, inclusive seconds, self seconds, over ``spans[lo:hi]``."""
        spans = self.spans[lo:hi]
        covered = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            covered[parent] += end - start
        calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, name, start, end, _, _, _ in spans:
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - covered[sid]
        return calls, incl, own

    def scan_counts(self, lo, hi):
        """(scan calls, frames scanned, assignments scored) over ``spans[lo:hi]``."""
        calls = frames = assignments = 0
        for span in self.spans[lo:hi]:
            if span[1] == SCAN:
                calls += 1
                frames += span[6][0]
                assignments += span[6][1]
        return calls, frames, assignments

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for sid, name, start, end, parent, thread, _ in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{thread}\n")
