"""Span recording for the benchmark's traced runs.

The tracer replaces a function at the names its callers look it up under
(a module global or a class attribute) with a wrapper that records one span
per call: name, parent span, start, end and an optional value taken from the
arguments or the result. Spans stay in memory until the run ends. Nothing
under ``src/`` is modified; ``restore`` puts every original back.

Spans are recorded from a single thread, so the child spans of one span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import math
import statistics
import time

# span record layout: [name, parent index or -1, start ns, end ns, value]
NAME, PARENT, START, END, VALUE = range(5)

# candidates for the reported tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, run_id, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped so each call records a span called name.

        before(*args, **kwargs) and after(result) may supply the span's value;
        they run outside the timed interval.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            value = before(*args, **kwargs) if before is not None else None
            rec = [name, stack[-1] if stack else -1, 0, 0, value]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[VALUE] = after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch every (owner, attribute, span name, before, after) target.

        Names bound to the same function share one wrapper, so a call is
        recorded once whichever name the caller used.
        """
        wrappers = {}
        for owner, attr, name, before, after in targets:
            original = owner.__dict__[attr]
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, before, after)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans):
    """Each span's duration minus the time its direct children cover (ns)."""
    covered = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def _rank(q, n):
    # rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with >= MIN_BEYOND samples above its rank.

    Returns None when even the median has fewer than MIN_BEYOND samples
    beyond it.
    """
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None


def summarize(spans):
    """Per span name: call count, total and self time, median and tail duration."""
    selfs = self_times(spans)
    by_name = {}
    for rec, s in zip(spans, selfs):
        entry = by_name.setdefault(rec[NAME], ([], []))
        entry[0].append((rec[END] - rec[START]) / 1e6)
        entry[1].append(s / 1e6)
    out = {}
    for name, (durs, self_ms) in sorted(by_name.items()):
        q = tail_percentile(len(durs))
        out[name] = {
            "n": len(durs),
            "total_ms": sum(durs),
            "self_ms": sum(self_ms),
            "p50_ms": statistics.median(durs),
            "tail_q": q,
            "tail_ms": None if q is None else percentile(durs, q),
        }
    return out
