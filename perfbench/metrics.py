"""Pure arithmetic of the benchmark: percentiles, latencies, self time.

Everything here works on plain lists of floats (seconds stamps from
``time.perf_counter``) and returns milliseconds where a latency is
meant, so the unit tests can drive it with hand-built numbers.
"""

from __future__ import annotations

import statistics

# A tail percentile needs at least ten samples beyond it: a p90 is
# taken only over 100 samples or more.
P90_MIN_SAMPLES = 100


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]), like numpy's."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def windowed_p90(values) -> float:
    """Median over consecutive equal windows of the run of each one's p90.

    ``values`` are in the order they were taken; there are
    ``len // P90_MIN_SAMPLES`` windows, so each holds at least
    ``P90_MIN_SAMPLES``.  A slow spell of a shared machine that covers
    less than half of the windows does not move the result, as it would
    move the p90 of the whole run; a tail the program makes shows in
    every window.
    """
    values = list(values)
    n_windows = len(values) // P90_MIN_SAMPLES
    if n_windows == 0:
        raise ValueError(f"p90 needs {P90_MIN_SAMPLES} samples, got {len(values)}")
    edges = [i * len(values) // n_windows for i in range(n_windows + 1)]
    return statistics.median(
        percentile(values[a:b], 90) for a, b in zip(edges, edges[1:]))



def ttft_ms(origin: float, emit_stamps) -> float:
    """First token's delay after ``origin``, the submit stamp."""
    if not emit_stamps:
        raise ValueError("request emitted no token")
    return (emit_stamps[0] - origin) * 1e3


def tpot_ms(emit_stamps) -> float:
    """Per request: (last - first token time) / (n - 1)."""
    n = len(emit_stamps)
    if n < 2:
        raise ValueError("TPOT needs at least two tokens")
    return (emit_stamps[-1] - emit_stamps[0]) / (n - 1) * 1e3


def itl_gaps_ms(emit_stamps) -> list:
    """The gap before each token after the first."""
    return [(b - a) * 1e3 for a, b in zip(emit_stamps, emit_stamps[1:])]


def queue_waits_ms(admissions, tick_starts) -> list:
    """Queue wait per request from the start stamp of its admitting tick.

    ``admissions`` holds ``(origin_seconds, admitted_tick)`` pairs and
    ``tick_starts`` maps a tick number to the perf-counter stamp taken
    when that tick began.  A request due mid-tick is admitted at the
    start of the next tick at the earliest, so waits are never negative.
    """
    return [
        max(tick_starts[tick] - origin, 0.0) * 1e3
        for origin, tick in admissions
    ]


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover.

    ``spans`` is a sequence of objects with ``start``, ``end`` and
    ``parent`` (index into ``spans`` or ``None``).  Child intervals are
    clipped to the parent's before their union is taken.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return [
        (span.end - span.start) - covered_length(kids)
        for span, kids in zip(spans, children)
    ]


def quartile_spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` from ``statistics.quantiles``."""
    values = [float(v) for v in values]
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread
