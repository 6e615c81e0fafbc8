"""Statistics and guards of the benchmark, kept free of I/O so the
benchmark's own tests (test_stats.py) can run them on synthetic data.

Percentiles are nearest-rank: the q-quantile of n sorted samples is the
ceil(q * n)-th smallest. A percentile is only *supported* by a sample
when at least MIN_BEYOND samples lie above it.
"""

import math

MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 0.5)


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def supports(n, q, min_beyond=MIN_BEYOND):
    """True when n samples leave at least min_beyond beyond quantile q."""
    return samples_beyond(n, q) >= min_beyond


def group_by_kind(op_ms, op_kind):
    groups = {}
    for ms, kind in zip(op_ms, op_kind):
        groups.setdefault(kind, []).append(ms)
    return groups


def geomean_of_medians(op_ms, op_kind):
    """Geometric mean, over op kinds, of each kind's median op time."""
    groups = group_by_kind(op_ms, op_kind)
    if not groups:
        raise ValueError("geomean of no groups")
    logs = [math.log(median(v)) for v in groups.values()]
    return math.exp(sum(logs) / len(logs))


def determinism_guard(counts):
    """Exact work counts, as (key, value) pairs in observation order.

    Every observation of one key must carry the same value (the first
    observation is the expected value for the run's seed). Returns the
    keys that disagree, each with its distinct values in order.
    """
    seen = {}
    for key, value in counts:
        seen.setdefault(key, [])
        if value not in seen[key]:
            seen[key].append(value)
    return {key: values for key, values in seen.items() if len(values) > 1}


def segment_medians(op_ms, op_kind, segments):
    """Median op time of each of `segments` equal stretches of a run, in
    op order. Each op is first divided by its kind's median, so a
    workload that mixes cheap and expensive kinds compares like with
    like. Returns None when the run has fewer than 2 ops a segment.
    """
    n = len(op_ms)
    if n < 2 * segments:
        return None
    medians = {k: median(v) for k, v in group_by_kind(op_ms, op_kind).items()}
    ratios = [ms / medians[k] if medians[k] > 0 else 1.0
              for ms, k in zip(op_ms, op_kind)]
    cuts = [i * n // segments for i in range(segments + 1)]
    return [median(ratios[cuts[i]:cuts[i + 1]]) for i in range(segments)]


def theil_sen_slope(values):
    """Median of the slopes between every pair of points (a slope that
    a few outlying points cannot move)."""
    n = len(values)
    return median([(values[j] - values[i]) / (j - i)
                   for i in range(n) for j in range(i + 1, n)])


def line_sse(values):
    """Squared error of the least-squares line through the points."""
    n = len(values)
    mx, my = (n - 1) / 2, sum(values) / n
    slope = (sum((x - mx) * (y - my) for x, y in enumerate(values))
             / sum((x - mx) ** 2 for x in range(n)))
    return sum((y - my - slope * (x - mx)) ** 2 for x, y in enumerate(values))


def step_sse(values):
    """Squared error of the best fit by one step (two flat levels)."""
    def flat(part):
        mean = sum(part) / len(part)
        return sum((y - mean) ** 2 for y in part)
    return min(flat(values[:k]) + flat(values[k:])
               for k in range(1, len(values)))


def drift_guard(op_ms, op_kind, bound):
    """(trend, ok) for a run's op times.

    The trend is the last quarter's median over the first quarter's,
    minus one. It is a defect (ok False), state growing or shrinking
    with every op, when it exceeds bound and the medians of the run's
    eight eighths confirm it: their Theil-Sen slope, taken over the
    run, moves the same way by more than bound, and a steady line fits
    them better than one step. A slow host window steps a stretch of
    the run up and back (no slope) or steps once and stays (a step
    fits), so neither trips the guard.
    """
    quarters = segment_medians(op_ms, op_kind, 4)
    eighths = segment_medians(op_ms, op_kind, 8)
    if eighths is None:
        return None, True
    trend = quarters[-1] / quarters[0] - 1.0
    growth = theil_sen_slope(eighths) * (len(eighths) - 1) / median(eighths)
    steady = (growth * trend > 0 and abs(growth) > bound
              and line_sse(eighths) < step_sse(eighths))
    return trend, not (abs(trend) > bound and steady)
