"""Statistics for the benchmark.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, with the sample count. Every ratio carries
its numerator and denominator.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile q (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, q):
    """How many of `count` samples lie above the nearest-rank percentile q."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, as (label, value). With too few samples for any of them the
    maximum is returned, labelled "max"."""
    for q in ladder:
        if beyond(len(values), q) >= min_beyond:
            return "p%g" % q, percentile(values, q)
    return "max", max(values)


def summarize(values):
    """Median, tail and sample count of a timing sample."""
    label, value = tail(values)
    return {"count": len(values), "p50": statistics.median(values),
            "tail": value, "tail_at": label}


def class_median(values, classes, shares):
    """The medians of each class's samples, averaged with the classes'
    expected shares as weights, over the classes that have samples.

    The request mix of a run moves with its seed; the median of a stream
    with classes of very different latency jumps between them. Weighting
    each class's median by its expected share does neither."""
    groups = {}
    for value, cls, share in zip(values, classes, shares):
        groups.setdefault(cls, (share, []))[1].append(value)
    if not groups:
        raise ValueError("class median of an empty sample")
    total = sum(share for share, _ in groups.values())
    return sum(share * statistics.median(samples)
               for share, samples in groups.values()) / total


def ratio(numerator, denominator):
    """A ratio with its base; 0 when the base is empty."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "of": numerator, "base": denominator}


def quartile_spread(values):
    """Distance between the first and third quartile over the median, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
