"""Order statistics used by every workload (no third-party deps)."""

from __future__ import annotations

import math
import resource
import statistics


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def middle_mean(samples: list[float]) -> float:
    """Interquartile mean: the mean of what is left after dropping the
    lowest and the highest quarter of the samples.

    The centre of a latency distribution that stays well-conditioned
    when the samples come from a few discrete classes: a median sits on
    a cliff whenever a class boundary falls at 50 % (on ``mixed.inproc``
    half the reads hit the result cache, so p50 flips between 30 us and
    1 ms), while this moves smoothly with the class shares."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def tail_mean(samples: list[float]) -> float:
    """Mean of the slowest tenth of the samples (at least one).

    With 20 equally weighted query classes every multiple of 5 % is a
    class boundary, so nearest-rank p95 or p90 reads either the top of
    one class or the bottom of the next (measured: 9 ms or 17 ms on
    ``read.inproc``, seed to seed); the mean over the tail does not."""
    ordered = sorted(samples)
    count = max(1, round(len(ordered) / 10))
    return sum(ordered[-count:]) / count


median = statistics.median


class Sampled(float):
    """A value that remembers how many samples are behind it (the
    result schema reports ``n`` next to every value)."""

    def __new__(cls, value: float, n: int):
        self = super().__new__(cls, value)
        self.n = n
        return self


def median_ms(samples: list[float]) -> Sampled:
    """Median of second-valued samples in ms; 0.0 when there are none
    (a layer that did no work on this workload)."""
    return Sampled(statistics.median(samples) * 1e3 if samples else 0.0,
                   len(samples))


def ratio(numerator: float, denominator: float) -> Sampled:
    """``numerator / denominator`` (0.0 over nothing), with the
    denominator as its sample count."""
    return Sampled(numerator / denominator if denominator else 0.0,
                   int(denominator))


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median — the figure the
    regression bounds are compared with."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus the largest of its waited-for
    children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
