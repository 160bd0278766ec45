"""Order statistics used by every metric the benchmark reports.

Latency quantiles use the Harrell-Davis estimator: a weighted mean of
all order statistics with Beta-distributed weights centred on the
requested quantile.  Service latencies here are quantized by the
client's 50 ms poll, and a single order statistic then jumps a whole
poll step between runs; the weighted estimate moves smoothly instead.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a tail percentile for it to be reported.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the *p* quantile (0 < p < 1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def p50(values: list[float]) -> float:
    return quantile(values, 0.5)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: with ``n`` samples the percentile
    is ``100 * (n - TAIL_BEYOND) / n``.  With too few samples for that,
    the maximum is returned with percentile 100.
    """
    if not values:
        return 0.0, 0.0
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
