"""Percentiles, shared by the benchmark's parent and child processes."""

BEYOND = 10  # samples the upper percentile leaves above it


def percentile(values, p):
    """Linear-interpolated p-th percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def upper(values):
    """(value, level): the highest percentile with BEYOND samples above it.

    That is the (BEYOND + 1)-th largest sample; its level is
    100 (n - 1 - BEYOND) / (n - 1), so 99.0 for 1008 samples and 97.1 for
    348.  A sample of BEYOND or fewer gives its smallest value.
    """
    xs = sorted(values)
    k = max(0, len(xs) - 1 - BEYOND)
    return xs[k], 100 * k / max(1, len(xs) - 1)
