"""Order statistics behind the end-to-end latency metrics."""

from __future__ import annotations

# Percentiles the tail metric may report, in hundredths of a percent, lowest
# first.  A fixed ladder keeps the reported percentile the same from run to
# run as long as the op count stays within one decade.
TAIL_LADDER = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10
# Consecutive ops per tail window.  On a shared machine a stretch of preemption
# lands in one window; the median over windows keeps it from setting the tail.
TAIL_WINDOW = 2000


def tail_percentile(samples):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Returns (value, percentile, beyond): the sample at the percentile's
    nearest rank, the percentile itself, and how many samples rank above it.
    Raises ValueError when no ladder percentile qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pm in TAIL_LADDER:
        rank = -(-pm * n // 10000)  # nearest rank, 1-based
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (ordered[rank - 1], pm / 100.0, n - rank)
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return best


def median(samples) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def windowed_tail(samples, window: int = TAIL_WINDOW):
    """tail_percentile of each window of `window` consecutive samples, median over windows.

    A final window shorter than the others is dropped; a run shorter than one
    window is a single window.  Returns (value, percentile, beyond, windows),
    percentile and beyond being those of every window.
    """
    samples = list(samples)
    windows = [samples[i:i + window] for i in range(0, len(samples), window)]
    if len(windows) > 1 and len(windows[-1]) < window:
        windows.pop()
    tails = [tail_percentile(w) for w in windows]
    return median([t[0] for t in tails]), tails[0][1], tails[0][2], len(tails)
