"""Constant-time sliding-window minimum (the filter behind Linux BBR's
``win_minmax``), shared by the controllers that track an RTT floor."""

from __future__ import annotations

from collections import deque


class WindowedMin:
    """Minimum of the samples pushed at times ``t >= now - window``.

    A deque holds samples whose values increase from front to back: a
    push drops every older sample that is no smaller (it can never be the
    minimum again), then the expired ones, so the front is the minimum at
    amortised O(1) per push.  It is one of the stored samples, hence
    exactly the brute-force minimum.  Timestamps must not decrease.
    """

    def __init__(self, window: float):
        self.window = window
        self._samples: deque[tuple[float, float]] = deque()

    def reset(self) -> None:
        self._samples.clear()

    def push(self, t: float, x: float) -> float:
        """Record ``x`` at time ``t``; returns the window minimum."""
        samples = self._samples
        while samples and samples[-1][1] >= x:
            samples.pop()
        samples.append((t, x))
        horizon = t - self.window
        while samples[0][0] < horizon:
            samples.popleft()
        return samples[0][1]

    def peek(self, t: float, extra: float) -> float:
        """What ``push(t, extra)`` would return, without changing state."""
        horizon = t - self.window
        for ts, value in self._samples:
            if ts >= horizon:
                return min(value, extra)
        return extra
