"""The shared sliding-window minimum against the brute-force filter it
replaced in the Astraea guards, the reference policy and Copa."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cc.windowed import WindowedMin

WINDOW = 10.0

# Gaps from zero (repeated timestamps) to far past the window; values
# from a few repeated RTTs (ties) to 0, subnormal, 1e300 and inf.
GAPS = st.one_of(st.just(0.0), st.floats(0.0, 3.0 * WINDOW),
                 st.sampled_from([WINDOW, 2.5 * WINDOW, 1e3]))
VALUES = st.one_of(st.sampled_from([0.03, 0.031, 0.05]),
                   st.sampled_from([0.0, 5e-324, 1e-310, 1e300, math.inf]),
                   st.floats(0.0, 1e300))
STEPS = st.lists(st.tuples(GAPS, VALUES), min_size=1, max_size=60)


def brute_min(samples, now, extra=None):
    """The old filter: minimum over the samples still in the window."""
    horizon = now - WINDOW
    window = [r for t, r in samples if t >= horizon]
    if extra is not None:
        window.append(extra)
    return min(window)


def timeline(steps):
    t = 0.0
    for gap, value in steps:
        t += gap
        yield t, value


class TestWindowedMin:
    @settings(max_examples=300, deadline=None)
    @given(steps=STEPS)
    @example(steps=[(0.0, 0.03), (0.0, 0.03), (0.0, 0.03)])
    @example(steps=[(0.0, 0.05), (WINDOW, 0.03), (1e-9, 0.04)])
    @example(steps=[(0.0, math.inf), (0.0, 5e-324), (2.5 * WINDOW, 1e300)])
    def test_push_matches_brute_force(self, steps):
        filt, samples = WindowedMin(WINDOW), []
        for t, value in timeline(steps):
            samples.append((t, value))
            assert filt.push(t, value) == brute_min(samples, t)

    @settings(max_examples=300, deadline=None)
    @given(steps=STEPS, gap=GAPS, extra=VALUES)
    @example(steps=[(0.0, 0.03)], gap=WINDOW, extra=0.05)
    @example(steps=[(0.0, 0.03)], gap=2.5 * WINDOW, extra=0.05)
    def test_peek_matches_brute_force_and_push(self, steps, gap, extra):
        filt, samples = WindowedMin(WINDOW), []
        for t, value in timeline(steps):
            samples.append((t, value))
            filt.push(t, value)
        now = samples[-1][0] + gap
        before = list(filt._samples)
        peeked = filt.peek(now, extra)
        assert peeked == brute_min(samples, now, extra)
        assert list(filt._samples) == before
        assert filt.push(now, extra) == peeked

    def test_peek_does_not_mutate(self):
        filt = WindowedMin(WINDOW)
        filt.push(0.0, 0.03)
        filt.push(1.0, 0.04)
        # A peek far past the window sees only ``extra`` ...
        assert filt.peek(100.0, 0.05) == 0.05
        # ... but leaves both samples in place for a peek inside it.
        assert filt.peek(5.0, 0.05) == 0.03
        assert filt.push(5.0, 0.05) == 0.03

    def test_reset_forgets_samples(self):
        filt = WindowedMin(WINDOW)
        filt.push(0.0, 0.01)
        filt.reset()
        assert filt.push(1.0, 0.05) == 0.05
