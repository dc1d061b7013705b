"""Copa: practical delay-based congestion control (NSDI'18), simplified.

Copa drives the sending rate toward the NUM target ``1 / (delta * d_q)``
where ``d_q`` is the measured queueing delay, using a velocity parameter
that doubles while the direction of adjustment is consistent.  The original
also switches into a "competitive mode" (smaller effective delta) when it
believes it shares the bottleneck with buffer-filling flows; the paper
(§5.1.1) attributes Copa's instability to erroneous switches, and this
implementation reproduces the mechanism with the same default thresholds.
"""

from __future__ import annotations

from .windowed import WindowedMin
from ..netsim.stats import MtpStats
from .base import CongestionController, Decision, register


@register("copa")
class Copa(CongestionController):
    """Simplified Copa with velocity and mode switching."""

    DELTA = 0.5          # default-mode delta (1/packets)
    MIN_CWND = 2.0
    LOSS_THRESHOLD = 0.05  # ignore sub-congestion-scale (random) loss

    def __init__(self, mtp_s: float = 0.030, enable_mode_switch: bool = True):
        super().__init__(mtp_s)
        self._mode_switch = enable_mode_switch
        self.rtt_floor = WindowedMin(10.0)
        self.reset()

    def reset(self) -> None:
        self.cwnd = self.initial_cwnd
        self.rtt_floor.reset()
        self._velocity = 1.0
        self._direction = 0
        self._same_direction_count = 0
        self._delta = self.DELTA
        self._rtt_standing = float("inf")

    def interval_s(self, srtt_s: float) -> float:
        return max(srtt_s / 2.0, self.mtp_s)

    def on_interval(self, stats: MtpStats) -> Decision:
        now = stats.time_s
        rtt_min = self.rtt_floor.push(now, stats.min_rtt_s)
        srtt = max(stats.avg_rtt_s, 1e-6)
        d_q = max(srtt - rtt_min, 1e-6)

        # Mode switching: if the queue never drains (delay stays well above
        # base), Copa suspects buffer-fillers and competes harder (smaller
        # effective delta).  Erroneous switches cause rate oscillation.
        if self._mode_switch:
            nearly_empty = d_q < 0.1 * rtt_min + 1e-4
            if nearly_empty:
                self._delta = self.DELTA
            else:
                self._delta = max(self._delta / 1.1, self.DELTA / 4.0)

        target_rate = 1.0 / (self._delta * d_q)          # packets/s
        current_rate = self.cwnd / srtt
        step = (self._velocity / (self._delta * max(self.cwnd, 1.0))) \
            * max(stats.delivered_pkts, 1.0)
        if current_rate < target_rate:
            direction = 1
            self.cwnd += step
        else:
            direction = -1
            self.cwnd -= step

        if direction == self._direction:
            self._same_direction_count += 1
            if self._same_direction_count >= 3:
                self._velocity = min(self._velocity * 2.0, 32.0)
        else:
            self._velocity = 1.0
            self._same_direction_count = 0
        self._direction = direction

        if stats.loss_rate > self.LOSS_THRESHOLD:
            # Copa is delay-based and deliberately insensitive to random
            # loss (App. B.2); only heavy (congestion-scale) loss cuts.
            self.cwnd = max(self.cwnd / 2.0, self.MIN_CWND)
            self._velocity = 1.0
        self.cwnd = max(self.cwnd, self.MIN_CWND)
        return Decision(cwnd_pkts=self.cwnd)
