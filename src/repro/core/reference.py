"""Analytic reference policy with the learned policy's structure (§5.5).

Fig. 17 of the paper visualises what the trained model converges to: for
every flow the action *decreases monotonically with observed delay*,
crossing zero at an equilibrium delay that depends on the flow's
throughput; because all flows sharing a bottleneck observe the same
queueing delay, flows on the wrong side of their equilibrium shed or gain
bandwidth until everyone sits at the common fair point.

``AstraeaReference`` distils exactly that structure into a closed-form
controller in Astraea's own action space (Eq. 3 window updates, action in
[-1, 1]):

* it estimates its own queued backlog ``diff = cwnd * (1 - rtt_min/rtt)``
  (the delay signal),
* drives it toward a fixed per-flow target backlog.  Every flow holding the
  same absolute backlog pins the fair share exactly (a flow's throughput is
  proportional to its share of the bottleneck queue), and makes the
  zero-crossing delay ``rtt_min * (1 + target/cwnd)`` — *lower* for
  higher-throughput flows, which is the orientation that makes the
  bandwidth-transfer argument of §5.5 self-consistent and stable
  (EXPERIMENTS.md discusses the sign convention),
* tolerates random loss below one percent (loss resilience, App. B.2) and
  backs off sharply on heavy loss or bufferbloat,
* hands over from a standard slow-start ramp on connection start, exactly
  as the kernel-TCP integration of §4 does before the agent's bounded
  multiplicative updates take over.

It serves three roles: a deterministic test oracle for the environment, a
calibrated fallback when no trained bundle is available, and the
interpretation baseline for the Fig. 17 benchmark.
"""

from __future__ import annotations

import numpy as np

from ..cc.base import CongestionController, Decision, register
from ..cc.windowed import WindowedMin
from ..config import ACTION_ALPHA, MTP_S
from ..netsim.stats import MtpStats
from .action import apply_action, pacing_from_cwnd


@register("astraea-ref")
class AstraeaReference(CongestionController):
    """Closed-form embodiment of the learned Astraea policy structure."""

    GAIN = 1.0
    TARGET_PKTS = 5.0           # per-flow queued-backlog target
    LOSS_TOLERANCE = 0.01       # below this, loss is treated as stochastic
    LOSS_BACKOFF_GAIN = 30.0
    BUFFERBLOAT_RATIO = 3.0     # rtt above this multiple of base forces backoff
    SLOW_START_GROWTH = 1.5     # per-interval growth during handover
    RTT_WINDOW_S = 10.0         # sliding window for the rtt_min filter
    PROBE_INTERVAL_S = 5.0      # how often the policy drains to re-sample rtt_min
    PROBE_INTERVALS = 3         # drain duration in monitoring intervals

    def __init__(self, mtp_s: float = MTP_S, alpha: float = ACTION_ALPHA,
                 use_pacing: bool = True, slow_start: bool = True,
                 target_pkts: float | None = None):
        super().__init__(mtp_s)
        self.alpha = alpha
        self.use_pacing = use_pacing
        self.slow_start_enabled = slow_start
        self.target_pkts = target_pkts if target_pkts is not None \
            else self.TARGET_PKTS
        self.rtt_floor = WindowedMin(self.RTT_WINDOW_S)
        self.reset()

    def reset(self) -> None:
        self.cwnd = self.initial_cwnd
        self.rtt_floor.reset()
        self._in_slow_start = self.slow_start_enabled
        self._next_probe_s: float | None = None
        self._drain_left = 0

    # ------------------------------------------------------------------

    def _signals(self, stats: MtpStats) -> tuple[float, float, float]:
        """(rtt_min, rtt, own queued backlog) from the latest MTP.

        ``rtt_min`` is windowed so stale baselines expire: a late joiner
        never sees an empty queue, so a lifetime minimum would overestimate
        its base RTT and make it hold extra backlog.
        """
        rtt_min = self.rtt_floor.push(stats.time_s, stats.min_rtt_s)
        rtt = max(stats.avg_rtt_s, rtt_min)
        diff = stats.cwnd_pkts * (1.0 - rtt_min / rtt)
        return rtt_min, rtt, diff

    def policy_action(self, rtt_min: float, rtt: float, diff: float,
                      loss_rate: float) -> float:
        """The closed-form policy: action in [-1, 1] from the raw signals.

        Pure function of its arguments — no probe/drain bookkeeping — so
        it can label states for distillation
        (:func:`repro.core.distill.collect_reference_dataset`) as well as
        drive :meth:`action_for`.
        """
        action = self.GAIN * (self.target_pkts - diff) / self.target_pkts
        # Loss response: tolerate stochastic loss, back off on congestion loss.
        if loss_rate > self.LOSS_TOLERANCE:
            backoff = min(self.LOSS_BACKOFF_GAIN * loss_rate, 1.0)
            action = min(action, -backoff)
        # Bufferbloat guard.
        if rtt > self.BUFFERBLOAT_RATIO * rtt_min:
            action = min(action, -0.5)
        return float(np.clip(action, -1.0, 1.0))

    def peek_action(self, stats: MtpStats) -> float:
        """The policy's action for ``stats`` without mutating any state.

        Unlike :meth:`action_for` this neither advances the probe-drain
        schedule nor pushes into the sliding RTT window, so it can be
        called alongside the live controller (the distillation recorder
        does exactly that).
        """
        rtt_min = self.rtt_floor.peek(stats.time_s, stats.min_rtt_s)
        rtt = max(stats.avg_rtt_s, rtt_min)
        diff = stats.cwnd_pkts * (1.0 - rtt_min / rtt)
        return self.policy_action(rtt_min, rtt, diff, stats.loss_rate)

    def action_for(self, stats: MtpStats) -> float:
        """The policy's raw action in [-1, 1] (exposed for Fig. 17)."""
        rtt_min, rtt, diff = self._signals(stats)

        # Periodic short drain: briefly shed window so the bottleneck queue
        # empties and every flow re-samples the true base RTT (the same
        # role BBR's PROBE_RTT plays).
        now = stats.time_s
        if self._next_probe_s is None:
            self._next_probe_s = now + self.PROBE_INTERVAL_S
        if now >= self._next_probe_s:
            self._drain_left = self.PROBE_INTERVALS
            self._next_probe_s = now + self.PROBE_INTERVAL_S
        if self._drain_left > 0:
            self._drain_left -= 1
            return -1.0

        return self.policy_action(rtt_min, rtt, diff, stats.loss_rate)

    def on_interval(self, stats: MtpStats) -> Decision:
        if self._in_slow_start:
            _, _, diff = self._signals(stats)
            congested = (diff > 2.0 * self.target_pkts
                         or stats.loss_rate > self.LOSS_TOLERANCE)
            if congested:
                # Hand over to the policy, undoing the last overshoot.
                self._in_slow_start = False
                self.cwnd = max(self.cwnd / self.SLOW_START_GROWTH, 2.0)
            else:
                # ACK-clocked growth: at most one packet per delivered ACK.
                self.cwnd = min(self.cwnd * self.SLOW_START_GROWTH,
                                self.cwnd + max(stats.delivered_pkts, 1.0))
                pacing = pacing_from_cwnd(self.cwnd, max(stats.srtt_s, 1e-6)) \
                    if self.use_pacing else None
                return Decision(cwnd_pkts=self.cwnd, pacing_pps=pacing)
        action = self.action_for(stats)
        self.cwnd = apply_action(self.cwnd, action, self.alpha)
        pacing = pacing_from_cwnd(self.cwnd, max(stats.srtt_s, 1e-6)) \
            if self.use_pacing else None
        return Decision(cwnd_pkts=self.cwnd, pacing_pps=pacing)
