"""The analytic reference policy: structure and end-to-end behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LinkConfig, ScenarioConfig
from repro.core.reference import AstraeaReference
from repro.env import run_scenario
from repro.netsim import staggered_flows
from tests.cc.test_base import make_stats


class TestPolicyStructure:
    """The Fig. 17 properties: monotone in delay, throughput-dependent
    zero crossing."""

    def make(self, cwnd=200.0):
        ref = AstraeaReference(slow_start=False)
        ref.cwnd = cwnd
        return ref

    def action_at(self, ref, rtt, cwnd=200.0, thr=5000.0, loss=0.0):
        return ref.action_for(make_stats(
            avg_rtt_s=rtt, min_rtt_s=0.030, cwnd_pkts=cwnd,
            throughput_pps=thr, lost_pkts=loss * 30.0, sent_pkts=30.0))

    def test_action_decreases_with_delay(self):
        ref = self.make(cwnd=60.0)
        ref.rtt_floor.push(0.0, 0.030)
        actions = [self.action_at(ref, rtt, cwnd=60.0)
                   for rtt in (0.030, 0.0315, 0.033, 0.040, 0.080)]
        assert all(a >= b for a, b in zip(actions, actions[1:]))
        assert actions[0] > 0.0 > actions[-1]

    def test_zero_crossing_lower_for_larger_windows(self):
        """Higher-throughput flows reach equilibrium at lower delay — the
        mechanism that transfers bandwidth from fast to slow flows."""

        def equilibrium_delay(cwnd):
            ref = self.make(cwnd)
            ref.rtt_floor.push(0.0, 0.030)
            for rtt in np.linspace(0.030, 0.120, 200):
                if self.action_at(ref, rtt, cwnd=cwnd) <= 0.0:
                    return rtt
            return np.inf

        assert equilibrium_delay(400.0) < equilibrium_delay(100.0)

    def test_heavy_loss_forces_backoff(self):
        ref = self.make()
        assert self.action_at(ref, 0.030, loss=0.10) < 0.0

    def test_stochastic_loss_tolerated(self):
        """Sub-1% loss (satellite, App. B.2) does not cause backoff."""
        ref = self.make(cwnd=10.0)
        assert self.action_at(ref, 0.030, cwnd=10.0, loss=0.005) > 0.0

    def test_bufferbloat_guard(self):
        ref = self.make()
        ref.rtt_floor.push(0.0, 0.030)
        assert self.action_at(ref, 0.30) <= -0.5

    def test_periodic_drain(self):
        ref = self.make()
        actions = []
        for i in range(400):
            actions.append(ref.action_for(make_stats(
                time_s=(i + 1) * 0.03, avg_rtt_s=0.0312, min_rtt_s=0.030,
                cwnd_pkts=200.0)))
        # Every PROBE_INTERVAL_S a drain of PROBE_INTERVALS full-backoff
        # actions appears.
        assert actions.count(-1.0) >= 2 * AstraeaReference.PROBE_INTERVALS


class TestEndToEnd:
    def test_three_flows_converge_to_fairness(self):
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                            buffer_bdp=1.0),
            flows=staggered_flows(3, cc="astraea-ref", interval_s=10.0,
                                  duration_s=30.0),
            duration_s=50.0,
        )
        result = run_scenario(scenario)
        assert result.mean_jain() > 0.95
        assert result.utilization() > 0.9
        assert result.mean_loss_rate() < 0.001

    def test_single_flow_fills_link_with_low_delay(self, single_cubic_result,
                                                   short_link):
        from repro.config import FlowConfig

        scenario = ScenarioConfig(
            link=short_link,
            flows=(FlowConfig(cc="astraea-ref", start_s=0.0),),
            duration_s=15.0,
        )
        result = run_scenario(scenario)
        assert result.utilization() > 0.9
        # Queue target of ~5 pkts on 8333 pps: well under 1.2x base RTT.
        assert result.mean_rtt_s() < 0.030 * 1.3
