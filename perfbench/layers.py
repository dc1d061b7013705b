"""The per-layer breakdown: which public calls a traced run wraps, and how
the spans become the per-layer metrics.

Every traced run wraps every layer and reports every metric; a layer a
workload never calls reads 0, which is itself a prediction (astraea
controller work on ``fleet-cubic`` should stay 0).

Layer -> end-to-end metric it should move, on which workload:

=====================  =======================  ==========================
layer                  moves                    on
=====================  =======================  ==========================
netsim.fluid           work_per_s               fluid-astraea, fleet-cubic
netsim.stats           work_per_s               fleet-cubic
env.multiflow          work_per_s               fleet-cubic
core.astraea/state/    work_per_s               fluid-astraea,
policy                                          packet-astraea
cc                     work_per_s               fleet-cubic
metrics                work_per_s               episode workloads
netsim.packet          work_per_s               packet-astraea
fleet/parallel         work_per_s, setup_s      fleet-cubic
core.learner/rl/       work_per_s               train-astraea
env.episode
service.daemon/        work_per_s, latency_ms   serve-open
service.inference
load generator         validity of serve-open   serve-open
=====================  =======================  ==========================
"""

from __future__ import annotations

#: Every per-layer metric, in ``BENCHMARK.json`` order, with its unit.
PER_LAYER: list[tuple[str, str]] = [
    ("fluid.advance_block.calls", "count"),
    ("fluid.advance_block.s", "s"),
    ("fluid.ns_per_flow_tick", "ns"),
    ("stats.collect.calls", "count"),
    ("stats.collect.s", "s"),
    ("multiflow.finish_flow.s", "s"),
    ("multiflow.driver_self_s", "s"),
    ("astraea.on_interval.calls", "count"),
    ("astraea.on_interval.self_s", "s"),
    ("state.update.s", "s"),
    ("policy.act.calls", "count"),
    ("policy.act.s", "s"),
    ("cc.on_interval.s", "s"),
    ("metrics.summary_s", "s"),
    ("packet.run.self_s", "s"),
    ("packet.us_per_pkt", "us"),
    ("packet.controller_s", "s"),
    ("fleet.shard_s.median", "s"),
    ("fleet.shard_s.max", "s"),
    ("fleet.pool_overhead_s", "s"),
    ("fleet.merge_s", "s"),
    ("learner.act_batch.calls", "count"),
    ("learner.act_batch.s", "s"),
    ("learner.update_burst.s", "s"),
    ("td3.update.calls", "count"),
    ("td3.update.s", "s"),
    ("replay.sample.s", "s"),
    ("replay.add_batch.s", "s"),
    ("episode.rollout_self_s", "s"),
    ("daemon.cpu_s_per_action", "s"),
    ("inference.forward_cpu_s_per_action", "s"),
    ("inference.mean_batch", "count"),
    ("inference.forward_passes", "count"),
    ("inference.fallbacks", "count"),
    ("inference.deadline_misses", "count"),
    ("daemon.admission_rejected", "count"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("gen.lateness_p99_ms", "ms"),
    ("gen.cpu_s_per_action", "s"),
    ("quality.jfi", "ratio"),
    ("quality.utilization", "ratio"),
    ("quality.mean_rtt_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounted_share", "ratio"),
    ("trace.unattributed_s", "s"),
]


def _count_flow_ticks(tracer, args, kwargs) -> None:
    engine, n_ticks = args[0], kwargs.get("n_ticks", args[2]
                                          if len(args) > 2 else 0)
    tracer.count("fluid.flow_ticks", int(n_ticks) * len(engine.flow_ids))


def _remember_packet_net(tracer, args, kwargs) -> None:
    tracer.capture("packet.net", args[0])


def _packets_sent(net) -> int:
    """Packets a finished packet network sent, over its flow ids 0..n-1."""
    sent, fid = 0, 0
    while True:
        try:
            sent += net.stats(fid).sent
        except KeyError:
            return sent
        fid += 1


def _cc_classes() -> list[type]:
    """Every registered controller class with its own ``on_interval``,
    except astraea (its own layer) and the training controller."""
    import repro.cc  # noqa: F401 — registers the schemes
    from repro.cc.base import CongestionController
    from repro.core.astraea import AstraeaController
    from repro.env.episode import TrainFlowController

    found, todo = [], list(CongestionController.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls in (AstraeaController, TrainFlowController) or \
                "on_interval" not in cls.__dict__ or cls in found:
            continue
        found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def install(tracer) -> None:
    """Wrap each layer's public calls once, at the class or module."""
    from repro.core.astraea import AstraeaController
    from repro.core.learner import Learner
    from repro.core.policy import PolicyBundle
    from repro.core.state import LocalStateBlock
    from repro.env import episode, multiflow
    from repro.env.multiflow import ScenarioDriver
    from repro.metrics import summary
    from repro.metrics.fairness import FairnessAccumulator
    from repro.netsim.fluid import FluidNetwork
    from repro.netsim.packet import PacketNetwork
    from repro.netsim.stats import FlowMonitor
    from repro.rl.replay import ReplayBuffer
    from repro.rl.td3 import TD3Learner

    wrap = tracer.wrap
    wrap(FluidNetwork, "advance_block", "fluid.advance_block",
         on_call=_count_flow_ticks)
    wrap(FlowMonitor, "collect", "stats.collect")
    wrap(multiflow, "run_scenario", "multiflow.run")
    wrap(ScenarioDriver, "step_block", "multiflow.step")
    wrap(ScenarioDriver, "step_collect", "multiflow.step")
    wrap(ScenarioDriver, "finish_flow", "multiflow.finish_flow")
    wrap(AstraeaController, "on_interval", "astraea.on_interval")
    wrap(LocalStateBlock, "update", "state.update")
    wrap(PolicyBundle, "act", "policy.act")
    for cls in _cc_classes():
        wrap(cls, "on_interval", "cc.on_interval")
    wrap(summary, "summarize", "metrics.summary")
    wrap(PacketNetwork, "run", "packet.run", on_call=_remember_packet_net)
    wrap(FairnessAccumulator, "merge", "fleet.merge")
    wrap(Learner, "act_batch", "learner.act_batch")
    wrap(Learner, "update_burst", "learner.update_burst")
    wrap(TD3Learner, "update", "td3.update")
    wrap(ReplayBuffer, "sample", "replay.sample")
    wrap(ReplayBuffer, "add_batch", "replay.add_batch")
    wrap(episode, "run_training_episode", "episode.rollout")


def from_spans(tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics derived from the recorded spans."""
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    flow_ticks = tracer.counters.get("fluid.flow_ticks", 0)
    packets = sum(_packets_sent(net)
                  for net in tracer.captured.get("packet.net", []))
    packet_self = get("packet.run", "self_s")
    out = {
        "fluid.advance_block.calls": get("fluid.advance_block", "calls"),
        "fluid.advance_block.s": get("fluid.advance_block", "total_s"),
        "fluid.ns_per_flow_tick": (
            get("fluid.advance_block", "total_s") / flow_ticks * 1e9
            if flow_ticks else 0.0),
        "stats.collect.calls": get("stats.collect", "calls"),
        "stats.collect.s": get("stats.collect", "total_s"),
        "multiflow.finish_flow.s": get("multiflow.finish_flow", "total_s"),
        "multiflow.driver_self_s": (get("multiflow.step", "self_s")
                                    + get("multiflow.run", "self_s")),
        "astraea.on_interval.calls": get("astraea.on_interval", "calls"),
        "astraea.on_interval.self_s": get("astraea.on_interval", "self_s"),
        "state.update.s": get("state.update", "total_s"),
        "policy.act.calls": get("policy.act", "calls"),
        "policy.act.s": get("policy.act", "total_s"),
        "cc.on_interval.s": get("cc.on_interval", "self_s"),
        "metrics.summary_s": get("metrics.summary", "total_s"),
        "packet.run.self_s": packet_self,
        "packet.us_per_pkt": packet_self / packets * 1e6 if packets else 0.0,
        "packet.controller_s": (
            tracer.inside("astraea.on_interval", "packet.run")
            + tracer.inside("cc.on_interval", "packet.run")),
        "fleet.merge_s": get("fleet.merge", "total_s"),
        "learner.act_batch.calls": get("learner.act_batch", "calls"),
        "learner.act_batch.s": get("learner.act_batch", "total_s"),
        "learner.update_burst.s": get("learner.update_burst", "total_s"),
        "td3.update.calls": get("td3.update", "calls"),
        "td3.update.s": get("td3.update", "total_s"),
        "replay.sample.s": get("replay.sample", "total_s"),
        "replay.add_batch.s": get("replay.add_batch", "total_s"),
        "episode.rollout_self_s": get("episode.rollout", "self_s"),
        "trace.unattributed_s": get("workload.unit", "self_s"),
    }
    # Self time of every layer span, i.e. everything but the glue between
    # layer calls inside a unit, over the wall time of the traced units.
    layer_self = sum(entry["self_s"] for name, entry in summary.items()
                     if name != "workload.unit")
    out["trace.accounted_share"] = (layer_self / traced_wall_s
                                    if traced_wall_s > 0 else 0.0)
    return out
