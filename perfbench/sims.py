"""The four simulation workloads: fluid and packet episodes, the sharded
fleet and a training stride.

Each workload repeats one unit of work (an episode, a fleet run, a
training stride) on the same seed-derived input until no further unit
fits in the run's time, with at least two units.  The repeats are also
the output check: a unit whose outputs differ from the first unit's is a
failed check.

``latency_ms`` is the median unit time at the tuning host's speed and
``work_per_s`` a unit's work over it.  The shared 2-vCPU Xeon VM the
benchmark was tuned on changes speed by up to ~2x, in spells from under
a second to minutes, so raw unit times spread 20-50% between runs; a
calibration pass of the benchmark's own code runs between units, and
each unit's time is scaled by the host factor of the passes around it
(``harness.host_factor``).  The units are kept short (0.3-2 s of
measured time) so a run holds many of them and the median drops the
few whose passes caught the host in another state.  The raw median and
the median factor are printed beside the result.

In a traced run the first half of the time runs untraced units and the
second half traced ones, so the tracing overhead is the difference of
their median wall times.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from harness import Ledger, calibration_pass, children_peak_rss_mb, \
    host_factor, median, peak_rss_mb, reset_peak_rss

#: The ``repro template`` scenario: 3 astraea flows, 20 s apart, 60 s each,
#: on a 100 Mbps / 30 ms / 1 BDP link for 100 s.
TEMPLATE_LINK = dict(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)
#: Flow starts move by up to this much per seed: enough to give each seed
#: its own trajectory, small enough to keep JFI and utilization close.
START_JITTER_S = 1.0

#: The fluid episode is the template scaled down 4x in time (25 s, about
#: 0.3 s of wall time), so a run holds dozens of units.
FLUID_SCALE = 0.25
#: The packet engine costs ~15x the fluid one per simulated second, so the
#: packet episode is the template scaled down 8x in time.
PACKET_SCALE = 0.125

#: One shard per worker: a ~2 s run, still dominated by the per-flow path.
FLEET_SHAPE = dict(cc="cubic", n_shards=2, flows_per_shard=250, quick=True)
FLEET_WORKERS = 2

#: A stride's cost depends on its randomised scenarios (cross traffic,
#: flow starts, per-flow RTT); eight short episodes average it out.
TRAIN_EPISODES = 8
TRAIN_EPISODE_S = 12.0
TRAIN_FLOWS = 3
TRAIN_WARMUP = 256
#: One link for every seed, so the seed varies the flows' start times,
#: cross traffic, initial windows and exploration but not the size of
#: the simulated network (the default ranges change the cost of a stride
#: by more than the bound).
TRAIN_LINK = dict(bandwidth_mbps=(100.0, 100.0), rtt_ms=(30.0, 30.0),
                  buffer_bdp=(1.0, 1.0))


@dataclass
class Outcome:
    """What a workload measured; ``run.py`` turns it into the result."""

    work_per_s: float
    latency_ms: float
    #: Per-workload figures for the human-readable report.
    lines: list[tuple[str, float, str]] = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)
    quality: dict[str, float] = field(default_factory=dict)
    #: Layer figures measured without the tracer (pool, serving counters).
    layer: dict[str, float] = field(default_factory=dict)
    overhead_ms: float = 0.0
    traced_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Set by a workload that times its own set-up.
    setup_s: float | None = None
    #: Median host factor over the timed units; 1.0 for times as measured.
    host_factor: float = 1.0
    #: ``latency_ms`` as measured, before the host factor.
    measured_latency_ms: float = 0.0


# -- shared loop ---------------------------------------------------------

class Meter:
    """Runs units of work one at a time and measures each.

    Before a unit it frees the previous unit's reference cycles (a
    training stride leaves a whole learner behind) and restarts the
    process's peak-RSS mark, both outside the timed region, so neither
    the time nor the memory of a unit depends on the units run before it.
    A calibration pass runs between units, so each unit has one just
    before and one just after it; ``factors[i]`` is the host factor of
    the ``i``-th unit.
    """

    def __init__(self, every_cpu: bool = False):
        self.peaks_mb: list[float] = []
        self.factors: list[float] = []
        self.last_s = 0.0
        self.every_cpu = every_cpu
        self._after: float | None = None

    def __call__(self, unit) -> tuple[float, object]:
        before = self._after
        if before is None:
            before = calibration_pass(self.every_cpu)
        gc.collect()
        reset_peak_rss()
        t0 = time.perf_counter()
        out = unit()
        wall = time.perf_counter() - t0
        self._after = calibration_pass(self.every_cpu)
        self.factors.append(host_factor(before, self._after))
        self.peaks_mb.append(peak_rss_mb())
        self.last_s = wall
        return wall, out

    def fits(self, deadline: float) -> bool:
        """Whether a unit as long as the last one ends before ``deadline``."""
        return time.perf_counter() + self.last_s <= deadline


def repeat_units(unit, seconds: float, tracer, meter: Meter,
                 min_units: int = 2):
    """Run ``unit()`` while another unit fits in ``seconds``; returns
    untraced and traced ``(wall_s, output)`` lists.

    Without a tracer every unit is untraced.  With one, units run
    untraced for the first half of the time, then traced; each side gets
    at least one unit.
    """
    started = time.perf_counter()
    untraced = [meter(unit)]
    if tracer is None:
        while len(untraced) < min_units or meter.fits(started + seconds):
            untraced.append(meter(unit))
        return untraced, []
    while meter.fits(started + seconds / 2.0):
        untraced.append(meter(unit))
    return untraced, traced_units(unit, started + seconds, tracer, meter)


def traced_units(unit, deadline: float, tracer, meter: Meter) -> list:
    """Traced units until ``deadline`` (at least one), each inside a
    ``workload.unit`` root span; the wrappers are removed afterwards."""
    from layers import install

    def rooted():
        with tracer.span("workload.unit"):
            return unit()

    install(tracer)
    try:
        traced = [meter(rooted)]
        while meter.fits(deadline):
            traced.append(meter(rooted))
        return traced
    finally:
        tracer.close()


@contextmanager
def record_calls(owner, attr: str):
    """Collect ``(wall_s, result)`` of every call of ``owner.attr``."""
    original = getattr(owner, attr)
    calls = []

    def recorder(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        calls.append((time.perf_counter() - t0, result))
        return result

    setattr(owner, attr, recorder)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


@contextmanager
def clocked_calls(owner, attr: str):
    """Collect ``(wall_s, host_factor)`` of every call of ``owner.attr``,
    with a calibration pass just before and just after each call."""
    original = getattr(owner, attr)
    calls = []

    def clocked(*args, **kwargs):
        before = calibration_pass()
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            calls.append((wall, host_factor(before, calibration_pass())))

    setattr(owner, attr, clocked)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def check_repeats(ledger: Ledger, outputs: list, what: str) -> None:
    """Every unit must reproduce the first unit's outputs bit for bit."""
    first = outputs[0]
    for out in outputs:
        if out == first:
            ledger.ok()
        else:
            ledger.fail(f"{what} differs between repeats of one seed",
                        check=True)


def calibrated(units, factors) -> tuple[float, float, float]:
    """Median unit time at the tuning host's speed, with the median
    measured time and median host factor beside it.

    Each unit's wall time is scaled by its own host factor, and the
    median over units drops the few whose calibration passes caught the
    host in another state than the unit ran in.
    """
    walls = [w for w, _ in units]
    return (median([w * f for w, f in zip(walls, factors)]),
            median(walls), median(factors))


def finish(untraced, traced, factors, work_of, ledger, what) -> tuple:
    """Calibrated unit time, work per second, tracing overhead and the
    repeat check; ``factors`` are the host factors of ``untraced`` and
    then of ``traced``."""
    check_repeats(ledger, [o for _, o in untraced + traced], what)
    unit_s, measured_s, factor = calibrated(untraced, factors)
    rate = work_of(untraced[0][1]) / unit_s
    overhead_ms = 0.0
    if traced:
        traced_s, _, _ = calibrated(traced, factors[len(untraced):])
        overhead_ms = (traced_s - unit_s) * 1e3
    traced_wall = sum(w for w, _ in traced)
    return (unit_s, measured_s, factor, rate, overhead_ms, traced_wall,
            untraced[0][1])


# -- episodes ------------------------------------------------------------

def episode_scenario(seed: int, scale: float = 1.0):
    from repro.config import FlowConfig, LinkConfig, ScenarioConfig

    rng = np.random.default_rng(seed)
    starts = [0.0] + [scale * (20.0 * i + rng.uniform(0.0, START_JITTER_S))
                      for i in (1, 2)]
    flows = tuple(FlowConfig(cc="astraea", start_s=float(s),
                             duration_s=60.0 * scale) for s in starts)
    return ScenarioConfig(link=LinkConfig(**TEMPLATE_LINK), flows=flows,
                          duration_s=100.0 * scale, seed=seed)


def _episode_quality(result, summary) -> tuple:
    return (summary.mean_jain, summary.utilization, summary.mean_rtt_ms,
            tuple(len(f.times) for f in result.flows))


def _valid_quality(quality: tuple, n_flows: int) -> bool:
    jfi, util, rtt_ms, _ = quality
    return (1.0 / n_flows - 1e-9 <= jfi <= 1.0 + 1e-9
            and 0.0 < util <= 1.05 and np.isfinite(rtt_ms) and rtt_ms > 0)


def run_episode(engine: str, seed: int, seconds: float, tracer) -> Outcome:
    from repro.env import multiflow, packetrun
    from repro.metrics import summary as summary_mod

    scale = FLUID_SCALE if engine == "fluid" else PACKET_SCALE
    scenario = episode_scenario(seed, scale)

    def unit():
        if engine == "fluid":
            result = multiflow.run_scenario(scenario)
        else:
            result = packetrun.run_scenario_packet(scenario)
        return _episode_quality(result,
                                summary_mod.summarize(result, "astraea"))

    meter = Meter()
    untraced, traced = repeat_units(unit, seconds, tracer, meter)
    ledger = Ledger()
    unit_s, measured_s, factor, rate, overhead_ms, traced_wall, quality = \
        finish(untraced, traced, meter.factors, lambda _: scenario.duration_s,
               ledger, "jfi/utilization/mean_rtt_ms")
    for _, out in untraced + traced:
        if not _valid_quality(out, len(scenario.flows)):
            ledger.fail("quality metric out of range", check=True)
    jfi, util, rtt_ms, _ = quality
    return Outcome(
        work_per_s=rate, latency_ms=unit_s * 1e3,
        lines=[("sim_s_per_wall_s", rate, "s/s"),
               ("episodes", len(untraced), "count"),
               ("jfi", jfi, "ratio"), ("utilization", util, "ratio"),
               ("mean_rtt_ms", rtt_ms, "ms")],
        ledger=ledger,
        quality={"jfi": jfi, "utilization": util, "mean_rtt_ms": rtt_ms},
        overhead_ms=overhead_ms, traced_wall_s=traced_wall,
        peak_rss_mb=meter.peaks_mb[0], host_factor=factor,
        measured_latency_ms=measured_s * 1e3)


# -- fleet ---------------------------------------------------------------

def _fleet_layer(result, wall_s: float) -> dict[str, float]:
    shard_s = [s["elapsed_s"] for s in result.shards]
    balanced = max(sum(shard_s) / result.workers, max(shard_s))
    return {"fleet.shard_s.median": median(shard_s),
            "fleet.shard_s.max": max(shard_s),
            "fleet.pool_overhead_s": wall_s - balanced}


def run_fleet_workload(seed: int, seconds: float, tracer) -> Outcome:
    from repro.fleet import FleetSpec, check_equivalence, runner

    spec = FleetSpec(seed=seed, **FLEET_SHAPE)
    ledger = Ledger()
    # The shards run on every CPU at once.
    meter = Meter(every_cpu=True)
    started = time.perf_counter()
    # The check runs the fleet serially and on the pool; its pool leg is
    # also the first timing sample, and it counts against the run's time.
    with record_calls(runner, "run_fleet") as calls:
        _, verdict = meter(
            lambda: check_equivalence(spec, workers=FLEET_WORKERS))
    if verdict["passed"]:
        ledger.ok()
    else:
        ledger.fail("fleet fingerprint differs between workers=1 and 2",
                    check=True)
    pooled = [(w, r) for w, r in calls if r.workers == FLEET_WORKERS]
    reference = pooled[0][1].fingerprint()
    meter.last_s = pooled[0][0]
    if tracer is None:
        remaining = seconds - (time.perf_counter() - started)
        more, _ = repeat_units(
            lambda: runner.run_fleet(spec, workers=FLEET_WORKERS),
            remaining, None, meter)
        pooled += more
        traced, overhead_ms, traced_wall = [], 0.0, 0.0
    else:
        # Shards run inside pool workers, out of the tracer's reach, so
        # the traced units run the same fleet in-process; the untraced
        # in-process leg of the equivalence check is their baseline.
        serial = [(w, r) for w, r in calls if r.workers == 1]
        traced = traced_units(
            lambda: runner.run_fleet(spec, workers=1), 0.0, tracer, meter)
        overhead_ms = (median([w for w, _ in traced])
                       - median([w for w, _ in serial])) * 1e3
        traced_wall = sum(w for w, _ in traced)
    for _, result in pooled[1:] + traced:
        if result.fingerprint() == reference:
            ledger.ok()
        else:
            ledger.fail("fleet fingerprint differs between repeats",
                        check=True)
        if result.failures:
            ledger.fail("fleet shard quarantined", len(result.failures))
    # The check's pool leg has no calibration passes of its own around
    # it; the repeats after it do.
    if len(pooled) > 1:
        timed, factors = pooled[1:], meter.factors[1:len(pooled)]
    else:
        timed, factors = pooled, meter.factors[:1]
    unit_s, measured_s, factor = calibrated(timed, factors)
    first = pooled[0][1]
    rate = first.flow_ticks / unit_s
    layer = _fleet_layer(first, pooled[0][0])
    return Outcome(
        work_per_s=rate, latency_ms=unit_s * 1e3,
        lines=[("flow_ticks_per_s", rate, "1/s"),
               ("fleet_runs", len(pooled), "count"),
               ("jfi", first.jain, "ratio"),
               ("utilization", first.utilization, "ratio")],
        ledger=ledger,
        quality={"jfi": first.jain, "utilization": first.utilization},
        layer=layer, overhead_ms=overhead_ms, traced_wall_s=traced_wall,
        # The shards live in the pool workers.
        peak_rss_mb=max(meter.peaks_mb[0], children_peak_rss_mb()),
        host_factor=factor, measured_latency_ms=measured_s * 1e3)


# -- training ------------------------------------------------------------

def actor_checksum(bundle) -> str:
    digest = hashlib.sha256()
    for array in bundle.actor.get_state():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def train_config(seed: int):
    from repro.config import TrainingConfig, replace

    return replace(TrainingConfig(), episodes=TRAIN_EPISODES,
                   episode_duration_s=TRAIN_EPISODE_S,
                   warmup_transitions=TRAIN_WARMUP,
                   flow_count=(TRAIN_FLOWS, TRAIN_FLOWS),
                   **TRAIN_LINK, seed=seed)


def run_train(seed: int, seconds: float, tracer) -> Outcome:
    from repro.core import train
    from repro.core.learner import Learner
    from repro.env import episode

    cfg = train_config(seed)

    def unit():
        learners = []
        original = Learner.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            learners.append(self)

        Learner.__init__ = init
        try:
            bundle, history = train.train_astraea(
                cfg, workers=1, eval_every=10 ** 9)
        finally:
            Learner.__init__ = original
        return (history.episode_rewards[-1], actor_checksum(bundle),
                len(learners[0].replay), tuple(history.failed_episodes),
                history.eval_jain[-1], history.eval_utilization[-1])

    meter = Meter()
    if tracer is None:
        # A stride is timed as its episodes (rollouts with their update
        # bursts), each between calibration passes.  The held-out
        # evaluation train_astraea ends with (~3 s of fluid episodes,
        # more than the training, and no learner work) is not timed.
        with clocked_calls(episode, "run_training_episode") as calls:
            untraced, traced = repeat_units(unit, seconds, None, meter)
        if len(calls) != TRAIN_EPISODES * len(untraced):
            raise RuntimeError(f"{len(calls)} training episodes in "
                               f"{len(untraced)} strides")
        strides = [calls[i:i + TRAIN_EPISODES]
                   for i in range(0, len(calls), TRAIN_EPISODES)]
        untraced = [(sum(w for w, _ in eps), out)
                    for eps, (_, out) in zip(strides, untraced)]
        factors = [sum(w * f for w, f in eps) / sum(w for w, _ in eps)
                   for eps in strides]
    else:
        untraced, traced = repeat_units(unit, seconds, tracer, meter)
        factors = meter.factors
    ledger = Ledger()
    unit_s, measured_s, factor, rate, overhead_ms, traced_wall, out = \
        finish(untraced, traced, factors, lambda o: o[2], ledger,
               "final reward/actor checksum")
    reward, _, transitions, failed_episodes, jfi, util = out
    ledger.fail("training episode quarantined", len(failed_episodes))
    return Outcome(
        work_per_s=rate, latency_ms=unit_s * 1e3,
        lines=[("train_steps_per_s", rate, "1/s"),
               ("transitions_per_stride", transitions, "count"),
               ("strides", len(untraced), "count"),
               ("final_reward", reward, "reward"),
               ("eval_jfi", jfi, "ratio"),
               ("eval_utilization", util, "ratio")],
        ledger=ledger, quality={"jfi": jfi, "utilization": util},
        overhead_ms=overhead_ms, traced_wall_s=traced_wall,
        peak_rss_mb=meter.peaks_mb[0], host_factor=factor,
        measured_latency_ms=measured_s * 1e3)
