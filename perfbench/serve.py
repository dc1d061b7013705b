"""The ``serve-open`` workload: open-loop load against ``repro serve``.

The daemon runs as its own process (``python -m repro serve --shards 1
--port 0``); this process is the load generator.  A run

1. starts the daemon five times, timing launch to its ``LISTENING``
   line (``setup_s``), and keeps the last one;
2. warms it up, then offers one fixed rate well below the knee and
   reports the median and tail latency there (``latency_ms``) and the
   daemon's CPU seconds per answered action, whose inverse is
   ``work_per_s``: actions per daemon CPU second, the capacity of one
   core.  These are left as measured: calibration passes around the
   phase moved them 1.7x apart where the raw figures stayed within 10%;
3. searches for ``serve_max_rate``, the highest offered rate that meets
   the 30 ms limit with a steady backlog: it doubles the rate until a
   phase fails, then bisects.

``serve_max_rate`` is printed but is not a bounded metric: on a host
whose timer wakeups run milliseconds late at p99, the p99 of a short
phase swings by tens of percent, and the knee with it (2.7k to 5.9k
actions/s between two runs on a shared 2-vCPU Xeon VM).  CPU
seconds per action swing far less (IQR/median 0.07-0.16 over 10 seeds).

Only the fixed-rate phase and the passing phases count as attempted
operations: a phase above the knee is expected to miss deadlines, and
its answers are checked only for wrong actions that no fallback explains.
"""

from __future__ import annotations

import asyncio
import json
import sys

import numpy as np

from harness import (
    HERE,
    Ledger,
    SETUP_REPEATS,
    median,
    peak_rss_mb,
    percentile,
    proc_cpu_s,
    reset_peak_rss,
    start_until,
    stop,
    timing_summary,
)
from loadgen import SLOTS, Connection, Generator, Phase
from sims import Outcome

#: Connections, one per core of the two-core host.
CONNECTIONS = 2
N_STATES = 256
WARMUP_RATE, WARMUP_S = 500.0, 0.5
#: The fixed-rate phase takes this share of ``--seconds``, each search
#: probe ``PROBE_SHARE``; the search makes at most 5 doublings plus
#: ``BISECTIONS`` probes.
FIXED_RATE, FIXED_SHARE = 2000.0, 1 / 3
#: A fixed-rate phase on which the generator ran late is run again, up
#: to this many times in all.
FIXED_TRIES = 3
PROBE_SHARE = 0.1
FIRST_PROBE = 2 * FIXED_RATE
MAX_PROBE = 64000.0
BISECTIONS = 3

DAEMON_ARGV = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--shards", "1"]
TRACED_DAEMON_ARGV = [sys.executable, str(HERE / "traced_daemon.py")]


def make_states(seed: int, in_dim: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(N_STATES, in_dim))


def expected_actions(states: np.ndarray) -> list[float]:
    """What the daemon must answer: the shipped actor's forward."""
    from repro.service.inference import default_service_policy

    actor = default_service_policy("astraea").actor
    return [float(np.clip(a, -0.999, 0.999))
            for a in actor.infer(states)[:, 0]]


def encode_frames(states: np.ndarray) -> list[bytes]:
    from repro.service.daemon import encode_frame

    rows = [[float(v) for v in row] for row in states]
    return [encode_frame({"op": "act", "id": slot, "flow": slot,
                          "state": rows[slot % len(rows)]})
            for slot in range(SLOTS)]


def start_daemon(argv: list[str]) -> tuple:
    """Start a daemon; returns the process, its address and the seconds
    from launch to its ``LISTENING`` line."""
    proc, elapsed, line = start_until(argv, "LISTENING")
    _, host, port = line.split()[:3]
    return proc, host, int(port), elapsed


def start_daemons(argv: list[str]) -> tuple:
    """Start the daemon ``SETUP_REPEATS`` times; keep the last one, and
    return the median launch time in place of its own."""
    times = []
    for attempt in range(SETUP_REPEATS):
        proc, host, port, elapsed = start_daemon(argv)
        times.append(elapsed)
        if attempt < SETUP_REPEATS - 1 and stop(proc)[0] != 0:
            raise RuntimeError("daemon did not drain cleanly on SIGTERM")
    return proc, host, port, median(times)


async def _stats(host: str, port: int) -> dict:
    from repro.service.daemon import ServiceClient

    client = ServiceClient([(host, port)])
    try:
        return (await client.stats(timeout=10.0))["counters"]
    finally:
        await client.aclose()


def _delta(before: dict, after: dict) -> dict:
    keys = ("requests", "forward_passes", "batch_sum", "batch_count",
            "fallbacks", "deadline_misses", "neutral_answers", "rejected",
            "cpu_time_s", "daemon_admission_rejected")
    return {k: after[k] - before[k] for k in keys}


async def _open(host: str, port: int, frames: list[bytes]) -> list:
    conns = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(reader, writer, frames))
    return conns


async def _phase(gen: Generator, host: str, port: int, pid: int,
                 rate: float, seconds: float) -> Phase:
    before = await _stats(host, port)
    cpu0 = proc_cpu_s(pid)
    phase = await gen.run(rate, seconds)
    phase.daemon = _delta(before, await _stats(host, port))
    phase.daemon["cpu_s"] = proc_cpu_s(pid) - cpu0
    return phase


async def _drive(host: str, port: int, pid: int, frames, expected,
                 seconds: float, search: bool) -> list[Phase]:
    """Warm-up, the fixed-rate phase and, with ``search``, the probes.

    The daemon's peak-RSS mark covers the fixed-rate phase and is stored
    on it as ``daemon["peak_rss_mb"]``.
    """
    from repro.service.daemon import read_frame

    gen = Generator(await _open(host, port, frames), expected, read_frame)
    try:
        await _phase(gen, host, port, pid, WARMUP_RATE, WARMUP_S)
        phases = []
        for _ in range(FIXED_TRIES):
            reset_peak_rss(pid)
            phases.append(await _phase(gen, host, port, pid, FIXED_RATE,
                                       seconds * FIXED_SHARE))
            phases[-1].daemon["peak_rss_mb"] = peak_rss_mb(pid)
            if phases[-1].valid:
                break
        phases = phases[-1:]
        if not search:
            return phases

        async def probe(rate: float) -> Phase:
            phase = await _phase(gen, host, port, pid, rate,
                                 seconds * PROBE_SHARE)
            phases.append(phase)
            return phase

        lo, hi = FIXED_RATE, None
        rate = FIRST_PROBE
        while rate <= MAX_PROBE:
            phase = await probe(rate)
            if not phase.valid or not phase.meets_limit():
                hi = rate
                break
            lo, rate = rate, rate * 2.0
        for _ in range(BISECTIONS if hi is not None else 0):
            mid = (lo * hi) ** 0.5
            phase = await probe(mid)
            if phase.valid and phase.meets_limit():
                lo = mid
            else:
                hi = mid
        return phases
    finally:
        await gen.close()


def _layer_figures(fixed: Phase) -> dict[str, float]:
    d = fixed.daemon
    return {
        "daemon.cpu_s_per_action": d["cpu_s"] / max(fixed.sent, 1),
        "inference.forward_cpu_s_per_action":
            d["cpu_time_s"] / max(d["requests"], 1),
        "inference.mean_batch": d["batch_sum"] / max(d["batch_count"], 1),
        "inference.forward_passes": d["forward_passes"],
        "inference.fallbacks": d["fallbacks"],
        "inference.deadline_misses": d["deadline_misses"],
        "daemon.admission_rejected": d["daemon_admission_rejected"],
        "gen.lateness_p99_ms": fixed.lateness_p99_ms,
        "gen.cpu_s_per_action": fixed.gen_cpu_s / max(fixed.sent, 1),
    }


def _account(ledger: Ledger, phase: Phase, counted: bool) -> None:
    failures = phase.failures()
    if counted:
        ledger.ok(phase.sent - sum(failures.values()))
        for reason, n in failures.items():
            ledger.fail(reason, n, check=reason == "wrong action")
    elif "wrong action" in failures:
        ledger.fail("wrong action", failures["wrong action"], check=True)


def run_serve(seed: int, seconds: float, tracer) -> Outcome:
    from repro.service.inference import default_service_policy

    in_dim = default_service_policy("astraea").actor.in_dim
    states = make_states(seed, in_dim)
    expected = expected_actions(states)
    frames = encode_frames(states)

    proc, host, port, setup_s = start_daemons(DAEMON_ARGV)
    try:
        phases = asyncio.run(_drive(host, port, proc.pid, frames, expected,
                                    seconds, search=tracer is None))
    finally:
        code, _ = stop(proc)
    ledger = Ledger()
    if code != 0:
        ledger.fail(f"daemon exited with code {code}", check=True)
    fixed, probes = phases[0], phases[1:]
    passing = [p for p in probes if p.valid and p.meets_limit()]
    _account(ledger, fixed, counted=True)
    for phase in probes:
        _account(ledger, phase, counted=any(p is phase for p in passing))
    if not fixed.valid:
        ledger.fail("generator ran late on every fixed-rate phase")

    latency = timing_summary(fixed.latencies_ms)
    capacity = fixed.answered / fixed.daemon["cpu_s"]
    lines = [("serve_capacity_per_cpu_s", capacity, "1/s"),
             ("serve_fixed_rate", fixed.rate, "1/s"),
             ("serve_samples", latency["n"], "count"),
             ("serve_p50_ms", latency["median"], "ms")]
    if latency.get("tail_p", 0) >= 99:
        lines.append(("serve_p99_ms", percentile(fixed.latencies_ms, 99),
                      "ms"))
    if latency.get("tail_p", 0) > 99:
        lines.append((f"serve_p{latency['tail_p']:g}_ms", latency["tail"],
                      "ms"))
    if passing:
        best = max(passing, key=lambda p: p.rate)
        lines += [("serve_max_rate", best.achieved_rate, "1/s"),
                  ("serve_max_offered_rate", best.rate, "1/s")]
    lines += [(f"rate {p.rate:.0f}/s "
               f"{'pass' if any(q is p for q in passing) else 'fail'}"
               f"{'' if p.valid else ' (invalid: generator late)'}",
               (p.tail_ms or (0.0, float("nan")))[1], "ms tail")
              for p in probes]
    outcome = Outcome(
        work_per_s=capacity,
        latency_ms=latency["median"],
        lines=lines,
        ledger=ledger,
        quality={},
        layer=_layer_figures(fixed), setup_s=setup_s,
        peak_rss_mb=fixed.daemon["peak_rss_mb"],
        measured_latency_ms=latency["median"])
    if tracer is not None:
        _traced_daemon(outcome, frames, expected, seconds, fixed)
    return outcome


def _traced_daemon(outcome: Outcome, frames, expected, seconds: float,
                   untraced: Phase) -> None:
    """Repeat the fixed-rate phase against a daemon with wrapped codec
    and inference calls; the daemon reports its spans at shutdown."""
    proc, host, port, _ = start_daemon(TRACED_DAEMON_ARGV)
    try:
        phases = asyncio.run(_drive(host, port, proc.pid, frames, expected,
                                    seconds, search=False))
    finally:
        code, rest = stop(proc)
    traced = phases[0]
    lines = [line for line in rest.splitlines() if line.startswith("TRACE ")]
    if code != 0 or not lines:
        raise RuntimeError(f"traced daemon exited {code} without its spans")
    spans = json.loads(lines[-1][len("TRACE "):])

    def mean_us(name: str) -> float:
        entry = spans.get(name)
        return entry["total_s"] / entry["calls"] * 1e6 if entry else 0.0

    outcome.layer["codec.encode_us"] = mean_us("codec.encode")
    outcome.layer["codec.decode_us"] = mean_us("codec.decode")
    outcome.overhead_ms = (median(traced.latencies_ms)
                           - median(untraced.latencies_ms))
    span_self = sum(e["self_s"] for e in spans.values())
    cpu = traced.daemon["cpu_s"]
    outcome.layer["trace.accounted_share"] = span_self / cpu if cpu else 0.0
