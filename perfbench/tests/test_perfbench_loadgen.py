"""Open-loop lateness and latency accounting, and the failed-operation
count of fallback and deadline-miss answers."""

import asyncio
import json
import time

import pytest

from harness import Ledger
from loadgen import GEN_LATE_MS, LIMIT_MS, SLOTS, Connection, Generator, Phase
from repro.service.daemon import encode_frame, read_frame
from serve import _account

EXPECTED = [0.25, -0.5]


async def fake_daemon(reader, writer, delay_s=0.0, wrong_every=0):
    """Answer each ``act`` frame with the expected action after a delay."""
    count = 0
    while True:
        raw = await read_frame(reader)
        if raw is None:
            break
        body = json.loads(raw)
        count += 1
        action = EXPECTED[body["id"] % len(EXPECTED)]
        if wrong_every and count % wrong_every == 0:
            action += 1.0
        if delay_s:
            await asyncio.sleep(delay_s)
        writer.write(encode_frame({"id": body["id"], "ok": True,
                                   "action": action}))
    writer.close()


async def run_phase(rate, seconds, stall_s=0.0, **daemon_kw):
    server = await asyncio.start_server(
        lambda r, w: fake_daemon(r, w, **daemon_kw), "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    frames = [encode_frame({"op": "act", "id": s, "state": [0.0]})
              for s in range(SLOTS)]
    conns = []
    for _ in range(2):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(reader, writer, frames))
    gen = Generator(conns, EXPECTED, read_frame)

    async def stall():
        # Block the generator's own loop, as a slow generator would.
        await asyncio.sleep(seconds / 2)
        time.sleep(stall_s)

    stall_task = asyncio.ensure_future(stall()) if stall_s else None
    try:
        return await gen.run(rate, seconds)
    finally:
        if stall_task is not None:
            await stall_task
        await gen.close()
        server.close()
        await server.wait_closed()


def test_on_schedule_generator_is_valid_and_times_every_answer():
    phase = asyncio.run(run_phase(500.0, 0.2))
    assert phase.sent == 100 and phase.answered == 100
    assert phase.unanswered == 0 and phase.wrong == 0
    assert len(phase.latencies_ms) == len(phase.lateness_ms) == 100
    assert phase.lateness_p99_ms <= GEN_LATE_MS
    assert phase.valid


def test_latency_runs_from_the_scheduled_send_time():
    phase = asyncio.run(run_phase(500.0, 0.2, delay_s=0.01))
    assert min(phase.latencies_ms) >= 10.0


def test_a_generator_stall_marks_the_phase_invalid_and_is_charged():
    phase = asyncio.run(run_phase(500.0, 0.2, stall_s=0.03))
    # Requests due during the 30 ms stall went out late ...
    assert max(phase.lateness_ms) >= 20.0
    assert phase.lateness_p99_ms > GEN_LATE_MS
    assert not phase.valid
    # ... and their latency counts from when they were due.
    assert max(phase.latencies_ms) >= 20.0
    assert phase.answered == phase.sent


def test_wrong_answers_are_counted():
    phase = asyncio.run(run_phase(500.0, 0.2, wrong_every=10))
    assert phase.wrong == 10
    assert phase.failures() == {"wrong action": 10}


def _phase(**kw):
    phase = Phase(rate=1000.0, sent=1000, answered=1000,
                  latencies_ms=[5.0] * 1000)
    for key, value in kw.items():
        setattr(phase, key, value)
    return phase


def test_fallback_and_deadline_miss_answers_are_failed_operations():
    # Two deadline misses answered by the fallback bump both counters;
    # the fallback count is the number of degraded answers.
    phase = _phase(daemon={"fallbacks": 3, "deadline_misses": 2,
                           "neutral_answers": 1}, wrong=4)
    assert phase.failures() == {"fallback or deadline-miss answer": 4}
    assert not phase.meets_limit()
    ledger = Ledger()
    _account(ledger, phase, counted=True)
    assert (ledger.attempted, ledger.failed) == (1000, 4)
    assert ledger.failed_ratio == pytest.approx(0.004)


def test_wrong_answers_beyond_the_fallbacks_are_reported_separately():
    phase = _phase(daemon={"fallbacks": 2}, wrong=5,
                   answered=990, errors={"AdmissionRejectedError": 4})
    assert phase.failures() == {
        "AdmissionRejectedError": 4,
        "fallback or deadline-miss answer": 2,
        "wrong action": 3,
        "unanswered": 6,
    }


def test_overload_probe_counts_only_unexplained_wrong_actions():
    ledger = Ledger()
    _account(ledger, _phase(daemon={"fallbacks": 50}, wrong=50),
             counted=False)
    assert (ledger.attempted, ledger.failed) == (0, 0)
    _account(ledger, _phase(daemon={"fallbacks": 50}, wrong=52),
             counted=False)
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_limit_needs_tail_within_limit_and_a_steady_backlog():
    assert _phase().meets_limit()
    slow = [5.0] * 980 + [LIMIT_MS + 1.0] * 20
    assert not _phase(latencies_ms=slow).meets_limit()
    assert not _phase(backlog_at_end=31).meets_limit()
    assert _phase(backlog_at_end=30).meets_limit()
