"""Open-loop load generator for the serving daemon.

One asyncio process sends ``act`` requests on a fixed schedule, request
``k`` due at ``start + k / rate``, over at most ``nproc`` connections,
whether or not earlier requests were answered, as independent flows do.
Request frames are encoded once, before any phase, with the daemon's own
``encode_frame``: frame ``s`` of a connection carries request id ``s``
and state ``s % n_states``, and the generator cycles through the slots.

Each request's latency runs from its scheduled send time to the arrival
of its answer, so a stall in the daemon also delays, and is charged to,
every request scheduled behind it.  The generator records how late it
sent each request; when it ran late, the phase measured the generator and
is marked invalid.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from harness import percentile, tail_percentile

#: The latency limit: one 30 ms MTP.  An action that arrives later is
#: stale, because the flow has already started its next interval.
LIMIT_MS = 30.0
#: A phase is invalid when the generator's p99 send lateness exceeds this.
GEN_LATE_MS = 3.0
#: Request-id slots per connection.  A slot still unanswered when the
#: schedule comes back to it means a backlog of more than
#: ``SLOTS / rate`` seconds, far past the limit.
SLOTS = 8192
#: Answers must match the shipped policy's forward within this much.
ACTION_TOL = 1e-9


@dataclass
class Phase:
    """One fixed offered rate and what came of it."""

    rate: float
    sent: int = 0
    answered: int = 0
    wrong: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    #: Requests sent but unanswered when the last one went out.
    backlog_at_end: int = 0
    #: A slot was reused while its request was still unanswered.
    overrun: bool = False
    elapsed_s: float = 0.0
    gen_cpu_s: float = 0.0
    #: Daemon counter deltas over the phase (``stats`` verb).
    daemon: dict[str, float] = field(default_factory=dict)

    @property
    def unanswered(self) -> int:
        return self.sent - self.answered - sum(self.errors.values())

    @property
    def lateness_p99_ms(self) -> float:
        return percentile(self.lateness_ms, 99) if self.lateness_ms else 0.0

    @property
    def valid(self) -> bool:
        """False when the generator, not the daemon, set the pace."""
        return not self.overrun and self.lateness_p99_ms <= GEN_LATE_MS

    @property
    def tail_ms(self) -> tuple[float, float] | None:
        return tail_percentile(self.latencies_ms)

    @property
    def achieved_rate(self) -> float:
        return self.answered / self.elapsed_s if self.elapsed_s else 0.0

    def failures(self) -> dict[str, int]:
        """Failed operations of this phase, by reason.

        An answer the daemon served from its analytic fallback (a
        deadline miss or a non-finite actor output) is a failed
        operation even though a number came back; so is a wrong action
        no fallback explains, an error answer and a request never
        answered.
        """
        degraded = int(self.daemon.get("fallbacks", 0)
                       + self.daemon.get("neutral_answers", 0))
        out = {name: n for name, n in self.errors.items() if n}
        if degraded:
            out["fallback or deadline-miss answer"] = degraded
        if self.wrong > degraded:
            out["wrong action"] = self.wrong - degraded
        if self.unanswered:
            out["unanswered"] = self.unanswered
        return out

    def meets_limit(self) -> bool:
        """The tail latency stays within the limit, the backlog does not
        grow, and every request got a correct, non-degraded answer."""
        tail = self.tail_ms
        return (tail is not None and tail[1] <= LIMIT_MS
                and self.backlog_at_end <= self.rate * LIMIT_MS / 1e3
                and not self.failures())


class Connection:
    """One socket with its pre-encoded frames and in-flight slots."""

    def __init__(self, reader, writer, frames: list[bytes]):
        self.reader = reader
        self.writer = writer
        self.frames = frames
        #: Request index in flight per slot, -1 when free.
        self.inflight = [-1] * len(frames)


class Generator:
    """Drives phases over already-open connections."""

    def __init__(self, connections: list[Connection], expected: list[float],
                 read_frame):
        self.connections = connections
        self.expected = expected
        self._read_frame = read_frame
        self._phase: Phase | None = None
        self._due: list[float] = []
        self._readers = [asyncio.ensure_future(self._read(conn))
                         for conn in connections]

    async def close(self) -> None:
        for task in self._readers:
            task.cancel()
        for task in self._readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for conn in self.connections:
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def outstanding(self) -> int:
        return sum(slot >= 0 for conn in self.connections
                   for slot in conn.inflight)

    async def _read(self, conn: Connection) -> None:
        loop = asyncio.get_running_loop()
        while True:
            raw = await self._read_frame(conn.reader)
            if raw is None:
                return
            now = loop.time()
            t0 = time.process_time()
            phase = self._phase
            self._take(conn, phase, raw, now)
            if phase is not None:
                phase.gen_cpu_s += time.process_time() - t0

    def _take(self, conn: Connection, phase: Phase | None, raw: bytes,
              now: float) -> None:
        """Match one answer to its request, time it and check it."""
        body = json.loads(raw)
        slot = body.get("id")
        if not isinstance(slot, int) or not 0 <= slot < len(conn.inflight):
            return
        k, conn.inflight[slot] = conn.inflight[slot], -1
        if k < 0 or phase is None:
            return
        phase.latencies_ms.append((now - self._due[k]) * 1e3)
        if body.get("ok"):
            phase.answered += 1
            want = self.expected[slot % len(self.expected)]
            if abs(float(body["action"]) - want) > ACTION_TOL:
                phase.wrong += 1
        else:
            name = str(body.get("error", "ServiceError"))
            phase.errors[name] = phase.errors.get(name, 0) + 1

    async def run(self, rate: float, duration_s: float,
                  drain_s: float = 2.0) -> Phase:
        """Offer ``rate`` requests/s for ``duration_s``, then wait up to
        ``drain_s`` for the answers."""
        loop = asyncio.get_running_loop()
        phase = Phase(rate=rate)
        n = max(1, int(rate * duration_s))
        start = loop.time() + 0.005
        self._due = [start + k / rate for k in range(n)]
        self._phase = phase
        conns = self.connections
        n_conns = len(conns)
        k = 0
        while k < n:
            now = loop.time()
            if self._due[k] > now:
                # Busy-poll: a timer wakeup on a loaded host can come
                # milliseconds late, a yield to the loop does not.
                await asyncio.sleep(0)
                continue
            t0 = time.process_time()
            while k < n and self._due[k] <= now:
                conn = conns[k % n_conns]
                slot = (k // n_conns) % SLOTS
                if conn.inflight[slot] >= 0:
                    phase.overrun = True
                conn.inflight[slot] = k
                conn.writer.write(conn.frames[slot])
                phase.lateness_ms.append((now - self._due[k]) * 1e3)
                k += 1
            phase.gen_cpu_s += time.process_time() - t0
            # Yield so the readers take answers between send bursts.
            await asyncio.sleep(0)
        phase.sent = n
        phase.backlog_at_end = self.outstanding()
        phase.elapsed_s = loop.time() - start
        deadline = loop.time() + drain_s
        while self.outstanding() and loop.time() < deadline:
            await asyncio.sleep(0.01)
        self._phase = None
        for conn in conns:
            conn.inflight = [-1] * len(conn.inflight)
        return phase
