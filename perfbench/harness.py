"""Shared pieces of the benchmark: statistics, manifest, set-up timing,
memory, failure accounting and the result line."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0

#: Seeds 1-10 were used to tune the benchmark; this one was not, so a
#: claimed gain can be checked on inputs nobody tuned against.
HELD_OUT_SEED = 1009


# -- statistics ----------------------------------------------------------

def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(p, value)``, or ``None`` when even p75 has fewer than ten
    samples above it (fewer than 40 samples).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        # In tenths of a percent, so 10 000 samples put exactly ten
        # beyond p99.9 despite binary floating point.
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            return p, percentile(values, p)
    return None


def timing_summary(values) -> dict:
    """Median plus the tail percentile rule, with the sample count."""
    out = {"n": len(values), "median": median(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_p"], out["tail"] = tail
    return out


def relative_iqr(values) -> float:
    """Distance between the first and third quartile over the median."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- host speed ----------------------------------------------------------

#: Seconds the fastest :func:`calibration_pass` takes on the shared 2-vCPU
#: Xeon VM the benchmark was tuned on.
CALIBRATION_NOMINAL_S = 0.0120


def calibration_pass(every_cpu: bool = False) -> float:
    """Seconds one fixed pass of interpreter loops and small-array numpy
    calls takes: the benchmark's own code, so no change to the program
    moves it.

    With ``every_cpu``, one pass runs pinned to each CPU this process may
    use and their mean is returned: the host's CPUs change speed apart
    from each other, and a unit spread over all of them (a process pool)
    follows their mean (over 58 fleet runs, the log residual of wall time
    against this pass was 0.100 where one unpinned pass left 0.13).
    """
    if every_cpu:
        cpus = sorted(os.sched_getaffinity(0))
        try:
            passes = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                passes.append(calibration_pass())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(passes) / len(passes)
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(80000):
        total += i * i % 7
    a = np.arange(64.0)
    for _ in range(3000):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def host_factor(before_s: float, after_s: float) -> float:
    """How fast the host ran over a unit of work, from the calibration
    passes just before and just after it: 1.0 at the tuning host's speed,
    0.5 at half of it.

    The shared VM changes speed by up to ~2x, in spells from under a
    second to minutes, and a calibration pass slows with the program
    (log-log slope 0.97, correlation 0.83 between a 0.3 s episode and the
    passes around it).  A unit's time times this factor is its time at
    the tuning host's speed.
    """
    return 2.0 * CALIBRATION_NOMINAL_S / (before_s + after_s)


# -- failure accounting --------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    A failed output check (a wrong or irreproducible result) also makes
    the run incorrect; other failed operations, such as a request the
    daemon answered from its fallback after a deadline miss, only count.
    """

    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1, check: bool = False) -> None:
        if n <= 0:
            return
        self.attempted += n
        self.failed += n
        if check:
            self.checks_failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def correct(self) -> bool:
        return self.checks_failed == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- host and memory -----------------------------------------------------

def manifest(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child this process waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's peak-RSS mark (``VmHWM``) from its current RSS."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run, over all its threads.

    Read from ``schedstat`` (nanoseconds) rather than ``stat`` (10 ms
    clock ticks), which would quantise a few seconds of CPU to ~1%.
    """
    total_ns = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        total_ns += int((task / "schedstat").read_text().split()[0])
    return total_ns / 1e9


# -- child processes -----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def start_until(argv: list[str], marker: str,
                timeout_s: float = SETUP_TIMEOUT_S
                ) -> tuple[subprocess.Popen, float, str]:
    """Start a child and wait for a stdout line beginning with ``marker``.

    Returns the process, the seconds from launch to that line, and the
    line.  The child is killed if it exits or times out first.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    deadline = started + timeout_s
    try:
        while True:
            line = proc.stdout.readline()
            if line.startswith(marker):
                return proc, time.perf_counter() - started, line.strip()
            if not line or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"{argv!r} ended before printing {marker!r}: "
                    f"{proc.stderr.read() if not line else 'timeout'}")
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen, timeout_s: float = 20.0) -> tuple[int, str]:
    """SIGTERM a child (kill it if it will not end), wait for it, and
    return its exit code with the rest of its standard output."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout_s)
    rest = proc.stdout.read() if proc.stdout is not None else ""
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return proc.returncode, rest


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A process pool's resource tracker, or anything a child leaves behind,
    is then re-parented here rather than to init, so
    :func:`reap_descendants` can wait for it before the benchmark exits.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_descendants(timeout_s: float = 20.0) -> None:
    """Stop every process this one started, directly or not, and wait
    until each has ended.

    The multiprocessing resource tracker ignores SIGTERM and ends when
    the last holder of its pipe closes it, so it is stopped that way
    first.  Other children get SIGTERM, then SIGKILL at the deadline.
    """
    import gc
    from multiprocessing import resource_tracker

    # Finalizers of dead pools' semaphores report to the tracker: run
    # them before it stops.
    gc.collect()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout_s
    signalled = set()
    while True:
        pids = _child_pids()
        if not pids:
            return
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                elif pid not in signalled:
                    os.kill(pid, signal.SIGTERM)
                    signalled.add(pid)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.02)


def probe_setup_s(workload: str) -> float:
    """Median time from process start to the workload's first unit of work."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc, elapsed, _ = start_until(
            [sys.executable, str(HERE / "probe.py"), workload], "READY")
        try:
            proc.wait(SETUP_TIMEOUT_S)
        finally:
            code, _ = stop(proc)
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(elapsed)
    return median(samples)


# -- result --------------------------------------------------------------

def emit(report: dict, ledger: Ledger, correct: bool,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    print(f"manifest {json.dumps(report['manifest'], sort_keys=True)}")
    for name, value, unit in report["lines"]:
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':34s} {ledger.failed_ratio:>14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted}"
          f"{'; ' + json.dumps(ledger.reasons) if ledger.reasons else ''})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
