"""Serving load benchmark: pure helpers, validation, spawn smoke."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import reporting
from repro.bench.serve import (
    BENCH_ID,
    DEFAULT_LEVELS,
    SMALL_LEVELS,
    _percentiles,
    _stats_delta,
    run_serve_benchmark,
)
from repro.errors import ServiceError


class TestPercentiles:
    def test_empty(self):
        p = _percentiles([])
        assert p["count"] == 0
        assert p["p999_s"] == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        samples = list(rng.lognormal(mean=-5.0, sigma=0.7, size=400))
        p = _percentiles(samples)
        assert p["count"] == 400
        assert p["p50_s"] == pytest.approx(np.percentile(samples, 50))
        assert p["p99_s"] == pytest.approx(np.percentile(samples, 99))
        assert p["p999_s"] == pytest.approx(np.percentile(samples, 99.9))
        assert p["max_s"] == max(samples)
        assert p["p50_s"] <= p["p99_s"] <= p["p999_s"] <= p["max_s"]


class TestStatsDelta:
    def _stats(self, **over):
        counters = {
            "requests": 0, "forward_passes": 0, "batch_count": 0,
            "batch_sum": 0, "fallbacks": 0, "deadline_misses": 0,
            "neutral_answers": 0, "rejected": 0, "cpu_time_s": 0.0,
            "daemon_admission_rejected": 0,
        }
        counters.update(over)
        return {"counters": counters}

    def test_deltas_and_mean_batch(self):
        before = self._stats(requests=100, forward_passes=20,
                             batch_count=20, batch_sum=100)
        after = self._stats(requests=700, forward_passes=80,
                            batch_count=80, batch_sum=700,
                            fallbacks=3, cpu_time_s=0.5)
        d = _stats_delta(before, after)
        assert d["requests"] == 600
        assert d["forward_passes"] == 60
        assert d["mean_batch_size"] == pytest.approx(600 / 60)
        assert d["fallbacks"] == 3
        assert d["cpu_time_s"] == pytest.approx(0.5)

    def test_no_batches_mean_zero(self):
        d = _stats_delta(self._stats(), self._stats())
        assert d["mean_batch_size"] == 0.0


class TestValidation:
    def test_default_levels_sane(self):
        assert len(DEFAULT_LEVELS) >= 3
        assert max(DEFAULT_LEVELS) >= 256
        assert len(SMALL_LEVELS) >= 3

    def test_rejects_bad_levels(self):
        with pytest.raises(ServiceError):
            run_serve_benchmark([])
        with pytest.raises(ServiceError):
            run_serve_benchmark([4, 0])
        with pytest.raises(ServiceError):
            run_serve_benchmark([-1])

    def test_rejects_bad_timing(self):
        with pytest.raises(ServiceError):
            run_serve_benchmark([4], duration_s=0.0)
        with pytest.raises(ServiceError):
            run_serve_benchmark([4], duration_s=1.0, mtp_s=-1.0)


class TestSpawnSmoke:
    """End to end: spawn a real daemon subprocess, sweep two small
    levels, assert the ledger balances and the drain is clean."""

    def test_small_sweep(self, tmp_path):
        started = time.monotonic()
        payload = run_serve_benchmark(
            (2, 6), duration_s=0.4, mtp_s=0.020, timeout=30.0)
        elapsed = time.monotonic() - started
        assert payload["bench"] == "serve"
        # A duration covering both 0.4 s levels, not an epoch timestamp.
        assert 2 * 0.4 <= payload["wall_time_s"] <= elapsed
        assert payload["clean_shutdown"] is True
        assert [row["n_flows"] for row in payload["levels"]] == [2, 6]
        for row in payload["levels"]:
            assert row["answered"] > 0
            assert row["unanswered"] == 0
            assert row["errors"] == {}
            assert row["actions_per_s"] > 0
            assert row["latency"]["p50_s"] <= row["latency"]["p99_s"]
            assert row["daemon"]["requests"] >= row["answered"]
        # The artifact round-trips through the strict JSON writer.
        out = reporting.write_results_file(
            tmp_path / f"{BENCH_ID}.json", payload)
        parsed = reporting.loads_strict(out.read_text())
        assert parsed["levels"][0]["unanswered"] == 0
