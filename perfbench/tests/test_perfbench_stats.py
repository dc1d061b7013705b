"""The benchmark's own statistics: percentile rule and failure ledger."""

import numpy as np
import pytest

from harness import (
    Ledger,
    median,
    percentile,
    relative_iqr,
    tail_percentile,
    timing_summary,
)


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=257))
    for p in (0, 12.5, 50, 90, 99, 99.9, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


@pytest.mark.parametrize("n, expected_p", [
    (10_000, 99.9),  # 10 samples beyond p99.9
    (9_999, 99.0),   # 9.999 beyond p99.9 is too few
    (1_000, 99.0),
    (999, 95.0),
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected_p):
    values = list(range(n))
    p, value = tail_percentile(values)
    assert p == expected_p
    assert value == pytest.approx(np.percentile(values, p))
    assert n * (100 - p) / 100 >= 10 - 1e-9


def test_no_tail_below_forty_samples():
    assert tail_percentile(list(range(39))) is None
    summary = timing_summary(list(range(39)))
    assert summary == {"n": 39, "median": 19}


def test_timing_summary_reports_count_median_and_tail():
    summary = timing_summary([float(v) for v in range(1000)])
    assert summary["n"] == 1000
    assert summary["median"] == 499.5
    assert summary["tail_p"] == 99.0


def test_relative_iqr_uses_python_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == (q3 - q1) / statistics.median(values)


def test_ledger_counts_failures_against_attempts():
    ledger = Ledger()
    ledger.ok(7)
    ledger.fail("fallback or deadline-miss answer", 2)
    ledger.fail("unanswered")
    ledger.fail("nothing", 0)
    assert (ledger.attempted, ledger.failed) == (10, 3)
    assert ledger.failed_ratio == 0.3
    assert ledger.reasons == {"fallback or deadline-miss answer": 2,
                              "unanswered": 1}
