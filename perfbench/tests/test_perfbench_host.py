"""Host-speed calibration and process clean-up."""

import subprocess
import time

import pytest

from harness import (
    CALIBRATION_NOMINAL_S,
    _child_pids,
    adopt_orphans,
    host_factor,
    reap_descendants,
)
from sims import calibrated


def test_host_factor_is_nominal_over_mean_pass():
    assert host_factor(CALIBRATION_NOMINAL_S, CALIBRATION_NOMINAL_S) == 1.0
    # Passes twice as slow as on the tuning host: half its speed.
    assert host_factor(2 * CALIBRATION_NOMINAL_S,
                       2 * CALIBRATION_NOMINAL_S) == pytest.approx(0.5)
    assert host_factor(CALIBRATION_NOMINAL_S, 3 * CALIBRATION_NOMINAL_S) \
        == pytest.approx(0.5)


def test_calibrated_scales_each_unit_by_its_own_factor():
    # The same unit of work, timed on a host at full, half and full speed:
    # scaled, all three read 1.0 s.
    units = [(1.0, "a"), (2.0, "a"), (1.0, "a")]
    unit_s, measured_s, factor = calibrated(units, [1.0, 0.5, 1.0])
    assert unit_s == 1.0
    assert measured_s == 1.0
    assert factor == 1.0


def test_calibrated_median_drops_a_mismatched_unit():
    # The passes around the third unit caught a fast moment of a slow
    # spell; the median ignores it.
    units = [(1.0, None), (1.1, None), (2.0, None), (0.9, None), (1.0, None)]
    unit_s, _, _ = calibrated(units, [1.0, 1.0, 1.0, 1.0, 1.0])
    assert unit_s == 1.0


def test_reap_descendants_stops_orphaned_grandchildren():
    adopt_orphans()
    # The shell exits at once, leaving its background sleep orphaned; as
    # the subreaper this process adopts it.
    subprocess.run(["sh", "-c", "sleep 60 & echo $!"], check=True,
                   capture_output=True)
    deadline = time.monotonic() + 5
    while not _child_pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _child_pids(), "orphan was not re-parented here"
    reap_descendants(timeout_s=5)
    assert _child_pids() == []


def test_reap_descendants_waits_for_a_pool_resource_tracker():
    import multiprocessing

    def use_pool():
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            return pool.apply(abs, (-3,))

    assert use_pool() == 3
    reap_descendants(timeout_s=10)
    assert _child_pids() == []

