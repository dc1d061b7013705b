"""Set-up probe: do what a workload does before its first unit of work,
print ``READY`` and exit.

Run as ``python3 perfbench/probe.py <workload>`` with ``src`` on
``PYTHONPATH``.  The parent times launch to ``READY``, so the figure
covers interpreter start, imports and policy-bundle load, and for
``fleet-cubic`` also the spawn of a two-worker process pool.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    from repro.core.policy import load_default_policy

    if workload in ("fluid-astraea", "packet-astraea"):
        import repro.env.multiflow  # noqa: F401
        import repro.env.packetrun  # noqa: F401
        import repro.metrics.summary  # noqa: F401
    elif workload == "train-astraea":
        import repro.core.train  # noqa: F401
        import repro.env.episode  # noqa: F401
    elif workload == "fleet-cubic":
        from repro.fleet.spec import FleetSpec
        from repro.parallel import parallel_map

        # The pool that run_fleet spawns, up and importing the fleet code.
        spec = FleetSpec().as_dict()
        parallel_map(FleetSpec.from_dict, [spec, spec], workers=2)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if load_default_policy("astraea") is None:
        print("astraea policy bundle missing", file=sys.stderr)
        return 1
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
