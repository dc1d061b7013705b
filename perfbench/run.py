"""The repo benchmark: one workload per run.

    python3 perfbench/run.py --workload fluid-astraea --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  The lines before it print every figure
by name and unit, the run's manifest, and the failed-operation count.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the program to measure is missing.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("fluid-astraea", "fleet-cubic", "packet-astraea",
             "train-astraea", "serve-open")

#: Every end-to-end metric, in ``BENCHMARK.json`` order, with its unit.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("work_per_s", "1/s"), ("latency_ms", "ms")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(workload: str, seed: int, seconds: int, tracer):
    import sims

    if workload == "fluid-astraea":
        return sims.run_episode("fluid", seed, seconds, tracer)
    if workload == "packet-astraea":
        return sims.run_episode("packet", seed, seconds, tracer)
    if workload == "fleet-cubic":
        return sims.run_fleet_workload(seed, seconds, tracer)
    if workload == "train-astraea":
        return sims.run_train(seed, seconds, tracer)
    import serve

    return serve.run_serve(seed, seconds, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.adopt_orphans()
    # A SIGTERM unwinds through the clean-up below like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args)
    finally:
        harness.reap_descendants()


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Spawned pool workers and the daemon import the program from here.
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    from layers import PER_LAYER, from_spans
    from spans import Tracer

    setup_s = None
    if not args.trace and args.workload != "serve-open":
        setup_s = harness.probe_setup_s(args.workload)
    tracer = Tracer() if args.trace else None
    outcome = measure(args.workload, args.seed, args.seconds, tracer)
    if outcome.setup_s is not None:
        setup_s = outcome.setup_s

    values = {"setup_s": setup_s, "peak_rss_mb": outcome.peak_rss_mb,
              "work_per_s": outcome.work_per_s,
              "latency_ms": outcome.latency_ms}
    report = {
        "manifest": harness.manifest(args.workload, args.seed, args.seconds,
                                     bool(args.trace)),
        "lines": [(name, values[name], unit) for name, unit in END_TO_END
                  if values[name] is not None]
        + [("latency_ms.measured", outcome.measured_latency_ms, "ms"),
           ("host_factor", outcome.host_factor, "ratio")]
        + outcome.lines,
    }
    if args.trace:
        layer = {name: 0.0 for name, _ in PER_LAYER}
        if args.workload != "serve-open":
            layer.update(from_spans(tracer, outcome.traced_wall_s))
            path = tracer.write(
                ROOT / ".perfbench" /
                f"{args.workload}-seed{args.seed}.spans.json",
                extra={"manifest": report["manifest"]})
            print(f"spans written to {path.relative_to(ROOT)}")
        layer.update(outcome.layer)
        layer.update({f"quality.{k}": v for k, v in outcome.quality.items()})
        layer["trace.overhead_ms"] = outcome.overhead_ms
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER}
        report["lines"] += [(name, value, unit)
                            for name, (value, unit) in metrics.items()]
    else:
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    correct = outcome.ledger.correct
    harness.emit(report, outcome.ledger, correct, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
