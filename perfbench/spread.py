"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fluid-astraea --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for each end-to-end metric its median and the distance between its first
and third quartile as a share of the median, next to the bound from
``BENCHMARK.json``.  Exits 1 if a run failed or a spread (other than
``setup_s``'s) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import median, relative_iqr  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload,
                                "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            continue
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}"
                                          for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        samples = values.get(name, [])
        if len(samples) < 2:
            continue
        spread = relative_iqr(samples)
        verdict = "ok" if spread <= bound / 3 else (
            "within bound" if spread <= bound else "OVER BOUND")
        if spread > bound and name != "setup_s":
            ok = False
        print(f"{name:14s} median {median(samples):12.6g}  "
              f"IQR/median {spread:7.4f}  bound {bound:5.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
