"""Run the benchmark on several seeds and report how steady it is.

For each workload and seed this runs ``run.py --trace 0`` and prints, per
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, next to a third of the
metric's bound in BENCHMARK.json.  ``--traced`` adds one traced run per
workload.  ``--out`` writes everything, with the machine info, as JSON.

Usage:
    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--traced] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def _stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            result, summary["env"] = _run(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"correct": [r["correct"] for r in runs], "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for name, bound in bounds.items():
            st = _stats([r["metrics"][name]["value"] for r in runs])
            st["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = st
            flag = "ok" if st["spread"] < bound / 3 else "WIDE"
            print(f"  {name:16s} median {st['median']:.5g} {st['unit']}  q1 {st['q1']:.5g}  q3 {st['q3']:.5g}  "
                  f"spread {st['spread']:.3f}  bound/3 {bound / 3:.3f}  {flag}", flush=True)
        if args.traced:
            traced, _ = _run(workload, lo, bench["run_seconds"], 1)
            entry["traced"] = {"seed": lo, **traced}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
