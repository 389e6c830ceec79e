"""The digenergy benchmark: one run of one workload, one JSON result line.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (README.md in this directory says why each is here):
    verify-exhaustive-n4  verify_all(4): all 4,096 labeled digraphs, all 12 checks
    verify-random-n10     verify_all(10, mode="random", p=0.3), 200 seeded digraphs per call
    analyze-cli           closed loop, one client: a fresh
                          ``python -m digenergy --json analyze -`` per request,
                          20 requests per block

Each round (one ``verify_all`` call, or one block of requests) runs in a
fresh worker process (worker.py) against the sources in ``src/``, so no
round finds what an earlier one left in memory.  With ``--trace 0`` a run
has a fixed number of rounds, about ``--seconds`` of them at nominal speed
(see ``rounds``), and the last line carries the end-to-end metrics.  Times are scaled to a nominal host speed by the reference job of
speed.py, which a separate metronome process runs between timed steps.
``setup_s`` is the median, over every worker of the run, of the scaled time
from process start until ``import digenergy`` and input generation are
done.  With ``--trace 1`` fresh workers run the first round untraced and
traced, in turn, whatever ``--seconds`` says, and the last line carries the
per-layer metrics and the tracing overhead.  Every output is
checked by gate.py; the last line is
``{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import Tally
from speed import Metronome, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-exhaustive-n4", "verify-random-n10", "analyze-cli")
# Seconds of one round at nominal host speed, worker start included.  A run
# has a fixed number of rounds, so its inputs, and which of them fail, depend
# only on --seed and --seconds, never on how fast the host was.
ROUND_S = {"verify-exhaustive-n4": 10.0, "verify-random-n10": 3.0, "analyze-cli": 10.0}
# analyze-cli runs at least 3 blocks (60 requests), so at least ten lie above p75.
MIN_ROUNDS = {"verify-exhaustive-n4": 1, "verify-random-n10": 1, "analyze-cli": 3}
SETUP_PROBES = 10           # setup-only workers; every measuring worker adds one more sample
# Traced runs alternate untraced and traced workers on the first round and
# take the median wall of each: the overhead is a few percent, less than
# the host's speed changes between two workers.
TRACE_PAIRS = 3
RUN_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """The workers of one run, all against one metronome and one deadline."""

    def __init__(self, args):
        self.args = args
        self.env = _env()
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.metronome = Metronome.start(self.env)
        self.setups = []         # scaled setup seconds of every worker

    def worker(self, k: int, mode: str):
        """Start a worker for round ``k``, record its setup time, and
        return its result (None for a setup-only worker)."""
        a = self.args
        fds = self.metronome.fds()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
               "--round", str(k), "--mode", mode, "--metronome", ",".join(map(str, fds))]
        before = self.metronome.sample()
        started = time.perf_counter()
        # A session of its own, so that the watchdog also stops the worker's children.
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
                                start_new_session=True, pass_fds=fds)
        watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), _kill, (proc,))
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            if line.strip() != "ready":
                raise WorkerError(f"worker did not become ready (exit {proc.wait()})")
            self.setups.append(scaled(setup_s, before, self.metronome.sample()))
            if mode != "setup":
                proc.stdin.write("go\n")
                proc.stdin.flush()
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                _kill(proc)
                proc.wait()
        if proc.returncode != 0 or (mode != "setup" and not lines):
            raise WorkerError(f"worker failed (exit {proc.returncode})")
        if mode == "setup":
            return None
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])

    def close(self) -> None:
        self.metronome.close()


def rounds(workload: str, seconds: int) -> int:
    """Rounds of a ``--trace 0`` run: about ``seconds`` at nominal speed."""
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_S[workload]))


def _e2e(times: list, peak_kb: int) -> dict:
    """End-to-end metrics from per-digraph (or per-request) times."""
    q = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "digraphs_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (q[1] * 1e3, "ms"),
        "latency_p75_ms": (q[2] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def measure(run: Run, tally: Tally) -> tuple[dict, dict]:
    """Run the workload's rounds; returns the metrics and the first worker's env."""
    args = run.args
    if args.trace:
        walls = {"untraced": [], "traced": []}
        for _ in range(TRACE_PAIRS):
            for mode in walls:
                r = run.worker(0, mode)
                tally.absorb(r["tally"])
                walls[mode].append(r["wall_s"])
        untraced, traced = (statistics.median(walls[mode]) for mode in walls)
        # The layers of the last traced worker, whose spans are on disk.
        metrics = r["layers"]
        metrics.update({
            "trace.digraphs": (r["digraphs"], "count"),
            "trace.untraced_wall_s": (untraced, "s"),
            "trace.traced_wall_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
        })
        return metrics, r["env"]

    probes = 0

    def probe(share: float) -> None:
        """Setup-only workers, spread over the run in proportion to the
        share of its rounds done so far: the host's speed changes over
        seconds, so a median of probes taken in one spell would follow it."""
        nonlocal probes
        while probes < math.ceil(SETUP_PROBES * share):
            run.worker(0, "setup")
            probes += 1

    steps, peak_kb, env = [], 0, None
    total = rounds(args.workload, args.seconds)
    for k in range(total):
        probe(k / total)
        r = run.worker(k, "timed")
        steps.extend(r["steps_s"])
        peak_kb = max(peak_kb, r["peak_kb"])
        tally.absorb(r["tally"])
        env = env or r["env"]
    probe(1.0)
    print(f"rounds={total} latency samples={len(steps)} setup samples={len(run.setups)}", flush=True)
    metrics = _e2e(steps, peak_kb)
    metrics["setup_s"] = (statistics.median(run.setups), "s")
    return metrics, env


def _print_layers(metrics: dict) -> None:
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")},
                   key=lambda n: -metrics[f"{n}.self_s"][0])
    print(f"{'layer':48s} {'calls':>9s} {'self_s':>10s}")
    for name in names:
        print(f"{name:48s} {metrics[name + '.calls'][0]:9d} {metrics[name + '.self_s'][0]:10.4f}")
    for key, (value, unit) in sorted(metrics.items()):
        if not key.endswith((".calls", ".self_s")):
            print(f"{key:58s} {value:.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "digenergy" / "__init__.py").is_file():
        print(f"error: no digenergy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    # One CPU for the whole run: the metronome, the workers and their
    # children then all run on it, so the reference job measures the speed
    # of the CPU the program runs on.  Only one of them works at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tally = Tally()
    run = Run(args)
    try:
        metrics, worker_env = measure(run, tally)
    except (WorkerError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        run.close()
    if args.trace:
        _print_layers(metrics)
    env = {
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "backend": worker_env["backend"],
        "nproc": os.cpu_count(),
        "cpu": max(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "tally": tally.to_dict(), "setup_samples_s": run.setups,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    print("tally " + json.dumps(record["tally"]))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
