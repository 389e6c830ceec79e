"""One round of one benchmark workload in a fresh process.

A round is one ``verify_all`` call, or one block of ``analyze-cli``
requests.  The worker prints ``ready`` once ``import digenergy`` and input
generation are done, waits for a line on stdin, runs the round in the
given mode and prints one JSON object with what it measured, the
correctness tally and the environment.  ``run.py`` starts one worker per
round, so no round finds the state of an earlier one; see it for the
workloads and metrics.

Modes:
    setup     stop after ``ready``
    timed     time each digraph (or request)
    untraced  the same, and report only the sum
    traced    the same with the boundary wrappers of tracing.py installed,
              and report the sum and the per-layer metrics

Every time is at nominal host speed: it is scaled by the reference job of
``speed.py``, run by the metronome whose pipe descriptors ``--metronome
R,W`` name.

Usage: python3 perfbench/worker.py --workload W --seed S --round K --mode M [--metronome R,W]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
import digenergy  # noqa: E402
IMPORT_S = time.perf_counter() - STARTED

import numpy as np  # noqa: E402

from gate import Tally, analyze_failures, report_digest, verify_failures  # noqa: E402
from speed import Metronome, scaled  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

VERIFY_RANDOM_COUNT = 200   # digraphs per verify_all call on verify-random-n10

# analyze-cli requests come in blocks of 20, shuffled per block.  60% are
# small (interpreter start dominates) and 40% are n=32 (exact numerics
# dominate), so p50 lies inside the small class and p75 inside the large
# one.  Past the sparse symmetric cell, the large cells overlap in time, so
# p75 does not sit on a step between two cells (random digraphs with p=0.2
# made a faster tier of their own, right at p75).
SMALL = [(n, kind, p) for n in (8, 12, 16) for kind in ("digraph", "symmetric") for p in (0.1, 0.3)]
LARGE = [(32, "symmetric", p) for p in (0.08, 0.3, 0.4, 0.5)] + [(32, "digraph", p) for p in (0.3, 0.4, 0.5, 0.6)]


class StepClock:
    """Wall times of consecutive steps, scaled to nominal host speed.

    Between steps, outside them, ``tick`` has the metronome run the
    reference job if ``every_s`` has passed since the last sample; each
    step is scaled by the mean of the two samples around it.  A sample
    taken inside a traced span is taken out of that span's self time."""

    def __init__(self, metronome: Metronome, every_s: float, tracer=None):
        self._metronome = metronome
        self._every_s = every_s
        self._tracer = tracer
        self._steps = []         # (wall seconds, index of the sample before the step)
        self._samples = []
        self._sampled_at = 0.0
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._sampled_at >= self._every_s:
            started = time.perf_counter()
            self._samples.append(self._metronome.sample())
            self._sampled_at = time.perf_counter()
            if self._tracer is not None:
                self._tracer.exclude(self._sampled_at - started)

    def step(self, seconds: float) -> None:
        self._steps.append((seconds, len(self._samples) - 1))

    def scaled_steps(self) -> list:
        """Every step at nominal speed; takes a closing sample first."""
        self.tick(force=True)
        s = self._samples
        return [scaled(t, s[i], s[i + 1]) for t, i in self._steps]


def time_digraphs(clock: StepClock) -> callable:
    """Install wrappers around the corpus of ``verify_all`` that time each
    digraph's turn: from the moment the corpus hands it over until
    ``verify_all`` asks for the next one, i.e. all checks of that digraph.
    Returns the function that closes the last turn."""
    enumerate_digraphs = digenergy.oracle.enumerate_digraphs
    random_digraph = digenergy.oracle.random_digraph
    handed = None

    def lap():
        nonlocal handed
        if handed is not None:
            clock.step(time.perf_counter() - handed)
            handed = None

    def timed_enumerate(n):
        nonlocal handed
        for d in enumerate_digraphs(n):
            clock.tick()
            handed = time.perf_counter()
            yield d
            lap()

    def timed_random(n, p, seed):
        nonlocal handed
        lap()
        clock.tick()
        d = random_digraph(n, p, seed)
        handed = time.perf_counter()
        return d

    digenergy.oracle.enumerate_digraphs = timed_enumerate
    digenergy.oracle.random_digraph = timed_random
    return lap


def _verify_kwargs(workload: str, seed: int, k: int) -> tuple[dict, int]:
    if workload == "verify-exhaustive-n4":
        return {"n": 4}, 4096
    base = seed * 1_000_000 + k * VERIFY_RANDOM_COUNT
    return {"n": 10, "mode": "random", "p": 0.3, "seed": base, "count": VERIFY_RANDOM_COUNT}, VERIFY_RANDOM_COUNT


def verify_round(workload, seed, k, tally) -> float:
    """One ``verify_all`` call, checked; returns its wall time."""
    kwargs, requested = _verify_kwargs(workload, seed, k)
    checks = digenergy.CHECK_NAMES
    started = time.perf_counter()
    try:
        report = digenergy.verify_all(**kwargs).to_dict()
    except Exception as exc:  # an exception fails every evaluation of the call
        tally.add(requested * len(checks), [[f"exception:{type(exc).__name__}"]] * (requested * len(checks)),
                  [f"verify_all({kwargs}) raised {exc!r}"])
        return time.perf_counter() - started
    wall = time.perf_counter() - started
    failures, problems = verify_failures(report, requested, checks)
    tally.add(requested * len(checks), failures, problems)
    print(f"round {k}: {kwargs} digraphs={requested} wall={wall:.3f}s failed={len(failures)} "
          f"digest={report_digest(report)}", flush=True)
    return wall


def analyze_block(seed: int, b: int) -> list:
    """The seed-fixed requests of block ``b``: (n, arcs, stdin text)."""
    rng = random.Random(f"analyze-cli:{seed}:{b}")
    cells = SMALL + LARGE
    rng.shuffle(cells)
    requests = []
    for n, kind, p in cells:
        if kind == "digraph":
            arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
        else:
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            arcs = sorted(edges + [(j, i) for i, j in edges])
        text = "\n".join([str(n)] + [f"{i} {j}" for i, j in arcs]) + "\n"
        requests.append((n, arcs, text))
    return requests


def analyze_request(n, arcs, text, tally, shim_out=None) -> float:
    """One closed-loop request, checked; returns its wall time.
    ``shim_out`` is a (summaries path, spans path, request id) triple that
    routes the request through the tracing shim."""
    if shim_out is None:
        cmd = [sys.executable, "-m", "digenergy", "--json", "analyze", "-"]
    else:
        cmd = [sys.executable, str(HERE / "shim.py"), *map(str, shim_out), "--json", "analyze", "-"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=text, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        tally.add(1, [["timeout"]])
        return time.perf_counter() - started
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tally.add(1, [["exit_status"]], [f"n={n}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        return wall
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tally.add(1, [["bad_json"]])
        return wall
    bad = analyze_failures(doc, n, arcs)
    tally.add(1, [bad] if bad else [])
    return wall


def analyze_steps(requests, tally, metronome, shim_paths=None) -> list:
    """Every request of the block in turn; returns their times at nominal
    speed.  A request takes 0.2 s to 1.5 s, and the host's speed changes
    within a second, so the metronome runs between every two requests."""
    clock = StepClock(metronome, 0.0)
    for rid, r in enumerate(requests):
        clock.tick()
        clock.step(analyze_request(*r, tally, shim_paths and (*shim_paths, rid)))
    return clock.scaled_steps()


def verify_steps(args, tally, metronome, tracer=None) -> list:
    """One verify round; returns each digraph's turn at nominal speed.  A
    turn takes milliseconds: a sample every 0.25 s costs about 3% of the
    round and follows the host's speed closely enough."""
    clock = StepClock(metronome, 0.25, tracer)
    lap = time_digraphs(clock)
    verify_round(args.workload, args.seed, args.round, tally)
    lap()
    return clock.scaled_steps()


def run_timed(args, requests, tally, metronome) -> dict:
    if requests is None:
        steps = verify_steps(args, tally, metronome)
        return {"steps_s": steps, "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    steps = analyze_steps(requests, tally, metronome)
    return {"steps_s": steps, "peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def run_untraced(args, requests, tally, metronome) -> dict:
    if requests is None:
        return {"wall_s": sum(verify_steps(args, tally, metronome))}
    return {"wall_s": sum(analyze_steps(requests, tally, metronome))}


def run_traced(args, requests, tally, metronome) -> dict:
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    if requests is None:
        tracer = tracing.Tracer()
        tracer.install()
        wall = sum(verify_steps(args, tally, metronome, tracer))
        tracer.write_spans(spans_path)
        _, digraphs = _verify_kwargs(args.workload, args.seed, args.round)
        return {"wall_s": wall, "digraphs": digraphs,
                "layers": tracing.layer_metrics(tracing.merge([tracer.summary()]), digraphs, IMPORT_S)}
    summaries_path = OUT / f"shim-summaries-seed{args.seed}.jsonl"
    summaries_path.unlink(missing_ok=True)
    wall = sum(analyze_steps(requests, tally, metronome, (summaries_path, spans_path)))
    summaries = [json.loads(line) for line in summaries_path.read_text().splitlines()] \
        if summaries_path.exists() else []
    summaries_path.unlink(missing_ok=True)
    import_s = statistics.median(s["import_s"] for s in summaries) if summaries else 0.0
    return {"wall_s": wall, "digraphs": len(requests),
            "layers": tracing.layer_metrics(tracing.merge(summaries), len(requests), import_s)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "untraced", "traced"))
    parser.add_argument("--metronome")
    args = parser.parse_args()
    requests = analyze_block(args.seed, args.round) if args.workload == "analyze-cli" else None
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    sys.stdin.readline()     # run.py takes its reference sample, then lets the round start

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    run = {"timed": run_timed, "untraced": run_untraced, "traced": run_traced}[args.mode]
    result = run(args, requests, tally, Metronome.attach(args.metronome))
    print(json.dumps({
        **result,
        "tally": tally.to_dict(),
        "env": {"numpy": np.__version__, "backend": digenergy.BACKEND},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
