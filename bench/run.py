"""Benchmark of the asrt proof kernel: reflect, check and falsity workloads.

    python3 bench/run.py --workload reflect|check|falsity --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  Every repetition runs in a fresh
interpreter (bench/worker.py), one at a time, because asrt keeps
process-global memos that a warm second repetition would reuse.  Without
--trace, repetitions run until the next one would end more than S seconds
after the first began (at least one), then set-up-only probes; the
end-to-end metrics are medians over them.  With --trace 1, one untraced and one traced repetition run and
the per-layer metrics come from the traced one.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reflect", "check", "falsity")
SETUP_PROBES = 4          # set-up-only processes per run, beside the repetitions
TIME_LIMIT_S = 170.0      # the whole run must end well within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, role: str, trace: bool = False) -> dict:
        """Run one worker process to completion and return its record."""
        left = TIME_LIMIT_S - self.elapsed()
        if left <= 0:
            raise BenchError("time limit reached before " + role)
        cmd = [sys.executable, str(BENCH / "worker.py"), role,
               "--seed", str(self.seed), "--work", str(self.work)]
        if trace:
            cmd.append("--trace")
        cmd += ["--t0", repr(time.perf_counter())]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  env=self.env, timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} did not finish within the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{role} exited with code {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["wall_s"] = time.perf_counter() - start
        return record


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(runner: Runner, workload: str, seconds: float):
    """Repetitions and set-up probes for one untraced run."""
    gen_s = runner.spawn("gen")["setup_s"] if workload == "check" else 0.0
    reps = []
    first = runner.elapsed()
    while True:
        reps.append(runner.spawn(workload))
        per_rep = statistics.median(r["wall_s"] for r in reps)
        if runner.elapsed() - first + per_rep > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    setups += [runner.spawn("setup-" + workload)["setup_s"] for _ in range(SETUP_PROBES)]
    return gen_s, reps, setups


def tally(reps):
    """Operations attempted and failed over the repetitions."""
    return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps)


def item_times(reps):
    """Median and 90th percentile of the time to verdict per item, in ms.
    Single items of 0.1-20 ms vary by half from run to run on a shared
    machine, so these carry no bound: the trace run reports them per layer."""
    items = [ms for r in reps for ms in r["items_ms"]]
    return len(items), percentile(items, 50), percentile(items, 90)


def end_to_end(gen_s, reps, setups):
    attempted, failed = tally(reps)
    samples = {
        "setup_s": ("s", [gen_s + s for s in setups]),
        "run_s": ("s", [r["run_s"] for r in reps]),
        "lines_per_s": ("1/s", [r["lines"] / r["run_s"] for r in reps]),
        "peak_rss_mb": ("MB", [r["rss_mb"] for r in reps]),
        "ops_ok_frac": ("ratio", [(attempted - failed) / attempted]),
    }
    for name, (unit, values) in samples.items():
        print(f"{name:>12} {statistics.median(values):14.6g} {unit:<5}"
              f" spread {spread(values):.3f}  n={len(values)}")
    n, p50, p90 = item_times(reps)
    print(f"{'items':>12} p50 {p50:.4g} ms  p90 {p90:.4g} ms  n={n}")
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in samples.items()}


def per_layer(runner: Runner, workload: str):
    """One untraced and one traced repetition; the trace of the check
    workload also covers the process that writes its scripts."""
    traces = []
    if workload == "check":
        traces.append(runner.spawn("gen", trace=True)["trace"])
    plain = runner.spawn(workload)
    traced = runner.spawn(workload, trace=True)
    traces.append(traced["trace"])
    metrics = {}
    for trace in traces:
        for key, value in trace.items():
            metrics[key] = metrics.get(key, 0) + value
    hits = metrics.pop("kernel.is_axiom.hits")
    metrics["kernel.is_axiom.hit_ratio"] = hits / max(1, metrics["kernel.is_axiom.calls"])
    metrics["items.count"], metrics["items.p50_ms"], metrics["items.p90_ms"] = item_times([plain])
    metrics["trace.untraced_run_s"] = plain["run_s"]
    metrics["trace.traced_run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    units = {"calls": "count", "total_s": "s", "self_s": "s", "hit_ratio": "ratio",
             "p50_ms": "ms", "p90_ms": "ms"}
    out = {}
    for key, value in metrics.items():
        unit = "s" if key.startswith("trace.") else units.get(key.rsplit(".", 1)[1], "count")
        out[key] = {"value": value, "unit": unit}
        print(f"{key:>48} {value:14.6g} {unit}")
    return out, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "asrt" / "__init__.py").is_file():
        print(f"error: no asrt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        runner = Runner(args.seed, work)
        if args.trace:
            metrics, reps = per_layer(runner, args.workload)
        else:
            gen_s, reps, setups = measure(runner, args.workload, args.seconds)
            metrics = end_to_end(gen_s, reps, setups)
    except BenchError as e:
        print("error: " + str(e), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = sorted({e for r in reps for e in r["errors"]})
    for e in errors:
        print("failed: " + e)
    defects = sorted({d for r in reps for d in r["defects"]})
    for d in defects:
        print("known defect, not counted as failed (ROADMAP item 2): " + d)
    correct = not any(r["wrong"] for r in reps)
    attempted, failed = tally(reps)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
