"""ffmzv benchmark: time to a verified exact result, per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  The workloads and metrics are the ones
BENCHMARK.json declares; workloads.py builds each workload's ops and says
why it was chosen.

Each repetition is a fresh single-threaded Python process (worker.py) with
OMP/OPENBLAS/MKL_NUM_THREADS=1 and no MZV_CACHE_DIR, so every cache starts
cold, as it does for a CLI user.  Repetitions run one after another until
the next one would end past --seconds (at least two untraced ones).  The
end-to-end metrics, over the untraced repetitions:

  wall_s       timed phase of one repetition: every op run and gated
  op_p50_ms    median latency of one op
  op_tail_ms   highest of p99/p95/p90/p75 with at least 10 of the unit's ops
               beyond it, or the slowest op when the unit has fewer than 40
  setup_s      process spawn to imports done and inputs generated (median of
               at least five processes)
  peak_rss_mb  peak resident memory of a repetition's process (median)

All repetitions of one seed run the same ops in the same order, each in a
fresh process, so op i does the same work in every repetition.

Every time is reported at a fixed machine speed.  On a shared 2-vCPU VM,
other tenants slowed this machine by up to 1.8x in stretches of under a
second to minutes, so raw times of the same code moved by a third from run
to run.  Each worker therefore samples a fixed reference kernel every 10 ms
while its ops run (worker.SpeedProbe) and scales each op's latency, and the
time outside the ops, by REFERENCE_S over the kernel's mean time within
0.1 s of them; set-up time is scaled by samples taken right after set-up.
A time is thus reported as if the kernel took REFERENCE_S, about its time
on a quiet 2.0 GHz Xeon vCPU; the summary also prints the raw wall_s.  The
latency metrics take each op's median scaled latency over the repetitions;
wall_s adds to their sum the median scaled time outside the ops (the loop
and the unit's gates).

With --trace 1 the run alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (the lower median; counts
repeat exactly), plus trace_overhead (traced / untraced raw wall_s; the
traced repetitions run without the speed probe).  The last stdout line is
the JSON result; the lines before it are a readable summary with
fail_ratio, the tail percentile and the environment.  Exits 2 without a
result when the checkout holds no ffmzv sources, 1 when a repetition
crashes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_UNTRACED_REPS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 75)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MZV_CACHE_DIR", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process to completion; adds its setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["ready"] - spawned) * result["setup_scale"]
    return result


def tail_percentile(n_ops: int) -> int | None:
    """Highest tail percentile with at least 10 ops beyond it."""
    for p in TAIL_PERCENTILES:
        if n_ops * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def typical(reps, prefix="") -> tuple[list[float], float]:
    """Each op's median latency over the repetitions, and wall_s built
    from them; ``prefix="scaled_"`` takes the times scaled to the reference
    speed."""
    per_op = [statistics.median(lat)
              for lat in zip(*(r[prefix + "latencies"] for r in reps))]
    outside = statistics.median(r[prefix + "outside_s"] for r in reps)
    return per_op, sum(per_op) + outside


def end_to_end(reps, setups, tail_p) -> dict:
    per_op, wall = typical(reps, "scaled_")
    return {
        "wall_s": wall,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * (percentile(per_op, tail_p) if tail_p
                              else max(per_op)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps, traced) -> dict:
    out = {name: statistics.median_low(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace_overhead"] = typical(traced)[1] / typical(reps)[1]
    return out


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool,
        declared: list[dict]) -> dict:
    """Runs repetitions for ``seconds`` and reports the ``declared`` metrics
    (BENCHMARK.json's end_to_end list, or per_layer when tracing)."""
    reps, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(reps)
        rep = spawn(workload, seed, *(["--trace"] if want_traced else []))
        (traced if want_traced else reps).append(rep)
        setups.append(rep["setup_s"])
        if len(reps) < MIN_UNTRACED_REPS or (trace and not traced):
            continue
        # stop when the next repetition, of whichever kind, would overrun
        nxt = traced if trace and len(traced) < len(reps) else reps
        estimate = statistics.median(r["wall_s"] + r["setup_s"] for r in nxt)
        if time.monotonic() - start + estimate > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])

    everything = reps + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    tail_p = tail_percentile(len(reps[0]["latencies"]))
    measured = per_layer(reps, traced) if trace else end_to_end(
        reps, setups, tail_p)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}
    summary = [
        f"workload {workload}  seed {seed}  untraced reps {len(reps)}  "
        f"traced reps {len(traced)}  ops per rep {reps[0]['attempted']}",
        f"python {reps[0]['python']}  numpy {reps[0]['numpy']}  "
        f"nproc {os.cpu_count()}  commit {commit()}",
        f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)",
        f"times scaled to the reference speed; raw wall_s "
        f"{typical(reps)[1]:.6g} s",
        f"op_tail_ms is "
        + (f"p{tail_p} of {reps[0]['attempted']} ops per rep" if tail_p
           else f"the slowest of {reps[0]['attempted']} ops per rep"),
    ]
    summary += [f"{name:32s} {value:.6g} {unit}"
                for name, (value, unit) in metrics.items()]
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ffmzv" / "__init__.py").is_file():
        print(f"no ffmzv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  declared)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
