"""Paired benchmark of two git refs: alternating runs of perfbench/run.py.

    python3 scripts/bench_pair.py --parent REF --change REF --out BENCH_<n>.json

Each side is a git ref, exported with ``git archive`` into a temporary
directory.  Both sides run their own, unchanged, ``perfbench/run.py`` for
the change's BENCHMARK.json ``run_seconds``.  Pair i, for i in 0..9, runs
every declared workload once on each side at seed i, the parent first on
even pairs and the change first on odd ones, one run at a time.

The JSON written to --out gives, per workload and end-to-end metric
declared in the change's BENCHMARK.json, each side's median and quartiles
over the pairs, the number of pairs the change won (ties count for
neither), the change/parent ratio of the medians, and whether the change's
median is worse than the parent's by more than the declared bound; plus
each side's failed/attempted ops and every run's raw metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def checkout(ref: str, workdir: Path, name: str) -> tuple[Path, str]:
    """(directory to run in, commit sha) for a git ref."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    dest = workdir / name
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest, sha


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=where, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode != 0:
        raise SystemExit(f"{where}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, declared: list[dict]) -> dict:
    """runs: side -> list of run records, pair i at index i."""
    out = {"fail_ratio": {}, "metrics": {}}
    for side, records in runs.items():
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        out["fail_ratio"][side] = failed / attempted if attempted else 0.0
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p, "change": c,
            "change_wins": sum(sign * (b - a) < 0
                               for a, b in zip(parent, change)),
            "pairs": len(parent),
            "change_over_parent": c["median"] / p["median"],
            "beyond_parent_spread": abs(c["median"] - p["median"])
            > p["q3"] - p["q1"],
            "regressed": sign * (c["median"] - p["median"])
            > m["bound"] * p["median"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides = {name: checkout(ref, Path(tmp), name)
                 for name, ref in (("parent", args.parent),
                                   ("change", args.change))}
        spec = json.loads((sides["change"][0] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                               "parent")
            for w in workloads:
                for side in order:
                    runs[w][side].append(
                        run_once(sides[side][0], w, i, seconds))
                    wall = runs[w][side][-1]["metrics"]["wall_s"]
                    print(f"pair {i} {w} {side} wall_s {wall:.4g}",
                          file=sys.stderr, flush=True)

    report = {
        "parent": sides["parent"][1], "change": sides["change"][1],
        "pairs": PAIRS, "seconds": seconds, "seeds": list(range(PAIRS)),
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "cpu": cpu_model()},
        "workloads": {w: {**summarize(runs[w], spec["end_to_end"]),
                          "runs": runs[w]} for w in workloads},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for w in workloads:
        for name, m in report["workloads"][w]["metrics"].items():
            print(f"{w:16s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} "
                  f"ratio {m['change_over_parent']:.3f} "
                  f"wins {m['change_wins']}/{m['pairs']}"
                  f"{'  REGRESSED' if m['regressed'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
