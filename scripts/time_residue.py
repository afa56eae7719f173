"""Residue-layer and exact-layer timings of one or more checkouts of this
repository.

    python3 scripts/time_residue.py DIR [DIR ...]

Each DIR is the root of a checkout (the directory holding src/ffmzv), for
example one exported with ``git archive REF | tar -x -C DIR``.  For each,
the script prints the median of 5 runs of:

- ``mul``: one product in A/(v^N) at q = 2, v = t^2+t+1, N = 3, whose
  operands have full degree 5, so the product has degree 2*N*deg(v) - 2
  (microseconds per product, ``timeit`` in a fresh process);
- ``inv``: one inverse mod v^N in the same ring (microseconds);
- ``S_3(12)``: one exact power sum S_3(12) at q = 4, cold: the best of 20
  single calls, with ``power_sums._exact_cache`` and every ``cache_clear``-able
  function in ``power_sums`` cleared before each (milliseconds);
- ``search`` at ``--v t --weight-max 5 --depth-max 3 --N 16`` and at
  ``--v t^2+t+1 --weight-max 5 --depth-max 3 --N 7``, ``verify --q 4
  --family thmB --pairs '(3:3)' --evaluator trunc --D 6`` and ``compute
  --q 3 --tuple '(2,4)' --D 8``: wall seconds of one ``python -m
  ffmzv.cli`` process, start-up included.  The last two sum exact power
  sums S_d(k), k >= 1, of degree up to 5 and 7.

Within each run the directories take turns, so drift on a shared machine
hits them alike.  Only the public API, the CLI and the names the benchmark
tracer also relies on are used, so any two checkouts can be compared.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 5

MICRO = """
import timeit
from ffmzv import FieldSpec, ResidueRing, parse_poly, power_sums
F = FieldSpec.parse("q=2")
ring = ResidueRing(parse_poly("t^2+t+1", F), 3)
a = ring.image(parse_poly("t^5+t^3+t+1", F))
b = ring.image(parse_poly("t^5+t^4+t^2+1", F))
F4 = FieldSpec.parse("q=4")


def cold():
    power_sums._exact_cache.clear()
    for f in vars(power_sums).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


n = {n}
print(min(timeit.repeat({stmt!r}, setup={setup!r}, globals=globals(),
                        number=n, repeat={repeat})) / n * {scale})
"""

# name -> (statement, set-up before each repeat, calls per repeat, repeats,
# seconds -> unit)
MICROS = {
    "mul (us)": ("a * b", "pass", 20000, 3, 1e6),
    "inv (us)": ("a.inv()", "pass", 5000, 3, 1e6),
    "S_3(12) q=4 cold (ms)": ("power_sums._exact_frac(F4, 3, 12)", "cold()",
                              1, 20, 1e3),
}

CLI_RUNS = {
    "search t N=16 (s)": ["search", "--v", "t", "--weight-max", "5",
                          "--depth-max", "3", "--N", "16"],
    "search t^2+t+1 N=7 (s)": ["search", "--v", "t^2+t+1", "--weight-max",
                               "5", "--depth-max", "3", "--N", "7"],
    "verify thmB q=4 D=6 (s)": ["verify", "--q", "4", "--family", "thmB",
                                "--pairs", "(3:3)", "--evaluator", "trunc",
                                "--D", "6"],
    "compute (2,4) q=3 D=8 (s)": ["compute", "--q", "3", "--tuple", "(2,4)",
                                  "--D", "8"],
}


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def micro(root: Path, stmt: str, setup: str, number: int, repeat: int,
          scale: float) -> float:
    code = MICRO.format(n=number, stmt=stmt, setup=setup, repeat=repeat,
                        scale=scale)
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         env=_env(root), check=True, capture_output=True,
                         text=True).stdout
    return float(out)


def cli(root: Path, args: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ffmzv.cli", *args],
                   cwd=root, env=_env(root), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    roots = [Path(d).resolve() for d in (argv or sys.argv[1:])]
    if not roots:
        raise SystemExit(__doc__)
    names = list(MICROS) + list(CLI_RUNS)
    samples = {(name, root): [] for name in names for root in roots}
    for i in range(RUNS):
        for name in names:
            for root in roots:
                if name in MICROS:
                    value = micro(root, *MICROS[name])
                else:
                    value = cli(root, CLI_RUNS[name])
                samples[(name, root)].append(value)
        print(f"run {i + 1}/{RUNS} done", file=sys.stderr, flush=True)
    width = max(len(n) for n in names)
    print(" " * width + "".join(f"  {str(r)}" for r in roots))
    for name in names:
        cells = [f"{statistics.median(samples[(name, r)]):.3g}"
                 .rjust(len(str(r))) for r in roots]
        print(name.ljust(width) + "".join(f"  {c}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
