"""One cold, isolated repetition of a workload unit.

    python3 perfbench/worker.py --workload NAME [--seed N] [--trace]
                                [--setup-only] [--full] [--kind PREFIX]

Imports ffmzv from the checkout's ``src``, builds the unit's inputs, then runs
and gates every op, and prints one JSON object on its last stdout line:
``ready`` (``time.monotonic()`` once imports and inputs are done, which the
parent compares with the moment it spawned this process) and the speed
scale for that set-up time, the timed phase's ``wall_s``, per-op latencies
raw and scaled to the reference speed (see SpeedProbe),
``attempted``/``failed`` and ``peak_rss_mb``.
With ``--trace`` it also carries the per-layer metrics and writes the spans
to ``.perfbench_out/`` in the checkout.  ``--full`` runs the acceptance-size
set and ``--kind`` keeps only ops whose kind starts with PREFIX; the
benchmark's own tests use both.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--kind", default="")
    args = parser.parse_args(argv)

    unit = workloads.build(args.workload, args.seed, args.full)
    unit.ops = [op for op in unit.ops if op.kind.startswith(args.kind)]
    ready = time.monotonic()
    # the machine's speed just after set-up, to scale the set-up time by
    setup_probe = SpeedProbe()
    setup_probe.sample(SpeedProbe.SETUP_SAMPLES)
    result = {"ready": ready, "python": sys.version.split()[0],
              "numpy": numpy.__version__,
              "setup_scale": setup_probe.scale(0.0, float("inf"))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    probe = SpeedProbe()
    if not tracer:  # the tracer's self times would include the probe's
        probe.start()
    latencies, spans, failed = [], [], 0
    first, start = time.perf_counter(), probe.clock()
    for op in unit.ops:
        began, t0 = time.perf_counter(), probe.clock()
        try:
            with tracer.op(op.kind) if tracer else nullcontext():
                out = op.run()
            ran = True
        except Exception as exc:  # a raising op is a failed op, not a crash
            print(f"op {op.kind} raised {exc!r}", file=sys.stderr)
            ran = False
        latencies.append(probe.clock() - t0)
        spans.append((began, time.perf_counter()))
        if not ran or not _passes(op, out):
            failed += 1
    for gate in unit.finish:
        failed += gate()
    wall = probe.clock() - start
    last = time.perf_counter()
    probe.stop()

    outside = wall - sum(latencies)
    result.update(wall_s=wall, latencies=latencies, outside_s=outside,
                  attempted=len(unit.ops), failed=failed,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    if not tracer:
        result.update(
            scaled_latencies=[lat * probe.scale(*span)
                              for lat, span in zip(latencies, spans)],
            scaled_outside_s=outside * probe.scale(first, last))
    if tracer:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.report_bytes"] = unit.report_bytes
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
    print(json.dumps(result))
    return 0


class SpeedProbe:
    """Samples the speed of the machine while the ops run.

    Every INTERVAL_S of wall time a SIGALRM handler calls
    ``reference_kernel``, a fixed piece of code independent of ffmzv, twice
    and keeps the time of the second call as a sample.  ``clock()`` is ``time.perf_counter()`` minus the time
    spent in the handler, so op latencies and wall_s leave the samples out.
    ``scale(a, b)`` turns a time measured from a to b into one at the
    reference speed, at which the kernel takes REFERENCE_S.  The samples
    cost about 3% of the run.
    """

    INTERVAL_S = 0.01
    # About the kernel's time on a quiet 2.0 GHz Xeon vCPU.
    REFERENCE_S = 160e-6
    # The samples within NEAR_S of a span set its speed: the machine's
    # speed changes over a second and more, and 0.1 s either side holds
    # 20 samples.  Their slowest tenth is dropped: the slowest sample of a
    # repetition took up to 25 times the median one.
    NEAR_S = 0.1
    KEEP = 0.9
    SETUP_SAMPLES = 20

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self._spent = 0.0

    def _sample(self, _signum=None, _frame=None):
        # The first call brings the kernel into the caches the ops have
        # just filled, so that what the ops leave there does not change the
        # timed second call.
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.times.append(t1)
        self._spent += t2 - t0

    def sample(self, n: int):
        for _ in range(n):
            self._sample()

    def scale(self, a: float, b: float) -> float:
        """REFERENCE_S over the kernel's mean time near the span [a, b]
        (over the whole run, if fewer than five samples lie near it),
        leaving out the slowest tenth."""
        near = self.samples[bisect.bisect_left(self.times, a - self.NEAR_S):
                            bisect.bisect_right(self.times, b + self.NEAR_S)]
        near = sorted(near if len(near) >= 5 else self.samples)
        kept = near[:max(1, int(len(near) * self.KEEP))]
        return self.REFERENCE_S * len(kept) / sum(kept)

    def clock(self) -> float:
        while True:  # retry if a sample lands between the reads
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_kernel():
    """About 0.16 ms of interpreter work, dict updates and small numpy calls,
    the mix ffmzv's small-polynomial code runs."""
    a = numpy.arange(1, 17, dtype=numpy.int64)
    acc = {}
    x = 1
    for i in range(60):
        b = numpy.convolve(a, a[:8]) % 3
        x = (x * 7 + int(b[i % 23])) % 65537
        acc[x & 255] = acc.get(x & 255, 0) + 1
    return x


def _passes(op, out) -> bool:
    try:
        ok = op.check(out)
    except Exception as exc:  # a malformed result fails its op
        print(f"op {op.kind}: checking the result raised {exc!r}",
              file=sys.stderr)
        return False
    if not ok:
        print(f"op {op.kind} gave a wrong or unverified result",
              file=sys.stderr)
    return ok


if __name__ == "__main__":
    sys.exit(main())
