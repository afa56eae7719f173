"""Self-test of the benchmark: python3 -m pytest perfbench -q -s

Spawns worker processes, so it takes a few minutes; most of it is the
baseline test, which runs the full acceptance sets traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ffmzv import Verdict  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _kinds(unit):
    return sorted(op.kind for op in unit.ops)


def _counts(layers):
    """The per-layer metrics that are counts, not times."""
    return {k: v for k, v in layers.items() if "self_s" not in k
            and k != "unattributed_s"}


def test_default_seed_is_the_acceptance_set():
    sizes = {"trunc-exact": 1105, "search-scan": 3, "harmonic-checks": 1201}
    for name, size in sizes.items():
        assert len(workloads.build(name, full=True).ops) == size, name
    kinds = _kinds(workloads.build("residue-verify", full=True))
    assert sum(k.startswith("vadic") for k in kinds) == 504
    assert sum(k.startswith("finite") for k in kinds) == 704


def test_other_seeds_draw_same_shape_deterministically():
    for name in workloads.WORKLOADS:
        base = workloads.build(name)
        drawn = workloads.build(name, seed=7)
        assert _kinds(drawn) == _kinds(base), name
        assert _kinds(workloads.build(name, seed=7)) == _kinds(drawn), name
    # the q-even tuples differ from the default ones

    def relations(seed):
        unit = workloads.build("trunc-exact", seed=seed)
        return {op.run.__defaults__[0].terms for op in unit.ops}

    assert relations(7) != relations(workloads.DEFAULT_SEED)


def test_gates_reject_wrong_results():
    unit = workloads.build("trunc-exact")
    assert not unit.ops[0].check((None, Verdict("NonZero")))
    assert unit.ops[0].check((None, Verdict("Zero")))

    unit = workloads.build("residue-verify")
    vadic = next(op for op in unit.ops if op.kind.startswith("vadic"))
    rel, ev = vadic.run.__defaults__
    assert not vadic.check((None, Verdict("ValuationAtLeast", ev.N - 1)))
    assert not vadic.check((None, Verdict("NonZero")))
    assert vadic.check((None, Verdict("ValuationAtLeast", ev.N)))
    # a Zero verdict at every finite place gives each family 0 exceptions,
    # not the frozen count, so the unit's gate fails all those ops
    finite = [op for op in unit.ops if op.kind.startswith("finite")]
    for op in finite:
        assert op.check((None, Verdict("Zero")))
    assert sum(gate() for gate in unit.finish) == len(finite)

    unit = workloads.build("search-scan")
    frozen = next(op for op in unit.ops if op.kind == "search.t.w6.d3.N6")
    report = {"containment": True, "unstabilized_columns": [],
              "dim_found": 35, "dim_universal": 12, "residual": 22,
              "relations": []}
    assert not frozen.check((0, json.dumps(report)))

    unit = workloads.build("harmonic-checks")
    assert not unit.ops[0].check((1, False))


def test_times_scale_to_the_reference_speed():
    """A span during which the reference kernel ran at half speed counts
    half its measured time; spans are scaled by the samples near them."""
    probe = worker.SpeedProbe()
    ref = probe.REFERENCE_S
    probe.times = [0.01 * i for i in range(100)]
    probe.samples = [2 * ref] * 50 + [ref] * 50
    probe.samples[25] = 100 * ref  # descheduled: dropped with the slowest
    assert probe.scale(0.1, 0.2) == pytest.approx(0.5)
    assert probe.scale(0.8, 0.9) == pytest.approx(1.0)
    # no sample near: the whole run's fastest nine tenths
    assert probe.scale(5.0, 6.0) == pytest.approx(90 / 130)


def test_probe_time_is_left_out_of_latencies():
    probe = worker.SpeedProbe()
    t0 = probe.clock()
    probe.sample(50)
    assert probe.clock() - t0 < 0.5 * sum(probe.samples)


def _traced(name, *flags):
    result = run.spawn(name, workloads.DEFAULT_SEED, "--trace", *flags)
    assert result["failed"] == 0
    return result["layers"]


def test_traced_counts_repeat():
    first = _traced("residue-verify")
    second = _traced("residue-verify")
    assert _counts(first) == _counts(second)
    assert first["poly.divmod.calls"] > 0


def test_harmonic_checks_do_no_field_arithmetic():
    layers = _traced("harmonic-checks")
    assert layers["harmonic.mht_sum.calls"] > 0
    for name, value in _counts(layers).items():
        if name.startswith(("poly.", "residue.", "power_sums.")):
            assert value == 0, name


def test_baseline_counts_on_the_acceptance_sets():
    """Prints the counts of the full default-seed sets.  They are the
    baseline, not pinned: later changes are meant to move them.  At the
    commit that added the benchmark they were, for trunc-exact,
    zeta.dp.calls 19425, zeta.dp.cells 263145 and poly.mul.calls 450512,
    and for the Vadic ops of residue-verify 828 vadic_mzv_auto calls with
    1.0 rounds each and 38337 monics enumerated."""
    trunc = _traced("trunc-exact", "--full")
    vadic = _traced("residue-verify", "--full", "--kind", "vadic")
    baseline = {
        "trunc-exact": {k: trunc[k] for k in (
            "zeta.dp.calls", "zeta.dp.cells", "poly.mul.calls",
            "poly.mul.calls_deg_ge256")},
        "residue-verify vadic": {k: vadic[k] for k in (
            "zeta.vadic.calls", "zeta.vadic.rounds",
            "poly.monics_enumerated")},
    }
    print(json.dumps(baseline, indent=2))
    assert trunc["relations.eval.calls"] == 1105
    assert vadic["relations.eval.calls"] == 504


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "harmonic-checks", "--seed", "3", "--seconds", "1", "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("fail_ratio 0 ") for line in lines)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trunc-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
