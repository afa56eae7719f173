import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffmzv import (FieldSpec, Poly, RationalFn, ResidueRing, monic_polys,
                   parse_poly, vanish_degree)
from ffmzv.errors import CapTooSmall
from ffmzv.power_sums import _exact_frac, _residue_sum, default_vanish_cap

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
T2 = parse_poly("t", F2)
V2 = parse_poly("t^2+t+1", F2)


def literal_power_sum(spec, d, k, coprime_to=None):
    total = RationalFn.zero(spec)
    for a in monic_polys(spec, d):
        if coprime_to is not None and (a % coprime_to).is_zero():
            continue
        total = total + RationalFn.from_poly(a) ** (-k)
    return total


def test_pinned_values():
    one = RationalFn.one(F2)
    assert _exact_frac(F2, 0, 5).to_ratfn() == one
    assert _exact_frac(F3, 0, -3).to_ratfn() == RationalFn.one(F3)
    t = Poly.t(F2)
    assert _exact_frac(F2, 1, 1).to_ratfn() == RationalFn(Poly.one(F2), t * t + t)
    assert _exact_frac(F2, 1, -1).to_ratfn() == one
    assert _exact_frac(F2, 2, -1).to_ratfn() == RationalFn.zero(F2)
    assert literal_power_sum(F2, 1, 1, coprime_to=T2) == \
        RationalFn(Poly.one(F2), t + Poly.one(F2))


def test_oracle_equivalence_small_range():
    for spec in (F2, F3):
        for d in range(4):
            for k in range(-6, 7):
                assert _exact_frac(spec, d, k).to_ratfn() == \
                    literal_power_sum(spec, d, k), (spec.q, d, k)


def test_char_p_count():
    for spec in (F2, F3):
        for d in (1, 2, 3):
            assert _exact_frac(spec, d, 0).to_ratfn().is_zero()


def test_residue_exact_compatibility():
    # d = 4 = N*deg(v) reaches monics that need reducing mod v^N
    for d in (0, 1, 2, 3, 4):
        for k in (1, 3, 0, -2):
            exact = literal_power_sum(F2, d, k, coprime_to=T2)
            res = _residue_sum(F2, d, k, T2, 4)
            assert ResidueRing(T2, 4).from_ratfn(exact) == res


def test_high_degree_coprime_sums_vanish_at_precision():
    # the counting shortcut against literal enumeration
    for N in (1, 2):
        for k in (1, 2, -1):
            d = N * V2.degree() + 1
            shortcut = _residue_sum(F2, d, k, V2, N)
            assert shortcut.is_zero()
            # literal check at modest size
            ring = ResidueRing(V2, N)
            total = ring.zero()
            for a in monic_polys(F2, d):
                if (a % V2).is_zero():
                    continue
                if k > 0:
                    total = total + ring.from_ratfn(
                        RationalFn.from_poly(a) ** -k)
                else:
                    total = total + ring.image(a ** -k)
            assert total.is_zero()


_CACHE_WRITER = """
from ffmzv import FieldSpec, parse_poly
from ffmzv.power_sums import _residue_sum
spec = FieldSpec.parse("q=2")
v = parse_poly("t", spec)
for k in range(1, 80):
    for d in range(4):
        _residue_sum(spec, d, k, v, 3)
"""


def test_concurrent_disk_cache_writers(tmp_path):
    # every new entry rewrites the cache file, so two processes filling the
    # same MZV_CACHE_DIR replace it hundreds of times side by side
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, MZV_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _CACHE_WRITER], env=env,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    files = os.listdir(tmp_path)
    assert len(files) == 1 and files[0].endswith(".json"), files
    with open(tmp_path / files[0]) as fh:
        data = json.load(fh)
    assert len(data) == 79 * 4
    assert all(isinstance(rep, list) for rep in data.values())


def test_vanish_degree():
    assert vanish_degree(1, F2, 6) == 1
    assert vanish_degree(2, F3, 8) == 1
    with pytest.raises(CapTooSmall):
        vanish_degree(1, F2, 1)  # S_1(-1) != 0, maximality not certified
    with pytest.raises(ValueError):
        vanish_degree(0, F2, 4)


def test_vanish_cap_matches_a_large_cap():
    # the digit-sum cap certifies the same degree as a generous one
    F4 = FieldSpec.parse("q=4")
    F5 = FieldSpec.parse("q=5")
    for spec, ms in ((F2, range(1, 7)), (F3, range(1, 4)), (F4, (1,)),
                     (F5, (1,))):
        for m in ms:
            cap = default_vanish_cap(m, spec)
            assert vanish_degree(m, spec, cap) == \
                vanish_degree(m, spec, cap + 2), (spec.q, m)


def test_disk_cache_never_reads_sums_over_all_monics(tmp_path, monkeypatch):
    # entries ending in |0 held sums over every monic, multiples of v
    # included; a coprime sum must be computed, not read from them
    from ffmzv import power_sums
    monkeypatch.setenv("MZV_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(power_sums, "_disk_cache", {})
    monkeypatch.setattr(power_sums, "_residue_cache", {})
    path = power_sums._cache_path(F2)
    with open(path, "w") as fh:
        json.dump({f"{T2}|2|1|1|0": [1]}, fh)
    value = _residue_sum(F2, 1, 1, T2, 2)
    assert value == ResidueRing(T2, 2).from_ratfn(
        literal_power_sum(F2, 1, 1, coprime_to=T2))
    with open(path) as fh:
        assert json.load(fh)[f"{T2}|2|1|1|1"] == value.rep.coeff_indices()


@pytest.mark.parametrize("content", ["[]", '{"a":'])
def test_malformed_disk_cache_is_ignored_and_kept(tmp_path, content):
    # valid JSON that is no object, and a truncated file: the run warns once
    # on stderr, prints what it prints without a cache, and leaves the file
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("MZV_CACHE_DIR", None)
    argv = [sys.executable, "-m", "ffmzv.cli", "compute", "--tuple", "(1,2)",
            "--v", "t", "--N", "2"]
    plain = subprocess.run(argv, env=env, capture_output=True, text=True,
                           timeout=120)
    path = tmp_path / "power_sums_q2.json"
    path.write_text(content)
    cached = subprocess.run(argv, env=dict(env, MZV_CACHE_DIR=str(tmp_path)),
                            capture_output=True, text=True, timeout=120)
    assert (cached.returncode, cached.stdout) == (0, plain.stdout)
    assert plain.returncode == 0 and plain.stdout
    warnings = cached.stderr.splitlines()
    assert len(warnings) == 1 and str(path) in warnings[0], cached.stderr
    assert path.read_text() == content
    assert os.listdir(tmp_path) == [path.name]
