import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffmzv import (Exact, FieldSpec, Poly, PowerSumKey, RationalFn, Residue,
                   ResidueElem, monic_polys, parse_poly, power_sum,
                   vanish_degree)
from ffmzv.errors import CapTooSmall, NotInvertible

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
    assert power_sum(PowerSumKey(0, 5), F2) == one
    assert power_sum(PowerSumKey(0, -3), F3) == RationalFn.one(F3)
    t = Poly.t(F2)
    assert power_sum(PowerSumKey(1, 1), F2) == RationalFn(Poly.one(F2), t * t + t)
    assert power_sum(PowerSumKey(1, -1), F2) == one
    assert power_sum(PowerSumKey(2, -1), F2) == RationalFn.zero(F2)
    assert power_sum(PowerSumKey(1, 1, coprimality=T2), F2) == \
        RationalFn(Poly.one(F2), t + Poly.one(F2))


def test_oracle_equivalence_small_range():
    for spec in (F2, F3):
        for d in range(4):
            for k in range(-6, 7):
                assert power_sum(PowerSumKey(d, k), spec) == \
                    literal_power_sum(spec, d, k), (spec.q, d, k)


def test_char_p_count():
    for spec in (F2, F3):
        for d in (1, 2, 3):
            assert power_sum(PowerSumKey(d, 0), spec).is_zero()


def test_coprime_matches_plain_below_deg_v():
    # S~_d(k) = S_d(k) whenever d < deg v, computed in A/(v^N)
    for d in (0, 1):
        for k in (1, 2, -1):
            plain = power_sum(PowerSumKey(d, k, carrier=Residue(V2, 3)), F2)
            tilde = power_sum(
                PowerSumKey(d, k, carrier=Residue(V2, 3), coprimality=V2), F2)
            assert plain == tilde


def test_residue_exact_compatibility():
    # d = 4 = N*deg(v) reaches monics that need reducing mod v^N
    for d in (0, 1, 2, 3, 4):
        for k in (1, 3, 0, -2):
            exact = power_sum(PowerSumKey(d, k, coprimality=T2), F2)
            res = power_sum(
                PowerSumKey(d, k, carrier=Residue(T2, 4), coprimality=T2), F2)
            assert ResidueElem.from_ratfn(exact, T2, 4) == res


def test_residue_not_invertible_without_coprimality():
    with pytest.raises(NotInvertible):
        power_sum(PowerSumKey(1, 1, carrier=Residue(T2, 2)), F2)
    # but fine below deg v, and for negative exponents anywhere
    power_sum(PowerSumKey(1, 1, carrier=Residue(V2, 1)), F2)
    power_sum(PowerSumKey(3, -2, carrier=Residue(T2, 2)), F2)


def test_high_degree_coprime_sums_vanish_at_precision():
    # the counting shortcut against literal enumeration
    for N in (1, 2):
        for k in (1, 2, -1):
            d = N * V2.degree() + 1
            shortcut = power_sum(
                PowerSumKey(d, k, carrier=Residue(V2, N), coprimality=V2), F2)
            assert shortcut.is_zero()
            # literal check at modest size
            total = ResidueElem.zero(V2, N)
            for a in monic_polys(F2, d):
                if (a % V2).is_zero():
                    continue
                if k > 0:
                    total = total + ResidueElem.from_ratfn(
                        RationalFn.from_poly(a) ** -k, V2, N)
                else:
                    total = total + ResidueElem.from_poly(a ** -k, V2, N)
            assert total.is_zero()


_CACHE_WRITER = """
from ffmzv import FieldSpec, PowerSumKey, Residue, parse_poly, power_sum
spec = FieldSpec.parse("q=2")
v = parse_poly("t", spec)
for k in range(1, 80):
    for d in range(4):
        power_sum(PowerSumKey(d, k, carrier=Residue(v, 3), coprimality=v), spec)
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


def test_key_rejects_mismatched_prime():
    with pytest.raises(ValueError):
        PowerSumKey(1, 1, carrier=Residue(T2, 2), coprimality=V2)


def test_vanish_degree():
    assert vanish_degree(1, F2, 6) == 1
    assert vanish_degree(2, F3, 8) == 1
    with pytest.raises(CapTooSmall):
        vanish_degree(1, F2, 1)  # S_1(-1) != 0, maximality not certified
    with pytest.raises(ValueError):
        vanish_degree(0, F2, 4)
