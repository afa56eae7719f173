"""End-to-end acceptance suite: one test per contract criterion, each
printing a single pass/fail line (visible even under pytest capture).

The frozen numbers in criteria 4 and 5 were produced by the independent
implementations in scripts/oracle_finite.py and scripts/oracle_search.py,
which share no code with the package.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ffmzv import (Composition, FieldSpec, Finite, GFRing, MHTInstance,
                   RationalFn, RationalRing, SearchScope, Thm3Config,
                   TruncatedExact, TruncatedPolyRing, Vadic, ZModRing,
                   check_thmC, check_thmD, compare_with_universal,
                   enumerate_tuples, evaluate_relation, find_relations,
                   gen_thm2, gen_thm3, gen_thmA, gen_thmB, irreducible_polys,
                   is_q_even, parse_poly, random_instance)
from ffmzv.cli import main as cli_main
from ffmzv.errors import InvalidFamilyInput
from ffmzv.power_sums import _exact_frac

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")


@pytest.fixture
def criterion(capfd):
    """Context manager enforcing the per-criterion time budget and printing
    one pass/fail line past pytest's capture."""
    @contextmanager
    def run(n: int, label: str, budget_s: float):
        start = time.monotonic()
        ok = False
        try:
            yield
            elapsed = time.monotonic() - start
            assert elapsed < budget_s, \
                f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"
            ok = True
        finally:
            elapsed = time.monotonic() - start
            with capfd.disabled():
                print(f"[acceptance] criterion {n} ({label}): "
                      f"{'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]",
                      flush=True)
    return run


def test_criterion_1_power_sum_oracle(criterion):
    with criterion(1, "power-sum oracle", 5.0):
        for spec in (F2, F3):
            for d in range(4):
                monics = list(_monics(spec, d))
                for k in range(-6, 7):
                    expected = RationalFn.zero(spec)
                    for a in monics:
                        expected = expected + _ratfn_pow(a, -k, spec)
                    assert _exact_frac(spec, d, k).to_ratfn() == expected, \
                        (spec.q, d, k)
        t = parse_poly("t", F2)
        assert _exact_frac(F2, 1, 1).to_ratfn() == \
            RationalFn(parse_poly("1", F2), t * t + t)
        assert _exact_frac(F3, 0, -3).to_ratfn() == RationalFn.one(F3)


def _monics(spec, d):
    from ffmzv.poly import monic_polys
    return monic_polys(spec, d)


def _ratfn_pow(a, e, spec):
    base = RationalFn(a, parse_poly("1", spec))
    return base ** e


def _qeven_values(spec, bound):
    return [e for e in range(1, bound + 1) if is_q_even(e, spec)]


def _thm3_configs(spec, weight_max, phi_max):
    out = []
    for phi in range(1, phi_max + 1):
        for s0 in itertools.combinations_with_replacement(
                range(1, weight_max + 1), phi):
            if sum(s0) > weight_max:
                continue
            if any(not is_q_even(s, spec) for s in s0):
                continue
            pairs = tuple((s, s0.count(s)) for s in sorted(set(s0)))
            try:
                rel = gen_thm3(Thm3Config(pairs), spec)
            except InvalidFamilyInput:
                continue
            if rel.terms:
                out.append((pairs, rel))
    return out


def test_criterion_2_truncation_exact_identities(criterion):
    with criterion(2, "truncation-exact identities", 60.0):
        rels = []
        for spec in (F2, F3):
            evens = _qeven_values(spec, 8)
            for triple in itertools.combinations(evens, 3):
                rels.append(gen_thmA(Composition(triple), spec))
        for spec, pool in ((F2, (1, 2, 3, 4)), (F4, (3, 6))):
            for size in range(1, len(pool) + 1):
                for base in itertools.combinations(pool, size):
                    for ks in itertools.product(range(1, 7), repeat=size):
                        if sum(ks) > 6:
                            continue
                        try:
                            rels.append(gen_thmB(
                                Thm3Config(tuple(zip(base, ks))), spec))
                        except InvalidFamilyInput:
                            continue
        assert len(rels) > 50
        for rel in rels:
            for D in range(1, 6):
                _, verdict = evaluate_relation(rel, TruncatedExact(D))
                assert verdict.kind == "Zero", (rel.tag, rel.terms[:1], D)


def _vadic_instances(spec, weight_max):
    rels = []
    evens = _qeven_values(spec, weight_max)
    for n in (1, 3, 5):
        for combo in itertools.combinations(evens, n):
            if sum(combo) <= weight_max:
                rels.append(gen_thm2(Composition(combo), spec))
    if spec.p == 2:
        rels.extend(rel for _, rel in _thm3_configs(spec, weight_max, weight_max))
    return rels


def test_criterion_3_vadic_universal_relations(criterion):
    with criterion(3, "v-adic universal relations", 300.0):
        cases = [(F2, ("t", "t+1", "t^2+t+1")), (F3, ("t", "t^2+1"))]
        for spec, prime_strs in cases:
            rels = _vadic_instances(spec, 6)
            assert rels
            for vs in prime_strs:
                v = parse_poly(vs, spec)
                for rel in rels:
                    for star in (False, True):
                        for N in (2, 3, 4):
                            _, verdict = evaluate_relation(
                                rel, Vadic(v, N=N, star=star))
                            assert verdict.passed and verdict.n >= N, \
                                (spec.q, vs, rel.terms[:1], star, N)


FINITE_EXCEPTIONS = {
    (2, "perm", False): 14,
    (2, "perm", True): 14,
    (2, "dbl", False): 8,
    (2, "dbl", True): 18,
    (3, "perm", False): 21,
    (3, "perm", True): 21,
}


def test_criterion_4_finite_corollaries(criterion):
    with criterion(4, "finite corollaries", 300.0):
        for spec, weight_max in ((F2, 6), (F3, 12)):
            primes = [v for d in range(1, 5)
                      for v in irreducible_polys(spec, d)]
            assert len(primes) == (8 if spec.q == 2 else 32)
            perm_rels = []
            evens = _qeven_values(spec, weight_max)
            for n in (1, 3, 5):
                for combo in itertools.combinations(evens, n):
                    if sum(combo) <= weight_max:
                        perm_rels.append(gen_thm2(Composition(combo), spec))
            families = [("perm", perm_rels)]
            if spec.p == 2:
                dbl = [rel for pairs, rel in _thm3_configs(spec, weight_max, 3)
                       if sum(k for _, k in pairs) >= 2]
                assert len(dbl) == 9
                families.append(("dbl", dbl))
            assert len(perm_rels) == 7
            for name, rels in families:
                for star in (False, True):
                    exceptions = 0
                    for v in primes:
                        for rel in rels:
                            _, verdict = evaluate_relation(
                                rel, Finite(v, star=star))
                            if verdict.kind != "Zero":
                                exceptions += 1
                    assert exceptions == \
                        FINITE_EXCEPTIONS[(spec.q, name, star)], \
                        (spec.q, name, star, exceptions)


def test_criterion_5_relation_search_scan(criterion):
    with criterion(5, "relation-search scan", 600.0):
        v = parse_poly("t", F2)
        scope = SearchScope(F2, v, weight_max=6, depth_max=3, N=6)
        tuples = enumerate_tuples(scope)
        assert len(tuples) == 41
        found = find_relations(scope)
        report = compare_with_universal(found, scope)
        assert report["dim_found"] == 35
        assert report["dim_universal"] == 12
        assert report["containment"] is True
        assert report["residual"] == 23
        assert report["unstabilized_columns"] == []


def test_criterion_6_mht_property_suites(criterion):
    with criterion(6, "harmonic identity suites", 120.0):
        for ring in (ZModRing(12), TruncatedPolyRing(5, 3), RationalRing()):
            for seed in range(200):
                inst = random_instance(seed, ring, (5, 5))
                _, ok = check_thmC(inst, inst.magma[:5])
                assert ok, (ring.name, seed)
        for ring in (ZModRing(2), TruncatedPolyRing(2, 4), GFRing(F4)):
            for seed in range(200):
                inst = random_instance(seed, ring, (5, 3), doubling=True)
                base = inst.base
                pairs = ((base[0], 3),) if len(base) == 1 else \
                    ((base[0], 2), (base[1], 1 + seed % 2))
                _, ok = check_thmD(inst, pairs)
                assert ok, (ring.name, seed)


def test_criterion_7_classical_shadow(criterion):
    with criterion(7, "classical-shadow instance", 5.0):
        ring = RationalRing()
        index_set = tuple(range(1, 31))
        magma = (2, 3, 4)
        h = {(d, s): Fraction(1, d ** s) for d in index_set for s in magma}
        inst = MHTInstance(ring=ring, index_set=index_set, magma=magma, h=h)
        residual, ok = check_thmC(inst, (2, 3, 4))
        assert ok and residual == 0


def test_criterion_8_cli_determinism(criterion, tmp_path):
    with criterion(8, "CLI determinism", 60.0):
        runs = [
            ["compute", "--tuple", "(1,2)", "--v", "t", "--N", "3"],
            ["verify", "--family", "thm2", "--tuple", "(1,2,3)",
             "--evaluator", "vadic", "--v", "t", "--N", "3"],
            ["verify", "--family", "thmB", "--pairs", "(1:2),(3:2)",
             "--evaluator", "trunc", "--D", "3"],
            ["search", "--v", "t", "--weight-max", "4", "--depth-max", "3",
             "--N", "2"],
            ["harmonic", "--ring", "polymod:2:4", "--checks", "10",
             "--doubling"],
            ["primes", "--degree-max", "3", "--format", "csv"],
        ]
        for i, argv in enumerate(runs):
            a = tmp_path / f"a{i}"
            b = tmp_path / f"b{i}"
            assert cli_main(argv + ["--out", str(a)]) == 0, argv
            assert cli_main(argv + ["--out", str(b)]) == 0, argv
            assert a.read_bytes() == b.read_bytes(), argv
            if argv[-1] != "csv":
                json.loads(a.read_text())
