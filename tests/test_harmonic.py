import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, GFRing, MHTInstance, RationalFn,
                   RationalRing, TruncatedPolyRing, ZModRing, check_thmC,
                   check_thmD, mht_sum, random_instance, truncated_mzv)
from ffmzv.errors import DoublingLawViolated, InvalidFamilyInput
from ffmzv.power_sums import _exact_frac

F2 = FieldSpec.parse("q=2")
F4 = FieldSpec.parse("q=4")


def literal_mht(inst, s, star=False):
    ring = inst.ring
    total = ring.zero()
    for chain in itertools.product(inst.index_set, repeat=len(s)):
        ok = all(chain[i] >= chain[i + 1] if star else chain[i] > chain[i + 1]
                 for i in range(len(s) - 1))
        if not ok:
            continue
        prod = ring.one()
        for d, e in zip(chain, s):
            prod = ring.mul(prod, inst.h[(d, e)])
        total = ring.add(total, prod)
    return total


def test_mht_sum_matches_literal():
    for seed in range(5):
        inst = random_instance(seed, ZModRing(9), (4, 3))
        s_vals = inst.magma
        for s in [(s_vals[0],), (s_vals[1], s_vals[0]),
                  (s_vals[0], s_vals[1], s_vals[2])]:
            for star in (False, True):
                assert mht_sum(inst, s, star) == literal_mht(inst, s, star)


def test_mht_sum_accepts_a_list():
    inst = random_instance(3, ZModRing(9), (4, 3))
    s = (inst.magma[1], inst.magma[0], inst.magma[1])
    for star in (False, True):
        memo = {}
        assert mht_sum(inst, list(s), star, memo) == \
            literal_mht(inst, s, star)
        assert mht_sum(inst, list(s[1:]), star, memo) == \
            literal_mht(inst, s[1:], star)


def test_mht_sum_validates_exponents():
    inst = random_instance(0, ZModRing(5), (3, 2))
    with pytest.raises(ValueError):
        mht_sum(inst, (10 ** 9,))
    with pytest.raises(ValueError):
        mht_sum(inst, ())
    for signed in (False, True):
        with pytest.raises(ValueError):
            mht_sum(inst, (), False, None, signed)


def test_classical_double_zeta_specialization():
    # h(d, s) = 1/(d+1)^s in Q: mht_sum is a truncated classical MZV
    D = 12
    ring = RationalRing()
    h = {(d, s): Fraction(1, (d + 1) ** s)
         for d in range(D) for s in (2, 3)}
    inst = MHTInstance(ring=ring, index_set=tuple(range(D)), magma=(2, 3), h=h)
    expected = sum(Fraction(1, n ** 2 * m ** 3)
                   for n in range(2, D + 1) for m in range(1, n))
    assert mht_sum(inst, (2, 3)) == expected


def test_power_sum_specialization_coherence():
    # h(d, s) = S_d(s) over F_q(t) turns mht_sum into truncated_mzv
    class RatRing:
        char = F2.p
        name = "ratfn"

        def zero(self):
            return RationalFn.zero(F2)

        def one(self):
            return RationalFn.one(F2)

        def add(self, a, b):
            return a + b

        def mul(self, a, b):
            return a * b

    D = 4
    h = {(d, s): _exact_frac(F2, d, s).to_ratfn()
         for d in range(D) for s in (1, 2, 3)}
    inst = MHTInstance(ring=RatRing(), index_set=tuple(range(D)),
                       magma=(1, 2, 3), h=h)
    for s in [(1,), (2, 1), (3, 1, 2)]:
        assert mht_sum(inst, s) == truncated_mzv(D, Composition(s), False, F2)


@pytest.mark.parametrize("ring", [ZModRing(12), TruncatedPolyRing(5, 3),
                                  RationalRing(), GFRing(FieldSpec.parse("q=9"))])
def test_thmC_holds_on_random_instances(ring):
    for seed in range(20):
        inst = random_instance(seed, ring, (4, 4))
        s = inst.magma[:3]
        _, ok = check_thmC(inst, s)
        assert ok, (ring.name, seed)


@pytest.mark.parametrize("ring", [ZModRing(2), TruncatedPolyRing(2, 4),
                                  GFRing(FieldSpec.parse("q=4"))])
def test_thmD_holds_on_random_instances(ring):
    for seed in range(20):
        inst = random_instance(seed, ring, (4, 3), doubling=True)
        base = inst.base
        pairs = ((base[0], 2),) if len(base) == 1 else \
            ((base[0], 2), (base[1], 1))
        _, ok = check_thmD(inst, pairs)
        assert ok, (ring.name, seed)


def test_thmD_rejects_broken_doubling_law():
    ring = ZModRing(2)
    inst = random_instance(0, ring, (3, 2), doubling=True)
    s = inst.base[0]
    h = dict(inst.h)
    d = inst.index_set[0]
    h[(d, 2 * s)] = ring.add(h[(d, 2 * s)], ring.one())
    broken = MHTInstance(ring=ring, index_set=inst.index_set,
                         magma=inst.magma, h=h, base=inst.base)
    with pytest.raises(DoublingLawViolated):
        check_thmD(broken, ((s, 2),))


def test_thmD_rejects_odd_characteristic():
    inst = random_instance(0, ZModRing(9), (3, 2))
    with pytest.raises(InvalidFamilyInput):
        check_thmD(inst, ((inst.magma[0], 2),))
    with pytest.raises(InvalidFamilyInput):
        random_instance(0, ZModRing(9), (3, 2), doubling=True)


def test_thmD_input_validation():
    inst = random_instance(0, ZModRing(2), (3, 2), doubling=True)
    s = inst.base[0]
    for pairs in (((s, 0),), ((s, 1), (s, 1)), ((s, 2), (2 * s, 1))):
        with pytest.raises(InvalidFamilyInput):
            check_thmD(inst, pairs)


def test_thmC_input_validation():
    inst = random_instance(1, ZModRing(7), (3, 3))
    a, b, c = inst.magma
    with pytest.raises(InvalidFamilyInput):
        check_thmC(inst, (a, a, b))
    with pytest.raises(InvalidFamilyInput):
        check_thmC(inst, (a, b))


def test_random_instance_deterministic():
    a = random_instance(42, ZModRing(100), (5, 4))
    b = random_instance(42, ZModRing(100), (5, 4))
    assert a.to_json(seed=42) == b.to_json(seed=42)
    json.loads(a.to_json(seed=42))


def test_rationals_char_zero_counterexample_free():
    # the permutation identity holds even over characteristic 0
    inst = random_instance(7, RationalRing(), (4, 5))
    _, ok = check_thmC(inst, inst.magma[:5])
    assert ok


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZModRing(12), TruncatedPolyRing(5, 3), RationalRing(),
                        GFRing(F4)]), st.integers(0, 99),
       st.integers(-40, 40))
def test_scale_is_the_repeated_sum(ring, seed, c):
    """scale(a, c) is a added |c| times, negated for c < 0."""
    a = ring.rand(random.Random(seed))
    total = ring.zero()
    for _ in range(abs(c)):
        total = ring.add(total, a)
    assert ring.scale(a, c) == (ring.neg(total) if c < 0 else total)
