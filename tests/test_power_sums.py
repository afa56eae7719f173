import time
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from ffmzv import (FieldSpec, Poly, RationalFn, ResidueRing,
                   irreducible_polys, monic_polys, parse_poly, vanish_degree)
from ffmzv import power_sums
from ffmzv.errors import CapTooSmall
from ffmzv.lfrac import l_poly
from ffmzv.power_sums import (_exact_frac, _inverses, _powers, _residue_sum,
                              default_vanish_cap)

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


FIELDS = [FieldSpec.parse(f"q={q}") for q in (2, 3, 4, 5, 7, 8, 9)]
ENUM_CASES = [(spec, d) for spec in FIELDS
              for d in range(5 if spec.q <= 3 else 4)]
# (q, d) -> largest k whose enumeration below stays under ~0.3 s; k <= 40
# elsewhere.  At k = 40 these take 6 s, ~30 s and ~170 s on a 2-vCPU Xeon.
ENUM_K_MAX = {(7, 3): 8, (8, 3): 2, (9, 3): 2}


@cache
def _cofactors(spec, d):
    ld = l_poly(spec, d)
    return [ld.exact_div(a) for a in monic_polys(spec, d)]


def enumerated_numerator(spec, d, k):
    """l_d^k S_d(k) = sum of (l_d/a)^k over the q^d monics a of degree d."""
    return sum((b ** k for b in _cofactors(spec, d)), Poly.zero(spec))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(ENUM_CASES), k=st.integers(1, 40))
@example(case=(FIELDS[2], 3), k=12)
def test_recurrence_matches_enumeration(case, k):
    """S_d(k), k >= 1, from Carlitz's recurrence has the numerator and
    exponent tuple of the sum over all q^d monics."""
    spec, d = case
    k = min(k, ENUM_K_MAX.get((spec.q, d), 40))
    got = _exact_frac(spec, d, k)
    assert got.num == enumerated_numerator(spec, d, k), (spec.q, d, k)
    assert got.exps == ((0,) * (d - 1) + (k,) if d else ())


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(FIELDS), d=st.integers(0, 5), k=st.integers(1, 9))
def test_carlitz_closed_form_up_to_q(spec, d, k):
    """S_d(k) = (-1)^(dk) / l_d^k for 1 <= k <= q (Carlitz)."""
    k = min(k, spec.q)
    sign = Poly.one(spec) if d * k % 2 == 0 else -Poly.one(spec)
    assert _exact_frac(spec, d, k).num == sign


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(FIELDS), d=st.integers(0, 3), k=st.integers(1, 30))
def test_frobenius(spec, d, k):
    """S_d(pk) = S_d(k)^p in characteristic p, so N_(pk) = N_k^p."""
    k = min(k, 60 // spec.p)
    assert _exact_frac(spec, d, spec.p * k).num == \
        _exact_frac(spec, d, k).num ** spec.p


def test_recurrence_is_a_loop():
    # one recursive call per k would exceed the recursion limit
    power_sums._exact_cache.clear()
    out = _exact_frac(F2, 1, 5000)
    assert out.exps == (5000,)
    assert out.num == _exact_frac(F2, 1, 2500).num ** 2


def test_recurrence_is_fast():
    # S_5(12) at q = 4 sums over 1,024 monics of degree 5
    F4 = FieldSpec.parse("q=4")
    power_sums._exact_cache.clear()
    power_sums._carlitz_coeff.cache_clear()
    start = time.monotonic()
    _exact_frac(F4, 5, 12)
    assert time.monotonic() - start < 1.0


def test_char_p_count():
    for spec in (F2, F3):
        for d in (1, 2, 3):
            assert _exact_frac(spec, d, 0).to_ratfn().is_zero()


def test_residue_exact_compatibility():
    # d = 4 = N*deg(v) reaches monics that need reducing mod v^N
    for d in (0, 1, 2, 3, 4):
        for k in (1, 3, 0, -2):
            exact = literal_power_sum(F2, d, k, coprime_to=T2)
            res = _residue_sum(ResidueRing(T2, 4), d, k)
            assert ResidueRing(T2, 4).from_ratfn(exact) == res


def test_high_degree_coprime_sums_vanish_at_precision():
    # the counting shortcut against literal enumeration
    for N in (1, 2):
        for k in (1, 2, -1):
            d = N * V2.degree() + 1
            shortcut = _residue_sum(ResidueRing(V2, N), d, k)
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


# (v, N) for every prime v of degree <= 2 over F_2, F_3, F_4 and N <= 3
RESIDUE_CASES = [(v, N) for q in (2, 3, 4)
                 for deg in (1, 2)
                 for v in irreducible_polys(FieldSpec.parse(f"q={q}"), deg)
                 for N in (1, 2, 3)]
# largest d whose literal sums stay cheap: q^d <= 81
LITERAL_DEGREE = {2: 6, 3: 4, 4: 3}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(RESIDUE_CASES), d=st.integers(0, 7),
       ks=st.lists(st.integers(-4, 12), min_size=1, max_size=5, unique=True))
@example(case=(V2, 3), d=3, ks=[3, 4, 2, -2, -1, -3, 0])
def test_unit_table_sums_match_literal_sums(case, d, ks):
    """The residue sums from the cached unit tables equal the literal sums,
    with k requested in a drawn order from empty caches, so a power list is
    built from the one for |k| - 1 when that came first, else by raising
    each unit to |k|."""
    v, N = case
    spec = v.spec
    d = min(d, N * v.degree() + 1, LITERAL_DEGREE[spec.q])
    power_sums._residue_cache.clear()
    power_sums._power_lists.clear()
    ring = ResidueRing(v, N)
    for k in ks:
        literal = literal_power_sum(spec, d, k, coprime_to=v)
        assert _residue_sum(ring, d, k) == ring.from_ratfn(literal), \
            (str(v), N, d, k)


def test_batched_inverses_match_single_inverses():
    for v, N in RESIDUE_CASES:
        ring = ResidueRing(v, N)
        for d in range(min(N * v.degree(), 3) + 1):
            table = _powers(ring, d, 1)
            assert _inverses(table) == [u.inv() for u in table]
            assert _powers(ring, d, -1) == _inverses(table)
    # a table of one unit, as at d = 0, and one that is not 1
    ring = ResidueRing(V2, 2)
    assert _powers(ring, 0, 1) == [ring.one()]
    assert _inverses([ring.one()]) == [ring.one()]
    u = ring.image(parse_poly("t", F2))
    assert _inverses([u]) == [u.inv()]


def test_large_exponent_sum_is_fast():
    # |k| = 10^4 costs about log2(|k|) multiplications per unit
    power_sums._residue_cache.clear()
    power_sums._power_lists.clear()
    start = time.monotonic()
    _residue_sum(ResidueRing(V2, 3), 2, 10 ** 4)
    assert time.monotonic() - start < 0.5


def test_vanish_degree():
    assert vanish_degree(1, F2, 6) == 1
    assert vanish_degree(2, F3, 8) == 1
    with pytest.raises(CapTooSmall):
        vanish_degree(1, F2, 1)  # S_1(-1) != 0, maximality not certified
    with pytest.raises(ValueError):
        vanish_degree(0, F2, 4)


def test_vanish_degree_below_the_carlitz_cap():
    """At q = 4, m = 10 has digit sum 4, so Carlitz's cap
    floor(4/3) + 1 = 2 would allow degree 1, yet S_1(-10) already
    vanishes: the largest degree with S_d(-10) != 0 is 0.  The enumeration
    finds it, where a closed form from the cap would say 1."""
    F4 = FieldSpec.parse("q=4")
    assert default_vanish_cap(10, F4) == 2
    assert vanish_degree(10, F4, 2) == vanish_degree(10, F4, 4) == 0


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
