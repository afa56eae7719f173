import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, Poly, RationalFn, ResidueRing,
                   TruncationConfig, finite_mzv, irreducible_polys,
                   parse_composition, truncated_mzv, vadic_mzv,
                   vadic_mzv_auto, parse_poly)
from ffmzv.errors import ParseError
from ffmzv.power_sums import _exact_frac

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
T2 = parse_poly("t", F2)
V2 = parse_poly("t^2+t+1", F2)


def test_composition_basics():
    s = Composition((1, 2, 3))
    assert s.depth == 3 and s.weight == 6 and str(s) == "(1,2,3)"
    assert Composition((1, -2)).weight is None
    with pytest.raises(ValueError):
        Composition(())


def test_parse_composition():
    assert parse_composition("(1,2,3)") == Composition((1, 2, 3))
    assert parse_composition(" 4, -5 ") == Composition((4, -5))
    with pytest.raises(ParseError):
        parse_composition("()")
    with pytest.raises(ParseError):
        parse_composition("(1,x)")


@pytest.mark.parametrize("text", ["(1_0,2)", "(\u0661,2)", "(+1,2)",
                                  "(1,- 2)", "(1,--2)", "(1,2.0)"])
def test_parse_composition_reads_only_ascii_integers(text):
    with pytest.raises(ParseError):
        parse_composition(text)


@pytest.mark.parametrize("q", ["1_6", "+4", "\u0664", "4.0", "-4"])
def test_field_size_reads_only_ascii_integers(q):
    with pytest.raises(ValueError):
        FieldSpec.parse(f"q={q}")


@pytest.mark.parametrize("N", [0, -1, -4])
def test_vadic_auto_names_a_bad_N(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        vadic_mzv_auto(T2, Composition((1, 2)), N, False, F2)


def test_truncated_pinned_values():
    one = RationalFn.one(F2)
    assert truncated_mzv(1, Composition((7,)), False, F2) == one
    t = Poly.t(F2)
    expected = RationalFn(t * t + t + Poly.one(F2), t * t + t)
    assert truncated_mzv(2, Composition((1,)), False, F2) == expected
    assert truncated_mzv(1, Composition((1, 2)), False, F2).is_zero()
    assert truncated_mzv(1, Composition((1, 2)), True, F2) == one


def literal_truncated(D, entries, star, spec):
    total = RationalFn.zero(spec)
    r = len(entries)
    for chain in itertools.product(range(D), repeat=r):
        ok = all(chain[i] >= chain[i + 1] if star else chain[i] > chain[i + 1]
                 for i in range(r - 1))
        if not ok:
            continue
        prod = RationalFn.one(spec)
        for d, k in zip(chain, entries):
            prod = prod * _exact_frac(spec, d, k).to_ratfn()
        total = total + prod
    return total


def test_dp_matches_literal_enumeration():
    for entries in [(1,), (2, 1), (1, 2, 3), (3, -1, 2)]:
        for D in (1, 2, 3, 4):
            for star in (False, True):
                assert truncated_mzv(D, Composition(entries), star, F2) == \
                    literal_truncated(D, entries, star, F2), (entries, D, star)


def test_star_plain_decomposition_depth2():
    # star(D,(s1,s2)) = plain(D,(s1,s2)) + sum_d S_d(s1) S_d(s2)
    for s1, s2 in [(1, 2), (3, 3), (2, -1)]:
        for D in (1, 2, 3):
            star = truncated_mzv(D, Composition((s1, s2)), True, F2)
            plain = truncated_mzv(D, Composition((s1, s2)), False, F2)
            diag = RationalFn.zero(F2)
            for d in range(D):
                diag = diag + _exact_frac(F2, d, s1).to_ratfn() * \
                    _exact_frac(F2, d, s2).to_ratfn()
            assert star == plain + diag


def test_finite_pinned_values():
    assert finite_mzv(V2, Composition((1,)), False, F2).is_zero()
    assert finite_mzv(T2, Composition((1, 2)), False, F2).is_zero()  # empty chain
    assert finite_mzv(V2, Composition((1, 2)), False, F2) == \
        ResidueRing(V2, 1).one()


FINITE_PRIMES = [(spec, v) for spec in (F2, F3, F4) for d in (1, 2, 3)
                 for v in irreducible_polys(spec, d)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FINITE_PRIMES),
       st.lists(st.integers(-3, 4), min_size=1, max_size=3), st.booleans())
def test_finite_truncated_bridge(prime, entries, star):
    # finite_mzv runs on the v-adic DP at N = 1; the exact truncated value
    # at D = deg v has denominators prime to v, so it reduces mod v
    spec, v = prime
    s = Composition(entries)
    exact = truncated_mzv(v.degree(), s, star, spec)
    assert ResidueRing(v, 1).from_ratfn(exact) == finite_mzv(v, s, star, spec)


def test_vadic_pinned_example():
    rep = vadic_mzv(T2, Composition((1,)), TruncationConfig(D=2, N=2), F2)
    # 1 + 1/(t+1) = t/(t+1) = t + t^2 + ... = t mod t^2
    assert rep.value.rep == Poly.t(F2)
    assert rep.value.valuation() == 1


def test_vadic_depth_vs_D1():
    rep = vadic_mzv(T2, Composition((1, 2)), TruncationConfig(D=1, N=2), F2)
    assert rep.value.is_zero() and rep.stable_from == 1


def test_vadic_qeven_depth1_vanishes():
    rep = vadic_mzv_auto(T2, Composition((2,)), 3, False, F2)
    assert rep.stabilized and rep.value.is_zero()
    # valuation of partial sums grows with N
    for N in (1, 2, 3, 4):
        r = vadic_mzv_auto(T2, Composition((2,)), N, False, F2)
        assert r.value.is_zero()


def test_monotone_refinement():
    for entries in [(1,), (1, 2), (3,)]:
        hi = vadic_mzv(T2, Composition(entries), TruncationConfig(D=8, N=4), F2)
        lo = vadic_mzv(T2, Composition(entries), TruncationConfig(D=8, N=3), F2)
        assert hi.value.reduce_precision(3) == lo.value


def test_negative_entries_supported():
    rep = vadic_mzv_auto(T2, Composition((-1, 2)), 2, False, F2)
    assert rep.stabilized
    truncated_mzv(3, Composition((-3, 1)), False, F3)


PRIMES = [(spec, v) for spec in (F2, F3) for d in (1, 2)
          for v in irreducible_polys(spec, d)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 3),
       st.lists(st.integers(-3, 4).filter(bool), min_size=1, max_size=3),
       st.booleans())
def test_value_is_exact_at_the_bound(prime, N, entries, star):
    # coprime power sums of degree > N*deg(v) vanish mod v^N, so the value
    # at D = N*deg(v)+1 is already the v-adic value mod v^N
    spec, v = prime
    s = Composition(entries)
    bound = N * v.degree() + 1
    at = vadic_mzv(v, s, TruncationConfig(bound, N, star), spec)
    past = vadic_mzv(v, s, TruncationConfig(bound + 3, N, star), spec)
    auto = vadic_mzv_auto(v, s, N, star, spec)
    assert at.stabilized and past.stabilized and auto.D == bound
    assert at.value == past.value == auto.value
    assert at.stable_from == past.stable_from == auto.stable_from
    if bound > 1:
        below = vadic_mzv(v, s, TruncationConfig(bound - 1, N, star), spec)
        assert not below.stabilized


def test_vadic_sum_stops_at_the_bound():
    # D far past N*deg(v)+1 reports as D but sums no further than the bound
    for entries in [(1,), (1, 2, 3), (-1, 2)]:
        s = Composition(entries)
        bound = 2 * V2.degree() + 1
        at = vadic_mzv(V2, s, TruncationConfig(bound, 2), F2)
        start = time.monotonic()
        far = vadic_mzv(V2, s, TruncationConfig(bound + 10 ** 6, 2), F2)
        assert time.monotonic() - start < 0.5
        assert far.value == at.value and far.stable_from == at.stable_from
        assert far.stabilized and far.D == bound + 10 ** 6
