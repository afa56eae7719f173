from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (FieldSpec, Poly, RationalFn, ResidueElem, ResidueRing,
                   irreducible_polys, monic_polys, parse_poly, poly_inv_mod)
from ffmzv.errors import InvalidPrime, MixedModulus, NotInvertible
from ffmzv.power_sums import _powers

F2 = FieldSpec.parse("q=2")
T2 = parse_poly("t", F2)
V2 = parse_poly("t^2+t+1", F2)


def test_poly_inv_mod():
    a = parse_poly("t+1", F2)
    inv = poly_inv_mod(a, T2, 3)
    assert (a * inv) % T2 ** 3 == Poly.one(F2)
    with pytest.raises(NotInvertible):
        poly_inv_mod(T2, T2, 2)


def test_non_prime_modulus_rejected():
    with pytest.raises(InvalidPrime):
        ResidueRing(parse_poly("t^2+1", F2), 1).zero()  # (t+1)^2


def test_arithmetic_mod_v_power():
    x = ResidueRing(T2, 3).image(parse_poly("t+1", F2))
    y = ResidueRing(T2, 3).image(parse_poly("t^2", F2))
    assert (x + y).rep == parse_poly("t^2+t+1", F2)
    assert (x * y).rep == parse_poly("t^2", F2)  # t^3 truncated away
    assert (x.inv() * x).rep == Poly.one(F2)
    assert (x ** -2) * (x ** 2) == ResidueRing(T2, 3).one()


def test_pow_costs_no_multiplication_by_one(monkeypatch):
    # square-and-multiply from the base itself: bit_length - 1 squarings and
    # popcount - 1 products, so u ** 1 costs nothing
    ring = ResidueRing(V2, 3)
    u = ring.image(parse_poly("t^3+t", F2))
    expected = ring.one()
    powers = {0: expected}
    for e in range(1, 12):
        expected = expected * u
        powers[e] = expected
    products = []
    mul = ResidueElem.__mul__
    monkeypatch.setattr(ResidueElem, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for e in range(12):
        products.clear()
        assert u ** e == powers[e]
        assert len(products) == max(e.bit_length() + bin(e).count("1") - 2, 0)
    assert u ** 1 is u
    assert (u ** -5) * powers[5] == ring.one()
    with pytest.raises(NotInvertible):
        ring.image(V2) ** -1


def test_mixed_modulus_rejected():
    x = ResidueRing(T2, 2).one()
    y = ResidueRing(V2, 2).one()
    with pytest.raises(MixedModulus):
        x + y
    with pytest.raises(MixedModulus):
        x * ResidueRing(T2, 3).one()


def test_reduce_precision_consistency():
    x = ResidueRing(T2, 4).image(parse_poly("t^3+t+1", F2))
    y = x.reduce_precision(2)
    assert y.N == 2 and y.rep == parse_poly("t+1", F2)


def test_from_ratfn():
    # 1/(t+1) mod t^3 = 1 + t + t^2
    x = RationalFn(Poly.one(F2), parse_poly("t+1", F2))
    r = ResidueRing(T2, 3).from_ratfn(x)
    assert r.rep == parse_poly("t^2+t+1", F2)
    with pytest.raises(NotInvertible):
        ResidueRing(T2, 2).from_ratfn(RationalFn(Poly.one(F2), T2))


# -- the window reducer against divmod -------------------------------------------


@cache
def _primes(q: int, degree: int) -> list[Poly]:
    return list(irreducible_polys(FieldSpec.parse(f"q={q}"), degree))


def _poly(spec: FieldSpec, coeffs: list[int], top: int) -> Poly:
    """The polynomial with these low coefficients and the nonzero top one."""
    return Poly.from_indices(spec, coeffs + [top])


def _wide_primes(q: int, degree: int) -> list[Poly]:
    # t^2+1 is prime over F_p for p = 3 mod 4, as 127 and 131 are
    names = ("t", "t+1", "t+5") if degree == 1 else ("t^2+1",)
    return [parse_poly(name, FieldSpec.parse(f"q={q}")) for name in names]


@st.composite
def _ring_and_operand(draw, primes, qs, degrees, precisions, lo, hi):
    """(ring, x) with x of degree drawn in [lo(m), hi(m)], m = N deg v, and
    of the top degree hi(m) in about half the draws."""
    q = draw(st.sampled_from(qs))
    v = draw(st.sampled_from(primes(q, draw(st.sampled_from(degrees)))))
    ring = ResidueRing(v, draw(st.sampled_from(precisions)))
    m = ring.modulus.degree()
    d = draw(st.sampled_from([hi(m), draw(st.integers(lo(m), hi(m)))]))
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    return ring, _poly(v.spec, coeffs, draw(st.integers(1, q - 1)))


@settings(max_examples=300, deadline=None)
@given(_ring_and_operand(_primes, (2, 3, 4, 9), (1, 2, 3), range(1, 21),
                         lambda m: 0, lambda m: 2 * m - 2))
def test_reducer_matches_divmod(case):
    ring, x = case
    assert ring.reduce(x) == x % ring.modulus


@settings(max_examples=100, deadline=None)
@given(_ring_and_operand(_wide_primes, (131, 127), (1, 2), (3, 4),
                         lambda m: m, lambda m: 2 * m - 2))
def test_reducer_matches_divmod_over_wide_prime_fields(case):
    # q = 131 has two-byte slots and one coefficient per window; q = 127 has
    # one-byte slots that take a single table addition before the early
    # slot reduction
    ring, x = case
    assert ring.modulus.degree() >= 3  # two windows or more
    assert ring.reduce(x) == x % ring.modulus


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_match_divmod(data):
    q = data.draw(st.sampled_from((2, 3, 4, 9)))
    v = data.draw(st.sampled_from(_primes(q, data.draw(st.integers(1, 3)))))
    ring = ResidueRing(v, data.draw(st.integers(1, 20)))
    m = ring.modulus.degree()
    a, b = (_poly(v.spec, data.draw(st.lists(st.integers(0, q - 1),
                                             min_size=m - 1,
                                             max_size=m - 1)),
                  data.draw(st.integers(1, q - 1))) for _ in range(2))
    assert (ring.image(a) * ring.image(b)).rep == a * b % ring.modulus


@settings(max_examples=200, deadline=None)
@given(_ring_and_operand(_primes, (2, 3, 4, 9), (1, 2, 3), range(1, 9),
                         lambda m: m, lambda m: 3 * m))
def test_image_matches_divmod(case):
    # degrees m .. 2m-2 go through the tables, larger ones through divmod
    ring, x = case
    assert ring.image(x.monic()).rep == x.monic() % ring.modulus


@pytest.mark.parametrize("q,v,Ns", [(2, "t", range(1, 7)),
                                    (2, "t^2+t+1", range(1, 4)),
                                    (3, "t^2+1", range(1, 3)),
                                    (4, "t+a", range(1, 4)),
                                    (9, "t+a", range(1, 3))])
def test_unit_tables_skip_exactly_the_multiples_of_v(q, v, Ns):
    spec = FieldSpec.parse(f"q={q}")
    v = parse_poly(v, spec)
    for N in Ns:
        ring = ResidueRing(v, N)
        for d in range(ring.modulus.degree() + 1):
            assert _powers(ring, d, 1) == [
                ring.image(a) for a in monic_polys(spec, d)
                if not (a % v).is_zero()], (N, d)
