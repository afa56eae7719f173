import pytest

from ffmzv import (AtLeast, FieldSpec, Poly, RationalFn, ResidueElem,
                   ResidueRing, parse_poly, poly_inv_mod, v_valuation)
from ffmzv.errors import InvalidPrime, MixedModulus, NotInvertible

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
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


def test_valuation():
    assert ResidueRing(T2, 4).image(parse_poly("t^2+t^3", F2)).valuation() == 2
    assert ResidueRing(T2, 4).zero().valuation() == AtLeast(4)
    assert ResidueRing(T2, 4).one().valuation() == 0


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


def test_v_valuation_on_rational_functions():
    t = Poly.t(F3)
    one = Poly.one(F3)
    x = RationalFn(t ** 3 + t ** 4, one + t)  # t^3 (1+t)/(1+t)
    assert v_valuation(x, t) == 3
    assert v_valuation(RationalFn(one, t ** 2), t) == -2
    assert v_valuation(RationalFn.zero(F3), t) == AtLeast(10 ** 9)
