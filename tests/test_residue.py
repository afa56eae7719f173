import pytest

from ffmzv import (AtLeast, FieldSpec, Poly, RationalFn, ResidueRing,
                   parse_poly, poly_inv_mod, v_valuation)
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
