import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import FieldSpec, Poly, RationalFn, parse_poly
from ffmzv.errors import DivisionByZero

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")


def rand_ratfn(spec, data):
    num = Poly.from_indices(
        spec, data.draw(st.lists(st.integers(0, spec.q - 1), max_size=4)))
    den = Poly.from_indices(
        spec, data.draw(st.lists(st.integers(0, spec.q - 1), min_size=1, max_size=4)))
    if den.is_zero():
        den = Poly.one(spec)
    return RationalFn(num, den)


def test_normalization_cancels_and_makes_denominator_monic():
    t = Poly.t(F3)
    one = Poly.one(F3)
    x = RationalFn((t + one) * t, (t + one) * (t + one))
    assert x == RationalFn(t, t + one)
    # scalar normalization: 2t / 2 == t
    y = RationalFn(t.scale(2), Poly.const(F3, 2))
    assert y == RationalFn.from_poly(t)


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFn(Poly.one(F2), Poly.zero(F2))
    with pytest.raises(DivisionByZero):
        RationalFn.from_poly(Poly.zero(F2)).inv()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3]), st.data())
def test_field_axioms(spec, data):
    a = rand_ratfn(spec, data)
    b = rand_ratfn(spec, data)
    c = rand_ratfn(spec, data)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RationalFn.zero(spec)
    if not a.is_zero():
        assert a * a.inv() == RationalFn.one(spec)
        assert a / a == RationalFn.one(spec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3]), st.data())
def test_canonical_equality(spec, data):
    a = rand_ratfn(spec, data)
    scale = Poly.t(spec) + Poly.one(spec)
    blown = RationalFn(a.num * scale, a.den * scale)
    assert blown == a and hash(blown) == hash(a)


def test_str_examples():
    t = Poly.t(F2)
    one = Poly.one(F2)
    assert str(RationalFn(one, t * t + t)) == "1/(t^2+t)"
    assert str(RationalFn.from_poly(t + one)) == "t+1"
    assert str(RationalFn.zero(F2)) == "0"


def test_pow():
    x = RationalFn(Poly.one(F2), Poly.t(F2))
    assert x ** 3 == RationalFn(Poly.one(F2), Poly.t(F2) ** 3)
    assert x ** -2 == RationalFn.from_poly(Poly.t(F2) ** 2)
    assert x ** 0 == RationalFn.one(F2)
