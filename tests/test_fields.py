import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import FieldSpec
from ffmzv.errors import DivisionByZero, InvalidFieldSpec, ParseError
from ffmzv.poly import irreducible_polys

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
F9 = FieldSpec.parse("q=9")
EXTENSIONS = [FieldSpec.parse(f"q={q}") for q in (4, 8, 9, 16, 25, 27)] + [
    FieldSpec.parse("q=9;modulus=x^2+x+2"),
    FieldSpec.parse("q=8;modulus=x^3+x^2+1")]


def test_parse_and_spec_string_round_trip():
    for text in ("q=2", "q=3", "q=4", "q=9", "q=8"):
        spec = FieldSpec.parse(text)
        again = FieldSpec.parse(spec.spec_string())
        assert again == spec
    # every monic irreducible modulus of degree 2-3 over F_2 and F_3
    for p in (2, 3):
        for f in (2, 3):
            for m in irreducible_polys(FieldSpec(p), f):
                spec = FieldSpec(p, f, m.coeff_indices())
                assert FieldSpec.parse(spec.spec_string()) == spec


def test_modulus_strings():
    for spec, text in ((FieldSpec.parse("q=27"), "x^3+2*x+1"),
                       (FieldSpec.parse("q=25"), "x^2+2"),
                       (FieldSpec(5, 2, (2, 4, 1)), "x^2+4*x+2"),
                       (FieldSpec.parse("q=9;modulus=x^2+x+2"), "x^2+x+2"),
                       (FieldSpec.parse("q=8;modulus=x^3+x^2+1"),
                        "x^3+x^2+1")):
        assert spec.modulus_string() == text


@pytest.mark.parametrize("text", [f"q=4;modulus={m}" for m in (
    "x^2++x+1", "+x^2+x+1", "x^2+x+1-", "x^2+x+", "(1)*x^2+x+1", "x^2+x+()",
    "x^\u0662+x+1", "x^2+x*+1", "x^2+xx+1", "")] + [
    "q=5;modulus=x+1", "q=4;modulus=x^2+1;q=9", "q=9;q=4",
    "q=4;modulus=x^2+x+1;modulus=x^2+x+1", "q=4;m=x", "q=4;x^2", "modulus=x"])
def test_malformed_field_specs_are_refused(text):
    """A malformed modulus, a modulus for a prime field, a repeated or
    unknown key, or no q."""
    with pytest.raises(ParseError):
        FieldSpec.parse(text)


def test_default_moduli():
    # the first monic irreducible, constant term least significant
    expected = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1),
                16: (1, 1, 0, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1)}
    for q, modulus in expected.items():
        assert FieldSpec.parse(f"q={q}").modulus == modulus, q


def _generator_powers(spec, n):
    """[1, x, x^2, ...] in F_q by repeated spec.mul; x has index p."""
    out = [1]
    for _ in range(n - 1):
        out.append(spec.mul(out[-1], spec.p))
    return out


@pytest.mark.parametrize("spec", EXTENSIONS, ids=repr)
def test_generator_is_a_root_of_the_modulus(spec):
    value = 0
    for c, power in zip(spec.modulus, _generator_powers(spec, spec.f + 1)):
        value = spec.add(value, spec.mul(spec.from_int(c), power))
    assert value == 0


@pytest.mark.parametrize("spec", EXTENSIONS, ids=repr)
def test_x_power_coords_are_generator_powers(spec):
    powers = _generator_powers(spec, 2 * spec.f - 1)
    for j, power in enumerate(powers):
        assert spec.x_power_coords(j) == spec.coords(power), j


def reference_mul(spec, a, b):
    """Schoolbook product of the coordinate polynomials, reduced by the
    monic modulus from the top degree down."""
    p, f, mod = spec.p, spec.f, spec.modulus
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(spec.coords(a)):
        for j, y in enumerate(spec.coords(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * f - 2, f - 1, -1):
        c = prod[k]
        for i, m in enumerate(mod):
            prod[k - f + i] = (prod[k - f + i] - c * m) % p
    return spec.from_coords(prod[:f])


@pytest.mark.parametrize("spec", EXTENSIONS, ids=repr)
def test_every_table_product_is_the_reduced_polynomial_product(spec):
    """Both halves of the mirrored multiplication table, and the inverse
    table read off it."""
    for a in range(spec.q):
        for b in range(spec.q):
            assert spec.mul(a, b) == reference_mul(spec, a, b), (a, b)
        if a:
            assert reference_mul(spec, a, spec.inv(a)) == 1, a


def test_explicit_modulus():
    spec = FieldSpec.parse("q=9;modulus=x^2+1")
    assert spec.q == 9 and spec.p == 3 and spec.f == 2
    with pytest.raises(InvalidFieldSpec):
        FieldSpec.parse("q=9;modulus=x^2+2")  # x^2+2 = (x+1)(x+2) over F_3


def test_non_prime_power_rejected():
    for q in (6, 12, 1):
        with pytest.raises(InvalidFieldSpec):
            FieldSpec.parse(f"q={q}")


def test_f3_inverse():
    assert F3.inv(2) == 2


def test_f4_generator_inverse():
    # generator x has index 2; x * (x+1) = x^2 + x = 1 for modulus x^2+x+1
    assert F4.inv(2) == 3
    assert F4.mul(2, 3) == 1


def test_zero_not_invertible():
    with pytest.raises(DivisionByZero):
        F2.inv(0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F2, F3, F4, F9] + [FieldSpec.parse(f"q={q}")
                                           for q in (8, 16, 25, 27, 131)]),
       st.data())
def test_field_axioms(spec, data):
    a = data.draw(st.integers(0, spec.q - 1))
    b = data.draw(st.integers(0, spec.q - 1))
    c = data.draw(st.integers(0, spec.q - 1))
    assert spec.add(a, b) == spec.add(b, a)
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
    assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
    assert spec.add(a, spec.neg(a)) == 0
    if a:
        assert spec.mul(a, spec.inv(a)) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F4, F9]), st.integers(0, 8))
def test_coords_round_trip(spec, a):
    a %= spec.q
    assert spec.from_coords(spec.coords(a)) == a


def test_one_object_per_field():
    """Equal fields are one object, however they are named, so they
    compare and hash by identity and share their tables."""
    assert FieldSpec.parse("q=9") is FieldSpec(3, 2) is FieldSpec(3, 2, (1, 0, 1))
    assert FieldSpec(3, 2, [4, 3, 1]) is FieldSpec(3, 2)  # reduced mod p
    assert FieldSpec.parse("q=3") is FieldSpec(3) is FieldSpec(3, 1, (5, 7))
    assert FieldSpec.parse("q=9;modulus=x^2+x+2") is not FieldSpec(3, 2)
    assert F4.mul(2, 3) == 1 and FieldSpec(2, 2)._mul is F4._mul


@pytest.mark.parametrize("args", [(4,), (3, 0), (3, 2, (2, 0, 1)),
                                  (3, 2, (1, 1)), (3, 2, (1, 0, 2)),
                                  (2, 3, (1, 1, 1, 1))])
def test_invalid_field_raises_and_registers_nothing(args):
    FieldSpec(2)  # the prime fields that a check may build
    FieldSpec(3)
    before = dict(FieldSpec._fields)
    with pytest.raises(InvalidFieldSpec):
        FieldSpec(*args)
    assert FieldSpec._fields == before


def _coordinate_add(spec, a, b):
    return spec.from_coords((x + y) % spec.p
                            for x, y in zip(spec.coords(a), spec.coords(b)))


@pytest.mark.parametrize("spec", [FieldSpec.parse(f"q={q}") for q in
                                  (2, 3, 4, 5, 8, 9, 25, 27)]
                         + [FieldSpec.parse("q=9;modulus=x^2+x+2")], ids=repr)
def test_add_and_neg_tables_are_coordinatewise(spec):
    for a in range(spec.q):
        assert spec.neg(a) == spec.from_coords(
            -x % spec.p for x in spec.coords(a)), a
        for b in range(spec.q):
            assert spec.add(a, b) == _coordinate_add(spec, a, b), (a, b)
            assert spec.sub(a, b) == spec.add(a, spec.neg(b)), (a, b)
