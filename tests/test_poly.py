import random

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (FieldSpec, Poly, ResidueRing, is_irreducible, monic_polys,
                   parse_poly, poly_ext_gcd, poly_gcd)
from ffmzv.errors import ParseError
from ffmzv.poly import irreducible_polys, poly_str

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
F8 = FieldSpec.parse("q=8")
F9 = FieldSpec.parse("q=9;modulus=x^2+1")
F27 = FieldSpec.parse("q=27")


def rand_poly(spec, data, max_deg=5):
    coeffs = data.draw(st.lists(st.integers(0, spec.q - 1), max_size=max_deg + 1))
    return Poly.from_indices(spec, coeffs)


def test_degree_conventions():
    assert Poly.zero(F2).degree() == -1
    assert Poly.one(F2).degree() == 0
    assert Poly.t(F3).degree() == 1


def test_parse_and_str_round_trip_examples():
    for spec, text in ((F2, "t^3+t+1"), (F3, "2*t^2+t+2"), (F4, "t^2+a*t+a+1")):
        x = parse_poly(text, spec)
        assert parse_poly(str(x), spec) == x


def test_separately_parsed_fields_give_equal_polys():
    """A field parsed twice is one object, so its polynomials compare
    equal and hash alike; another field's do not."""
    for text, poly in (("q=9", "a*t^2+(a+2)*t+1"), ("q=2", "t^3+t+1"),
                       ("q=9;modulus=x^2+x+2", "2*a*t+a")):
        x = parse_poly(poly, FieldSpec.parse(text))
        y = parse_poly(poly, FieldSpec.parse(text))
        assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert parse_poly("t+a", FieldSpec.parse("q=9")) != parse_poly(
        "t+a", FieldSpec.parse("q=9;modulus=x^2+x+2"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F4, F8, F9, F27]), st.data())
def test_str_parse_round_trip(spec, data):
    x = rand_poly(spec, data)
    assert parse_poly(poly_str(x), spec) == x


def test_printed_coefficients():
    """A coefficient that is a sum prints in parentheses, a power of the
    generator as a^k, and each string parses back."""
    for spec, coeffs, text in (
            (F4, [1, 2, 3], "(a+1)*t^2+a*t+1"),
            (F9, [7, 6, 5, 3], "a*t^3+(a+2)*t^2+2*a*t+2*a+1"),
            (F8, [4, 0, 0, 5, 6], "(a^2+a)*t^4+(a^2+1)*t^3+a^2"),
            (F27, [18, 0, 20, 11], "(a^2+2)*t^3+(2*a^2+2)*t^2+2*a^2")):
        x = Poly.from_indices(spec, coeffs)
        assert poly_str(x) == text
        assert parse_poly(text, spec) == x


@pytest.mark.parametrize("text", [
    "-", "()", "t^2-", "--t", "t^1_0", "", "+t", "t+", "t++1", "t^",
    "t^\u0662", "2**t", "(a+1*t", "a+1)*t", "(a+)*t", "a^2*t", "2* t",
    "t ^2"])
def test_parse_poly_refuses_malformed_literals(text):
    with pytest.raises(ParseError):
        parse_poly(text, F4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_ring_axioms(spec, data):
    a, b, c = (rand_poly(spec, data) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Poly.zero(spec)
    assert a * Poly.one(spec) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_divmod_identity(spec, data):
    a = rand_poly(spec, data)
    b = rand_poly(spec, data)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_monic_enumeration_count_and_order():
    for spec, d in ((F2, 3), (F3, 2), (F4, 1)):
        polys = list(monic_polys(spec, d))
        assert len(polys) == spec.q ** d
        assert len(set(polys)) == len(polys)
        assert all(p.is_monic() and p.degree() == d for p in polys)


def test_irreducibility_known_cases():
    assert is_irreducible(parse_poly("t^2+t+1", F2))
    assert not is_irreducible(parse_poly("t^2+1", F2))  # (t+1)^2
    assert is_irreducible(parse_poly("t^2+1", F3))
    assert not is_irreducible(parse_poly("t^2+2", F3))


def test_irreducible_counts():
    # number of monic irreducibles of degree d over F_q: (1/d) sum mu(e) q^(d/e)
    assert len(list(irreducible_polys(F2, 1))) == 2
    assert len(list(irreducible_polys(F2, 2))) == 1
    assert len(list(irreducible_polys(F2, 3))) == 2
    assert len(list(irreducible_polys(F2, 4))) == 3
    assert len(list(irreducible_polys(F3, 2))) == 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3]), st.data())
def test_gcd_divides_both(spec, data):
    a = rand_poly(spec, data)
    b = rand_poly(spec, data)
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert (a % g).is_zero() and (b % g).is_zero()
    gg, u, w = poly_ext_gcd(a, b)
    assert u * a + w * b == gg


def test_pow_and_shift():
    t = Poly.t(F2)
    assert t.shift(3) == t ** 4
    assert (t + Poly.one(F2)) ** 2 == t * t + Poly.one(F2)  # freshman's dream


def test_exact_div_raises_on_remainder():
    t = Poly.t(F2)
    with pytest.raises(ValueError):
        (t * t + Poly.one(F2)).exact_div(t)


# -- differential tests against a schoolbook reference on coefficient lists ----
#
# The reference works on plain lists of F_q element indices (ascending powers
# of t, no trailing zeros) with FieldSpec's scalar arithmetic only, so it
# shares nothing with the packed-bytes kernel it checks.

FIELDS = {q: FieldSpec.parse(f"q={q}") for q in (2, 3, 4, 9, 131, 257)}


def ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_add(spec, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return ref_trim(spec.add(x, y) for x, y in zip(a, b))


def ref_neg(spec, a):
    return [spec.neg(x) for x in a]


def ref_sub(spec, a, b):
    return ref_add(spec, a, ref_neg(spec, b))


def ref_scale(spec, a, c):
    return ref_trim(spec.mul(c, x) for x in a)


def ref_mul(spec, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = spec.add(out[i + j], spec.mul(x, y))
    return ref_trim(out)


def ref_divmod(spec, a, b):
    r, m = list(a), len(b) - 1
    if len(r) <= m:
        return [], r
    inv = spec.inv(b[-1])
    q = [0] * (len(r) - m)
    for i in range(len(r) - 1, m - 1, -1):
        c = spec.mul(r[i], inv)
        q[i - m] = c
        for j, y in enumerate(b):
            r[i - m + j] = spec.sub(r[i - m + j], spec.mul(c, y))
    return ref_trim(q), ref_trim(r[:m])


def ref_pow(spec, a, e):
    out = [1]
    for _ in range(e):
        out = ref_mul(spec, out, a)
    return out


def ref_ext_gcd(spec, a, b):
    r0, r1, u0, u1, w0, w1 = a, b, [1], [], [], [1]
    while r1:
        q, r = ref_divmod(spec, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, ref_sub(spec, u0, ref_mul(spec, q, u1))
        w0, w1 = w1, ref_sub(spec, w0, ref_mul(spec, q, w1))
    if not r0:
        return r0, u0, w0
    inv = spec.inv(r0[-1])
    return (ref_scale(spec, r0, inv), ref_scale(spec, u0, inv),
            ref_scale(spec, w0, inv))


def coeff_lists(spec, max_deg=12):
    return st.lists(st.integers(0, spec.q - 1), max_size=max_deg + 1).map(ref_trim)


def P(spec, coeffs):
    return Poly.from_indices(spec, coeffs)


field_strategy = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)


@settings(max_examples=150, deadline=None)
@given(field_strategy, st.data())
def test_kernel_matches_reference(spec, data):
    a = data.draw(coeff_lists(spec))
    b = data.draw(coeff_lists(spec))
    c = data.draw(st.integers(0, spec.q - 1))
    k = data.draw(st.integers(0, 5))
    e = data.draw(st.integers(0, 4))
    x, y = P(spec, a), P(spec, b)
    assert (x + y).coeff_indices() == ref_add(spec, a, b)
    assert (x - y).coeff_indices() == ref_sub(spec, a, b)
    assert (-x).coeff_indices() == ref_neg(spec, a)
    assert (x * y).coeff_indices() == ref_mul(spec, a, b)
    assert x.scale(c).coeff_indices() == ref_scale(spec, a, c)
    assert x.shift(k).coeff_indices() == ([0] * k + a if a else [])
    assert (x ** e).coeff_indices() == ref_pow(spec, a, e)
    if b:
        q, r = divmod(x, y)
        assert (q.coeff_indices(), r.coeff_indices()) == ref_divmod(spec, a, b)
    if a or b:
        g, u, w = poly_ext_gcd(x, y)
        assert [z.coeff_indices() for z in (g, u, w)] == \
            list(ref_ext_gcd(spec, a, b))


def _slot_boundaries(spec):
    """Operand lengths on both sides of each change of the product slot
    width.  Plane x^j of a product sums min(n_a, n_b) * m_j terms below
    (p-1)^2, m_j = min(j + 1, 2f - 1 - j); folding x^j = sum_k r_jk x^k
    (j >= f) bounds a slot by min(n_a, n_b) * (p-1)^2 * (m_k + sum r_jk m_j),
    and the slot widens from s bytes when the largest bound reaches 256^s."""
    f = spec.f
    pairs = [min(j + 1, 2 * f - 1 - j) for j in range(2 * f - 1)]
    unit = (spec.p - 1) ** 2 * max(
        pairs[k] + sum(spec.x_power_coords(j)[k] * pairs[j]
                       for j in range(f, 2 * f - 1))
        for k in range(f))
    out = []
    for s in (1, 2):
        n = -(-256 ** s // unit)  # smallest length whose bound needs > s bytes
        if n <= 300:
            out.extend(m for m in (n - 1, n) if m >= 1)
    return out


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_mul_and_divmod_across_slot_widths(q):
    spec = FIELDS[q]
    rng = random.Random(q)
    lengths = _slot_boundaries(spec)
    assert lengths
    top = spec.q - 1  # every coordinate p - 1: the largest slot sums
    for n in lengths:
        cases = [([rng.randrange(spec.q) for _ in range(n - 1)] + [1],
                  [rng.randrange(spec.q) for _ in range(n + 7)] + [1]),
                 ([top] * n, [top] * (n + 8))]
        for a, b in cases:
            x, y = P(spec, a), P(spec, b)
            prod = x * y
            assert prod.coeff_indices() == ref_mul(spec, a, b)
            assert divmod(prod + x, y) == (x, x)  # deg x < deg y


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_long_division_past_lazy_reduction(q):
    """Long division leaves remainder slots unreduced while they can take
    p - 1 more.  With an all-ones divisor and quotient every step adds p - 1
    to each slot of its window, for more steps than one coordinate (one byte
    below p = 131, two bytes above) can absorb."""
    spec = FIELDS[q]
    rng = random.Random(q)
    width = 1 if spec.p < 128 else 2
    m = (256 ** width - 1) // (spec.p - 1) + 8
    divisor, quot = P(spec, [1] * (m + 1)), P(spec, [1] * (2 * m))
    rem = P(spec, [rng.randrange(spec.q) for _ in range(m)])
    assert divmod(quot * divisor + rem, divisor) == (quot, rem)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_large_product(q):
    spec = FIELDS[q]
    rng = random.Random(1400 + q)
    a = [rng.randrange(spec.q) for _ in range(760)] + [1]
    b = [rng.randrange(spec.q) for _ in range(700)] + [rng.randrange(1, spec.q)]
    prod = P(spec, a) * P(spec, b)
    assert prod.degree() >= 1400
    assert prod.coeff_indices() == ref_mul(spec, a, b)
    assert prod.exact_div(P(spec, b)) == P(spec, a)


@settings(max_examples=60, deadline=None)
@given(field_strategy, st.data())
def test_eq_hash_and_index_round_trip(spec, data):
    a = data.draw(coeff_lists(spec))
    pad = data.draw(st.integers(0, 3))
    x = P(spec, a)
    y = P(spec, a + [0] * pad)
    assert x == y and hash(x) == hash(y)
    assert x.coeff_indices() == a
    assert P(spec, x.coeff_indices()) == x
    assert x.degree() == len(a) - 1
    assert x.c.shape == (spec.f, len(a))
    assert [spec.from_coords(x.c[:, i]) for i in range(len(a))] == a
    b = data.draw(coeff_lists(spec))
    z = P(spec, b)
    assert (x == z) == (a == b)
    if x == z:
        assert hash(x) == hash(z)
    other = FIELDS[3 if spec.q == 2 else 2]
    assert P(spec, [1]) != P(other, [1])


V_PRIMES = [(FIELDS[2], "t"), (FIELDS[2], "t^2+t+1"), (FIELDS[3], "t^2+1"),
            (FIELDS[4], "t+a")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(V_PRIMES), st.integers(1, 4), st.data())
def test_reduce_precision_is_a_ring_homomorphism(prime, N, data):
    spec, text = prime
    v = parse_poly(text, spec)
    M = data.draw(st.integers(1, N))
    max_deg = N * v.degree() + 3
    x, y = (ResidueRing(v, N).image(
        P(spec, data.draw(coeff_lists(spec, max_deg)))) for _ in range(2))

    def red(z):
        return z.reduce_precision(M)

    assert red(x + y) == red(x) + red(y)
    assert red(x - y) == red(x) - red(y)
    assert red(-x) == -red(x)
    assert red(x * y) == red(x) * red(y)
    assert red(x.scale_int(2)) == red(x).scale_int(2)
    assert red(ResidueRing(v, N).one()) == ResidueRing(v, M).one()
    # arithmetic keeps representatives reduced
    for z in (x + y, x - y, -x, x * y, x.scale_int(2)):
        assert z.rep.degree() < N * v.degree()
