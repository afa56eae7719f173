import json
import time
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, Finite, FormalRelation,
                   Thm3Config, TruncatedExact, Vadic, evaluate_relation,
                   finite_mzv, gen_thm2, gen_thm3, gen_thmA, gen_thmB,
                   is_q_even, RationalRing, ResidueRing, is_trivial_zero,
                   parse_poly, truncated_mzv, vadic_mzv_auto)
from ffmzv import relations
from ffmzv.errors import InvalidEvaluator, InvalidFamilyInput, ParseError
from ffmzv.poly import Poly
from ffmzv.ratfn import RationalFn
from ffmzv.search import SearchScope, find_relations
from ffmzv.relations import (_reorders, doubling_generators,
                             doubling_identity_generators, expand,
                             signed_perm_generators,
                             signed_perm_identity_generators, sum_of_products)

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
T2 = parse_poly("t", F2)
V2 = parse_poly("t^2+t+1", F2)


def test_is_q_even():
    assert is_q_even(5, F2)  # q=2: every integer
    assert is_q_even(4, F3) and not is_q_even(3, F3)
    assert is_q_even(6, F4) and not is_q_even(4, F4)


def test_thm2_sign_pattern_q3():
    rel = gen_thm2(Composition((2, 4, 6)), F3)
    got = {factors[0]: coeff for coeff, factors in rel.terms}
    # sgn over S_3 in F_3: even perms -> 1, odd -> 2
    assert got == {
        (2, 4, 6): 1, (4, 6, 2): 1, (6, 2, 4): 1,
        (2, 6, 4): 2, (4, 2, 6): 2, (6, 4, 2): 2,
    }


def test_thm2_input_validation():
    with pytest.raises(InvalidFamilyInput):
        gen_thm2(Composition((2, 2, 4)), F3)  # repeated entry
    with pytest.raises(InvalidFamilyInput):
        gen_thm2(Composition((2, 4)), F3)  # even depth
    with pytest.raises(InvalidFamilyInput):
        gen_thm2(Composition((2, 3, 4)), F3)  # 3 not q-even


def test_thm3_examples():
    rel = gen_thm3(Thm3Config(((1, 3),)), F2)
    assert set(f[0] for _, f in rel.terms) == {(1, 2), (2, 1), (1, 1, 1)}
    assert all(c == 1 for c, _ in rel.terms)
    # phi = 2 kills the base term, leaving only the fused tuple
    rel = gen_thm3(Thm3Config(((1, 2),)), F2)
    assert [(c, f) for c, f in rel.terms] == [(1, ((2,),))]
    # k = 1: no fused term, phi = 1
    rel = gen_thm3(Thm3Config(((1, 1),)), F2)
    assert [(c, f) for c, f in rel.terms] == [(1, ((1,),))]


def test_thm3_input_validation():
    with pytest.raises(InvalidFamilyInput):
        gen_thm3(Thm3Config(((2, 2),)), F3)  # wrong characteristic
    with pytest.raises(InvalidFamilyInput):
        gen_thm3(Thm3Config(((1, 2), (2, 1))), F2)  # 2*1 collides with 2
    with pytest.raises(InvalidFamilyInput):
        gen_thm3(Thm3Config(((1, 0),)), F2)
    with pytest.raises(InvalidFamilyInput):
        gen_thm3(Thm3Config(((4, 2),)), F4)  # 4 not q-even for q=4


def test_thmA_depth1_is_empty():
    # permutation sum at depth 1 cancels identically with its expansion
    rel = gen_thmA(Composition((2,)), F3)
    assert rel.terms == ()


def test_thmA_char2_collapse():
    rel = gen_thmA(Composition((1, 2, 3)), F2)
    assert all(c == 1 for c, _ in rel.terms)


def test_thmA_truncation_exact():
    rel = gen_thmA(Composition((2, 4, 6)), F3)
    for D in (1, 2, 3):
        _, verdict = evaluate_relation(rel, TruncatedExact(D))
        assert verdict.kind == "Zero", D


def test_thmB_truncation_exact():
    for pairs in [((1, 3),), ((1, 2), (3, 2)), ((1, 1), (2, 2))]:
        rel = gen_thmB(Thm3Config(pairs), F2)
        for D in (1, 2, 3):
            _, verdict = evaluate_relation(rel, TruncatedExact(D))
            assert verdict.kind == "Zero", (pairs, D)


def test_thm2_vadic_verdict():
    rel = gen_thm2(Composition((1, 2, 3)), F2)
    for star in (False, True):
        _, verdict = evaluate_relation(
            rel, Vadic(T2, N=3, star=star))
        assert verdict.passed and str(verdict) == "ValuationAtLeast(3)"


def test_thm2_finite_verdict():
    rel = gen_thm2(Composition((1, 2, 3)), F2)
    for v in (T2, V2):
        _, verdict = evaluate_relation(rel, Finite(v))
        assert verdict.kind == "Zero", v


def test_finite_and_vadic_n1_values_stay_apart():
    # both live in A/(v): the finite value sums all monics of degree < deg v,
    # the v-adic one coprime monics up to the bound, so they differ here and
    # neither may be served from the other's cached factor values
    rel = gen_thm2(Composition((1,)), F2)
    for _ in range(2):
        finite, _ = evaluate_relation(rel, Finite(T2))
        vadic, verdict = evaluate_relation(rel, Vadic(T2, N=1))
        assert finite == ResidueRing(T2, 1).one()
        assert vadic.is_zero() and verdict.passed


def test_invalid_evaluator():
    rel = gen_thm2(Composition((2,)), F3)
    with pytest.raises(InvalidEvaluator):
        evaluate_relation(rel, "trunc")


def test_json_round_trip():
    rel = gen_thmB(Thm3Config(((1, 2), (3, 2))), F2)
    text = rel.to_json_lines()
    back = FormalRelation.from_json_lines(text, F2)
    assert back.terms == rel.terms and back.tag == rel.tag


@pytest.mark.parametrize("evaluator", [
    TruncatedExact(2), Finite(parse_poly("t+a", F4)),
    Vadic(parse_poly("t", F4), 2)], ids=lambda e: type(e).__name__)
def test_relation_coefficients_are_fq_elements(evaluator):
    """A coefficient is an F_q element index, as ``find_relations`` writes
    it: at q = 4, coefficient 2 is a and 3 is a+1, not 0 and 1 mod 2."""
    def value(c):
        rel = FormalRelation(terms=((c, ((1,),)),), tag="custom", spec=F4)
        return evaluate_relation(rel, evaluator)

    one, verdict = value(1)
    assert not verdict.passed
    for c in (2, 3):
        got, verdict = value(c)
        assert not verdict.passed, c
        if isinstance(evaluator, TruncatedExact):
            want = one * RationalFn.from_poly(Poly.const(F4, c))
        else:
            want = one.ring.image(one.rep * Poly.const(F4, c))
        assert got == want, c


@pytest.mark.parametrize("coeff", [0, 4, -1])
def test_formal_relation_refuses_coefficients_outside_fq(coeff):
    with pytest.raises(ValueError):
        FormalRelation(terms=((coeff, ((1,),)),), tag="custom", spec=F4)


@pytest.mark.parametrize("coeff", [2, 3, -1, 1.0, "1"])
def test_json_lines_refuse_coefficients_outside_fp(coeff):
    """JSON coefficients are integers mod p, which build combines: an F_q
    index past F_p would be misread, so it is refused, not dropped."""
    line = json.dumps({"coeff": [coeff], "factors": [[1]], "tag": "custom"})
    with pytest.raises(ParseError):
        FormalRelation.from_json_lines(line, F4)
    back = FormalRelation.from_json_lines(line.replace(
        json.dumps([coeff]), "[1]"), F4)
    assert back.terms == ((1, ((1,),)),)


def test_is_trivial_zero():
    assert not is_trivial_zero(Composition((1, -1, 1, 1)), T2, F2)
    assert is_trivial_zero(Composition((-1, 1, 1, 1, 1)), T2, F2)
    assert not is_trivial_zero(Composition((-1,)), T2, F2)
    assert not is_trivial_zero(Composition((1, 2)), T2, F2)


def test_trivial_zero_actually_vanishes():
    s = Composition((-1, 1, 1, 1, 1))
    assert is_trivial_zero(s, T2, F2)
    rel = FormalRelation.build([(1, (s.entries,))], "custom", F2)
    _, verdict = evaluate_relation(rel, Vadic(T2, N=3))
    assert verdict.passed


@pytest.mark.parametrize("v,example,flagged", [
    (parse_poly("t^3+t+1", F2), (-2, -2, -2, -2, -2), 500),
    (parse_poly("t^2+1", F3), (-1, -1, -2), 2915)], ids=["q2", "q3"])
def test_every_structural_zero_vanishes(v, example, flagged):
    """Each tuple of depth 2-5 over the entries -3, -2, -1, 1, 2 that
    ``is_trivial_zero`` flags has v-adic value 0 at N = 1 and 2.  At q = 2
    every flag comes from the second rule (deg v > r - i > L), as does the
    q = 3 example; the first rule (r - i > L + deg v) flags the rest."""
    spec = v.spec
    zeros = [s for depth in range(2, 6)
             for s in map(Composition, product((-3, -2, -1, 1, 2),
                                               repeat=depth))
             if is_trivial_zero(s, v, spec)]
    assert len(zeros) == flagged and Composition(example) in zeros
    for s in zeros:
        for N in (1, 2):
            assert vadic_mzv_auto(v, s, N, False, spec).value.is_zero(), \
                (s, N)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 4), max_size=7))
def test_reorders_are_the_sorted_distinct_permutations(multiset):
    m = tuple(multiset)
    assert _reorders(m) == sorted(set(permutations(m)))


def test_reorders_walk_only_distinct_orderings():
    # 13! = 6.2e9 orderings with repeats, 13 distinct ones
    start = time.perf_counter()
    orders = _reorders((1,) * 12 + (2,))
    assert time.perf_counter() - start < 0.5
    assert orders == [(1,) * i + (2,) + (1,) * (12 - i)
                      for i in range(12, -1, -1)]


class _CountingRing(RationalRing):
    muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b


_FACTOR_VALUES = {(1,): Fraction(2), (2,): Fraction(-1, 3),
                  (1, 2): Fraction(5, 7), (3, 1): Fraction(0)}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3),
                          st.lists(st.sampled_from(sorted(_FACTOR_VALUES)),
                                   max_size=4).map(tuple)), max_size=6))
def test_sum_of_products_multiplies_factors_only(terms):
    ring = _CountingRing()
    got = sum_of_products(ring, terms, _FACTOR_VALUES.__getitem__)
    assert ring.muls == sum(len(fs) - 1 for _, fs in terms if fs)
    assert got == sum(c * prod(_FACTOR_VALUES[f] for f in fs)
                      for c, fs in terms)


def test_sum_of_products_empty_factor_tuple_adds_coeff_times_one():
    ring = _CountingRing()
    assert sum_of_products(ring, [(3, ()), (-1, ((2,),))],
                           _FACTOR_VALUES.__getitem__) == 3 + Fraction(1, 3)
    assert ring.muls == 0


# -- relations evaluated by their generators -------------------------------------

# a degree-2 prime per field for the finite place
_DEGREE_2 = {2: "t^2+t+1", 3: "t^2+1", 4: "t^2+t+a"}


def _evaluators(spec):
    """TruncatedExact at D = 1..4, star and strict, the finite place of a
    degree-2 prime, and the v-adic values at v = t, N = 2 and 3."""
    t = parse_poly("t", spec)
    return ([TruncatedExact(D, star) for D in range(1, 5)
             for star in (False, True)]
            + [Finite(parse_poly(_DEGREE_2[spec.q], spec), star)
               for star in (False, True)]
            + [Vadic(t, N, star) for N in (2, 3) for star in (False, True)])


@st.composite
def family_generators(draw):
    """(spec, generators) of a thm2/thmA builder on distinct q-even entries
    of odd depth <= 5, entries <= 0 included, or of a thm3/thmB builder
    (p = 2 only) on doubling pairs, then a random sub-list of them, so the
    sum is mostly nonzero."""
    spec = draw(st.sampled_from([F2, F3, F4]))
    evens = [s for s in range(-6, 13) if is_q_even(s, spec)]
    if spec.p == 2 and draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([s for s in evens
                                                if abs(s) <= 6]),
                               min_size=1, max_size=2, unique=True))
        pairs = tuple((s, draw(st.integers(1, 3))) for s in values)
        doubled = [2 * s for s, k in pairs if k > 1]
        if len(set(values + doubled)) < len(values) + len(doubled) or \
                sum(k for _, k in pairs) > 5:
            pairs = tuple((s, 1) for s in values)
        builder = draw(st.sampled_from([doubling_generators,
                                        doubling_identity_generators]))
        gens = builder(pairs)
    else:
        depth = draw(st.sampled_from([1, 3, 5] if spec.q < 4 else [1, 3]))
        entries = tuple(draw(st.lists(st.sampled_from(evens),
                                      min_size=depth, max_size=depth,
                                      unique=True)))
        builder = draw(st.sampled_from([signed_perm_generators,
                                        signed_perm_identity_generators]))
        gens = builder(entries)
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from(range(len(gens))), min_size=1,
                             unique=True))
        gens = [gens[i] for i in sorted(keep)]
    return spec, gens


@st.composite
def parsed_terms(draw):
    """(spec, raw terms) of a relation given by JSON lines: products of up
    to three factors, with repeats, and always zeta(1) zeta(1) zeta(2,1)."""
    spec = draw(st.sampled_from([F2, F3, F4]))
    factor = st.sampled_from([(1,), (2,), (2, 1), (1, -1), (3, 1, 2)])
    terms = [(1, ((1,), (1,), (2, 1)))] + draw(st.lists(st.tuples(
        st.integers(1, spec.p - 1),
        st.lists(factor, min_size=1, max_size=3).map(tuple)), max_size=3))
    return spec, terms


def _public_value(ev, factor, spec):
    s = Composition(factor)
    if isinstance(ev, TruncatedExact):
        return truncated_mzv(ev.D, s, ev.star, spec)
    if isinstance(ev, Finite):
        return finite_mzv(ev.v, s, ev.star, spec)
    return vadic_mzv_auto(ev.v, s, ev.N, ev.star, spec).value


def _term_by_term(terms, ev, spec):
    """Sum of coeff times the product of the public values of the factors,
    one term at a time, each term added (coeff mod p) times."""
    if isinstance(ev, TruncatedExact):
        zero, one = RationalFn.zero(spec), RationalFn.one(spec)
    else:
        ring = ResidueRing(ev.v, ev.N if isinstance(ev, Vadic) else 1)
        zero, one = ring.zero(), ring.one()
    values = {}
    acc = zero
    for coeff, factors in terms:
        x = one
        for f in factors:
            if f not in values:
                values[f] = _public_value(ev, f, spec)
            x = x * values[f]
        for _ in range(coeff % spec.p):
            acc = acc + x
    return acc


@settings(max_examples=60, deadline=None)
@given(st.one_of(family_generators().map(lambda case: (*case, True)),
                 parsed_terms().map(lambda case: (*case, False))), st.data())
def test_generator_sums_equal_term_sums(case, data):
    """A relation is evaluated by its generators: a family's with one
    orderings sum per multiset, a parsed one's with one tuple node per
    factor.  The value must be the term-by-term sum of the public zeta
    values over its expansion (the parsed terms as given), for entries <= 0
    too, whose power sums the orderings walk reads alike."""
    spec, given, is_family = case
    if is_family:
        rel = FormalRelation.from_generators(given, "custom", spec)
        terms = expand(given)
    else:
        rel = FormalRelation.from_json_lines("\n".join(
            json.dumps({"coeff": [c], "factors": [list(f) for f in fs]})
            for c, fs in given), spec)
        terms = given
    for ev in data.draw(st.lists(st.sampled_from(_evaluators(spec)),
                                 min_size=1, max_size=4, unique=True)):
        value, verdict = evaluate_relation(rel, ev)
        want = _term_by_term(terms, ev, spec)
        assert value == want, (given, ev)
        assert verdict.passed == want.is_zero(), (given, ev)


def test_thm2_with_an_entry_below_one_passes_vadically():
    # at q = 2 every integer is q-even, so the CLI accepts (1,-2,3)
    rel = gen_thm2(Composition((1, -2, 3)), F2)
    assert str(evaluate_relation(rel, Vadic(T2, 3))[1]) == "ValuationAtLeast(3)"


def test_family_relations_keep_their_generators():
    """Every family keeps its generators, (coeff, nodes), reduced mod p,
    zero ones dropped, and still compares, hashes and serializes by its
    terms alone; parsed and search relations read as one tuple node per
    factor."""
    rel = gen_thmA(Composition((2, 4, 6)), F3)
    gens = signed_perm_identity_generators((2, 4, 6))
    assert rel.generators == tuple((c % 3, nodes) for c, nodes in gens)
    assert rel.generators[1] == (2, ((None, (2,)), (True, (4, 6))))
    bare = FormalRelation.build(expand(gens), "thmA", F3)
    assert rel == bare and hash(rel) == hash(bare) and repr(rel) == repr(bare)
    assert rel.to_json_lines() == bare.to_json_lines()
    pairs = ((1, 2), (3, 2))
    rel = gen_thmB(Thm3Config(pairs), F2)
    assert all(c == 1 for c, _ in rel.generators)
    assert len(rel.generators) < len(doubling_identity_generators(pairs))
    assert gen_thm2(Composition((2, 4, 6)), F3).generators == (
        (1, ((True, (2, 4, 6)),)),)
    # p | phi: the base generator (coefficient phi) is dropped, the fused
    # one kept
    assert gen_thm3(Thm3Config(((1, 2),)), F2).generators == (
        (1, ((False, (2,)),)),)
    assert gen_thm3(Thm3Config(pairs), F2).generators == (
        (1, ((False, (3, 3, 2)),)), (1, ((False, (1, 1, 6)),)))
    parsed = FormalRelation.from_json_lines(
        '{"coeff": [1], "factors": [[1], [1], [2, 1]]}\n'
        '{"coeff": [1], "factors": [[3]]}', F2)
    assert parsed.generators == (
        (1, ((None, (1,)), (None, (1,)), (None, (2, 1)))),
        (1, ((None, (3,)),)))
    found = find_relations(SearchScope(F2, T2, 3, 2, 2))[0]
    assert found.generators == tuple(
        (c, tuple((None, f) for f in fs)) for c, fs in found.terms)


def _family(spec, data):
    """A thm2/thm3/thmA/thmB relation over spec, drawn from inputs its
    builder accepts, with repeated doubling entries."""
    evens = [s for s in range(1, 19) if is_q_even(s, spec)][:5]
    families = ["thm2", "thmA"] + (["thm3", "thmB"] if spec.p == 2 else [])
    tag = data.draw(st.sampled_from(families))
    if tag in ("thm2", "thmA"):
        depth = data.draw(st.sampled_from([1, 3, 5]))
        entries = data.draw(st.lists(st.sampled_from(evens), min_size=depth,
                                     max_size=depth, unique=True))
        s = Composition(tuple(entries))
        return gen_thm2(s, spec) if tag == "thm2" else gen_thmA(s, spec)
    values = data.draw(st.lists(st.sampled_from(evens[:3]), min_size=1,
                                max_size=2, unique=True))
    pairs = tuple((s, data.draw(st.integers(1, 4))) for s in values)
    try:
        builder = gen_thm3 if tag == "thm3" else gen_thmB
        return builder(Thm3Config(pairs), spec)
    except InvalidFamilyInput:
        return gen_thm3(Thm3Config(tuple((s, 1) for s in values)), spec)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_term_count_matches_the_expansion(spec, data):
    """The count read off the generators, without expanding them, is the
    number of terms left after ``build`` sorts and merges the expansion."""
    rel = _family(spec, data)
    count = rel.term_count()
    assert count == len(FormalRelation.build(
        expand(rel.generators), rel.tag, spec).terms)
    assert count == len(rel.terms) == rel.term_count()


@pytest.mark.parametrize("rel, count", [
    (gen_thmA(Composition((3,)), F2), 0),
    (gen_thmB(Thm3Config(((1, 2),)), F2), 0),
    (gen_thm3(Thm3Config(((1, 4),)), F2), 3),
    (gen_thmA(Composition((1, 2, 3)), F2), 12),
    (gen_thmB(Thm3Config(((3, 3),)), F4), 4),
], ids=["thmA(3)", "thmB(1:2)", "thm3(1:4)", "thmA(1,2,3)", "thmB(3:3)q4"])
def test_term_count_of_cancelling_generators(rel, count):
    # merging like terms mod p cancels or collides whole generators here
    assert FormalRelation.from_generators(
        rel.generators, rel.tag, rel.spec).term_count() == count
    assert len(rel.terms) == count


_CARRIERS = {2: (T2, V2), 3: (parse_poly("t", F3), parse_poly("t^2+1", F3)),
             4: (parse_poly("t", F4), parse_poly("t^2+t+a", F4))}


@pytest.mark.parametrize("build", [
    lambda: gen_thm2(Composition((1, 2, 3)), F2),
    lambda: gen_thm3(Thm3Config(((1, 2), (3, 2))), F2),
    lambda: gen_thmA(Composition((2, 4, 6)), F3),
    lambda: gen_thmA(Composition((3,)), F2),
    lambda: gen_thmB(Thm3Config(((3, 2),)), F4),
    lambda: gen_thmB(Thm3Config(((1, 2),)), F2),
], ids=["thm2", "thm3", "thmA", "thmA-cancelling", "thmB", "thmB-cancelling"])
def test_terms_are_expanded_only_when_read(build, monkeypatch):
    """Building a family relation and evaluating it under every carrier
    never expands its generators; the first read of the terms, through
    ``terms``, equality, hashing, repr or JSON lines, expands them once."""
    calls = []
    real = relations.expand
    monkeypatch.setattr(relations, "expand",
                        lambda gens: calls.append(1) or real(gens))
    rel = build()
    t, v = _CARRIERS[rel.spec.q]
    for ev in (TruncatedExact(2), TruncatedExact(3, star=True), Finite(v),
               Vadic(t, 2), Vadic(v, 1, star=True)):
        evaluate_relation(rel, ev)
    assert not calls
    twin = FormalRelation.build(real(rel.generators), rel.tag, rel.spec)
    assert rel == twin and len(calls) == 1
    assert rel.terms == twin.terms and hash(rel) == hash(twin)
    assert repr(rel) == repr(twin)
    assert rel.to_json_lines() == twin.to_json_lines()
    assert rel.term_count() == len(twin.terms)
    assert len(calls) == 1


def test_formal_relations_are_read_only():
    """A relation's fields cannot be reassigned or deleted, before or after
    its lazy terms are expanded, so its hash and equality never change."""
    lazy = gen_thm2(Composition((1, 2, 3)), F2)
    given = FormalRelation.build(expand(lazy.generators), "thm2", F2)
    for rel in (lazy, given):
        for name in ("terms", "_terms", "tag", "spec", "generators", "extra"):
            with pytest.raises(AttributeError):
                setattr(rel, name, None)
        with pytest.raises(AttributeError):
            del rel.tag
    assert lazy.terms == given.terms and hash(lazy) == hash(given)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F4]), st.data())
def test_thm3_at_p_dividing_phi_has_only_fused_terms(spec, data):
    """When p | phi the base term phi * (base multiset) vanishes, so every
    term of a thm3 instance with base size phi has depth phi - 1."""
    evens = [s for s in range(1, 19) if is_q_even(s, spec)][:4]
    values = data.draw(st.lists(st.sampled_from(evens), min_size=1,
                                max_size=3, unique=True))
    ks = [data.draw(st.integers(1, 4)) for _ in values]
    if sum(ks) % 2:
        ks[0] += 1
    try:
        rel = gen_thm3(Thm3Config(tuple(zip(values, ks))), spec)
    except InvalidFamilyInput:
        return
    phi = sum(ks)
    assert all(len(f) == 1 and len(f[0]) == phi - 1 for _, f in rel.terms)


def test_thm3_one_four_is_the_orderings_sum_of_one_one_two():
    rel = gen_thm3(Thm3Config(((1, 4),)), F2)
    assert rel.terms == ((1, ((1, 1, 2),)), (1, ((1, 2, 1),)),
                         (1, ((2, 1, 1),)))
