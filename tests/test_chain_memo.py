"""The suffix memo of the chain-sum DP: with one memo shared across the
orderings of a multiset, every top-term list must equal the one a fresh,
memo-less DP builds, in every carrier the DP serves.  Likewise the
truncated values read off the growing per-suffix tables, at any D in any
order."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, Finite, FormalRelation,
                   RationalRing, ResidueRing, TruncatedExact, Vadic, ZModRing,
                   evaluate_relation, parse_poly, relations, zeta)
from ffmzv.power_sums import _exact_frac, _residue_sum
from ffmzv.relations import sum_of_products
from ffmzv.zeta import (_top_terms, _truncated_frac, chain_sum, exact_bound,
                        exact_ring)

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
V2 = parse_poly("t^2+t+1", F2)
T3 = parse_poly("t", F3)


def _table_carrier(ring, draw_value, D, seed):
    rng = random.Random(seed)
    table = {k: [draw_value(rng) for _ in range(D)] for k in range(1, 5)}
    return ring, D, table.__getitem__


def _carrier(name, seed):
    """(ring, D, row) for one of the carriers the DP serves."""
    if name == "zmod":
        return _table_carrier(ZModRing(12), lambda r: r.randrange(12), 5, seed)
    if name == "rational":
        return _table_carrier(
            RationalRing(),
            lambda r: Fraction(r.randrange(-9, 10), r.randrange(1, 7)), 4, seed)
    if name == "residue":
        spec, v, N = (F2, V2, 2) if seed % 2 else (F3, T3, 3)
        D = exact_bound(v, N)
        return (ResidueRing(v, N), D,
                lambda k: [_residue_sum(spec, d, k, v, N) for d in range(D)])
    spec = F2 if seed % 2 else F3
    D = 3
    return (exact_ring(spec), D,
            lambda k: [_exact_frac(spec, d, k) for d in range(D)])


@st.composite
def orderings_of_a_multiset(draw):
    """Orderings and sub-orderings of one random multiset of entries 1..4."""
    multiset = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    factors = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(multiset))
        keep = draw(st.lists(st.booleans(), min_size=len(order),
                             max_size=len(order)))
        sub = tuple(e for e, k in zip(order, keep) if k) or tuple(order)
        factors.append(sub)
    return factors


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zmod", "rational", "residue", "exact"]),
       st.integers(0, 3), st.booleans(), orderings_of_a_multiset())
def test_shared_memo_matches_a_fresh_dp(carrier, seed, star, factors):
    ring, D, row = _carrier(carrier, seed)
    # LFrac has no value equality; compare the normalized fractions
    canon = (lambda x: x.to_ratfn()) if carrier == "exact" else (lambda x: x)

    def top_terms(f, *memo):
        return [canon(x) for x in _top_terms(f, D, star, ring, row, *memo)]

    memo = {}
    for f in factors:
        assert top_terms(f, memo) == top_terms(f), f
        assert canon(chain_sum(f, D, star, ring, row, memo)) == \
            canon(chain_sum(f, D, star, ring, row)), f
    # every stored suffix holds its own fresh table: nothing was mutated
    for suffix, top in memo.items():
        assert [canon(x) for x in top] == top_terms(suffix), suffix


def test_memo_holds_every_suffix_once():
    ring, D, row = _carrier("zmod", 0)
    memo = {}
    _top_terms((1, 2, 3), D, False, ring, row, memo)
    assert set(memo) == {(3,), (2, 3), (1, 2, 3)}
    before = dict(memo)
    _top_terms((4, 2, 3), D, False, ring, row, memo)
    assert set(memo) == {(3,), (2, 3), (1, 2, 3), (4, 2, 3)}
    assert all(memo[k] is before[k] for k in before)  # reused, not rebuilt


def test_star_and_strict_evaluations_never_share_a_memo(monkeypatch):
    """A relation whose factors share suffixes, evaluated star and then
    strict with empty factor caches: each value must be the memo-less one,
    and the two must differ (a star table answering a strict factor would
    show).  The suffixes (1, 2) and (2,) are evaluated as factors before
    (3, 1, 2) extends them, so a caller that mutated a returned list would
    show too."""
    monkeypatch.setattr(zeta, "_trunc_cache", {})
    monkeypatch.setattr(relations, "_residue_factor_cache", {})
    rel = FormalRelation.build([(1, ((3, 1, 2),)), (1, ((1, 2),)),
                                (1, ((2,), (3, 1, 2)))], "custom", F2)
    assert [f for _, fs in rel.terms for f in fs][:3] == [(1, 2), (2,),
                                                          (3, 1, 2)]
    for make, ring, D, row in [
            (lambda star: TruncatedExact(3, star), exact_ring(F2), 3,
             lambda k: [_exact_frac(F2, d, k) for d in range(3)]),
            (lambda star: Vadic(V2, 2, star=star), ResidueRing(V2, 2), 5,
             lambda k: [_residue_sum(F2, d, k, V2, 2) for d in range(5)]),
            (lambda star: Finite(V2, star), ResidueRing(V2, 1), 2,
             lambda k: [_residue_sum(F2, d, k, V2, 1) for d in range(2)])]:
        expected = {star: make(star).verdict(sum_of_products(
            ring, rel.terms,
            lambda f, star=star: chain_sum(f, D, star, ring, row)))[0]
            for star in (True, False)}
        assert expected[True] != expected[False]
        for star in (True, False):
            value, _ = evaluate_relation(rel, make(star))
            assert value == expected[star], (make(star), star)


@st.composite
def compositions_and_levels(draw):
    """Compositions sharing a tail, and a sequence of (composition, D) asks
    whose D run ascending, descending or as drawn, with repeats."""
    entry = st.integers(-2, 3)
    tail = tuple(draw(st.lists(entry, min_size=1, max_size=2)))
    heads = draw(st.lists(entry, min_size=1, max_size=2))
    comps = [tail] + [(h,) + tail for h in heads]
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    order = draw(st.sampled_from(["ascending", "descending", "drawn"]))
    if order != "drawn":
        levels.sort(reverse=order == "descending")
    levels.append(levels[0])
    return [(draw(st.sampled_from(comps)), D) for D in levels]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.booleans(), compositions_and_levels())
def test_growing_tables_match_a_fresh_dp_at_every_D(spec, star, asks):
    ring = exact_ring(spec)
    seen = []
    with mock.patch.object(zeta, "_trunc_cache", {}):
        for entries, D in asks:
            value = _truncated_frac(D, Composition(entries), star, spec)
            fresh = chain_sum(entries, D, star, ring, lambda k: [
                _exact_frac(spec, d, k) for d in range(D)])
            assert value.to_ratfn() == fresh.to_ratfn(), (entries, D)
            seen.append((entries, D, value, value.to_ratfn()))
        # the tables only ever grow: every earlier answer is still there
        for entries, D, value, frac in seen:
            again = _truncated_frac(D, Composition(entries), star, spec)
            assert again is value and again.to_ratfn() == frac, (entries, D)
