"""The suffix tables of the chain-sum DP: with one store shared across the
orderings of a multiset, every table must equal the one a fresh store
builds, in every carrier the DP serves.  Likewise the truncated and v-adic
values read off the growing per-suffix tables of the process store, and the
orderings sums off the growing sub-multiset tables of one store, at any D
in any order, star and strict, at every precision N.  Every cell of a
table equals the literal sum over its chains, and a strict node spends no
multiplication on the cells below level r - 1, which no chain of its r
entries reaches."""

import operator
import random
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, combinations_with_replacement, permutations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, Finite, FormalRelation, GFRing,
                   MHTInstance, RationalRing, ResidueRing, TruncatedExact,
                   TruncatedPolyRing, TruncationConfig, Vadic, ZModRing,
                   evaluate_relation, mht_sum, parse_poly, zeta)
from ffmzv.power_sums import _exact_frac, _residue_sum
from ffmzv.relations import sum_of_products
from ffmzv.zeta import (_top_terms, _truncated_frac, exact_bound, exact_ring,
                        vadic_mzv)

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
V2 = parse_poly("t^2+t+1", F2)
T3 = parse_poly("t", F3)
T2 = parse_poly("t", F2)


def _residue_table(spec, v, N):
    return partial(_residue_sum, ResidueRing(v, N))


def _table_carrier(ring, draw_value, D, seed):
    rng = random.Random(seed)
    table = {k: [draw_value(rng) for _ in range(D)] for k in range(1, 5)}
    return ring, D, lambda d, k: table[k][d]


def _carrier(name, seed):
    """(ring, D, h) for one of the carriers the DP serves."""
    if name == "zmod":
        return _table_carrier(ZModRing(12), lambda r: r.randrange(12), 5, seed)
    if name == "rational":
        return _table_carrier(
            RationalRing(),
            lambda r: Fraction(r.randrange(-9, 10), r.randrange(1, 7)), 4, seed)
    if name == "residue":
        spec, v, N = (F2, V2, 2) if seed % 2 else (F3, T3, 3)
        return ResidueRing(v, N), exact_bound(v, N), _residue_table(spec, v, N)
    spec = F2 if seed % 2 else F3
    return exact_ring(spec), 3, partial(_exact_frac, spec)


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
    ring, D, h = _carrier(carrier, seed)
    # LFrac has no value equality; compare the normalized fractions
    canon = (lambda x: x.to_ratfn()) if carrier == "exact" else (lambda x: x)

    def table(f, tables):
        return [canon(x) for x in _top_terms(f, D, star, ring, h, tables)]

    tables = {}
    for f in factors:
        assert table(f, tables) == table(f, {}), f
        assert canon(_top_terms(f, D, star, ring, h, tables)[D]) == \
            canon(_top_terms(f, D, star, ring, h, {})[D]), f
    # every stored suffix holds its own fresh table: nothing was mutated
    for (key_ring, key_star, (kind, suffix)), sums in tables.items():
        assert key_ring is ring and key_star == star and kind is None
        assert [canon(x) for x in sums] == table(suffix, {}), suffix


def test_memo_holds_every_suffix_once():
    ring, D, h = _carrier("zmod", 0)
    tables = {}
    _top_terms((1, 2, 3), D, False, ring, h, tables)
    assert set(tables) == {(ring, False, (None, s))
                           for s in [(3,), (2, 3), (1, 2, 3)]}
    before = dict(tables)
    _top_terms((4, 2, 3), D, False, ring, h, tables)
    assert set(tables) == {(ring, False, (None, s))
                           for s in [(3,), (2, 3), (1, 2, 3), (4, 2, 3)]}
    assert all(tables[k] is before[k] for k in before)  # reused, not rebuilt


def test_star_and_strict_evaluations_never_share_a_memo(monkeypatch):
    """A relation whose factors share suffixes, evaluated star and then
    strict with an empty table store: each value must be the memo-less one,
    and the two must differ (a star table answering a strict factor would
    show).  The suffixes (1, 2) and (2,) are evaluated as factors before
    (3, 1, 2) extends them, so a caller that mutated a returned list would
    show too."""
    monkeypatch.setattr(zeta, "_trunc_cache", {})
    rel = FormalRelation.build([(1, ((3, 1, 2),)), (1, ((1, 2),)),
                                (1, ((2,), (3, 1, 2)))], "custom", F2)
    assert [f for _, fs in rel.terms for f in fs][:3] == [(1, 2), (2,),
                                                          (3, 1, 2)]
    for make, ring, D, h in [
            (lambda star: TruncatedExact(3, star), exact_ring(F2), 3,
             partial(_exact_frac, F2)),
            (lambda star: Vadic(V2, 2, star=star), ResidueRing(V2, 2), 5,
             _residue_table(F2, V2, 2)),
            (lambda star: Finite(V2, star), ResidueRing(V2, 1), 2,
             _residue_table(F2, V2, 1))]:
        expected = {star: make(star).verdict(sum_of_products(
            ring, rel.terms,
            lambda f, star=star: _top_terms(f, D, star, ring, h, {})[D]))[0]
            for star in (True, False)}
        assert expected[True] != expected[False]
        for star in (True, False):
            value, _ = evaluate_relation(rel, make(star))
            assert value == expected[star], (make(star), star)


@st.composite
def compositions_and_levels(draw, levels):
    """Compositions sharing a tail, and a sequence of asks (composition,
    level, star, kind) whose levels run ascending, descending or as drawn,
    with repeats; the kind is None for the chain sum of the composition,
    False for the sum over the distinct orderings of its multiset and True
    for the signed sum over the orderings of its distinct entries."""
    entry = st.integers(-2, 3)
    tail = tuple(draw(st.lists(entry, min_size=1, max_size=2)))
    heads = draw(st.lists(entry, min_size=1, max_size=2))
    comps = [tail] + [(h,) + tail for h in heads]
    asked = draw(st.lists(levels, min_size=1, max_size=6))
    order = draw(st.sampled_from(["ascending", "descending", "drawn"]))
    if order != "drawn":
        asked.sort(reverse=order == "descending")
    asked.append(asked[0])
    return [(draw(st.sampled_from(comps)), level, draw(st.booleans()),
             draw(st.sampled_from([None, False, True]))) for level in asked]


class _SignedRing:
    """A carrier ring given neg, for the signed sums."""

    def __init__(self, ring):
        self.zero, self.add, self.mul = ring.zero, ring.add, ring.mul
        self.neg = operator.neg


@cache
def _ring_and_table(spec, v, N):
    """The carrier ring, given neg, and its table; one ring per carrier,
    since the ring keys the tables of a store."""
    if v is None:
        ring, h = exact_ring(spec), partial(_exact_frac, spec)
    else:
        ring, h = ResidueRing(v, N), _residue_table(spec, v, N)
    return _SignedRing(ring), h


def _fresh(spec, v, entries, D, N, star, kind):
    """(value, stable_from) from a fresh store; stable_from is the least
    level from which the partial sums stay at the value (None for F_q(t),
    whose value is compared normalized, and for the orderings sums)."""
    ring, h = _ring_and_table(spec, v, N)
    sums = _top_terms(entries, D, star, ring, h, {}, kind)[:D + 1]
    if v is None:
        return sums[D].to_ratfn(), None
    if kind is not None:
        return sums[D], None
    stable = D
    while stable > 1 and sums[stable - 1] == sums[D]:
        stable -= 1
    return sums[D], stable


def _stored(spec, v, entries, D, N, star, kind, stores):
    """(value, stable_from) read off the process store, as ``_fresh``; an
    orderings sum reads off ``stores``, one store per carrier."""
    if kind is not None:
        ring, h = _ring_and_table(spec, v, N)
        return _top_terms(entries, D, star, ring, h, stores.setdefault(N, {}),
                          kind)[D], None
    if v is None:
        return _truncated_frac(D, Composition(entries), star, spec), None
    report = vadic_mzv(v, Composition(entries), TruncationConfig(D, N, star),
                       spec)
    return report.value, report.stable_from


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(F2, None), (F3, None), (F4, None), (F2, V2),
                        (F3, T3)]), st.data())
def test_growing_tables_match_a_fresh_dp_at_every_D(carrier, data):
    """Truncated values at D = 1..4, and v-adic values at N = 1..3 with D
    below, at and past exact_bound(v, N), share one store; so do the
    orderings sums of each carrier, at the same levels."""
    spec, v = carrier
    levels = (st.tuples(st.integers(1, 4), st.none()) if v is None else
              st.tuples(st.integers(1, exact_bound(v, 3) + 2),
                        st.integers(1, 3)))
    asks = data.draw(compositions_and_levels(levels))
    seen, stores = [], {}
    with mock.patch.object(zeta, "_trunc_cache", {}):
        for entries, (D, N), star, kind in asks:
            if kind:  # a signed sum is over distinct entries
                entries = tuple(dict.fromkeys(entries))
            value, stable = _stored(spec, v, entries, D, N, star, kind,
                                    stores)
            fresh = _fresh(spec, v, entries, D, N, star, kind)
            canon = value if v else value.to_ratfn()
            assert (canon, stable) == fresh, (entries, D, N, star, kind)
            seen.append((entries, D, N, star, kind, value, fresh))
        # the tables only ever grow: every earlier answer is still there
        for entries, D, N, star, kind, value, fresh in seen:
            again, stable = _stored(spec, v, entries, D, N, star, kind,
                                    stores)
            canon = again if v else again.to_ratfn()
            assert again is value and (canon, stable) == fresh, \
                (entries, D, N, star, kind)


def _literal_orders(kind, entries):
    """(sign, ordering) over the orderings a node sums, enumerated here
    without the relations module: the tuple itself, the distinct orderings
    of a multiset, or every ordering of a set signed by its inversions."""
    if kind is None:
        return [(1, entries)]
    if kind is False:
        return [(1, order) for order in sorted(set(permutations(entries)))]
    return [((-1) ** sum(a > b for a, b in combinations(perm, 2)),
             tuple(entries[i] for i in perm))
            for perm in permutations(range(len(entries)))]


def _literal_chains(d, r, star):
    """Every chain d > d_1 > ... > d_r >= 0 (d_i >= d_(i+1) when star), top
    index first."""
    pick = combinations_with_replacement if star else combinations
    return [chain[::-1] for chain in pick(range(d), r)]


def _literal_table(ring, h, kind, entries, D, star):
    """P[0..D] of a node with no DP: P[d] sums, over the node's orderings
    and the chains below d, the signed product of h(d_i, e_i)."""
    orders = _literal_orders(kind, entries)
    table = []
    for d in range(D + 1):
        total = ring.zero()
        for sign, order in orders:
            for chain in _literal_chains(d, len(order), star):
                term = reduce(ring.mul, map(h, chain, order))
                total = ring.add(total, term if sign > 0 else ring.neg(term))
        table.append(total)
    return table


_GENERIC_RINGS = {"zmod": ZModRing(12), "polymod": TruncatedPolyRing(3, 2),
                  "rationals": RationalRing(), "gf": GFRing(F4)}


@st.composite
def carriers_and_nodes(draw):
    """(ring, D, h, kind, entries, star): a generic ring over an index set
    of 1..5 levels, or a truncated (D <= 4), finite or v-adic (v = t or
    t^2+t+1, N <= 3) carrier, and a node of depth 1..6, so that D < r
    occurs."""
    name = draw(st.sampled_from(sorted(_GENERIC_RINGS) +
                                ["exact", "finite", "vadic"]))
    star = draw(st.booleans())
    kind = draw(st.sampled_from([None, False, True]))
    if name in _GENERIC_RINGS:
        ring = _GENERIC_RINGS[name]
        D = draw(st.integers(1, 5))
        rng = random.Random(draw(st.integers(0, 3)))
        table = {(d, e): ring.rand(rng) for d in range(D) for e in range(1, 5)}
        ring_D_h = ring, D, lambda d, e: table[d, e]
        entry = st.integers(1, 4)
    else:
        v = draw(st.sampled_from([T2, V2]))
        evaluator = (TruncatedExact(draw(st.integers(1, 4)), star)
                     if name == "exact" else Finite(v, star)
                     if name == "finite" else
                     Vadic(v, draw(st.integers(1, 3)), star))
        ring_D_h = evaluator.carrier(F2)
        entry = st.sampled_from([-1, 1, 2, 3])
    # a signed sum is over distinct entries
    entries = tuple(draw(st.lists(entry, min_size=1, max_size=6,
                                  unique=kind is True)))
    return (*ring_D_h, kind, entries, star)


@settings(max_examples=100, deadline=None)
@given(carriers_and_nodes())
def test_every_cell_matches_literal_chain_enumeration(case):
    """Every cell P[0..D] of a node's table, strict and star, equals the
    literal sum over its chains: with one store grown at D = 1, 2, ...
    (so both L > 0 and L < r - 1 occur) and with a fresh store at D (L = 0,
    and D < r)."""
    ring, D, h, kind, entries, star = case
    r = len(entries)
    chains = sum(len(_literal_chains(d, r, star)) for d in range(D + 1))
    # the enumeration costs orderings x chains: keep each example small
    assume(len(_literal_orders(kind, entries)) * chains <= 3000)
    # LFrac has no value equality; compare the normalized fractions
    canon = ((lambda x: x.to_ratfn()) if ring is exact_ring(F2)
             else (lambda x: x))
    literal = [canon(x)
               for x in _literal_table(ring, h, kind, entries, D, star)]
    tables = {}
    for level in range(1, D + 1):
        grown = _top_terms(entries, level, star, ring, h, tables, kind)
        assert [canon(x) for x in grown] == literal[:level + 1], level
    fresh = _top_terms(entries, D, star, ring, h, {}, kind)
    assert [canon(x) for x in fresh] == literal
    if not star:
        assert all(x == canon(ring.zero()) for x in literal[:r])


class _CountingRing(ZModRing):
    """Z/12 that counts its multiplications."""

    def __init__(self):
        super().__init__(12)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


@pytest.mark.parametrize("entries,star,kind,muls", [
    ((1, 2, 3), False, None, 7),
    ((1, 2, 3, 4, 5), False, None, 10),
    ((1, 2, 3, 4, 5, 6), False, None, 0),
    ((1, 2, 3, 4, 5), False, True, 215),
    ((1, 1, 2, 3), False, False, 55),
    ((1, 2, 3), True, None, 10)])
def test_one_mht_sum_skips_the_cells_no_strict_chain_reaches(entries, star,
                                                            kind, muls):
    """The multiplications of one fresh mht_sum at D = 5: a strict node of
    r entries computes only its cells d = r - 1..4, none when r > 5; star
    nodes compute every cell."""
    ring = _CountingRing()
    inst = MHTInstance(ring, (0, 1, 2, 3, 4), (1, 2, 3, 4, 5, 6),
                       {(d, e): (7 * d + 3 * e) % 12
                        for d in range(5) for e in range(1, 7)})
    mht_sum(inst, entries, star, None, kind)
    assert ring.muls == muls
