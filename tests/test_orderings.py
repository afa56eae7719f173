"""The multiset walker of the chain-sum DP and the generator form of the
relation families: an orderings sum must equal the sum of one chain sum per
ordering, a shared memo must keep multisets and ordered suffixes apart, and
every generator expansion must give the raw terms of the literal builders
below, kept as the reference."""

from collections import Counter
from itertools import permutations

from hypothesis import assume, given, settings, strategies as st

from ffmzv import (FieldSpec, GFRing, RationalRing, TruncatedPolyRing,
                   ZModRing, mht_sum, random_instance)
from ffmzv.errors import InvalidFamilyInput
from ffmzv.relations import (check_doubling_shape,
                             doubling_generators,
                             doubling_identity_generators, expand,
                             signed_perm_generators,
                             signed_perm_identity_generators)

RINGS = [ZModRing(12), TruncatedPolyRing(5, 3), RationalRing(),
         GFRing(FieldSpec.parse("q=4"))]


def inversion_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def reference_signed_orders(entries):
    """(sign, ordering) over all of S_n, the sign by counting inversions."""
    return [(inversion_sign(perm), tuple(entries[i] for i in perm))
            for perm in permutations(range(len(entries)))]


def reference_reorders(multiset):
    return sorted(set(permutations(multiset)))


def enumerated_orderings_sum(inst, multiset, star, signed):
    """One mht_sum per ordering, each with a fresh DP."""
    ring = inst.ring
    orders = (reference_signed_orders(multiset) if signed
              else [(1, order) for order in reference_reorders(multiset)])
    acc = ring.zero()
    for sign, order in orders:
        x = mht_sum(inst, order, star)
        acc = ring.add(acc, x if sign == 1 else ring.neg(x))
    return acc


@st.composite
def instances(draw):
    ring = draw(st.sampled_from(RINGS))
    seed = draw(st.integers(0, 10 ** 6))
    return random_instance(seed, ring, (draw(st.integers(1, 5)), 5))


@settings(max_examples=60, deadline=None)
@given(instances(), st.booleans(), st.data())
def test_multiset_orderings_sum_matches_enumeration(inst, star, data):
    multiset = tuple(data.draw(st.lists(st.sampled_from(inst.magma[:3]),
                                        min_size=1, max_size=6)))
    assert mht_sum(inst, multiset, star, None, False) == \
        enumerated_orderings_sum(inst, multiset, star, False), multiset


@settings(max_examples=60, deadline=None)
@given(instances(), st.booleans(), st.data())
def test_signed_orderings_sum_matches_enumeration(inst, star, data):
    entries = tuple(data.draw(st.permutations(inst.magma)))
    entries = entries[:data.draw(st.integers(1, 5))]
    assert mht_sum(inst, entries, star, None, True) == \
        enumerated_orderings_sum(inst, entries, star, True), entries


@settings(max_examples=40, deadline=None)
@given(instances(), st.booleans(), st.data())
def test_one_memo_serves_ordered_and_multiset_calls(inst, star, data):
    """Ordered tuples, multisets and signed tuples of the same entries, in
    any order, through one memo: each value must be the memo-less one."""
    entries = tuple(data.draw(st.permutations(inst.magma)))[:3]
    memo = {}
    calls = data.draw(st.lists(st.sampled_from(
        [("ordered", entries[i:]) for i in range(3)]
        + [("ordered", entries[:2]), ("multiset", entries[:2]),
           ("multiset", entries), ("multiset", entries[1:] + entries[1:2]),
           ("signed", entries[:2]), ("signed", entries[1:]),
           ("signed", entries)]), min_size=1, max_size=10))
    for kind, s in calls:
        if kind == "ordered":
            got, fresh = mht_sum(inst, s, star, memo), mht_sum(inst, s, star)
        else:
            signed = kind == "signed"
            got = mht_sum(inst, s, star, memo, signed)
            fresh = enumerated_orderings_sum(inst, s, star, signed)
        assert got == fresh, (kind, s)


def test_a_multiset_is_not_its_ordered_suffix():
    inst = random_instance(5, ZModRing(101), (4, 3))
    a, b = inst.magma[:2]
    for star in (False, True):
        memo = {}
        ab = mht_sum(inst, (a, b), star, memo)
        ba = mht_sum(inst, (b, a), star)
        assert ab != ba
        assert mht_sum(inst, (a, b), star, memo, False) == \
            inst.ring.add(ab, ba)
        assert mht_sum(inst, (a, b), star, memo, True) == \
            inst.ring.add(ab, inst.ring.neg(ba))
        assert mht_sum(inst, (b, a), star, memo, True) == \
            inst.ring.add(ba, inst.ring.neg(ab))


# -- the literal term builders, the reference for the generator expansions ----


def literal_signed_perm_terms(entries):
    return [(sign, (order,)) for sign, order in
            reference_signed_orders(entries)]


def literal_signed_perm_identity_terms(entries):
    n = len(entries)
    terms = literal_signed_perm_terms(entries)
    for j in range(n):
        head = (entries[j],)
        rest = entries[:j] + entries[j + 1:]
        outer = -1 * (-1) ** (n - 1 - j)
        if not rest:
            terms.append((outer, (head,)))
            continue
        for sign, order in reference_signed_orders(rest):
            terms.append((outer * sign, (head, order)))
    return terms


def remove(multiset, value, count=1):
    out = list(multiset)
    for _ in range(count):
        out.remove(value)
    return tuple(out)


def literal_doubling_terms(pairs):
    s0 = tuple(s for s, k in pairs for _ in range(k))
    phi = sum(k for _, k in pairs)
    terms = []
    for s, k in pairs:
        if k > 1:
            fused = remove(s0, s, 2) + (2 * s,)
            terms.extend((1, (order,)) for order in reference_reorders(fused))
    terms.extend((phi, (order,)) for order in reference_reorders(s0))
    return terms


def literal_doubling_identity_terms(pairs):
    s0 = tuple(s for s, k in pairs for _ in range(k))
    phi = sum(k for _, k in pairs)
    terms = literal_doubling_terms(pairs)

    def product_terms(head_entry, tail_multiset, coeff):
        head = (head_entry,)
        if not tail_multiset:
            terms.append((-coeff, (head,)))
            return
        for order in reference_reorders(tail_multiset):
            terms.append((-coeff, (head, order)))

    for j, (sj, kj) in enumerate(pairs):
        for i, (si, ki) in enumerate(pairs):
            if i == j or ki <= 1:
                continue
            fused = remove(s0, si, 2) + (2 * si,)
            product_terms(sj, remove(fused, sj), 1)
        if kj > 2:
            product_terms(sj, remove(s0, sj, 3) + (2 * sj,), 1)
        if kj > 1:
            product_terms(2 * sj, remove(s0, sj, 2), 1)
        product_terms(sj, remove(s0, sj), phi)
    return terms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 12), min_size=1, max_size=5, unique=True))
def test_signed_perm_expansions_match_the_literal_builders(entries):
    entries = tuple(entries)
    assert Counter(expand(signed_perm_generators(entries))) == \
        Counter(literal_signed_perm_terms(entries))
    assert Counter(expand(signed_perm_identity_generators(entries))) == \
        Counter(literal_signed_perm_identity_terms(entries))


@st.composite
def doubling_pairs(draw):
    """Valid multiplicity pairs with at most 7 entries in the base multiset,
    so that the literal builders can list every permutation."""
    values = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3,
                           unique=True))
    pairs = tuple((s, draw(st.integers(1, 3))) for s in values)
    try:
        check_doubling_shape(pairs)
    except InvalidFamilyInput:
        pairs = tuple((s, 1) for s in values)
    assume(sum(k for _, k in pairs) <= 7)
    return pairs


@settings(max_examples=60, deadline=None)
@given(doubling_pairs())
def test_doubling_expansions_match_the_literal_builders(pairs):
    assert Counter(expand(doubling_generators(pairs))) == \
        Counter(literal_doubling_terms(pairs))
    assert Counter(expand(doubling_identity_generators(pairs))) == \
        Counter(literal_doubling_identity_terms(pairs))
