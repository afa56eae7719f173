"""Multiple-harmonic-type (MHT) sums over pluggable commutative rings, and
checkers for the two product identities shared with the zeta relation
families.

An MHT instance is a table h: D x S -> R over a finite strictly ordered
index set D; the sum H(s_1,...,s_r) runs over strictly decreasing chains in
D.  A zeta value is the instance h(d, s) = S_d(s), and both run through the
same chain-sum DP (``zeta._top_terms``).  The identity checkers sum the
generators of the relation families, coeff times a product of nodes, whose
expansion is the term list of the formal relations, by the same
``relations.sum_of_products`` as the zeta relations, each node (kind, s)
one ``mht_sum`` of that kind: an orderings node is one DP over its
sub-multisets, never ordering by ordering.  Passing them over random rings
exercises the combinatorics independently of any zeta arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DoublingLawViolated, InvalidFamilyInput
from .fields import FieldSpec
from .relations import (check_doubling_shape, check_perm_shape,
                        doubling_identity_generators, reduce_generators,
                        signed_perm_identity_generators, sum_of_products)
from .zeta import _top_terms


class Ring:
    """The ring protocol of the chain-sum DP and the term evaluator:
    subclasses give zero/one/add/neg/mul and char; scale is built on them."""

    def scale(self, a, c: int):
        """c * a by double-and-add (c any integer); in characteristic p, c
        is first taken in (-p/2, p/2], so -1 costs one neg."""
        if self.char:
            c %= self.char
            if 2 * c > self.char:
                c -= self.char
        if c < 0:
            a, c = self.neg(a), -c
        acc = self.zero()
        while c:
            if c & 1:
                acc = self.add(acc, a)
            c >>= 1
            if c:
                a = self.add(a, a)
        return acc


class ZModRing(Ring):
    """Integers mod m."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.char = m

    @property
    def name(self) -> str:
        return f"Z/{self.m}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def rand(self, rng: random.Random):
        return rng.randrange(self.m)

    def to_str(self, a) -> str:
        return str(a)


class TruncatedPolyRing(Ring):
    """F_p[x] mod x^k; elements are coefficient tuples of length k."""

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        self.char = p

    @property
    def name(self) -> str:
        return f"F_{self.p}[x]/(x^{self.k})"

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        out = [0] * self.k
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if i + j >= self.k:
                    break
                out[i + j] = (out[i + j] + x * y) % self.p
        return tuple(out)

    def rand(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def to_str(self, a) -> str:
        return ",".join(str(x) for x in a)


class RationalRing(Ring):
    """Arbitrary-precision rationals."""

    char = 0
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def rand(self, rng: random.Random):
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))

    def to_str(self, a) -> str:
        return str(a)


class GFRing(Ring):
    """F_q via a FieldSpec; elements are element indices, and add, neg and
    mul are the field's own."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.char = spec.p
        self.add = spec.add
        self.neg = spec.neg
        self.mul = spec.mul

    @property
    def name(self) -> str:
        return f"GF({self.spec.q})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def rand(self, rng: random.Random):
        return rng.randrange(self.spec.q)

    def to_str(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class MHTInstance:
    ring: object
    index_set: tuple[int, ...]  # strictly increasing
    magma: tuple[int, ...]      # exponent values S
    h: dict                     # (d, s) -> ring element
    base: tuple[int, ...] = ()  # exponents whose doubles were derived by squaring

    def __post_init__(self):
        if list(self.index_set) != sorted(set(self.index_set)):
            raise ValueError("index_set must be strictly ordered")
        for d in self.index_set:
            for s in self.magma:
                if (d, s) not in self.h:
                    raise ValueError(f"h undefined at ({d}, {s})")

    def cell(self, i: int, s: int):
        """h at the i-th index and exponent s: the DP's table."""
        return self.h[self.index_set[i], s]

    def to_json(self, seed=None) -> str:
        table = {f"{d},{s}": self.ring.to_str(self.h[(d, s)])
                 for d in self.index_set for s in self.magma}
        return json.dumps({
            "ring": self.ring.name,
            "D": list(self.index_set),
            "S": list(self.magma),
            "h": table,
            "seed": seed,
        }, sort_keys=True)


def mht_sum(inst: MHTInstance, s: tuple[int, ...], star: bool = False,
            memo: dict | None = None, kind: bool | None = None):
    """Sum over (weakly, when star) decreasing chains in the index set of
    the product of table values, for the node (kind, s) of
    ``zeta._top_terms``: s read as a tuple when kind is None, summed over
    the distinct orderings of the multiset s when False, and over all of
    S_n, signed, when True.  ``memo`` is a store of node tables as in
    ``_top_terms``, for one instance; one store serves every kind."""
    if not s:
        raise ValueError("exponent tuple must be nonempty")
    for e in s:
        if e not in inst.magma:
            raise ValueError(f"exponent {e} outside the instance magma")
    D = len(inst.index_set)
    return _top_terms(s, D, star, inst.ring, inst.cell,
                      {} if memo is None else memo, kind)[D]


def _node_values(inst: MHTInstance):
    """The node values of ``relations.sum_of_products`` on an instance, each
    one ``mht_sum``, with one memo for the whole sum."""
    memo = {}
    return lambda node: mht_sum(inst, node[1], False, memo, node[0])


def check_thmC(inst: MHTInstance, s: tuple[int, ...]):
    """Residual of the signed-permutation product identity; zero for every
    instance."""
    check_perm_shape(s)
    residual = sum_of_products(inst.ring,
                               signed_perm_identity_generators(tuple(s)),
                               _node_values(inst))
    return residual, residual == inst.ring.zero()


def check_thmD(inst: MHTInstance, pairs):
    """Residual of the doubling product identity; requires characteristic 2
    and the squaring law h(d, 2s) = h(d, s)^2 on the table."""
    ring = inst.ring
    if ring.char != 2:
        raise InvalidFamilyInput("identity requires characteristic 2")
    check_doubling_shape(pairs)
    for s, k in pairs:
        if k > 1:
            for d in inst.index_set:
                hs = inst.h[(d, s)]
                if inst.h.get((d, 2 * s)) != ring.mul(hs, hs):
                    raise DoublingLawViolated(f"h({d},{2*s}) != h({d},{s})^2")
    residual = sum_of_products(
        ring, reduce_generators(doubling_identity_generators(tuple(pairs)), 2),
        _node_values(inst))
    return residual, residual == ring.zero()


def random_instance(seed: int, ring, sizes: tuple[int, int],
                    doubling: bool = False) -> MHTInstance:
    """Reproducible instance; with doubling, the table is drawn on base
    exponents and extended to doubled exponents by squaring."""
    if doubling and ring.char != 2:
        raise InvalidFamilyInput("doubling instances require characteristic 2")
    d_size, s_size = sizes
    rng = random.Random(seed)
    index_set = tuple(sorted(rng.sample(range(3 * d_size + 1), d_size)))
    base = sorted(rng.sample(range(1, 6 * s_size + 1), s_size))
    h = {}
    if doubling:
        # keep base values, their doubles, and cross-products pairwise
        # distinct so any multiplicity assignment on the base is valid
        used: set[int] = set()
        kept = []
        for s in base:
            if s not in used and 2 * s not in used:
                kept.append(s)
                used.update((s, 2 * s))
        magma = tuple(sorted(used))
        for d in index_set:
            for s in kept:
                x = ring.rand(rng)
                h[(d, s)] = x
                h[(d, 2 * s)] = ring.mul(x, x)
        return MHTInstance(ring=ring, index_set=index_set, magma=magma, h=h,
                           base=tuple(kept))
    magma = tuple(base)
    for d in index_set:
        for s in magma:
            h[(d, s)] = ring.rand(rng)
    return MHTInstance(ring=ring, index_set=index_set, magma=magma, h=h)
