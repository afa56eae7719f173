"""Universal F_q-linear relation families among zeta values, as formal
objects, plus evaluation of any formal relation under any carrier.

Family tags (also the CLI --family names):
  thm2 -- alternating sum over all permutations of a distinct q-even tuple
          of odd depth.
  thm3 -- characteristic-2 doubling family over multiplicity pairs (s, k).
  thmA -- the thm2 sum rewritten as products of a depth-1 value with
          signed permutation sums of the shortened tuple; exact at every
          truncation level.
  thmB -- the thm3 sum rewritten likewise (characteristic 2); exact at
          every truncation level.

Each family is described once, by generators: a coefficient times a
product of nodes, each node the (kind, entries) pair of
``zeta._top_terms``: kind None a tuple, False the distinct orderings of a
multiset, True the signed sum over S_n of distinct entries.  Every relation
is summed by its generators (``sum_of_products``), each node the P[D] of
its table in the process store of the chain-sum DP: one orderings sum per
multiset, never one term per ordering.  A relation given by its terms
reads as one tuple node per factor.  A family relation's term list, their
expansion, is built only when read, for serialization and equality; the
report's term count comes from the generators.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import factorial, prod

from .errors import InvalidEvaluator, InvalidFamilyInput, ParseError
from .fields import FieldSpec
from . import zeta
from .poly import Poly
from .power_sums import (_exact_frac, _residue_sum, default_vanish_cap,
                         vanish_degree)
from .residue import ResidueRing
from .zeta import Composition, exact_bound, exact_ring

# -- family generators and their terms (integer coefficients, plain tuples) -----


def _signed_orders(entries: tuple[int, ...]):
    """(sgn(sigma), sigma(entries)) over all of S_n (entries distinct), in
    the order of ``itertools.permutations``: the i-th remaining entry goes
    first, with sign (-1)^i, in front of each signed order of the rest."""
    if not entries:
        yield 1, ()
        return
    for i, e in enumerate(entries):
        for sign, rest in _signed_orders(entries[:i] + entries[i + 1:]):
            yield (-sign if i % 2 else sign), (e,) + rest


# A generator (coeff, nodes) stands for coeff times the product of its
# nodes' sums: a node (kind, entries) is the tuple entries when kind is
# None, the sum over the distinct orderings of the multiset entries when
# False, and the sum over all of S_n weighted by the sign of the permutation
# of the given order (entries distinct) when True.  ``expand`` writes it out
# as raw terms (coeff, factor-tuples), one per choice of an ordering of
# each node.


def _orders(node) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, ordering) over the orderings a node sums."""
    kind, entries = node
    if kind is None:
        return [(1, entries)]
    if kind:
        return list(_signed_orders(entries))
    return [(1, order) for order in _reorders(entries)]


def expand(generators) -> list[tuple[int, tuple]]:
    """Raw terms of generators, one per choice of orderings of the nodes."""
    return [(coeff * prod(sign for sign, _ in picks),
             tuple(order for _, order in picks))
            for coeff, nodes in generators
            for picks in product(*map(_orders, nodes))]


def reduce_generators(generators, p: int) -> tuple:
    """The generators with coefficients reduced mod p, zero ones dropped."""
    return tuple((c % p, nodes) for c, nodes in generators if c % p)


def _head(e: int, rest: tuple[int, ...], kind: bool) -> tuple:
    """The nodes of the depth-1 factor (e,) times the sum of ``rest``."""
    return ((None, (e,)),) + (((kind, rest),) if rest else ())


def signed_perm_generators(entries: tuple[int, ...]) -> list[tuple]:
    """Alternating permutation sum."""
    return [(1, ((True, tuple(entries)),))]


def signed_perm_identity_generators(entries: tuple[int, ...]) -> list[tuple]:
    """Permutation sum minus its product expansion; sums to zero at every
    truncation level."""
    n = len(entries)
    return signed_perm_generators(entries) + [
        (-1 * (-1) ** (n - 1 - j),
         _head(entries[j], entries[:j] + entries[j + 1:], True))
        for j in range(n)]


def _reorders(multiset: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct orderings of a multiset, in lexicographic order: a
    next-permutation walk from the sorted multiset visits each distinct
    ordering once, never the n! orderings with repeats."""
    order = sorted(multiset)
    out = [tuple(order)]
    while True:
        # the rightmost ascent order[i] < order[i + 1]
        i = len(order) - 2
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return out
        # swap it with the rightmost larger entry, then reverse the rest
        j = len(order) - 1
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1:] = reversed(order[i + 1:])
        out.append(tuple(order))


def _remove(multiset: tuple[int, ...], value: int, count: int = 1) -> tuple[int, ...]:
    out = list(multiset)
    for _ in range(count):
        out.remove(value)
    return tuple(out)


def _doubling_base(pairs) -> tuple[tuple[int, ...], int]:
    s0 = tuple(s for s, k in pairs for _ in range(k))
    phi = sum(k for _, k in pairs)
    return s0, phi


def doubling_generators(pairs) -> list[tuple]:
    """Doubling-family sum: for each (s,k) with k > 1 the re-orders of the
    base multiset with two copies of s fused into 2s, plus phi times the
    re-orders of the base multiset itself."""
    s0, phi = _doubling_base(pairs)
    return [(1, ((False, _remove(s0, s, 2) + (2 * s,)),))
            for s, k in pairs if k > 1] + [(phi, ((False, s0),))]


def doubling_identity_generators(pairs) -> list[tuple]:
    """Doubling-family sum minus its product expansion (characteristic-2
    identity; signs written as -1 and reduced by the caller)."""
    s0, phi = _doubling_base(pairs)
    gens = doubling_generators(pairs)
    for j, (sj, kj) in enumerate(pairs):
        # Every j contributes cross products against the other fused tuples;
        # restricting j here breaks cancellation whenever another
        # multiplicity equals 2 (coefficients sit in characteristic 2, so
        # the even-multiplicity terms cost nothing when they do cancel).
        for i, (si, ki) in enumerate(pairs):
            if i != j and ki > 1:
                fused = _remove(s0, si, 2) + (2 * si,)
                gens.append((-1, _head(sj, _remove(fused, sj), False)))
        if kj > 2:
            gens.append((-1, _head(sj, _remove(s0, sj, 3) + (2 * sj,),
                                   False)))
        if kj > 1:
            gens.append((-1, _head(2 * sj, _remove(s0, sj, 2), False)))
        gens.append((-phi, _head(sj, _remove(s0, sj), False)))
    return gens


# -- formal relations ------------------------------------------------------------


def _merge(raw_terms, p: int) -> tuple:
    """Terms (coeff in [1, p-1], factors): coefficients reduced mod p, the
    factors of each term sorted, empty factors dropped, like terms combined
    and zero ones dropped, in sorted order."""
    combined: dict[tuple, int] = {}
    for coeff, factors in raw_terms:
        key = tuple(sorted(tuple(f) for f in factors if len(f) > 0))
        combined[key] = (combined.get(key, 0) + coeff) % p
    return tuple((c, key) for key, c in sorted(combined.items()) if c)


class FormalRelation:
    """F_q-linear combination of products of zeta values, as ``terms``:
    (coeff, factor tuple of entry-tuples), each coefficient the index of a
    nonzero F_q element.  ``build`` reduces integer coefficients into F_p,
    sorts the factors within each term, combines like terms and drops
    zero-coefficient and identity factors.

    Every relation has ``generators``, coefficients in [1, q-1], and
    ``evaluate_relation`` sums them.  A family relation
    (``from_generators``) is given by them, reduced mod p, and its terms are
    their ``build``; a relation given by its terms reads as one tuple node
    per factor.  Whichever form was not given is derived on its first read
    and kept.  Equality, hashing and ``repr`` read ``terms`` and ``tag``
    and ``spec`` only.  The relation is read-only, so its hash never
    changes; only the derived form is written after construction."""

    __slots__ = ("_terms", "tag", "spec", "_generators")

    def __init__(self, terms, tag: str, spec: FieldSpec, generators=None):
        if terms is not None:
            for coeff, _ in terms:
                if not 0 < coeff < spec.q:
                    raise ValueError(
                        f"coefficient {coeff} is outside [1, q-1]")
        for name, value in (("_terms", terms), ("tag", tag), ("spec", spec),
                            ("_generators", generators)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__qualname__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__qualname__} is read-only")

    @property
    def terms(self) -> tuple:
        if self._terms is None:
            object.__setattr__(self, "_terms", _merge(expand(self._generators),
                                                      self.spec.p))
        return self._terms

    @property
    def generators(self) -> tuple:
        if self._generators is None:
            object.__setattr__(self, "_generators", tuple(
                (coeff, tuple((None, f) for f in factors))
                for coeff, factors in self._terms))
        return self._generators

    def term_count(self) -> int:
        """``len(terms)``, counted from the generators while the terms are
        unexpanded.  Terms of two generators can merge only when their nodes
        agree up to order, so a family generator alone in its group (its
        nodes a depth-1 head and one orderings node at most) has one term
        per ordering, and only the groups of several are expanded."""
        if self._terms is not None:
            return len(self._terms)
        groups: dict[tuple, list] = {}
        for gen in self._generators:
            key = tuple(sorted(tuple(sorted(entries)) for _, entries in gen[1]))
            groups.setdefault(key, []).append(gen)
        count = 0
        for gens in groups.values():
            if len(gens) == 1:
                count += prod(1 if kind is None else
                              factorial(len(entries)) // prod(
                                  map(factorial, Counter(entries).values()))
                              for kind, entries in gens[0][1])
            else:
                count += len(_merge(expand(gens), self.spec.p))
        return count

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.terms, self.tag, self.spec)
                == (other.terms, other.tag, other.spec))

    def __hash__(self):
        return hash((self.terms, self.tag, self.spec))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(terms={self.terms!r}, "
                f"tag={self.tag!r}, spec={self.spec!r})")

    @staticmethod
    def build(raw_terms, tag: str, spec: FieldSpec) -> "FormalRelation":
        return FormalRelation(_merge(raw_terms, spec.p), tag, spec)

    @staticmethod
    def from_generators(generators, tag: str,
                        spec: FieldSpec) -> "FormalRelation":
        """The relation ``build(expand(generators))``, kept as its
        generators reduced mod p; the terms are expanded when first read."""
        return FormalRelation(None, tag, spec,
                              reduce_generators(generators, spec.p))

    def to_json_lines(self) -> str:
        lines = []
        for coeff, factors in self.terms:
            lines.append(json.dumps({
                "coeff": [coeff],
                "factors": [list(f) for f in factors],
                "tag": self.tag,
            }))
        return "\n".join(lines)

    @staticmethod
    def from_json_lines(text: str, spec: FieldSpec) -> "FormalRelation":
        raw = []
        tag = "custom"
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            tag = obj.get("tag", tag)
            coeff = obj["coeff"][0]
            if not isinstance(coeff, int) or not 0 <= coeff < spec.p:
                raise ParseError(f"coefficient {coeff} outside [0, {spec.p})")
            raw.append((coeff, tuple(tuple(f) for f in obj["factors"])))
        return FormalRelation.build(raw, tag, spec)


@dataclass(frozen=True)
class Thm3Config:
    """Multiplicity pairs for the doubling families: ((s_1, k_1), ...)."""
    pairs: tuple[tuple[int, int], ...]


def is_q_even(s: int, spec: FieldSpec) -> bool:
    return s % (spec.q - 1) == 0 if spec.q > 2 else True


def check_perm_shape(entries: tuple[int, ...]):
    """The permutation families' shape: distinct entries, odd depth."""
    if len(set(entries)) != len(entries):
        raise InvalidFamilyInput("entries must be distinct")
    if len(entries) % 2 == 0:
        raise InvalidFamilyInput("depth must be odd")


def check_doubling_shape(pairs):
    """The doubling families' shape: multiplicities k >= 1, and the entries
    together with the doubled entries (those at k > 1) distinct."""
    seen = []
    for s, k in pairs:
        if k < 1:
            raise InvalidFamilyInput("multiplicities must be >= 1")
        seen.append(s)
        if k > 1:
            seen.append(2 * s)
    if len(set(seen)) != len(seen):
        raise InvalidFamilyInput(
            "entries (and doubled entries at multiplicity > 1) must be distinct")


def _check_perm_input(s: Composition, spec: FieldSpec):
    check_perm_shape(s.entries)
    for e in s.entries:
        if not is_q_even(e, spec):
            raise InvalidFamilyInput(f"entry {e} is not q-even for q={spec.q}")


def _check_doubling_input(cfg: Thm3Config, spec: FieldSpec):
    if spec.p != 2:
        raise InvalidFamilyInput("doubling families require characteristic 2")
    check_doubling_shape(cfg.pairs)
    for s, k in cfg.pairs:
        if not is_q_even(s, spec):
            raise InvalidFamilyInput(f"entry {s} is not q-even for q={spec.q}")
        if k > 1 and not is_q_even(2 * s, spec):
            raise InvalidFamilyInput(f"doubled entry {2*s} is not q-even")


def gen_thm2(s: Composition, spec: FieldSpec) -> FormalRelation:
    """Alternating permutation relation on a distinct q-even tuple of odd
    depth; n! single-factor terms."""
    _check_perm_input(s, spec)
    return FormalRelation.from_generators(signed_perm_generators(s.entries),
                                          "thm2", spec)


def gen_thm3(cfg: Thm3Config, spec: FieldSpec) -> FormalRelation:
    """Characteristic-2 doubling relation from multiplicity pairs."""
    _check_doubling_input(cfg, spec)
    return FormalRelation.from_generators(doubling_generators(cfg.pairs),
                                          "thm3", spec)


def gen_thmA(s: Composition, spec: FieldSpec) -> FormalRelation:
    """Permutation-sum product identity, valid at every truncation level."""
    _check_perm_input(s, spec)
    return FormalRelation.from_generators(
        signed_perm_identity_generators(s.entries), "thmA", spec)


def gen_thmB(cfg: Thm3Config, spec: FieldSpec) -> FormalRelation:
    """Doubling product identity (characteristic 2), valid at every
    truncation level."""
    _check_doubling_input(cfg, spec)
    return FormalRelation.from_generators(
        doubling_identity_generators(cfg.pairs), "thmB", spec)


def is_trivial_zero(s: Composition, v: Poly, spec: FieldSpec) -> bool:
    """Structural vanishing test for mixed-sign tuples at depth > 1: a
    negative entry too deep in the tuple forces every chain to hit a
    vanishing power sum."""
    entries = s.entries
    r = len(entries)
    if r <= 1:
        return False
    dv = v.degree()

    @cache
    def L(m: int) -> int:
        return vanish_degree(m, spec, default_vanish_cap(m, spec))

    neg = [i for i in range(1, r + 1) if entries[i - 1] < 0]
    for i in neg:
        if r - i > L(-entries[i - 1]) + dv:
            return True
    for i in neg:
        if dv > r - i > L(-entries[i - 1]):
            for j in neg:
                if i - j > L(-entries[j - 1]):
                    return True
    return False


# -- evaluation ------------------------------------------------------------------


def sum_of_products(ring, generators, value):
    """Sum of coeff * prod value(node) over (coeff, nodes) generators, in a
    ring with the zero/one/add/mul/scale protocol; value is called once per
    distinct node, and an empty product is one."""
    values = {}
    acc = ring.zero()
    for coeff, nodes in generators:
        prod = None
        for node in nodes:
            x = values.get(node)
            if x is None:
                x = values[node] = value(node)
            prod = x if prod is None else ring.mul(prod, x)
        acc = ring.add(acc, ring.scale(ring.one() if prod is None else prod,
                                       coeff))
    return acc


@dataclass(frozen=True)
class TruncatedExact:
    D: int
    star: bool = False

    def __post_init__(self):
        if self.D < 1:
            # no chain has a top index below 0: the value would be an
            # empty sum, and a vacuous Zero
            raise InvalidEvaluator(f"D={self.D} must be >= 1")

    def carrier(self, spec: FieldSpec):
        """(ring, D, h): the ring of the value, the level it sums below and
        the table h(d, k) of its chain-sum DP."""
        return exact_ring(spec), self.D, partial(_exact_frac, spec)

    def verdict(self, acc):
        value = acc.to_ratfn()
        return value, Verdict("Zero" if value.is_zero() else "NonZero")


@dataclass(frozen=True)
class Finite:
    v: Poly
    star: bool = False

    def carrier(self, spec: FieldSpec):
        return (ResidueRing(self.v, 1), self.v.degree(),
                lambda d, k: _residue_sum(spec, d, k, self.v, 1))

    def verdict(self, acc):
        return acc, Verdict("Zero" if acc.is_zero() else "NonZero")


@dataclass(frozen=True)
class Vadic:
    """The v-adic value mod v^N, always at the exact bound
    D = N*deg(v)+1 (``zeta.exact_bound``): past it the chain sum does not
    change, and below it a zero would be a vacuous ValuationAtLeast(N)."""
    v: Poly
    N: int
    star: bool = False

    def carrier(self, spec: FieldSpec):
        return (ResidueRing(self.v, self.N), exact_bound(self.v, self.N),
                lambda d, k: _residue_sum(spec, d, k, self.v, self.N))

    def verdict(self, acc):
        # a nonzero residue mod v^N has valuation < N
        if acc.is_zero():
            return acc, Verdict("ValuationAtLeast", self.N)
        return acc, Verdict("NonZero")


@dataclass(frozen=True)
class Verdict:
    kind: str  # "Zero" | "NonZero" | "ValuationAtLeast"
    n: int | None = None

    def __str__(self) -> str:
        if self.kind == "ValuationAtLeast":
            return f"ValuationAtLeast({self.n})"
        return self.kind

    @property
    def passed(self) -> bool:
        return self.kind in ("Zero", "ValuationAtLeast")


# another name for the store ``_factor_value`` reads, kept because
# perfbench's tracer reads its size by this name
_residue_factor_cache = zeta._trunc_cache


def _factor_value(node, D: int, star: bool, ring, h):
    """P[D] of the table of a node, (kind, entries) as in
    ``zeta._top_terms``, in the process store ``zeta._trunc_cache``."""
    kind, entries = node
    return zeta._top_terms(entries, D, star, ring, h, zeta._trunc_cache,
                           kind)[D]


def evaluate_relation(rel: FormalRelation, evaluator) -> tuple[object, Verdict]:
    """Sum of coeff * product of node values over the relation's
    generators, in the evaluator's carrier; returns (value, verdict)."""
    if not isinstance(evaluator, (TruncatedExact, Finite, Vadic)):
        raise InvalidEvaluator(f"unknown evaluator {evaluator!r}")
    ring, D, h = evaluator.carrier(rel.spec)
    return evaluator.verdict(sum_of_products(
        ring, rel.generators,
        lambda node: _factor_value(node, D, evaluator.star, ring, h)))
