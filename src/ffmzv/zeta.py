"""Zeta values built from power sums: truncated (exact in F_q(t)), finite
(in F_v), and v-adic (in A/(v^N), exact from truncation degree N*deg(v)+1).

Every flavor is a multiple harmonic type sum with table h(d, s) = S_d(s) in
a carrier ring: F_q(t) for truncated values, a ``residue.ResidueRing`` for
the others (a finite value is the v-adic partial sum at N = 1 and
D = deg v).  The evaluators ``TruncatedExact``, ``Finite`` and ``Vadic`` are
the one place that picks a carrier: their ``carrier`` gives (ring, D, h),
and the zeta values here, the relations and the search columns all read
it, a node's value through ``_factor_value``.  One step (``_step``) of one
dynamic program over the top index serves every carrier and the generic
rings of ``harmonic.mht_sum``.  ``_top_terms`` walks it over a tuple's
suffixes, or over the sub-multisets of a multiset for the orderings nodes
of the relation generators, growing each node's table of prefix sums with
D; the tables are keyed by the ring, and the zeta values and the relations
keep theirs in ``_trunc_cache`` for the process.  A strict chain of r
entries has r distinct indices, so its prefix sums P[d] are zero for
d < r: the DP starts a strict node of r entries at level r - 1 and only
copies the zeros below it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate
from types import SimpleNamespace

from .errors import InvalidEvaluator, ParseError
from .fields import FieldSpec
from .lfrac import LFrac
from .poly import Poly, parse_int
from .power_sums import _exact_frac, _residue_sum
from .ratfn import RationalFn
from .residue import ResidueElem, ResidueRing


@dataclass(frozen=True)
class Composition:
    """Integer exponent tuple (s_1, ..., s_r)."""
    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("composition must be nonempty")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def parse_composition(text: str) -> Composition:
    """Parse "(1,2)", "1,2" or "(1,)": comma-separated integers (``parse_int``),
    with at most one trailing comma and no empty entry."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(",")
    if len(parts) > 1 and not parts[-1].strip():
        parts.pop()
    if not all(p.strip() for p in parts):
        raise ParseError(f"empty entry in composition literal: {text!r}")
    try:
        return Composition(tuple(parse_int(p) for p in parts))
    except ParseError as exc:
        raise ParseError(f"bad composition literal: {text!r}") from exc


@dataclass(frozen=True)
class TruncationConfig:
    D: int
    N: int = 1
    star: bool = False

    def __post_init__(self):
        # N first: vadic_mzv_auto derives D = N*deg(v)+1 from it
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.D < 1:
            raise ValueError("D must be >= 1")


@dataclass(frozen=True)
class StabilizationReport:
    value: ResidueElem
    stable_from: int
    stabilized: bool
    D: int


class _Ring(SimpleNamespace):
    # hashed by identity, as it keys its tables in ``_top_terms``
    __hash__ = object.__hash__


@cache
def exact_ring(spec: FieldSpec) -> SimpleNamespace:
    """F_q(t), on LFrac elements, in the zero/one/add/neg/mul/scale ring
    protocol; cached, so one ring per field."""
    zero, one = LFrac.zero(spec), LFrac.one(spec)
    return _Ring(zero=lambda: zero, one=lambda: one, add=operator.add,
                 neg=operator.neg, mul=operator.mul, scale=LFrac.scale)


def _top_terms(entries, D, star, ring, h, tables, orderings=None):
    """The prefix sums P[0..L], L >= D, of the top terms of a node: T[d]
    sums over its chains with top index exactly d the product of the table
    values h(d_i, e_i), and P[d] = T[0] + ... + T[d - 1], so P[D] is the
    chain sum below D.

    The node is ``entries`` read as a tuple when ``orderings`` is None, as
    a multiset summed over its distinct orderings when False, and as a set
    summed over all its orderings, each signed by its permutation, when
    True (ring must then give neg).  A pick (eps, e, rest) of a node puts
    e on top of the node ``rest`` of the same kind and adds
    eps * h(d, e) * P_rest[d] to T[d] (P_rest[d + 1] when star), through
    ``_step``: a tuple's one pick is its first entry, a multiset's are its
    distinct values, and a signed set's i-th entry has eps = (-1)^i.

    Every kind sums chains of r = len(entries) indices, strictly decreasing
    (weakly when star).  A strict chain has r distinct indices, so its top
    index is at least r - 1: a strict table has T[d] = 0 for d < r - 1 and
    P[d] = 0 for d < r (the zero-prefix rule), and ``_grow`` spends no ring
    operation on those cells.

    T of a node does not depend on D, so ``tables`` maps (ring, star,
    (orderings, entries)) to one table P per node, which a larger D only
    lengthens: a node's new cells d = L..D-1 need only the tables of the
    nodes below it, grown first, so the walk down stops at every table that
    already reaches D.  A node of one entry has the same table in every
    kind, so it is always keyed as a tuple: a depth-1 value and the
    singletons of an orderings walk share it.  The stored tables are
    shared, so callers must not mutate what this returns.
    """
    entries = tuple(sorted(entries) if orderings is False else entries)
    return _grow((orderings if len(entries) > 1 else None, entries), D, star,
                 ring, h, tables, {})


def _grow(node, D, star, ring, h, tables, rows):
    """The table of ``node`` in ``_top_terms``, grown to reach D; ``rows``
    maps (e, L) to [h(L, e), ..., h(D - 1, e)], built once per walk.

    By the zero-prefix rule of ``_top_terms`` (T[d] = 0 for d < r - 1), the
    new cells of a strict node of r entries start at lo = min(max(L, r - 1),
    D): cells L+1..lo copy the stored P[L], zero there, only d = lo..D-1
    cost ring operations, and at lo = D the nodes below are not grown.
    Star chains may repeat an index, so star tables start at lo = L."""
    key = (ring, star, node)
    sums = tables.get(key) or [ring.zero()]
    if len(sums) > D:
        return sums
    L = len(sums) - 1
    kind, entries = node
    lo = L if star else min(max(L, len(entries) - 1), D)
    top = ()
    for i, e in enumerate(() if lo == D else
                          entries[:1] if kind is None else entries):
        if kind is False and i and entries[i - 1] == e:
            continue  # one pick per distinct value
        row = rows.get((e, L))
        if row is None:
            row = rows[e, L] = [h(d, e) for d in range(L, D)]
        rest = entries[:i] + entries[i + 1:]
        pick = _step(_grow((kind if len(rest) > 1 else None, rest), D, star,
                           ring, h, tables, rows),
                     row[lo - L:], star, ring, lo) if rest else row
        if kind and i % 2:
            pick = list(map(ring.neg, pick))
        top = list(map(ring.add, top, pick)) if top else pick
    # stored as a new list: a table another caller is reading stays valid
    sums = tables[key] = sums + [sums[-1]] * (lo - L) + list(
        accumulate(top, ring.add, initial=sums[-1]))[1:]
    return sums


def _step(sums, top_row, star, ring, start=0):
    """The one chain-sum step: T[d] = top_row[d - start] times the sum of
    tail[d'] over d' < d (d' <= d when star), for d = start, start + 1, ...
    as far as top_row goes; ``sums`` are the tail's prefix sums P, with
    P[d] = sum of tail[d'] over d' < d, through P[d + 1] when star."""
    return list(map(ring.mul, top_row, sums[start + 1:] if star
                    else sums[start:] if start else sums))


# (ring, star, node) -> the node's table in ``_top_terms``; the ring is
# ``exact_ring(spec)`` for F_q(t) and the ResidueRing for A/(v^N), one
# object each
_trunc_cache: dict[tuple, list] = {}


def exact_bound(v: Poly, N: int) -> int:
    """N*deg(v) + 1, the least truncation degree at which the v-adic value
    mod v^N is exact: a coprime power sum of degree d > N*deg(v) vanishes
    mod v^N, and every chain with top index d_1 >= N*deg(v) + 1 has one as
    its first factor."""
    return N * v.degree() + 1


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
    """The value in F_v: the v-adic partial sum at N = 1 and D = deg v, as
    no monic of degree below deg v is a multiple of v."""
    v: Poly
    star: bool = False

    def carrier(self, spec: FieldSpec):
        ring = ResidueRing(self.v, 1)
        return ring, self.v.degree(), partial(_residue_sum, ring)

    def verdict(self, acc):
        return acc, Verdict("Zero" if acc.is_zero() else "NonZero")


@dataclass(frozen=True)
class Vadic:
    """The v-adic value mod v^N, always at the exact bound
    D = N*deg(v)+1 (``exact_bound``): past it the chain sum does not
    change, and below it a zero would be a vacuous ValuationAtLeast(N)."""
    v: Poly
    N: int
    star: bool = False

    def carrier(self, spec: FieldSpec):
        ring = ResidueRing(self.v, self.N)
        return ring, exact_bound(self.v, self.N), partial(_residue_sum, ring)

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


def _factor_value(node, D: int, star: bool, ring, h):
    """P[D] of the table of a node, (kind, entries) as in ``_top_terms``,
    in the process store ``_trunc_cache``."""
    kind, entries = node
    return _top_terms(entries, D, star, ring, h, _trunc_cache, kind)[D]


def _truncated_frac(D: int, s: Composition, star: bool,
                    spec: FieldSpec) -> LFrac:
    """The truncated value as an LFrac: P[D] of the table of s.entries."""
    ring, D, h = TruncatedExact(D, star).carrier(spec)
    return _top_terms(s.entries, D, star, ring, h, _trunc_cache)[D]


def truncated_mzv(D: int, s: Composition, star: bool, spec: FieldSpec) -> RationalFn:
    """Exact sum over chains D > d_1 > ... > d_r >= 0 of prod S_{d_i}(s_i)
    (weak inequalities when star)."""
    if D < 1:
        raise ValueError("D must be >= 1")
    return _truncated_frac(D, s, star, spec).to_ratfn()


def finite_mzv(v: Poly, s: Composition, star: bool,
               spec: FieldSpec) -> ResidueElem:
    """Sum over chains with d_1 < deg v, reduced mod v; element of F_v, read
    in the ``Finite`` carrier."""
    ring, D, h = Finite(v, star).carrier(spec)
    return _top_terms(s.entries, D, star, ring, h, _trunc_cache)[D]


def vadic_mzv(v: Poly, s: Composition, cfg: TruncationConfig,
              spec: FieldSpec) -> StabilizationReport:
    """Partial v-adic sum through top degree cfg.D - 1 at precision cfg.N,
    over coprime power sums, in the ``Vadic`` carrier; stabilized (exact)
    once cfg.D reaches its bound, exact_bound(v, cfg.N)."""
    ring, bound, h = Vadic(v, cfg.N, cfg.star).carrier(spec)
    # top terms from the bound on are zero: sum only up to it
    D = min(cfg.D, bound)
    sums = _top_terms(s.entries, D, cfg.star, ring, h, _trunc_cache)
    # the least level from which the partial sums stay at P[D]
    stable_from = D
    while stable_from > 1 and sums[stable_from - 1] == sums[D]:
        stable_from -= 1
    return StabilizationReport(value=sums[D], stable_from=stable_from,
                               stabilized=cfg.D >= bound, D=cfg.D)


def vadic_mzv_auto(v: Poly, s: Composition, N: int, star: bool,
                   spec: FieldSpec) -> StabilizationReport:
    """vadic_mzv at D = exact_bound(v, N), the least D where it is exact."""
    cfg = TruncationConfig(D=exact_bound(v, N), N=N, star=star)
    return vadic_mzv(v, s, cfg, spec)
