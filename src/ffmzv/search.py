"""Relation search at fixed v-adic precision: enumerate exponent tuples,
coordinate their v-adic values over F_q, take the nullspace, and compare the
found relations with the span of the universal families plus structural
zeros.  Each column is the value of one tuple node, read through the
``zeta.Vadic`` carrier by the one node evaluator, ``zeta._factor_value``,
so a found relation and its ``verify`` read the same values.

Relations found this way are precision-relative ("mod v^N candidates"); only
the containment of the generated families is asserted exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .errors import InvalidFamilyInput, InvalidScope, ScopeMismatch
from .fields import FieldSpec
from .linalg import FqMatrix, echelon, nullspace
from .poly import Poly
from .relations import (FormalRelation, Thm3Config, gen_thm2, gen_thm3,
                        is_q_even, is_trivial_zero)
from .residue import ResidueElem
from .zeta import Composition, Vadic, _factor_value


@dataclass(frozen=True)
class SearchScope:
    spec: FieldSpec
    v: Poly
    weight_max: int
    depth_max: int
    N: int
    q_even_only: bool = True
    include_negatives: bool = False

    def __post_init__(self):
        if self.weight_max < 1:
            raise InvalidScope("weight_max must be >= 1")
        if self.depth_max < 1:
            raise InvalidScope("depth_max must be >= 1")
        if self.N < 1 or self.N * self.v.degree() < 1:
            raise InvalidScope("need N * deg(v) >= 1")

    def describe(self) -> dict:
        return {
            "q": self.spec.q,
            "v": str(self.v),
            "weight_max": self.weight_max,
            "depth_max": self.depth_max,
            "N": self.N,
            "q_even_only": self.q_even_only,
            "include_negatives": self.include_negatives,
        }


def enumerate_tuples(scope: SearchScope) -> list[Composition]:
    """All in-scope compositions, ordered by (depth, entries)."""
    spec = scope.spec
    values = [e for e in range(1, scope.weight_max + 1)
              if not scope.q_even_only or is_q_even(e, spec)]
    if scope.include_negatives:
        values += [-e for e in values]
    values.sort()
    least = min((abs(e) for e in values), default=1)

    def bounded(depth, budget):
        """Tuples of depth entries with sum |e| <= budget, in lexicographic
        order; only entries that leave room for the rest are tried."""
        if depth == 0:
            yield ()
            return
        room = budget - (depth - 1) * least
        for e in values:
            if abs(e) <= room:
                for rest in bounded(depth - 1, budget - abs(e)):
                    yield (e,) + rest

    return [Composition(entries) for depth in range(1, scope.depth_max + 1)
            for entries in bounded(depth, scope.weight_max)]


def value_matrix(tuples: list[Composition],
                 scope: SearchScope) -> tuple[FqMatrix, list[ResidueElem]]:
    """Matrix whose column j holds the F_q coordinates, on the basis
    {t^i mod v^N}, of tuple j's v-adic value at precision N, exact at the
    bound D = N*deg(v)+1 of the ``Vadic`` carrier; with the column values."""
    ring, D, h = Vadic(scope.v, scope.N).carrier(scope.spec)
    values = [_factor_value((None, s.entries), D, False, ring, h)
              for s in tuples]
    m = scope.N * scope.v.degree()
    rows = [[x.rep.coeff_index(i) for x in values] for i in range(m)]
    return FqMatrix(scope.spec, rows, cols=len(tuples)), values


def find_relations(scope: SearchScope) -> list[FormalRelation]:
    """Nullspace basis of the value matrix, one single-factor relation per
    basis vector (coefficients are F_q element indices)."""
    tuples = enumerate_tuples(scope)
    matrix, _ = value_matrix(tuples, scope)
    return [FormalRelation(terms=tuple((c, (tuples[j].entries,))
                                       for j, c in vec),
                           tag="custom", spec=scope.spec)
            for vec in nullspace(matrix)]


@cache
def _family_relations(spec: FieldSpec, weight_max: int,
                      depth_max: int) -> tuple[FormalRelation, ...]:
    """Every nonempty ``gen_thm2``/``gen_thm3`` instance on q-even entries
    of weight <= weight_max and depth <= depth_max; cached, as it depends on
    the scope only through these three."""
    evens = sorted(e for e in range(1, weight_max + 1) if is_q_even(e, spec))
    rels = [gen_thm2(Composition(combo), spec)
            for n in range(1, depth_max + 1, 2)
            for combo in itertools.combinations(evens, n)
            if sum(combo) <= weight_max]
    for phi in range(2, depth_max + 1):
        for s0 in itertools.combinations_with_replacement(evens, phi):
            if sum(s0) > weight_max:
                continue
            pairs = tuple(sorted((s, s0.count(s)) for s in set(s0)))
            try:
                rel = gen_thm3(Thm3Config(pairs), spec)
            except InvalidFamilyInput:
                continue
            if rel.terms:
                rels.append(rel)
    return tuple(rels)


def _universal_relations(scope: SearchScope,
                         tuples: list[Composition]) -> list[FormalRelation]:
    """All generated-family instances whose terms stay inside the scope's
    tuple list, plus unit relations for structural zeros."""
    spec = scope.spec
    in_scope = {s.entries for s in tuples}
    rels = [rel for rel in _family_relations(spec, scope.weight_max,
                                             scope.depth_max)
            if all(f in in_scope for _, fs in rel.terms for f in fs)]
    for s in tuples:
        if is_trivial_zero(s, scope.v, spec):
            rels.append(FormalRelation(terms=((1, (s.entries,)),),
                                       tag="custom", spec=spec))
    return rels


def _relation_pairs(rel: FormalRelation, index: dict[tuple, int],
                    spec: FieldSpec) -> list[tuple[int, int]]:
    """A relation as the (column, coefficient) pairs of its terms, or
    ``ScopeMismatch`` unless it is over ``spec`` and each term is one
    factor among the scope's tuples."""
    if rel.spec != spec:
        raise ScopeMismatch(f"relation over {rel.spec}, scope over {spec}")
    pairs = {}
    for coeff, factors in rel.terms:
        if len(factors) != 1:
            raise ScopeMismatch("only single-factor relations live in the scan space")
        if (j := index.get(factors[0])) is None:
            raise ScopeMismatch(f"tuple {factors[0]} outside scope")
        pairs[j] = spec.add(pairs[j], coeff) if j in pairs else coeff
    return list(pairs.items())


def compare_with_universal(found: list[FormalRelation],
                           scope: SearchScope) -> dict:
    """Report comparing the found nullspace with the universal span.

    ``found`` is a nullspace basis, as ``find_relations`` returns it, so its
    dimension is its length.  Found and universal relations go to
    ``echelon`` as (column, coefficient) pairs: ``dim_universal`` is the
    number of echelon rows of the universal relations, and containment
    holds when they add no row to the found relations' rows.  Every column
    is the exact value mod v^N, taken at the bound D = N*deg(v)+1, so
    containment of the universal span in the found span is theorem-backed
    and ``unstabilized_columns`` is always empty; the residual counts found
    directions beyond it.
    """
    tuples = enumerate_tuples(scope)
    index = {s.entries: j for j, s in enumerate(tuples)}
    spec = scope.spec
    found_rows = echelon(spec, [_relation_pairs(r, index, spec) for r in found])
    universal = [_relation_pairs(r, index, spec)
                 for r in _universal_relations(scope, tuples)]

    dim_found = len(found)
    dim_universal = len(echelon(spec, universal))
    containment = len(echelon(spec, universal, found_rows)) == len(found_rows)

    return {
        "scope": scope.describe(),
        "dim_found": dim_found,
        "dim_universal": dim_universal,
        "containment": containment,
        "residual": dim_found - dim_universal,
        "unstabilized_columns": [],
        "relations": [r.to_json_lines() for r in found],
    }
