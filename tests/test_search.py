import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import (Composition, FieldSpec, FormalRelation, SearchScope,
                   Vadic, compare_with_universal, enumerate_tuples,
                   evaluate_relation, find_relations, is_q_even, parse_poly,
                   stack_rank, vadic_mzv_auto, value_matrix)
from ffmzv import zeta
from ffmzv.errors import InvalidScope, ScopeMismatch
from ffmzv.linalg import echelon
from ffmzv.search import _universal_relations

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
F4 = FieldSpec.parse("q=4")
T2 = parse_poly("t", F2)
T3 = parse_poly("t", F3)


def test_enumerate_tuples_pinned():
    scope = SearchScope(F3, T3, weight_max=4, depth_max=2, N=2)
    assert [c.entries for c in enumerate_tuples(scope)] == \
        [(2,), (4,), (2, 2)]
    scope = SearchScope(F2, T2, weight_max=2, depth_max=2, N=2)
    assert [c.entries for c in enumerate_tuples(scope)] == \
        [(1,), (2,), (1, 1)]


def test_enumerate_tuples_negatives():
    scope = SearchScope(F2, T2, weight_max=2, depth_max=1, N=2,
                        include_negatives=True)
    assert [c.entries for c in enumerate_tuples(scope)] == \
        [(-2,), (-1,), (1,), (2,)]


def _product_and_filter(scope):
    """Reference enumeration: every |values|^depth product, filtered by
    weight and sorted."""
    values = [e for e in range(1, scope.weight_max + 1)
              if not scope.q_even_only or is_q_even(e, scope.spec)]
    if scope.include_negatives:
        values += [-e for e in values]
    out = [entries for depth in range(1, scope.depth_max + 1)
           for entries in itertools.product(sorted(values), repeat=depth)
           if sum(abs(e) for e in entries) <= scope.weight_max]
    return sorted(out, key=lambda e: (len(e), e))


@pytest.mark.parametrize("spec,v", [(F2, T2), (F3, T3)])
@pytest.mark.parametrize("negatives", [False, True])
@pytest.mark.parametrize("q_even_only", [True, False])
def test_enumerate_tuples_matches_product_and_filter(spec, v, negatives,
                                                     q_even_only):
    for w in range(1, 9):
        for d in range(1, 6):
            scope = SearchScope(spec, v, weight_max=w, depth_max=d, N=2,
                                q_even_only=q_even_only,
                                include_negatives=negatives)
            assert [c.entries for c in enumerate_tuples(scope)] == \
                _product_and_filter(scope), (w, d)


def test_invalid_scope():
    with pytest.raises(InvalidScope):
        SearchScope(F2, T2, weight_max=0, depth_max=1, N=2)
    with pytest.raises(InvalidScope):
        SearchScope(F2, T2, weight_max=2, depth_max=0, N=2)
    with pytest.raises(InvalidScope):
        SearchScope(F2, T2, weight_max=2, depth_max=1, N=0)


def test_qeven_depth1_column_is_zero():
    # depth-1 q-even values vanish v-adically, so their columns are zero
    scope = SearchScope(F3, T3, weight_max=4, depth_max=1, N=3)
    matrix, values = value_matrix(enumerate_tuples(scope), scope)
    assert matrix.rows == 3 and matrix.cols == len(values) == 2
    assert all(set(row) == {0} for row in matrix.entries)
    assert all(x.is_zero() for x in values)


@pytest.mark.parametrize("scope", [
    SearchScope(F2, T2, weight_max=5, depth_max=3, N=3),
    SearchScope(F2, parse_poly("t^2+t+1", F2), weight_max=4, depth_max=3,
                N=2, include_negatives=True),
    SearchScope(F3, parse_poly("t^2+1", F3), weight_max=6, depth_max=3, N=2),
    SearchScope(F4, parse_poly("t+a", F4), weight_max=9, depth_max=3, N=3),
], ids=["q2-t", "q2-t2+t+1-negatives", "q3-t2+1", "q4-t+a"])
def test_value_matrix_columns_are_the_vadic_values(scope, monkeypatch):
    """Each column, and its coordinates in the matrix, is the value of the
    zeta API ``vadic_mzv_auto``, computed afresh in a store of its own."""
    tuples = enumerate_tuples(scope)
    matrix, values = value_matrix(tuples, scope)
    monkeypatch.setattr(zeta, "_trunc_cache", {})
    m = scope.N * scope.v.degree()
    assert matrix.rows == m and len(values) == matrix.cols == len(tuples)
    for j, s in enumerate(tuples):
        want = vadic_mzv_auto(scope.v, s, scope.N, False, scope.spec).value
        assert values[j] == want, s
        assert [row[j] for row in matrix.entries] == \
            [want.rep.coeff_index(i) for i in range(m)], s


def test_structural_zeros_are_unit_relations_on_zero_columns():
    """The q = 3 scope of all tuples with negatives has 16 structural
    zeros, each a unit relation of the universal set on a zero column."""
    scope = SearchScope(F3, parse_poly("t^2+1", F3), weight_max=6,
                        depth_max=3, N=2, q_even_only=False,
                        include_negatives=True)
    tuples = enumerate_tuples(scope)
    matrix, values = value_matrix(tuples, scope)
    index = {s.entries: j for j, s in enumerate(tuples)}
    zeros = [rel.terms for rel in _universal_relations(scope, tuples)
             if rel.tag == "custom"]
    assert len(zeros) == 16
    assert ((1, ((-1, -1, -2),)),) in zeros
    assert ((1, ((-3, -1, 2),)),) in zeros
    for ((coeff, (factor,)),) in zeros:
        j = index[factor]
        assert coeff == 1 and values[j].is_zero()
        assert all(row[j] == 0 for row in matrix.entries), factor


def test_found_relations_are_sound():
    scope = SearchScope(F2, T2, weight_max=4, depth_max=3, N=2)
    rels = find_relations(scope)
    assert rels
    for rel in rels:
        _, verdict = evaluate_relation(rel, Vadic(T2, N=2))
        assert verdict.passed, rel.terms


def test_precision_monotonicity():
    # relations found at higher precision remain relations at lower precision
    lo = SearchScope(F2, T2, weight_max=4, depth_max=3, N=2)
    hi = SearchScope(F2, T2, weight_max=4, depth_max=3, N=3)
    n_lo = len(find_relations(lo))
    n_hi = len(find_relations(hi))
    assert n_hi <= n_lo
    for rel in find_relations(hi):
        _, verdict = evaluate_relation(rel, Vadic(T2, N=2))
        assert verdict.passed


def test_small_scope_containment():
    scope = SearchScope(F2, T2, weight_max=4, depth_max=3, N=2)
    rels = find_relations(scope)
    report = compare_with_universal(rels, scope)
    assert report["containment"] is True
    assert report["dim_found"] == len(rels)
    assert report["dim_universal"] <= report["dim_found"]
    assert report["residual"] == report["dim_found"] - report["dim_universal"]
    assert report["unstabilized_columns"] == []


def test_describe_is_json_ready():
    import json
    scope = SearchScope(F3, T3, weight_max=4, depth_max=2, N=2)
    json.dumps(scope.describe(), sort_keys=True)


def relation_vector(rel, index, spec, cols):
    """A single-factor relation as a dense vector over the scope's columns."""
    vec = [0] * cols
    for coeff, (factor,) in rel.terms:
        vec[index[factor]] = spec.add(vec[index[factor]], coeff % spec.q)
    return vec


@pytest.mark.parametrize("w,d,N,dim", [(6, 3, 6, 35), (8, 4, 6, 156)])
def test_dim_found_is_the_rank_of_the_found_relations(w, d, N, dim):
    """find_relations returns an independent basis, so the report's
    dim_found (its length) is the rank of the found vectors."""
    scope = SearchScope(F2, T2, weight_max=w, depth_max=d, N=N)
    found = find_relations(scope)
    tuples = enumerate_tuples(scope)
    index = {s.entries: j for j, s in enumerate(tuples)}
    vecs = [relation_vector(r, index, F2, len(tuples)) for r in found]
    assert compare_with_universal(found, scope)["dim_found"] == \
        stack_rank(F2, vecs) == dim


@pytest.mark.parametrize("spec,v,w,d,N", [(F2, T2, 4, 3, 2),
                                           (F3, T3, 6, 3, 2)])
def test_containment_fails_when_a_found_relation_is_dropped(spec, v, w, d, N):
    """With one found relation left out, containment is whether the
    universal vectors still lie in the span of the rest."""
    scope = SearchScope(spec, v, weight_max=w, depth_max=d, N=N)
    found = find_relations(scope)
    tuples = enumerate_tuples(scope)
    index = {s.entries: j for j, s in enumerate(tuples)}
    vecs = [relation_vector(r, index, spec, len(tuples)) for r in found]
    universal = [relation_vector(r, index, spec, len(tuples))
                 for r in _universal_relations(scope, tuples)]
    verdicts = set()
    for i in range(len(found)):
        kept = vecs[:i] + vecs[i + 1:]
        contained = stack_rank(spec, kept + universal) == len(kept)
        report = compare_with_universal(found[:i] + found[i + 1:], scope)
        assert report["containment"] is contained, found[i].terms
        verdicts.add(contained)
    assert verdicts == {True, False}


@st.composite
def mostly_unit_vectors(draw):
    """Unit vectors on random columns (repeats and rescalings included),
    mixed with dense and zero vectors, over F_2, F_3 or F_4."""
    spec = draw(st.sampled_from([F2, F3, F4]))
    cols = draw(st.integers(1, 12))
    entry = st.integers(0, spec.q - 1)
    vectors = []
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.booleans()):
            vec = [0] * cols
            vec[draw(st.integers(0, cols - 1))] = draw(st.integers(1,
                                                                   spec.q - 1))
        else:
            vec = draw(st.lists(entry, min_size=cols, max_size=cols))
        vectors.append(vec)
    return spec, vectors


@settings(max_examples=150, deadline=None)
@given(mostly_unit_vectors())
def test_echelon_rank_of_mostly_unit_vectors_matches_stack_rank(case):
    spec, vectors = case
    rows = echelon(spec, [[(c, a) for c, a in enumerate(vec) if a]
                          for vec in vectors])
    assert len(rows) == stack_rank(spec, vectors)


SMALL = SearchScope(F2, T2, weight_max=4, depth_max=3, N=2)


@pytest.mark.parametrize("rel", [
    # a two-factor term, zeta(1) zeta(2)
    FormalRelation(terms=((1, ((1,), (2,))),), tag="custom", spec=F2),
    # a factor outside the scope (weight 5 > 4)
    FormalRelation(terms=((1, ((1,),)), (1, ((5,),))), tag="custom", spec=F2),
    # a relation over F_4 for a scope over F_2
    FormalRelation(terms=((1, ((1,),)),), tag="custom", spec=F4),
], ids=["two-factors", "outside-scope", "other-field"])
def test_compare_refuses_relations_outside_the_scan_space(rel):
    with pytest.raises(ScopeMismatch):
        compare_with_universal([rel], SMALL)
