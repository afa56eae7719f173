import copy
import random

from hypothesis import given, settings, strategies as st

from ffmzv import FieldSpec, FqMatrix, nullspace, stack_rank
from ffmzv.linalg import echelon

F2 = FieldSpec.parse("q=2")
F3 = FieldSpec.parse("q=3")
# q = 131 needs two-byte slots in the packed rows
SPECS = [FieldSpec.parse(f"q={q}") for q in (2, 3, 4, 9, 131)]


def reference_rref(fq, entries, cols):
    """Per-entry Gauss-Jordan elimination: the slow reference for rref."""
    m = [row[:] for row in entries]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = fq.inv(m[r][c])
        if inv != 1:
            m[r] = [fq.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [fq.sub(x, fq.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense(vec, cols):
    """A basis vector's (column, coefficient) pairs as a list of length cols."""
    out = [0] * cols
    for c, a in vec:
        out[c] = a
    return out


def reference_nullspace(spec, rows, pivots, cols):
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [0] * cols
        vec[free] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = spec.neg(row[free])
        basis.append(vec)
    return basis


@st.composite
def matrices(draw):
    """(spec, entries, cols): tall matrices up to 6 columns, or wide ones
    past 64 and 256 columns, whose rows are random, sparse, one or two
    nonzero entries in a few shared columns (so leading columns tie), zero,
    copies or combinations of earlier rows.  Entries come from a drawn seed."""
    spec = draw(st.sampled_from(SPECS))
    cols = draw(st.one_of(st.integers(1, 6),
                          st.sampled_from((63, 64, 65, 255, 256, 257, 300))))
    kinds = draw(st.lists(st.sampled_from(
        ("random", "sparse", "few", "zero", "copy", "combination")),
        max_size=20 if cols <= 6 else 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    hot = rng.sample(range(cols), min(cols, 4))  # the columns of "few" rows
    entries = []
    for kind in kinds:
        if kind == "zero" or (kind in ("copy", "combination") and not entries):
            row = [0] * cols
        elif kind == "copy":
            row = list(rng.choice(entries))
        elif kind == "combination":
            a, b = rng.choice(entries), rng.choice(entries)
            x, y = rng.randrange(spec.q), rng.randrange(spec.q)
            row = [spec.add(spec.mul(x, u), spec.mul(y, w))
                   for u, w in zip(a, b)]
        elif kind == "few":
            row = [0] * cols
            for j in rng.sample(hot, min(len(hot), rng.randint(1, 2))):
                row[j] = rng.randrange(1, spec.q)
        elif kind == "sparse":
            row = [rng.randrange(1, spec.q) if rng.random() < 0.1 else 0
                   for _ in range(cols)]
        else:
            row = [rng.randrange(spec.q) for _ in range(cols)]
        entries.append(row)
    return spec, entries, cols


def dense_nullspace(m):
    return [dense(vec, m.cols) for vec in nullspace(m)]


def test_nullspace_pinned_examples():
    assert dense_nullspace(FqMatrix(F2, [[1, 1], [0, 0]])) == [[1, 1]]
    assert dense_nullspace(FqMatrix(F3, [[1, 2], [2, 1]])) == [[1, 1]]


def test_nullspace_identity_and_zero():
    assert dense_nullspace(FqMatrix(F2, [[1, 0], [0, 1]])) == []
    assert dense_nullspace(FqMatrix(F2, [[0, 0], [0, 0]])) == [[1, 0], [0, 1]]
    assert dense_nullspace(FqMatrix(F2, [], cols=3)) == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank():
    # row 2 = 2 * row 1 mod 3, so only two independent rows
    assert FqMatrix(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]]).rank() == 2
    assert FqMatrix(F3, [[1, 2, 0], [2, 2, 0], [0, 0, 1]]).rank() == 3
    assert FqMatrix(F3, [[1, 2], [2, 4 % 3]]).rank() == 1
    assert stack_rank(F2, []) == 0
    assert stack_rank(F2, [[1, 1], [1, 1], [0, 1]]) == 2


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([F2, F3]), st.integers(1, 4), st.integers(1, 5), st.data())
def test_nullspace_vectors_are_in_kernel(spec, rows, cols, data):
    entries = [[data.draw(st.integers(0, spec.q - 1)) for _ in range(cols)]
               for _ in range(rows)]
    m = FqMatrix(spec, entries)
    pairs = nullspace(m)
    basis = [dense(vec, cols) for vec in pairs]
    assert len(basis) == cols - m.rank()
    for vec in basis:
        assert m.mat_vec(vec) == [0] * rows
    # basis vectors are independent
    assert stack_rank(spec, basis) == len(basis)
    # sparse form: ascending nonzero pairs ending in (free, 1), one vector
    # per non-pivot column
    frees = []
    for vec in pairs:
        columns = [c for c, _ in vec]
        assert columns == sorted(set(columns))
        assert all(a != 0 for _, a in vec)
        free, lead = vec[-1]
        assert lead == 1
        frees.append(free)
    assert frees == [c for c in range(cols) if c not in m.rref()[1]]


def test_mat_vec():
    m = FqMatrix(F3, [[1, 2], [0, 1]])
    assert m.mat_vec([1, 1]) == [0, 1]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_packed_elimination_matches_per_entry_reference(case):
    spec, entries, cols = case
    m = FqMatrix(spec, entries, cols=cols)
    rows, pivots = reference_rref(spec, entries, cols)
    assert m.rref() == (rows, pivots)
    assert m.rank() == len(pivots)
    assert stack_rank(spec, entries) == len(pivots)
    assert dense_nullspace(m) == reference_nullspace(spec, rows, pivots, cols)


def test_packed_elimination_on_zero_and_unnormalised_matrices():
    for spec in SPECS:
        for cols in (1, 65, 257):
            zero = FqMatrix(spec, [[0] * cols] * 3)
            assert zero.rref() == ([], [])
            assert len(nullspace(zero)) == cols
        # leading entries q - 1 and 2 once q > 3, a duplicated and a zero row
        a, b = spec.q - 1, 2 % spec.q
        entries = [[0, a, 1, 0], [0, a, 1, 0], [b, 0, 0, a], [0, 0, 0, 0]]
        assert FqMatrix(spec, entries).rref() == \
            reference_rref(spec, entries, 4)


def pairs(vec):
    """A dense vector's nonzero (column, coefficient) pairs."""
    return [(c, a) for c, a in enumerate(vec) if a]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_echelon_rank_matches_stack_rank(case):
    spec, entries, cols = case
    rows = echelon(spec, [pairs(row) for row in entries])
    assert len(rows) == stack_rank(spec, entries)
    # each row is keyed by its last column and ends in coefficient 1
    for last, row in rows.items():
        assert [c for c, _ in row] == sorted({c for c, _ in row})
        assert row[-1] == (last, 1) and all(a for _, a in row)


@settings(max_examples=100, deadline=None)
@given(matrices().filter(lambda case: case[2] <= 65),
       st.integers(0, 2 ** 32 - 1))
def test_echelon_containment_matches_the_rank_of_the_stack(case, seed):
    # vectors in and out of a nullspace basis's span: the matrix's own rows
    # and random combinations of the basis; up to 65 columns, so the rank
    # of the stacked reference stays cheap
    spec, entries, cols = case
    basis_pairs = nullspace(FqMatrix(spec, entries, cols=cols))
    basis = [dense(vec, cols) for vec in basis_pairs]
    rows = echelon(spec, basis_pairs)
    before = copy.deepcopy(rows)
    rng = random.Random(seed)
    vectors = [[spec.add(spec.mul(rng.randrange(spec.q), x), y)
                for x, y in zip(a, b)]
               for a, b in zip(basis, basis[1:] + basis[:1])]
    for vecs in [vectors, entries, entries[:1], []]:
        grown = echelon(spec, [pairs(vec) for vec in vecs], rows)
        assert (len(grown) == len(rows)) == \
            (stack_rank(spec, basis + vecs) == len(basis))
        assert rows == before


def test_echelon_pinned_rows():
    # the rows [1, 2, 0] and [0, 0, 2] over F_3, each scaled to end in 1
    rows = echelon(F3, [[(0, 1), (1, 2)], [(2, 2)]])
    assert rows == {1: [(0, 2), (1, 1)], 2: [(2, 1)]}
    # [2, 1, 1] lies in their span and adds no row; [0, 1, 0] does not
    assert echelon(F3, [[(0, 2), (1, 1), (2, 1)]], rows) == rows
    assert echelon(F3, [[(1, 1)]], rows) == {**rows, 0: [(0, 1)]}
    # a zero vector and a zero coefficient add nothing
    assert echelon(F2, [[], [(0, 0)]]) == {}
    # [1, 1] and [0, 1] end in the same column: the second reduces to [1, 0]
    assert echelon(F2, [[(0, 1), (1, 1)], [(1, 1)]]) == \
        {1: [(0, 1), (1, 1)], 0: [(0, 1)]}
    assert rows == {1: [(0, 2), (1, 1)], 2: [(2, 1)]}
