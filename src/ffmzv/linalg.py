"""F_q linear algebra: dense row reduction and rank, sparse kernel bases
and sparse echelon rows."""

from __future__ import annotations

from .fields import FieldSpec
from .poly import Poly


class FqMatrix:
    """Rectangular matrix of F_q element indices."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, entries: list[list[int]], cols: int | None = None):
        self.spec = spec
        self.entries = [list(r) for r in entries]
        self.rows = len(self.entries)
        if self.rows:
            widths = {len(r) for r in self.entries}
            if len(widths) != 1:
                raise ValueError("ragged matrix")
            self.cols = widths.pop()
        else:
            self.cols = cols if cols is not None else 0

    def mat_vec(self, x: list[int]) -> list[int]:
        fq = self.spec
        out = []
        for row in self.entries:
            acc = 0
            for a, b in zip(row, x):
                if a and b:
                    acc = fq.add(acc, fq.mul(a, b))
            out.append(acc)
        return out

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column list).

        Each row is held as a packed Poly whose t^c coefficient is column c,
        so a row operation is one Poly subtraction of a scaled row, and the
        next pivot is the first remaining row of least leading column.
        """
        fq = self.spec
        m = [Poly.from_indices(fq, row) for row in self.entries]
        pivots: list[int] = []
        for r in range(len(m)):
            leads = [(x.low_degree(), i) for i, x in enumerate(m[r:], r)
                     if not x.is_zero()]
            if not leads:
                break
            c, pivot = min(leads)
            m[r], m[pivot] = m[pivot], m[r]
            m[r] = row = m[r].scale(fq.inv(m[r].coeff_index(c)))
            for i in range(len(m)):
                if i != r and (f := m[i].coeff_index(c)):
                    m[i] = m[i] - row.scale(f)
            pivots.append(c)
        return [x.coeff_indices() + [0] * (self.cols - 1 - x.degree())
                for x in m[:len(pivots)]], pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def nullspace(M: FqMatrix) -> list[list[tuple[int, int]]]:
    """Basis of {x : M x = 0}, read off the reduced echelon form: one vector
    per free column, in ascending free-column order, each the list of its
    nonzero (column, coefficient) pairs in ascending column order, ending
    in (free, 1).  The result is deterministic and has length cols - rank.
    """
    fq = M.spec
    rows, pivots = M.rref()
    basis = {f: [] for f in range(M.cols) if f not in pivots}
    # x_pc = -rows[r][f]; row r is zero left of its pivot pc, so each free
    # column gets its pairs in ascending pivot order, all before (f, 1)
    for pc, row in zip(pivots, rows):
        for f, a in enumerate(row):
            if a and f in basis:
                basis[f].append((pc, fq.neg(a)))
    return [vec + [(f, 1)] for f, vec in basis.items()]


def stack_rank(spec: FieldSpec, vectors: list[list[int]]) -> int:
    """Rank of a list of row vectors over F_q."""
    if not vectors:
        return 0
    return FqMatrix(spec, vectors).rank()


def echelon(spec: FieldSpec, vectors: list[list[tuple[int, int]]],
            rows: dict[int, list[tuple[int, int]]] | None = None
            ) -> dict[int, list[tuple[int, int]]]:
    """Echelon rows of ``rows`` extended by ``vectors``, each a list of
    (column, coefficient) pairs in distinct columns, as ``nullspace`` gives
    them.  A row is keyed by its last column and ends in coefficient 1; each
    vector is reduced from its last column down against the rows, and a
    nonzero remainder becomes a new row.  Rows with distinct last columns
    are independent, so the rank is the number of rows.  Returns a new
    dict; ``rows`` is left unchanged.
    """
    rows = dict(rows or {})
    for vec in vectors:
        x = {c: a for c, a in vec if a}
        while x:
            last = max(x)
            if last not in rows:
                inv = spec.inv(x[last])
                rows[last] = [(c, spec.mul(inv, x[c])) for c in sorted(x)]
                break
            f = spec.neg(x[last])
            for c, a in rows[last]:
                if y := spec.add(x.get(c, 0), spec.mul(f, a)):
                    x[c] = y
                else:
                    x.pop(c, None)
    return rows
