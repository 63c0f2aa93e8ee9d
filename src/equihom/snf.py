"""Exact integer linear algebra: sparse matrices and their Smith normal form.

All arithmetic uses Python integers, so entries may grow without bound during
elimination.  The Smith form runs in two phases: a sparse phase that eliminates
unit pivots (which covers almost every pivot of the boundary matrices arising
from cell complexes), and a dense textbook phase on whatever small block
survives.  The sparse phase takes the shortest row that holds a +-1 entry and,
within it, the unit with the shortest column; rows known to hold no unit are
skipped until an elimination step changes them, so choosing a pivot never
rescans the matrix.  Invariant factors are unique, so the pivot order does not
change the result.  Nor does the orientation: a matrix with more rows than
columns is transposed before the sparse phase, which then runs on the wide
side, where its row heap does less bookkeeping.  The sparse phase records the
original column of each unit pivot (``SmithResult.pivot_columns``): the pivot's
working row when the matrix was transposed, its working column otherwise.  A
cochain complex uses them to clear the coboundary below (``zz2``).
"""

import heapq
import math


class SparseMat:
    """Integer matrix stored as one dict per row (column index -> entry)."""

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    def nnz(self):
        return sum(len(r) for r in self.rows)


class SmithResult:
    """Invariant factors d_1 | d_2 | ... (all positive) and the rank.

    ``pivot_columns`` lists, in elimination order, the column of the input
    matrix that each unit pivot of the sparse phase eliminated.  The index is
    always one of the input's columns, also when the matrix was transposed
    and the pivot was a working row.  Their number is the count of invariant
    factors found by the sparse phase; the others come from the dense
    residual block.
    """

    def __init__(self, invariants, pivot_columns=()):
        self.invariants = tuple(invariants)
        self.rank = len(self.invariants)
        self.pivot_columns = pivot_columns

    @property
    def torsion(self):
        return tuple(d for d in self.invariants if d > 1)

    def __repr__(self):
        return f"SmithResult(invariants={self.invariants})"


def smith_normal_form(matrix):
    """Invariant factors of an integer matrix; deterministic pivot choice.

    ``matrix`` is a SparseMat; a tall one is transposed first.  Only the
    invariant factors, the rank and the pivot columns of the sparse phase
    are computed, not the transforms.
    """
    transposed = matrix.nrows > matrix.ncols
    if transposed:
        rows = {}
        for i, r in enumerate(matrix.rows):
            for j, v in r.items():
                rows.setdefault(j, {})[i] = v
    else:
        rows = {i: dict(r) for i, r in enumerate(matrix.rows) if r}
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    # Candidate pivot rows keyed by (length, row index).  An entry goes stale
    # when its row changes length or is dropped, and is skipped when popped.
    queue = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(queue)
    no_unit = set()

    pivot_columns = []
    # Phase 1: eliminate entries of absolute value 1.  The pivot row is the
    # shortest row holding a unit (lowest index first), and the pivot is its
    # unit with the shortest column, which keeps fill-in low.  A row found to
    # hold no unit is skipped until an elimination step changes it.
    while queue:
        length, pi = heapq.heappop(queue)
        pivot_row = rows.get(pi)
        if pivot_row is None or len(pivot_row) != length or pi in no_unit:
            continue
        units = [(len(cols[j]), j) for j, v in pivot_row.items()
                 if v == 1 or v == -1]
        if not units:
            no_unit.add(pi)
            continue
        _, pj = min(units)
        s = pivot_row[pj]
        for i in list(cols[pj]):
            if i == pi:
                continue
            r = rows[i]
            factor = r[pj] * s
            for j, v in pivot_row.items():
                c = r.get(j, 0) - factor * v
                if c:
                    if j not in r:
                        cols.setdefault(j, set()).add(i)
                    r[j] = c
                else:
                    if j in r:
                        del r[j]
                        cols[j].discard(i)
            no_unit.discard(i)
            if r:
                heapq.heappush(queue, (len(r), i))
            else:
                del rows[i]
        # Column pj now meets only row pi, and clearing row pi with column
        # operations touches no other row, so dropping the row and column is a
        # valid Smith reduction step contributing the invariant factor 1.
        for j in pivot_row:
            cols[j].discard(pi)
            if not cols[j]:
                del cols[j]
        del rows[pi]
        pivot_columns.append(pi if transposed else pj)

    invariants = [1] * len(pivot_columns)
    if rows:
        # Phase 2: dense Smith form of the small residual block.
        row_ids = sorted(rows)
        col_ids = sorted({j for r in rows.values() for j in r})
        dense = [[rows[i].get(j, 0) for j in col_ids] for i in row_ids]
        invariants.extend(_dense_smith_invariants(dense))
    return SmithResult(invariants, pivot_columns)


def _dense_smith_invariants(a):
    """Invariant factors of a dense matrix, via diagonalization."""
    diag = _diagonalize(a)
    diag = [abs(d) for d in diag if d]
    # enforce the divisibility chain with pairwise gcd/lcm replacement
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return sorted(diag)


def _diagonalize(a):
    """Diagonalize ``a`` in place by unimodular row/column operations.

    Returns the diagonal.
    """
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, k, q):
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]

    def col_op(j, k, q):
        for row in a:
            row[j] -= q * row[k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]

    top = 0
    while True:
        pi = pj = None
        best = None
        for i in range(top, m):
            row = a[i]
            for j in range(top, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        row_swap(top, pi)
        col_swap(top, pj)
        while True:
            p = a[top][top]
            restart = False
            for i in range(top + 1, m):
                if a[i][top]:
                    row_op(i, top, a[i][top] // p)
                    if a[i][top]:
                        row_swap(top, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    col_op(j, top, a[top][j] // p)
                    if a[top][j]:
                        col_swap(top, j)
                        restart = True
                        break
            if not restart:
                break
        if a[top][top] < 0:
            for j in range(n):
                a[top][j] = -a[top][j]
        top += 1
    return [a[i][i] for i in range(min(m, n))]


def gf2_rank(rows):
    """Rank over GF(2) of a matrix given as a list of bitmask integers.

    The basis is kept by each pivot row's lowest set bit; a row is reduced
    only against the pivots at its own lowest bit, which strictly raises
    that bit, until it is zero or starts a new pivot.
    """
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)
