"""Exact linear algebra over the coefficient fields.

``rank_mod_p`` is the exact rank over GF(p): it counts the pivots of
``eliminate``, a sparse elimination on rows held as ``{column: residue}``
dicts with Python-int arithmetic, so it is exact for every prime and costs
time and memory in proportion to the nonzeros (the Hilbert matrices hold
about three per row).  ``rank_naive``, row reduction with explicit field
arithmetic over any field, is its independent oracle in the tests.
``det_poly`` computes determinants of polynomial matrices by sparse cofactor
expansion, which is exact and fast on the near-diagonal matrices arising
from the Jacobian and chart checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .poly import Poly, PolyError


class SparseRows(list):
    """A matrix as a list of ``{column: value}`` row dicts (zeros left out)
    together with its ``shape = (nrows, ncols)``."""

    def __init__(self, rows: Sequence[Dict[int, int]], shape: Tuple[int, int]):
        super().__init__(rows)
        self.shape = shape


Pivots = Dict[int, Dict[int, int]]


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over GF(p) of an integer matrix, given as a 2-D array-like
    or as ``SparseRows``: the number of pivots ``eliminate`` finds."""
    if not isinstance(matrix, SparseRows):
        # int() turns numpy integers into Python ints, which never overflow
        matrix = [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]
    return len(eliminate(matrix, p))


def eliminate(rows: Iterable[Dict[int, int]], p: int) -> Pivots:
    """The pivot rows, keyed by leading column, of the integer rows
    ``{column: value}`` over GF(p); their number is the rank.

    Each row in turn is reduced by the pivot row of its leading column until
    it leads a column no pivot holds (it becomes that column's pivot,
    normalised to a leading 1) or it vanishes.  Python ints keep every
    product exact.
    """
    pivots: Pivots = {}
    for given in rows:
        row = {c: v % p for c, v in given.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = p - row[lead]
            for c, v in pivot.items():
                x = (row.get(c, 0) + f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return pivots


def rank_naive(matrix: Sequence[Sequence[object]], domain) -> int:
    """Row reduction with explicit field arithmetic; the oracle path."""
    m = [[domain.coerce(x) for x in row] for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = domain.one() / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def det_poly(matrix: List[List[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion along the sparsest row of the live submatrix; the
    matrices this package meets are sparse enough that the recursion stays
    near-linear in the permanent support.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PolyError("determinant of a non-square matrix")
    if n == 0:
        raise PolyError("determinant of an empty matrix")
    ambient, domain = matrix[0][0].ambient, matrix[0][0].domain
    zero = Poly.zero(ambient, domain)

    def expand(rows: tuple, cols: tuple) -> Poly:
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        best, best_count = None, None
        for ri, r in enumerate(rows):
            count = sum(1 for c in cols if matrix[r][c])
            if best_count is None or count < best_count:
                best, best_count = ri, count
                if count <= 1:
                    break
        if best_count == 0:
            return zero
        r = rows[best]
        rest_rows = rows[:best] + rows[best + 1:]
        acc = zero
        for ci, c in enumerate(cols):
            entry = matrix[r][c]
            if not entry:
                continue
            minor = expand(rest_rows, cols[:ci] + cols[ci + 1:])
            if minor.is_zero():
                continue
            term = entry * minor
            if (best + ci) % 2:
                term = -term
            acc = acc + term
        return acc

    idx = tuple(range(n))
    return expand(idx, idx)
