import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upv import linalg
from upv.ambient import AMBIENT_XY
from upv.linalg import SparseRows, det_poly, rank, rank_mod_p, rank_naive
from upv.poly import Poly, PolyError
from upv.scalars import GF, QQ
from upv.unproj import plane_equations


def det_field(matrix, domain):
    """Exact determinant of a square matrix of field elements, by Gaussian
    elimination: the oracle of det_poly."""
    m = [[domain.coerce(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    det = domain.one()
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return domain.zero()
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = domain.one() / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_identity_rank():
    f = GF(13)
    m = [[f.one() if i == j else f.zero() for j in range(2)] for i in range(2)]
    assert rank(m, f) == 2


def test_plane_union_rank_eight():
    # the union of the coordinate equations of two antipodal linear spaces
    f = GF(13)
    cols = plane_equations((0, 0, 0, 0)) + plane_equations((1, 1, 1, 1))
    rows = []
    for c in cols:
        row = [f.zero()] * 8
        row[c] = f.one()
        rows.append(row)
    assert rank(rows, f) == 8


def test_small_rank_mod_13():
    # determinant 3 != 0 mod 13
    assert rank_mod_p(np.array([[2, 1], [1, 2]]), 13) == 2
    assert rank_mod_p(np.array([[2, 1], [4, 2]]), 13) == 1


def test_rank_oracle_agreement_seeded():
    # the sparse elimination agrees with the naive reduction on random
    # 6x6 matrices over GF(13)
    f = GF(13)
    rng = random.Random(7)
    for _ in range(60):
        m = [[rng.randrange(13) for _ in range(6)] for _ in range(6)]
        assert rank(m, f) == rank_naive(m, f)


def test_rank_rational():
    m = [[QQ.from_int(1), QQ.from_int(2)], [QQ.from_int(2), QQ.from_int(4)]]
    assert rank(m, QQ) == 1


def test_det_field():
    f = GF(13)
    m = [[f.from_int(2), f.from_int(1)], [f.from_int(1), f.from_int(2)]]
    assert det_field(m, f) == f.from_int(3)


def test_det_poly_trivial_cases():
    x00 = Poly.variable(AMBIENT_XY, QQ, "x00")
    x01 = Poly.variable(AMBIENT_XY, QQ, "x01")
    zero = Poly.zero(AMBIENT_XY, QQ)
    assert det_poly([[x00]]) == x00
    assert det_poly([[x00, zero], [zero, x01]]) == x00 * x01
    assert det_poly([[x00, x01], [x00, x01]]).is_zero()
    with pytest.raises(PolyError):
        det_poly([[x00, x01]])


def test_det_poly_matches_field_det_after_evaluation():
    rng = random.Random(3)
    f = GF(13)
    names = ["x00", "x01", "x10", "x11"]
    for _ in range(10):
        mat = [[Poly.variable(AMBIENT_XY, f, rng.choice(names))
                * f.from_int(rng.randrange(1, 13)) for _ in range(3)]
               for _ in range(3)]
        vals = [f.from_int(rng.randrange(13)) for _ in range(16)]
        lhs = det_poly(mat).evaluate(vals)
        rhs = det_field([[e.evaluate(vals) for e in row] for row in mat], f)
        assert lhs == rhs


def test_rank_mod_p_exact_just_below_prime_bound():
    # the largest admissible primes keep residue products inside int64
    p = 2147483029
    f = GF(p)
    rng = random.Random(7)
    for k in range(30):
        inner = 6 if k % 2 else rng.randrange(1, 6)
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(6)]
        right = [[rng.randrange(p) for _ in range(6)] for _ in range(inner)]
        m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
             for row in left]
        assert rank_mod_p(np.array(m, dtype=np.int64), p) == rank_naive(m, f)


def test_rank_mod_p_reads_numpy_entries_near_p_as_python_ints(monkeypatch):
    # int64 entries within 50 of p or -p, with a sum row and a row shifted
    # by -p: each reaches `eliminate` as a Python int, as `.tolist()` gave
    p = 2147483029
    rng = random.Random(11)
    seen = set()
    real = linalg.eliminate

    def recording(rows, q):
        rows = list(rows)
        seen.update(type(v) for row in rows for v in row.values())
        return real(rows, q)

    monkeypatch.setattr(linalg, "eliminate", recording)
    for _ in range(20):
        base = [[rng.choice((1, -1)) * (p - rng.randrange(1, 50)) for _ in range(6)]
                for _ in range(3)]
        m = base + [[a + b for a, b in zip(base[0], base[1])], [a - p for a in base[2]]]
        rng.shuffle(m)
        expected = rank_naive(m, GF(p))
        assert expected <= 3
        assert rank_mod_p(np.array(m, dtype=np.int64), p) == expected
    assert seen == {int}


@st.composite
def prime_matrices(draw):
    """An integer matrix with a random density, zero rows, repeated rows and
    empty columns, over one of the primes the suite meets."""
    p = draw(st.sampled_from((13, 29, 2147483029)))
    nrows, ncols = draw(st.integers(0, 16)), draw(st.integers(1, 16))
    density = draw(st.floats(0.005, 1.0))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # entries in (-p, 2p): a stored entry may still vanish mod p
    m = [[rng.randrange(-p + 1, 2 * p) if rng.random() < density else 0
          for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        m.insert(rng.randrange(len(m) + 1), [0] * ncols)
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        m.insert(rng.randrange(len(m) + 1), list(rng.choice(m)))
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
        for row in m:
            row[j] = 0
    return p, m, ncols


@settings(max_examples=150, deadline=None)
@given(prime_matrices())
def test_rank_mod_p_both_forms_match_naive(case):
    p, m, ncols = case
    expected = rank_naive(m, GF(p))
    assert rank_mod_p(m, p) == expected
    sparse = SparseRows([{j: v for j, v in enumerate(row) if v} for row in m],
                        (len(m), ncols))
    assert rank_mod_p(sparse, p) == expected
