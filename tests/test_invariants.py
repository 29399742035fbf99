import numpy as np
import pytest

from upv.ambient import AMBIENT_P7, AMBIENT_XY
from upv.invariants import (IntersectionClass, ci_series_coefficient,
                            hilbert_function, hilbert_profile, hilbert_rows,
                            hilbert_t_report, hilbert_v_report,
                            hilbert_x_report, intersection_number,
                            intersection_numbers_report, monomial_count,
                            monomials_of_weighted_degree, plurigenus_expected,
                            x_ideal_p7)
from upv.scalars import GF, PrimeField
from upv.unproj import FamilyParams, build_t_ideal, build_v_ideal


def test_monomial_count_matches_enumeration():
    for d in range(5):
        assert monomial_count(AMBIENT_XY, d) == len(monomials_of_weighted_degree(AMBIENT_XY, d))
        assert monomial_count(AMBIENT_P7, d) == len(monomials_of_weighted_degree(AMBIENT_P7, d))
    assert monomial_count(AMBIENT_XY, 2) == 44   # 36 quadratic + 8 weight-2


def test_h_of_degree_zero_is_one():
    f = GF(13)
    assert hilbert_function(build_v_ideal(f), 0, 13) == 1
    assert hilbert_function(x_ideal_p7(f), 0, 13) == 1


def test_hilbert_t_values():
    f = GF(13)
    nu = FamilyParams(f, (3, 1, 4, 1, 5))
    ideal = build_t_ideal(nu)
    assert hilbert_function(ideal, 1, 13) == 7
    assert hilbert_function(ideal, 2, 13) == 32
    assert hilbert_function(ideal, 3, 13) == 80
    assert hilbert_function(ideal, 4, 13) == 152
    assert hilbert_function(ideal, 5, 13) == plurigenus_expected(5) == 248
    assert hilbert_function(ideal, 6, 13) == plurigenus_expected(6) == 368


def _dense_hilbert_rows(ideal, d, p):
    """The generator multiples built as dense residue rows, one zero vector
    per (generator, monomial) pair: the oracle for the sparse rows."""
    field = GF(p)
    basis = monomials_of_weighted_degree(ideal.ambient, d)
    col = {e: k for k, e in enumerate(basis)}
    rows = []
    for _, g, _ in ideal.generators:
        gp = g if isinstance(ideal.domain, PrimeField) else g.map_coefficients(field)
        e = gp.weighted_degree()
        if e is None or e > d:
            continue
        for m in monomials_of_weighted_degree(ideal.ambient, d - e):
            row = np.zeros(len(basis), dtype=np.int64)
            for ge, gc in gp.terms.items():
                row[col[tuple(a + b for a, b in zip(ge, m))]] = int(gc) % p
            rows.append(row)
    return np.array(rows).reshape(len(rows), len(basis))


@pytest.mark.parametrize("name, d", [("T", 3), ("X", 4)])
def test_sparse_hilbert_rows_match_dense_construction(name, d):
    f = GF(13)
    ideal = (build_t_ideal(FamilyParams(f, (3, 1, 4, 1, 5))) if name == "T"
             else x_ideal_p7(f))
    rows = hilbert_rows(ideal, d, 13)
    dense = np.zeros(rows.shape, dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense[i, j] = v
    assert np.array_equal(dense, _dense_hilbert_rows(ideal, d, 13))
    assert all(0 < v < 13 for row in rows for v in row.values())


def test_plurigenus_formula():
    assert plurigenus_expected(2) == 32
    assert plurigenus_expected(3) == 80
    assert plurigenus_expected(4) == 152
    with pytest.raises(ValueError):
        plurigenus_expected(1)


def test_hilbert_x_against_series():
    assert [ci_series_coefficient(d) for d in range(7)] == [1, 8, 33, 96, 225, 456, 833]
    assert hilbert_x_report(13, 6).passed


def test_hilbert_v_profile():
    rep = hilbert_v_report((13, 17), max_degree=2)
    assert rep.passed
    assert rep.witness["values"][1] == [1, 7]


def test_hilbert_reports_across_primes():
    nus = {p: [FamilyParams(GF(p), (3, 1, 4, 1, 5))] for p in (13, 17)}
    assert hilbert_t_report((13, 17), nus, max_degree=3).passed


def test_profile_table_format():
    prof = hilbert_profile("X", 13, 2)
    assert prof.table()[1] == "degree\tdimension"
    assert prof.table()[2] == "0\t1"


def test_intersection_ring():
    H = IntersectionClass.hyperplane()
    assert intersection_number([H, H, H, H]) == 24
    assert intersection_number([H, H, H, H]) // 2 == 12
    h1 = IntersectionClass.h(0)
    assert (h1 * h1).coeffs == {}
    assert intersection_number([H, H, H.scale(2), H]) == 48
    with pytest.raises(ValueError):
        intersection_number([H, H, H])
    assert intersection_numbers_report().passed


def test_degree_budget_enforced():
    from upv.invariants import DegreeBudgetError
    f = GF(13)
    with pytest.raises(DegreeBudgetError):
        hilbert_function(build_v_ideal(f), 40, 13)
