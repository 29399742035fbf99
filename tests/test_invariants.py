import random

import numpy as np
import pytest

import upv.invariants
import upv.unproj
from upv.ambient import AMBIENT_P7, AMBIENT_XY
from upv.invariants import (IntersectionClass, ci_series_coefficient,
                            hilbert_function, hilbert_profile, hilbert_rows,
                            hilbert_t_report, hilbert_v_report,
                            hilbert_x_report, intersection_number,
                            intersection_numbers_report, monomial_count,
                            monomials_of_weighted_degree, plurigenus_expected,
                            t_profiles, x_ideal_p7)
from upv.scalars import GF, PrimeField
from upv.unproj import (FamilyParams, IdealPresentation, build_t_ideal,
                        build_v_ideal, hyperplane_section, q_section, xvar)


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


def full_t_profile(nu, max_degree, p):
    """The oracle: h_T(d) from the rank of the whole T matrix at each degree."""
    return [(d, hilbert_function(build_t_ideal(nu), d, p)) for d in range(max_degree + 1)]


@pytest.mark.parametrize("p", [13, 17, 29])
def test_t_profiles_match_the_full_matrix(p):
    f = GF(p)
    rng = random.Random(p)
    draws = [(rng.randrange(p), rng.randrange(p), rng.randrange(p), rng.randrange(p),
              rng.randrange(1, p)) for _ in range(10)]
    nus = [FamilyParams(f, nu) for nu in draws + [(3, 1, 4, 1, 0), (1, 1, 0, 1, 3)]]
    profiles = t_profiles(p, nus, 5)
    assert profiles == [full_t_profile(nu, 5, p) for nu in nus]
    assert profiles[0] == [(0, 1), (1, 7), (2, 32), (3, 80), (4, 152), (5, 248)]


def test_t_profiles_of_a_section_inside_v(monkeypatch):
    def inside_v(nu):  # x00·(x00 + x01) lies in V's ideal, so T = V
        return xvar(nu.domain, 0, 0) * hyperplane_section(nu.domain)

    monkeypatch.setattr(upv.invariants, "q_section", inside_v)
    monkeypatch.setattr(upv.unproj, "q_section", inside_v)
    nus = {p: [FamilyParams(GF(p), (3, 1, 4, 1, 5))] for p in (13, 17)}
    for p, (nu,) in nus.items():
        values = t_profiles(p, [nu], 4)[0]
        assert values == full_t_profile(nu, 4, p) == hilbert_profile("V", p, 4).values
    rep = hilbert_t_report((13, 17), nus, max_degree=4)
    assert not rep.passed
    assert len(rep.witness["problems"]) == 2


def test_hilbert_t_report_eliminates_v_once_per_prime_and_degree(monkeypatch):
    calls = []
    real_eliminate = upv.invariants.eliminate

    def counted(rows, p, pivots=None):
        new = real_eliminate(rows, p, pivots)
        calls.append((p, rows, pivots, new))
        return new

    def no_full_matrix(matrix, p):
        raise AssertionError("hilbert_t eliminated a whole T matrix")

    monkeypatch.setattr(upv.invariants, "eliminate", counted)
    monkeypatch.setattr(upv.invariants, "rank_mod_p", no_full_matrix)
    primes, max_degree = (13, 17, 29), 5
    nus = {p: [FamilyParams(GF(p), (3 + k, 1, 4, 1, 5)) for k in range(3)] for p in primes}
    assert hilbert_t_report(primes, nus, max_degree).passed
    expected = []
    for p in primes:
        v = build_v_ideal(GF(p))
        qs = [IdealPresentation("q", AMBIENT_XY, GF(p), [("q", q_section(nu), "q")])
              for nu in nus[p]]
        for d in range(max_degree + 1):
            expected.append((p, list(hilbert_rows(v, d, p)), None))
            for q in qs:
                q_rows = list(hilbert_rows(q, d, p))
                assert len(q_rows) == (monomial_count(AMBIENT_XY, d - 2) if d >= 2 else 0)
                expected.append((p, q_rows, "V"))
    seen, v_pivots = [], None
    for p, rows, pivots, new in calls:
        if pivots is None:
            v_pivots = new
        else:
            assert pivots is v_pivots
        seen.append((p, list(rows), None if pivots is None else "V"))
    assert seen == expected


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
