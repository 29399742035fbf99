import inspect
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upv.invariants
import upv.unproj
from upv.ambient import AMBIENT_P7, AMBIENT_XY, Ambient
from upv.invariants import (DegreeBudgetError, ci_series_coefficient, extend,
                            hilbert_function, hilbert_profile, hilbert_rows,
                            hilbert_t_report, hilbert_v_report,
                            hilbert_x_report, intersection_number,
                            intersection_numbers_report, monomial_count,
                            monomials_of_weighted_degree, plurigenus_expected,
                            t_profiles, x_ideal_p7)
from upv.poly import Poly
from upv.scalars import GF, PrimeField
from upv.unproj import (FamilyParams, IdealPresentation, build_t_ideal,
                        build_v_ideal, hyperplane_section, q_section, xvar)


def test_monomial_count_matches_enumeration():
    for d in range(5):
        assert monomial_count(AMBIENT_XY, d) == len(monomials_of_weighted_degree(AMBIENT_XY, d))
        assert monomial_count(AMBIENT_P7, d) == len(monomials_of_weighted_degree(AMBIENT_P7, d))
    assert monomial_count(AMBIENT_XY, 2) == 44   # 36 quadratic + 8 weight-2


def _compositions(total, parts):
    """All exponent tuples of the given length with the given sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def monomials_by_recursion(ambient, d):
    """The former enumeration: weight-2 and weight-1 parts by recursive
    compositions, merged and sorted; the oracle of the iterative one."""
    heavy = [k for k, w in enumerate(ambient.weights) if w == 2]
    light = [k for k, w in enumerate(ambient.weights) if w == 1]
    out = []
    for j in range(d // 2 + 1):
        for he in _compositions(j, len(heavy)):
            for le in _compositions(d - 2 * j, len(light)):
                e = [0] * len(ambient.weights)
                for k, v in zip(heavy, he):
                    e[k] = v
                for k, v in zip(light, le):
                    e[k] = v
                out.append(tuple(e))
    return tuple(sorted(out))


SMALL_AMBIENTS = [Ambient("W5", "abcde", (2, 1, 2, 1, 1)),
                  Ambient("W4", "abcd", (1, 2, 2, 1)),
                  Ambient("H3", "abc", (2, 2, 2)),
                  Ambient("L1", "a", (1,))]


def test_monomials_match_the_recursion_and_the_count():
    cases = [(AMBIENT_XY, 6), (AMBIENT_P7, 6)] + [(a, 7) for a in SMALL_AMBIENTS]
    for ambient, top in cases:
        for d in range(top + 1):
            got = monomials_of_weighted_degree(ambient, d)
            assert type(got) is tuple
            assert got == monomials_by_recursion(ambient, d)
            assert len(got) == monomial_count(ambient, d)


def test_monomials_match_a_brute_force_filter():
    for ambient in SMALL_AMBIENTS:
        for d in range(6):
            expected = tuple(e for e in product(range(d + 1), repeat=ambient.nvars)
                             if ambient.weighted_degree(e) == d)
            assert monomials_of_weighted_degree(ambient, d) == expected


def test_monomials_need_weights_one_and_two():
    with pytest.raises(DegreeBudgetError, match="only weights 1 and 2"):
        monomials_of_weighted_degree(Ambient("W3", "ab", (1, 3)), 3)


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


def full_profile(ambient, generators, p, max_degree):
    """The oracle: h(d) from the rank of every generator multiple at degree d."""
    ideal = IdealPresentation("I", ambient, GF(p), [("g", g, "g") for g in generators])
    return [(d, hilbert_function(ideal, d, p)) for d in range(max_degree + 1)]


def var(ambient, p, k):
    e = [0] * ambient.nvars
    e[k] = 1
    return Poly.monomial(ambient, GF(p), e)


@st.composite
def small_ideals(draw):
    """Forms of weighted degree 1-3 on a few variables of P^7, or of the
    weighted space with two weight-2 variables, so that the ideals are far
    from generic; with some of them repeated, multiplied into a later
    generator, or listed after a lower-degree divisor, and the list shuffled."""
    ambient = draw(st.sampled_from([AMBIENT_P7, AMBIENT_XY]))
    p = draw(st.sampled_from([5, 13, 29]))
    f = GF(p)
    support = {0, 1, 2, 8, 9}

    def form(e):
        basis = [m for m in monomials_of_weighted_degree(ambient, e)
                 if all(k in support for k, a in enumerate(m) if a)]
        exps = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
        return Poly(ambient, f, {m: f.coerce(draw(st.integers(1, p - 1))) for m in exps})

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    for kind in draw(st.lists(st.sampled_from(["repeat", "inside", "divisor"]), max_size=2)):
        if kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "inside":
            g = draw(st.sampled_from(gens))
            gens.append(form(1) * g + form(g.weighted_degree() + 1))
        else:
            u = form(1)
            gens += [u * form(1), u]
    return ambient, p, draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_extend_matches_the_full_matrix(case, data):
    ambient, p, gens = case
    oracle = full_profile(ambient, gens, p, 4)
    assert extend(ambient, gens, p, 4).profile() == oracle
    split = data.draw(st.integers(0, len(gens)))
    prefix = extend(ambient, gens[:split], p, 4)
    assert extend(ambient, gens[split:], p, 4, prefix).profile() == oracle


@pytest.mark.parametrize("case", ["repeated", "inside", "zero divisor",
                                  "higher degree first", "unit last", "weighted"])
def test_extend_on_adversarial_generator_lists(case):
    p = 13
    x = [var(AMBIENT_P7, p, k) for k in range(4)]
    q = x[0] * x[1] + x[2] * x[2]
    w = [var(AMBIENT_XY, p, k) for k in (0, 1, 2, 8)]  # x00, x01, x10 and a weight-2 y
    ambient, gens = {
        "repeated": (AMBIENT_P7, [q, q, x[3], q]),
        "inside": (AMBIENT_P7, [x[0] * x[0] - x[1] * x[2], x[1] * x[1],
                                x[3] * (x[0] * x[0] - x[1] * x[2]) + x[0] * x[1] * x[1]]),
        "zero divisor": (AMBIENT_P7, [x[0] * x[1], x[0], x[1] + x[2]]),
        "higher degree first": (AMBIENT_P7, [x[0] ** 3 + x[1] ** 3, x[0] * x[0], x[1]]),
        "unit last": (AMBIENT_P7, [x[0] * x[0], Poly.one(AMBIENT_P7, GF(p))]),
        "weighted": (AMBIENT_XY, [w[0] * w[3] - w[1] ** 3, w[3] - w[0] * w[1],
                                  w[2] * w[3], w[3] * w[3]]),
    }[case]
    assert extend(ambient, gens, p, 4).profile() == full_profile(ambient, gens, p, 4)


def test_a_criterion_that_skips_its_own_leads_is_caught():
    # the mutant also drops the monomials led by generator k itself
    source = inspect.getsource(upv.invariants.extend)
    assert source.count("led.get(j, k) >= k") == 1
    namespace = dict(vars(upv.invariants))
    exec(source.replace("led.get(j, k) >= k", "led.get(j, k + 1) > k"), namespace)
    mutant = namespace["extend"]
    x0 = var(AMBIENT_P7, 13, 0)
    oracle = full_profile(AMBIENT_P7, [x0], 13, 3)
    assert extend(AMBIENT_P7, [x0], 13, 3).profile() == oracle == [
        (0, 1), (1, 7), (2, 28), (3, 84)]
    assert mutant(AMBIENT_P7, [x0], 13, 3).profile() != oracle


def test_generator_rows_reject_inhomogeneous_or_foreign_generators():
    x0, x1 = var(AMBIENT_P7, 13, 0), var(AMBIENT_P7, 13, 1)
    foreign = var(AMBIENT_P7, 17, 0)
    for gens, message in [([x0 * x0 + x1], "needs homogeneous generators"),
                          ([foreign], "ideal coefficients live in a different prime field")]:
        ideal = IdealPresentation("I", AMBIENT_P7, gens[0].domain,
                                  [("g", g, "g") for g in gens])
        with pytest.raises(ValueError, match=message):
            hilbert_function(ideal, 2, 13)
        with pytest.raises(ValueError, match=message):
            extend(AMBIENT_P7, gens, 13, 2)
    prefix = extend(AMBIENT_P7, [x0], 13, 2)
    for ambient, p, max_degree in [(AMBIENT_XY, 13, 2), (AMBIENT_P7, 17, 2),
                                   (AMBIENT_P7, 13, 3)]:
        with pytest.raises(ValueError, match="another ring or fewer degrees"):
            extend(ambient, [], p, max_degree, prefix)


def test_hilbert_t_report_eliminates_v_once_per_prime_and_degree(monkeypatch):
    calls = []
    real_extend, real_eliminate = upv.invariants.extend, upv.invariants.eliminate

    def traced_extend(ambient, generators, p, max_degree, prefix=None):
        call = {"p": p, "generators": list(generators), "prefix": prefix, "rows": []}
        calls.append(call)
        echelon = call["echelon"] = real_extend(ambient, generators, p, max_degree, prefix)
        call["copy"] = [{c: dict(row) for c, row in pivots.items()} for pivots in echelon.pivots]
        return echelon

    def counted(rows, p, pivots=None):
        rows = list(rows)
        calls[-1]["rows"].append((rows, dict(pivots)))
        return real_eliminate(rows, p, pivots)

    def no_full_matrix(matrix, p):
        raise AssertionError("hilbert_t eliminated a whole T matrix")

    primes, max_degree = (13, 17, 29), 5
    h_v_oracle = {p: hilbert_profile("V", p, max_degree).values for p in primes}
    monkeypatch.setattr(upv.invariants, "extend", traced_extend)
    monkeypatch.setattr(upv.invariants, "eliminate", counted)
    monkeypatch.setattr(upv.invariants, "rank_mod_p", no_full_matrix)
    nus = {p: [FamilyParams(GF(p), (3 + k, 1, 4, 1, 5)) for k in range(3)] for p in primes}
    assert hilbert_t_report(primes, nus, max_degree).passed
    assert len(calls) == 4 * len(primes)
    for i, p in enumerate(primes):
        v_call, *q_calls = calls[4 * i: 4 * i + 4]
        v = build_v_ideal(GF(p))
        v_echelon = v_call["echelon"]
        assert v_call["p"] == p and v_call["prefix"] is None
        assert v_call["generators"] == [g for _, g, _ in v.generators]
        assert v_echelon.pivots == v_call["copy"]  # no draw wrote V's pivots
        assert v_echelon.profile() == h_v_oracle[p]
        h_v = dict(h_v_oracle[p])
        for q_call, nu in zip(q_calls, nus[p]):
            assert q_call["p"] == p and q_call["prefix"] is v_echelon
            assert q_call["generators"] == [q_section(nu)]
            # one block of q-multiples per degree, continued from V's pivots
            assert [pivots for _, pivots in q_call["rows"]] == v_echelon.pivots[2:]
            assert [len(rows) for rows, _ in q_call["rows"]] == [
                h_v[d - 2] for d in range(2, max_degree + 1)]
        if p == 13:
            assert sum(len(rows) for rows, _ in v_call["rows"]) == 3027
            assert len(q_calls[0]["rows"][-1][0]) == h_v[3] == 87


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
    H = (1, 1, 1, 1)
    assert intersection_number([H, H, H, H]) == 24
    assert intersection_number([H, H, H, H]) // 2 == 12
    assert intersection_number([H, H, (2, 2, 2, 2), H]) == 48
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert intersection_number(e) == 1
    for i, j in combinations(range(4), 2):
        repeated = list(e)
        repeated[j] = e[i]  # h_i^2 = 0
        assert intersection_number(repeated) == 0
    with pytest.raises(ValueError):
        intersection_number([H, H, H])
    with pytest.raises(ValueError):
        intersection_number([H, H, H, (1, 1, 1)])
    assert intersection_numbers_report().passed


def test_degree_budget_enforced():
    from upv.invariants import DegreeBudgetError
    f = GF(13)
    with pytest.raises(DegreeBudgetError):
        hilbert_function(build_v_ideal(f), 40, 13)
