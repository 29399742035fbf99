import inspect
import random
import re
from copy import deepcopy
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upv.invariants
import upv.unproj
from upv.ambient import AMBIENT_P7, AMBIENT_XY, Ambient
from upv.invariants import (BinomialQuotient, DegreeBudgetError, binomial_quotient,
                            ci_series_coefficient, exponent_key,
                            hilbert_function, hilbert_profile, hilbert_rows,
                            hilbert_t_report, hilbert_v_expected, hilbert_v_report,
                            hilbert_x_report, intersection_number,
                            intersection_numbers_report, monomial_count,
                            monomial_keys, plurigenus_expected, t_profiles,
                            v_quotient, x_ideal_p7)
from upv.linalg import rank_naive
from upv.poly import Poly
from upv.scalars import GF, QQ, PrimeField
from upv.unproj import (FamilyParams, IdealPresentation, build_t_ideal,
                        build_v_ideal, hyperplane_section, q_section, xvar)


@lru_cache(maxsize=64)
def monomials_of_weighted_degree(ambient, d):
    """All exponent vectors of weighted degree d, in ascending order: the
    digits of their ``monomial_keys`` in base d + 1.  The tests read
    ``monomial_keys`` through it, and it is their monomial basis."""
    base = d + 1
    return tuple(tuple(k // base ** i % base for i in range(ambient.nvars))
                 for k in monomial_keys(ambient, d, base))


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


def digit_key(e, base):
    """The exponents as base-``base`` digits, the first exponent lowest."""
    k = 0
    for a in reversed(e):
        k = k * base + a
    return k


def test_monomial_keys_match_the_keys_of_the_exponent_vectors():
    for ambient in (AMBIENT_XY, AMBIENT_P7):
        for d in range(7):
            vectors = monomials_by_recursion(ambient, d)
            for base in (d + 1, 8):
                expected = tuple(digit_key(e, base) for e in vectors)
                assert monomial_keys(ambient, d, base) == expected
                assert tuple(exponent_key(e, base) for e in vectors) == expected


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


def qq_profile(ambient, generators, max_degree):
    """The oracle over QQ: h(d) from ``rank_naive`` of the dense matrix of
    every generator multiple at degree d."""
    out = []
    for d in range(max_degree + 1):
        basis = monomials_of_weighted_degree(ambient, d)
        col = {e: k for k, e in enumerate(basis)}
        rows = []
        for g in generators:
            e = g.weighted_degree()
            for m in monomials_of_weighted_degree(ambient, d - e) if e <= d else ():
                row = [Fraction(0)] * len(basis)
                for ge, c in g.terms.items():
                    row[col[tuple(a + b for a, b in zip(ge, m))]] = QQ.coerce(c)
                rows.append(row)
        out.append((d, len(basis) - rank_naive(rows, QQ)))
    return out


def var(ambient, domain, k):
    e = [0] * ambient.nvars
    e[k] = 1
    return Poly.monomial(ambient, domain, e)


@st.composite
def binomial_ideals(draw):
    """+-1 binomials of weighted degree 1-3 on a few variables of P^7, or of
    the weighted space with two weight-2 variables, over QQ or GF(p), so
    that signs meet around cycles; with some generators repeated, or
    multiplied by a monomial, and the list shuffled."""
    ambient = draw(st.sampled_from([AMBIENT_P7, AMBIENT_XY]))
    p = draw(st.sampled_from([5, 13, 29]))
    domain = draw(st.sampled_from([QQ, GF(p)]))
    support = {0, 1, 2, 8, 9}

    def monomials(e):
        return [m for m in monomials_of_weighted_degree(ambient, e)
                if all(k in support for k, a in enumerate(m) if a)]

    def binomial(e):
        a, b = draw(st.lists(st.sampled_from(monomials(e)), min_size=2, max_size=2,
                             unique=True))
        return Poly(ambient, domain, {m: domain.coerce(draw(st.sampled_from([1, -1])))
                                      for m in (a, b)})

    gens = [binomial(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 4)))]
    for kind in draw(st.lists(st.sampled_from(["repeat", "multiple"]), max_size=2)):
        g = draw(st.sampled_from(gens))
        if kind == "multiple":
            g = g * Poly.monomial(ambient, domain, draw(st.sampled_from(monomials(1))))
        gens.append(g)
    return ambient, p, draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(binomial_ideals())
def test_binomial_quotient_matches_the_full_matrix(case):
    ambient, p, gens = case
    profile = binomial_quotient(ambient, gens, 4).profile()
    assert profile == full_profile(ambient, gens, p, 4)
    if gens[0].domain is QQ:
        assert profile[:3] == qq_profile(ambient, gens, 2)


@pytest.mark.parametrize("case", ["repeated", "inside", "zero divisor", "sign cycle",
                                  "dead generators", "higher degree first", "weighted"])
def test_binomial_quotient_on_adversarial_generator_lists(case):
    x = [var(AMBIENT_P7, QQ, k) for k in range(4)]
    w = [var(AMBIENT_XY, QQ, k) for k in (0, 1, 2, 8)]  # x00, x01, x10 and a weight-2 y
    q = x[0] * x[1] - x[2] * x[2]
    ambient, gens = {
        "repeated": (AMBIENT_P7, [q, q, x[3] - x[1], q]),
        "inside": (AMBIENT_P7, [x[0] * x[0] - x[1] * x[2], x[1] * x[1] + x[2] * x[3],
                                x[3] * x[0] * x[0] - x[3] * x[1] * x[2]]),
        "zero divisor": (AMBIENT_P7, [x[0] * x[1] - x[0] * x[2], x[1] * x[3] + x[2] * x[3],
                                      x[0] - x[3]]),
        "sign cycle": (AMBIENT_P7, [x[0] - x[1], x[1] - x[2], x[0] + x[2]]),
        "dead generators": (AMBIENT_P7, [x[0] * x[1] + x[2] * x[3], x[0] * x[1] - x[2] * x[3],
                                         x[0] - x[3]]),
        "higher degree first": (AMBIENT_P7, [x[0] ** 3 + x[1] ** 3, x[0] * x[0] - x[1] * x[2],
                                             x[1] - x[2]]),
        "weighted": (AMBIENT_XY, [w[0] * w[3] - w[1] ** 3, w[3] - w[0] * w[1],
                                  w[2] * w[3] + w[0] * w[1] * w[2]]),
    }[case]
    quotient = binomial_quotient(ambient, gens, 4)
    profile = quotient.profile()
    for p in (5, 13):
        assert profile == full_profile(ambient, gens, p, 4)
    assert profile[:4] == qq_profile(ambient, gens, 3)
    if case == "sign cycle":  # x0 = x1 = x2 = -x0 kills all three
        assert profile[1] == (1, 5)
    if case == "dead generators":  # x0*x1 = +-x2*x3 kills both
        dead = [exponent_key(e, quotient.base) for e in ((1, 1, 0, 0), (0, 0, 1, 1))]
        assert not any(k in quotient.forms[2] for k in dead)


def flipped_v(k):
    """V's generators over QQ with the sign of the second term of generator k flipped."""
    gens = build_v_ideal(QQ).polys()
    (a, ca), (b, cb) = gens[k].terms.items()
    gens[k] = Poly(AMBIENT_XY, QQ, {a: ca, b: -cb})
    return gens


def test_a_sign_flip_in_one_generator_is_caught():
    v = v_quotient(5).profile()
    # q0 = x00*x01 - x10*x11 becomes x00*x01 + x10*x11: cycles of sign -1
    # appear from degree 4, and their classes die
    flipped = binomial_quotient(AMBIENT_XY, flipped_v(0), 5).profile()
    assert flipped != v
    assert flipped == full_profile(AMBIENT_XY, flipped_v(0), 13, 5)
    assert flipped[4:] == [(4, 165), (5, 255)] and v[4:] == [(4, 185), (5, 335)]
    # a union-find that never marks a class dead misses it
    source = inspect.getsource(upv.invariants.binomial_quotient)
    assert source.count("elif s < 0:") == 1
    namespace = dict(vars(upv.invariants))
    exec(source.replace("elif s < 0:", "elif False:"), namespace)
    assert namespace["binomial_quotient"](AMBIENT_XY, flipped_v(0), 5).profile() == v
    # x00 - x01 for the hyperplane leaves h_V as it is, up to degree 5
    assert binomial_quotient(AMBIENT_XY, flipped_v(63), 5).profile() == v == full_profile(
        AMBIENT_XY, flipped_v(63), 13, 5)


@pytest.mark.parametrize("domain", [QQ, GF(13)])
def test_binomial_quotient_rejects_other_generators(domain):
    x0, x1, x2 = (var(AMBIENT_P7, domain, k) for k in range(3))
    for g in [(x0 * x1 - x2 * x2) * 2, x0 * x1 - x1 * x1 + x2 * x2, x0 * x0 + x1,
              x0 * x0, Poly.zero(AMBIENT_P7, domain)]:
        message = f"generator {g} is not a homogeneous binomial with coefficients +-1"
        with pytest.raises(ValueError, match=re.escape(message)):
            binomial_quotient(AMBIENT_P7, [x0 - x1, g], 3)


def test_generator_rows_reject_inhomogeneous_or_foreign_generators():
    x0, x1 = var(AMBIENT_P7, GF(13), 0), var(AMBIENT_P7, GF(13), 1)
    foreign = var(AMBIENT_P7, GF(17), 0)
    for gens, message in [([x0 * x0 + x1], "needs homogeneous generators"),
                          ([foreign], "ideal coefficients live in a different prime field")]:
        ideal = IdealPresentation("I", AMBIENT_P7, gens[0].domain,
                                  [("g", g, "g") for g in gens])
        with pytest.raises(ValueError, match=message):
            hilbert_function(ideal, 2, 13)


@pytest.mark.parametrize("p", [13, 17, 29])
def test_v_quotient_matches_the_full_matrix(p):
    assert v_quotient(5).profile() == hilbert_profile("V", p, 5).values == [
        (0, 1), (1, 7), (2, 33), (3, 87), (4, 185), (5, 335)]


def test_v_and_t_match_rank_naive_over_qq():
    v = build_v_ideal(QQ).polys()
    assert v_quotient(3).profile() == qq_profile(AMBIENT_XY, v, 3)
    nu = (3, 1, 4, 1, 5)
    t = v + [q_section(FamilyParams(QQ, nu))]
    assert qq_profile(AMBIENT_XY, t, 3) == t_profiles(13, [FamilyParams(GF(13), nu)], 3)[0]


def test_hilbert_t_report_reads_one_v_quotient_for_every_prime(monkeypatch):
    built, blocks = [], []
    real_quotient, real_eliminate = upv.invariants.binomial_quotient, upv.invariants.eliminate

    def traced_quotient(ambient, generators, max_degree):
        built.append((ambient, list(generators), max_degree))
        return real_quotient(ambient, generators, max_degree)

    def counted(rows, p):
        rows = list(rows)
        blocks.append((p, rows))
        return real_eliminate(rows, p)

    def no_full_matrix(*args):
        raise AssertionError("hilbert_t ran a full-matrix rank")

    primes, max_degree = (13, 17, 29), 5
    monkeypatch.setattr(upv.invariants, "binomial_quotient", traced_quotient)
    monkeypatch.setattr(upv.invariants, "eliminate", counted)
    monkeypatch.setattr(upv.invariants, "rank_mod_p", no_full_matrix)
    monkeypatch.setattr(upv.invariants, "hilbert_function", no_full_matrix)
    nus = {p: [FamilyParams(GF(p), (3 + k, 1, 4, 1, 5)) for k in range(3)] for p in primes}
    v = upv.invariants.v_quotient(max_degree)
    copy = deepcopy((v.roots, v.forms))
    assert hilbert_t_report(primes, nus, max_degree, v).passed
    assert len(built) == 1  # the report read the V it was given
    assert hilbert_t_report(primes, nus, max_degree).passed
    # a report without V builds it once, for every prime
    assert built == [(AMBIENT_XY, build_v_ideal(QQ).polys(), max_degree)] * 2
    assert (v.roots, v.forms) == copy  # no draw wrote V's structure
    # per report, prime and draw: one block of q-rows per degree, h_V(d-2)
    # rows at degree d, each row in V's quotient basis of degree d
    h_v = dict(v.profile())
    draws = 2 * len(primes) * 3
    degrees = list(range(max_degree + 1)) * draws
    assert [len(rows) for _, rows in blocks] == [h_v[d - 2] if d >= 2 else 0 for d in degrees]
    assert [p for p, _ in blocks] == [p for p in primes for _ in range(3 * (max_degree + 1))] * 2
    assert len(blocks[5][1]) == h_v[3] == 87
    for (_, rows), d in zip(blocks, degrees):
        assert all(0 <= j < h_v[d] for row in rows for j in row)


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


def test_hilbert_v_checks_every_degree_it_prints(monkeypatch):
    assert [hilbert_v_expected(d) for d in range(7)] == [1, 7, 33, 87, 185, 335, 553]
    assert v_quotient(6).profile() == [(d, hilbert_v_expected(d)) for d in range(7)]
    monkeypatch.setattr(BinomialQuotient, "profile",
                        lambda self: [(0, 1), (1, 7), (2, 34), (3, 87)])
    rep = hilbert_v_report((13,), max_degree=3)
    assert not rep.passed
    assert rep.witness["problems"] == ["h_V(2) = 34, expected 33"]


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
