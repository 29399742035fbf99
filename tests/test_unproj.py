import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from upv.ambient import AMBIENT_XY, EVEN_TUPLES, comp
from upv.cover import sigma_map
from upv.poly import Poly, exact_divide
from upv.scalars import GF, QI, QQ
from upv.unproj import (CUBIC, HYPERPLANE, QUADRIC, QUARTIC, FamilyParams,
                        IdealPresentation, UnprojectionDatum, build_ideal, build_t_ideal,
                        build_unprojection_ideal, build_v_ideal, build_x_ideal,
                        elimination_cubic_report,
                        phi_consistency_report, q_section, quartic_generator,
                        quartic_witnesses,
                        reduce_by_rewriting, s_form, verify_jacobian_minor,
                        verify_plane_incidences, verify_veronese_chart,
                        xvar, y_eigenvector, yvar)


def test_x_ideal():
    x = build_x_ideal()
    assert [n for n, _, _ in x.generators] == ["q0", "q1", "q2"]
    assert all(g.weighted_degree() == 2 for g in x.polys())
    assert x.polys()[0] == xvar(QQ, 0, 0) * xvar(QQ, 0, 1) - xvar(QQ, 1, 0) * xvar(QQ, 1, 1)


def test_x_generators_die_under_sigma():
    sig = sigma_map(QQ)
    for g in build_x_ideal().polys():
        assert sig.apply(g).is_zero()


def test_x_generators_invariant_under_all_table1_words():
    from upv.grouprep import SignedAction, build_table1_action
    for gen in build_table1_action():
        for g in build_x_ideal().polys():
            assert gen.apply(g) == g


def test_census_63():
    j = build_unprojection_ideal()
    assert j.counts() == {"quadric": 3, "cubic": 32, "quartic": 28}
    assert all(g.is_homogeneous() for g in j.polys())


def test_quartic_example():
    # the pair (0,0,0,0), (0,0,1,1) gives the two-squares quartic
    g = quartic_generator(QQ, (0, 0, 0, 0), (0, 0, 1, 1))
    expected = yvar(QQ, (0, 0, 0, 0)) * yvar(QQ, (0, 0, 1, 1)) \
        - (xvar(QQ, 0, 1) * xvar(QQ, 1, 1)) ** 2
    assert g == expected


def test_all_63_generators_die_under_sigma():
    sig = sigma_map(QQ)
    for name, g, _ in build_unprojection_ideal().generators:
        assert sig.apply(g).is_zero(), name


def test_phi_representation_consistency():
    assert phi_consistency_report().passed
    datum = UnprojectionDatum((0, 0, 0, 0))
    reps = datum.representations()
    assert [d for _, d in reps] == ["x00", "x10", "x20", "x30"]


def test_t_ideal_census_and_section():
    f = GF(13)
    nu = FamilyParams(f, (1, 2, 3, 4, 5))
    t = build_t_ideal(nu)
    assert len(t.generators) == 65
    assert t.counts()["hyperplane"] == 1
    assert t.counts()["quadric-section"] == 1
    # section at the two basis parameters
    assert q_section(FamilyParams(QQ, (0, 0, 0, 0, 1))) == y_eigenvector(QQ)
    assert q_section(FamilyParams(QQ, (1, 0, 0, 0, 0))) == s_form(QQ, 0)
    with pytest.raises(ValueError):
        build_ideal("T")
    with pytest.raises(ValueError):
        FamilyParams(f, (0, 0, 0, 0, 0))


def test_degenerate_predicate():
    f = GF(13)
    assert FamilyParams(f, (1, 0, 3, 4, 5)).degenerate()[0]
    # (nu0-nu1-nu2-nu3)^2 + 64 nu4^2 = 0 over GF(13) at this tuple
    deg, reason = FamilyParams(f, (1, 2, 3, 4, 5)).degenerate()
    assert deg and "delta" in reason
    assert not FamilyParams(f, (1, 2, 3, 4, 6)).degenerate()[0]


def test_plane_incidences():
    rep = verify_plane_incidences()
    assert rep.passed
    assert rep.witness["line_count"] == 24
    assert rep.witness["empty_count"] == 4


def test_rewriting_examples():
    f = GF(13)
    x = lambda i, a: xvar(f, i, a)
    assert reduce_by_rewriting(x(1, 0) * x(1, 1)) == -x(0, 0) ** 2
    assert reduce_by_rewriting(x(2, 0) ** 3) == x(2, 0) ** 3
    assert reduce_by_rewriting(x(0, 1)) == -x(0, 0)
    # a cubic relation itself reduces to zero
    g = yvar(f, (0, 0, 1, 1)) * x(0, 0) - x(1, 1) * x(2, 0) * x(3, 0)
    assert reduce_by_rewriting(g).is_zero()


def test_rewriting_idempotent_seeded_1000():
    # pinned sample count: 1000 random monomials
    field = GF(13)
    rng = random.Random(1)
    for _ in range(1000):
        e = [0] * 16
        for _ in range(rng.randrange(0, 5)):
            e[rng.randrange(16)] += 1
        f = Poly.monomial(AMBIENT_XY, field, e, rng.randrange(1, 13))
        once = reduce_by_rewriting(f)
        assert reduce_by_rewriting(once) == once


def test_elimination_cubic_sign_convention():
    f = GF(17)
    nu = FamilyParams(f, (2, 3, 5, 7, 11))
    rep = elimination_cubic_report(nu)
    assert rep.passed
    assert rep.witness["convention"] == "x00*l + nu4*prod"


def test_jacobian_minor_all_eight():
    rep = verify_jacobian_minor()
    assert rep.passed
    assert set(rep.witness["signs"].values()) == {"+"}
    assert rep.witness["determinant_degree"] == 22


def test_veronese_chart():
    rep = verify_veronese_chart()
    assert rep.passed
    assert rep.witness["minors_checked"] == 21


def test_dump_format():
    lines = build_x_ideal().dump_lines()
    assert len(lines) == 3
    name, prov, poly = lines[0].split("\t")
    assert name == "q0" and prov == "quadric"
    assert "x00" in poly


def test_quartic_witnesses_deterministic():
    from upv.unproj import quartic_witnesses
    assert quartic_witnesses((0, 0, 0, 0), (1, 1, 1, 1)) == (0, 1)
    assert quartic_witnesses((0, 0, 0, 0), (0, 0, 1, 1)) == (2, 3)


def test_quartic_witness_equivalence():
    from upv.unproj import (quadric_normal_form, quartic_generator_with_witnesses,
                            quartic_witness_report)
    rep = quartic_witness_report()
    assert rep.passed
    assert rep.witness["single_witness_quartics"] == 24
    assert rep.witness["antipodal_witness_forms"] == 24  # 4 pairs x 6 sets
    # the antipodal pair: two witness monomials, equal mod the quadrics only
    a, b = (0, 0, 0, 0), (1, 1, 1, 1)
    g01 = quartic_generator_with_witnesses(QQ, a, b, 0, 1)
    g23 = quartic_generator_with_witnesses(QQ, a, b, 2, 3)
    assert g01 != g23
    assert quadric_normal_form(g01 - g23).is_zero()


# -- the cached ideals against the products they were first built from ---------

def product_built_v(domain):
    """V's 64 generators as products and differences of variables, the
    quartic monomials found by exact division of the two representations."""
    def x(i, a):
        return xvar(domain, i, a)

    def label(t):
        return "".join(map(str, t))

    gens = [(f"q{i}", x(i, 0) * x(i, 1) - x(i + 1, 0) * x(i + 1, 1), QUADRIC) for i in range(3)]
    for t in EVEN_TUPLES:
        for k in range(4):
            m = Poly.one(AMBIENT_XY, domain)
            for l in range(4):
                if l != k:
                    m = m * x(l, comp(t[l]))
            gens.append((f"c{label(t)}_{k}", yvar(domain, t) * x(k, t[k]) - m, CUBIC))
    for a, b in combinations(EVEN_TUPLES, 2):
        i, j = quartic_witnesses(a, b)
        num = Poly.one(AMBIENT_XY, domain)
        for k in range(4):
            num = num * (x(k, comp(a[k])) if k != i else 1) * (x(k, comp(b[k])) if k != j else 1)
        mono = exact_divide(num, x(i, a[i]) * x(j, b[j]))
        gens.append((f"s{label(a)}_{label(b)}", yvar(domain, a) * yvar(domain, b) - mono, QUARTIC))
    return gens + [("h", x(0, 0) + x(0, 1), HYPERPLANE)]


@pytest.mark.parametrize("domain", [QQ, QI, GF(13), GF(2147483029)], ids=str)
def test_cached_ideals_equal_the_product_built_oracle(domain):
    oracle = product_built_v(domain)
    for ideal, n in ((build_x_ideal(domain), 3), (build_unprojection_ideal(domain), 63),
                     (build_v_ideal(domain), 64)):
        assert len(ideal.generators) == n and ideal.domain is domain
        for (name, g, tag), (oname, og, otag) in zip(ideal.generators, oracle):
            assert (name, tag) == (oname, otag) and g == og
            # the same terms in the same order: plus term first
            assert list(g.terms.items()) == list(og.terms.items()), name


def test_cached_ideals_are_shared_and_read_only():
    for build in (build_x_ideal, build_unprojection_ideal, build_v_ideal):
        ideal = build(QQ)
        assert build() is ideal and build(QQ) is ideal and build(domain=QQ) is ideal
        assert build(GF(13)) is build(GF(13)) is not ideal
        assert isinstance(ideal.generators, tuple)
        with pytest.raises(FrozenInstanceError):
            ideal.generators = ()
        with pytest.raises(FrozenInstanceError):
            ideal.name = "Z"
        with pytest.raises(TypeError):
            ideal.generators[0] = ideal.generators[1]
    v = build_v_ideal(GF(13))
    t = build_t_ideal(FamilyParams(GF(13), (1, 2, 3, 4, 5)))
    assert t.generators[:64] == v.generators
    assert all(a is b for a, b in zip(t.generators, v.generators))
    # a presentation made from a list holds a tuple
    assert IdealPresentation("I", AMBIENT_XY, QQ, [("g", xvar(QQ, 0, 0), "g")]).generators \
        == (("g", xvar(QQ, 0, 0), "g"),)
