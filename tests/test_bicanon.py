import random
from fractions import Fraction

import pytest

from upv.bicanon import (affine_hessian, affine_hessian_rank, branch_locus_check,
                         burniat_charts_report, burniat_f3_report,
                         burniat_nodes_report,
                         burniat_parameter_map, chart_map_xi2, derive_s3_cubic,
                         double_point_set, f1_poly, f2_poly,
                         f3_chart_polynomial, lambda_identity_report,
                         node_coordinates, nodes_distinct, nodes_error_paths,
                         plane_model_cubics, scubic, scubic_points_report,
                         split_plane_sections, verify_nodes)
from upv import bicanon
from upv.cover import enumerate_surface
from upv.scalars import GF, QI, QQ
from upv.unproj import FamilyParams


def good_nu(p=13):
    nu = FamilyParams(GF(p), (1, 1, 1, 1, 3))
    assert not nu.degenerate()[0] and nu.nu[4] and nodes_distinct(nu)
    return nu


def test_scubic_shape():
    f = GF(13)
    nu = good_nu()
    cubic = scubic(nu)
    assert cubic.weighted_degree() == 3
    assert cubic.is_homogeneous()


def test_derivation_identity():
    _, rep = derive_s3_cubic(good_nu())
    assert rep.passed
    # and over a second prime
    _, rep = derive_s3_cubic(FamilyParams(GF(17), (2, 3, 5, 7, 11)))
    assert rep.passed


def test_squared_sum_rewrites_to_difference():
    # (x_i0 + x_i1)^2 reduces to 2(s_i - s0) under the rewriting system
    from upv.unproj import reduce_by_rewriting, s_form, xvar
    f = GF(13)
    for i in (1, 2, 3):
        sq = reduce_by_rewriting((xvar(f, i, 0) + xvar(f, i, 1)) ** 2)
        want = reduce_by_rewriting((s_form(f, i) - xvar(f, 0, 0) ** 2) * f.from_int(2))
        assert sq == want


def test_enumerated_points_on_cubic():
    nu = good_nu()
    pts = enumerate_surface(13, nu)
    rep = scubic_points_report(pts)
    assert rep.passed
    assert rep.witness["off_cubic"] == 0


def test_node_coordinates_and_gradient():
    f = GF(13)
    nu = good_nu()
    n1 = node_coordinates(nu, 1)
    # s1 = -(nu0+nu2+nu3) * s0 / nu1 after scaling
    assert n1[0] == nu.nu[1]
    assert n1[1] == -(nu.nu[0] + nu.nu[2] + nu.nu[3])
    cubic = scubic(nu)
    assert not cubic.evaluate(n1)
    for k in range(4):
        assert not cubic.derivative(f"s{k}").evaluate(n1)


def test_verify_nodes_and_error_paths():
    assert verify_nodes(13, draws=25, seed=0).passed
    ok, note = nodes_error_paths()
    assert ok, note
    with pytest.raises(ValueError):
        node_coordinates(FamilyParams(GF(13), (1, 0, 1, 1, 1)), 1)


def substitution_hessian_rank(cubic, point, field):
    """The oracle: substitute s0 = 1, then take second partials in s1..s3."""
    from upv.ambient import AMBIENT_S
    from upv.linalg import rank
    from upv.poly import Poly, ring_substitute
    inv0 = field.one() / point[0]
    pt = [v * inv0 for v in point]
    names = ["s1", "s2", "s3"]
    sub = {"s0": Poly.one(AMBIENT_S, field)}
    for nm in names:
        sub[nm] = Poly.variable(AMBIENT_S, field, nm)
    aff = ring_substitute(cubic, AMBIENT_S, sub)
    return rank([[aff.derivative(a).derivative(b).evaluate(pt) for b in names]
                 for a in names], field)


def test_affine_hessian_matches_substitution_oracle():
    p = 13
    f = GF(p)
    rng = random.Random(3)
    cases = []
    while len(cases) < 8:
        nu = FamilyParams(f, tuple(rng.randrange(p) for _ in range(5)))
        if nu.degenerate()[0] or not nu.nu[4] or not nodes_distinct(nu):
            continue
        points = [node_coordinates(nu, i) for i in (1, 2, 3)]
        points += [tuple(f.from_int(rng.randrange(1, p)) for _ in range(4))
                   for _ in range(3)]
        cases.append((scubic(nu), points))
    # nu4 = 0: the cubic is -s0*l^2, of Hessian rank 1 on l = s0+2s1+3s2+4s3 = 0
    degenerate = (scubic(FamilyParams(f, (1, 2, 3, 4, 0))),
                  [tuple(f.from_int(v) for v in (1, 6, 0, 0))])
    ranks = []
    for cubic, points in cases + [degenerate]:
        hessian = affine_hessian([cubic.derivative(f"s{k}") for k in range(4)])
        for pt in points:
            ranks.append(affine_hessian_rank(hessian, pt, f))
            assert ranks[-1] == substitution_hessian_rank(cubic, pt, f)
    assert ranks[-1] == 1 and ranks.count(3) >= 24


def test_collapsed_nodes_detected():
    f = GF(13)
    nu = FamilyParams(f, (1, 2, 3, 7, 5))   # 1+2+3+7 = 13 = 0
    assert not nodes_distinct(nu)


def test_plane_sections():
    rep = split_plane_sections(good_nu())
    assert rep.passed


def test_branch_loci_good_draw():
    nu = good_nu()
    pts = enumerate_surface(13, nu)
    rep = branch_locus_check(pts)
    assert rep.passed
    hits = rep.witness["hits"]
    assert hits["theta1.line"] > 0
    assert hits["theta1.conic"] > 0


def test_double_points():
    pts = double_point_set(QI)
    assert len(pts) == 24
    eps = QI.sqrt_minus_one()
    assert (eps, QI.one(), QI.one()) in pts
    f1, f2 = f1_poly(QI), f2_poly(QI)
    for pt in pts:
        assert not f1.evaluate(pt) and not f2.evaluate(pt)
    assert eps ** 4 == QI.one()


def test_burniat_nodes_report():
    rep = burniat_nodes_report()
    assert rep.passed
    assert rep.witness["double_points"] == 24
    assert rep.witness["hessian_diagonal"] == "-4"


def test_chart_pullbacks():
    xi2 = chart_map_xi2(QI)
    from upv.unproj import build_x_ideal
    for g in build_x_ideal(QI).polys():
        assert xi2.apply(g).is_zero()
    assert burniat_charts_report().passed


def test_f3_polynomial_and_report():
    f3 = f3_chart_polynomial(QQ)
    # degree-8 polynomial; the term 2*x00^2*x21^2*x31^2 is present
    assert f3.coefficient((2, 2, 2)) == QQ.from_int(2)
    assert f3.coefficient((2, 0, 0)) == QQ.from_int(-1)
    assert burniat_f3_report().passed


def test_lambda_identity():
    assert lambda_identity_report().passed
    s0, s1, s2, s3 = plane_model_cubics(QQ)
    assert all(p.terms for p in (s0, s1, s2, s3))


def test_parameter_map_rational():
    out, rep = burniat_parameter_map(Fraction(3))
    assert rep.passed
    assert out["nu4"] == Fraction(1)  # (3+1)/4
    assert out["ratio_to_stated"] == "16"
    with pytest.raises(ValueError):
        burniat_parameter_map(Fraction(0))
    with pytest.raises(ValueError):
        burniat_parameter_map(Fraction(1))


def test_parameter_map_prime_field_explicit():
    f = GF(13)
    out, rep = burniat_parameter_map(f.from_int(4))   # -4 = 9 = 3^2 mod 13
    assert rep.passed
    explicit = out["explicit"]
    assert explicit is not None
    assert -explicit.nu[0] == explicit.nu[1] == explicit.nu[2] == explicit.nu[3]
    assert explicit.nu[1] * explicit.nu[1] == -f.from_int(4)
    # membership: the explicit parameters reproduce the pencil cubic
    from upv.bicanon import _pencil_cubic_at
    assert scubic(explicit) == _pencil_cubic_at(f, f.from_int(4))


@pytest.mark.parametrize("p", [13, 17, 29])
def test_sqrt_mod_matches_scan(p):
    for a in {r * r % p for r in range(p)}:
        scan = next(r for r in range(p) if r * r % p == a)
        assert bicanon._sqrt_mod(a, p) == scan
    with pytest.raises(ValueError):
        bicanon._sqrt_mod(next(a for a in range(p) if pow(a, (p - 1) // 2, p) == p - 1), p)


def test_parameter_map_near_prime_bound():
    # -lambda = r^2 with both roots near 10^9: a scan over residues would
    # take minutes here
    p, r = 2147483029, 1234567891
    f = GF(p)
    out, rep = burniat_parameter_map(-f.from_int(r * r))
    assert rep.passed
    v = out["explicit"].nu[1]
    assert int(v) == min(r, p - r)
    assert v * v == f.from_int(r * r)


def test_parameter_map_failing_membership_reported_every_call(monkeypatch):
    assert bicanon.pencil_vanishes_on_plane_model()
    monkeypatch.setattr(bicanon, "pencil_vanishes_on_plane_model", lambda: False)
    for lam in (Fraction(3), GF(13).from_int(4)):
        _, rep = burniat_parameter_map(lam)
        assert not rep.passed
        assert rep.witness["problems"] == ["pencil cubic does not vanish on the plane model"]


def test_pencil_members_singular_exactly_at_node_preimages():
    # members with -nu0 = nu1 = nu2 = nu3 stay free but acquire rank drops at
    # precisely the covering preimages of the 24 double-point images
    from upv.ambient import AMBIENT_XY
    from upv.cover import (AMBIENT_LOCAL4, build_lifts_and_certify,
                           canonical_weighted, enumerate_surface,
                           local_equations, local_point, sigma_images)
    p = 17
    f = GF(p)
    out, rep = burniat_parameter_map(f.from_int(2))
    assert rep.passed
    nu = out["explicit"]
    assert nu is not None and not nu.degenerate()[0]
    pts = enumerate_surface(p, nu)
    pt_list = [pts.points.point(n) for n in range(pts.count)]
    singular = []
    by_chart = {}
    for pt in pt_list:
        by_chart.setdefault(pt[0], []).append(pt)
    for chart, ps in by_chart.items():
        eqs = local_equations(p, nu, chart)
        jac = [[eq.derivative(v) for v in AMBIENT_LOCAL4.variables] for eq in eqs]
        for pt in ps:
            w = [f.from_int(x) for x in local_point(pt)]
            r0 = [jac[0][k].evaluate(w) for k in range(4)]
            r1 = [jac[1][k].evaluate(w) for k in range(4)]
            if not any(r0[a] * r1[b] - r0[b] * r1[a]
                       for a in range(4) for b in range(a + 1, 4)):
                singular.append(pt)
    # the image set of the 24 chart double points
    xi2 = chart_map_xi2(f)
    node_images = set()
    for d in double_point_set(f):
        coords = []
        for name in AMBIENT_XY.variables:
            c, e = xi2.images[AMBIENT_XY.index(name)]
            v = c
            for val, k in zip(d, e):
                if k:
                    v = v * val ** k
            coords.append(int(v))
        node_images.add(canonical_weighted(coords, p))
    assert len(node_images) == 24
    images = map(tuple, sigma_images(pts.points).tolist())
    expected = [pt for pt, img in zip(pt_list, images) if img in node_images]
    assert sorted(singular) == sorted(expected)
    assert len(singular) == 48
    # the action stays free on the pencil member
    group, _ = build_lifts_and_certify()
    from upv.cover import ProjAut
    for g in group.elements:
        gp = g.map_entries(f)
        if gp == ProjAut.identity(f):
            continue
        assert all(gp.act_point(pt, p) != pt for pt in pt_list)
