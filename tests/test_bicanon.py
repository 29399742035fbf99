import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from upv.bicanon import (branch_locus_check, burniat_charts_report, burniat_f3_report,
                         burniat_nodes_report,
                         burniat_parameter_map, chart_map_xi2, chart_map_zeta2,
                         derive_s3_cubic, double_point_set, f1_poly, f2_poly,
                         f3_chart_polynomial, lambda_identity_report,
                         node_coordinates, nodes_error_paths, pencil_cubic,
                         plane_model_cubics, scubic, scubic_points_report,
                         split_plane_sections, svar, verify_nodes)
from upv import bicanon
from upv.ambient import AMBIENT_LU, AMBIENT_S, AMBIENT_XY, EVEN_TUPLES, Ambient, yname
from upv.checks import RunConfig, RunContext
from upv.cover import enumerate_surface
from grids import all_p1
from upv.linalg import rank_naive
from upv.poly import Poly, ring_substitute
from upv.report import verdict
from upv.scalars import GF, QI, QQ
from upv.unproj import (FamilyParams, UnprojectionDatum, l_form, node_defect,
                        nodes_distinct, product_of_sums, reduce_by_rewriting,
                        s_form, xvar)


def node_draws(p, n, seed):
    """n parameter draws over GF(p) from the stream that ``bicanon.nodes``
    draws from at ``seed``."""
    ctx = RunContext(RunConfig(primes=(p,), seed=seed))
    return [ctx.draw_nu(p, "nodes") for _ in range(n)]


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


@pytest.mark.parametrize("nu", [good_nu(), FamilyParams(GF(17), (2, 3, 5, 7, 11))],
                         ids=["GF(13)", "GF(17)"])
def test_mutant_cubic_fails_with_a_warm_cache(nu, monkeypatch):
    real = bicanon.scubic

    def mutant(nu):
        s1, s2, s3 = (bicanon.svar(nu.domain, i) for i in (1, 2, 3))
        return real(nu) + s1 * s2 * s3 * (nu.nu[4] * nu.nu[4])

    assert derive_s3_cubic(nu)[1].passed
    hits = bicanon._s3_derivation_parts.cache_info().hits
    monkeypatch.setattr(bicanon, "scubic", mutant)
    _, rep = derive_s3_cubic(nu)
    assert bicanon._s3_derivation_parts.cache_info().hits == hits + 1
    assert not rep.passed
    assert rep.witness["problems"][0].startswith("difference ")


def test_cached_forms_stay_unchanged():
    from upv.grouprep import q_invariance_report
    from upv.unproj import elimination_cubic_report, y_eigenvector
    f = GF(13)
    forms = [s_form(f, i) for i in range(4)] + [product_of_sums(f), y_eigenvector(f)]
    rng = random.Random(5)
    nus = [FamilyParams(f, tuple(rng.randrange(1, 13) for _ in range(5))) for _ in range(3)]
    prod, pairs = bicanon._scubic_parts(f)
    x00_side, prod_sq, s_image, _ = bicanon._s3_derivation_parts(f)
    s_images = [s_image(e) for e in scubic(nus[0]).terms]
    term_maps = [prod, *pairs, *x00_side, prod_sq, *s_images]
    snapshot = [dict(g.terms) for g in forms] + [dict(m) for m in term_maps]
    assert s_form(f, 1) is forms[1] and y_eigenvector(f) is forms[5]
    for nu in nus:
        assert derive_s3_cubic(nu)[1].passed
        assert elimination_cubic_report(nu).passed
    assert q_invariance_report(nus, rng).passed
    assert verify_nodes(13, nus).passed
    assert [dict(g.terms) for g in forms] + [dict(m) for m in term_maps] == snapshot
    for m in term_maps:
        e = next(iter(m))
        with pytest.raises(TypeError):
            m[e] = f.zero()


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
    assert verify_nodes(13, node_draws(13, 25, 0)).passed
    ok, note = nodes_error_paths()
    assert ok, note
    with pytest.raises(ValueError):
        node_coordinates(FamilyParams(GF(13), (1, 0, 1, 1, 1)), 1)


def test_nodes_outside_the_claim_are_named_not_tested():
    f = GF(13)
    nus = [good_nu()] + [FamilyParams(f, nu) for nu in
                         ((1, 0, 3, 4, 5), (1, 2, 3, -6, 5), (1, 2, 3, 4, 0))]
    rep = verify_nodes(13, nus)
    assert rep.witness == {"draws": 1, "problems": [
        "nu=(1, 0, 3, 4, 5) is outside the claim: nu1*nu2*nu3 = 0",
        "nu=(1, 2, 3, 7, 5) is outside the claim: nu0+nu1+nu2+nu3 = 0, "
        "so the three nodes collapse",
        "nu=(1, 2, 3, 4, 0) is outside the claim: nu4 = 0"]}
    assert rep.to_json() == scalar_verify_nodes(13, nus).to_json()


def affine_hessian(grads):
    """The 3x3 matrix of second partials in s1..s3 from the four first
    partials of the cubic: six distinct entries, the matrix is symmetric."""
    second = {(a, b): grads[a].derivative(f"s{b}")
              for a in (1, 2, 3) for b in (1, 2, 3) if a <= b}
    return [[second[min(a, b), max(a, b)] for b in (1, 2, 3)] for a in (1, 2, 3)]


def affine_hessian_rank(hessian, node, field):
    """Rank of the Hessian in the affine chart s0 = 1 at the node.  Setting
    s0 = 1 commutes with d/ds_i for i >= 1, so this is the matrix of second
    partials evaluated at (1, n1/n0, n2/n0, n3/n0)."""
    inv0 = field.one() / node[0]
    pt = [v * inv0 for v in node]
    return rank_naive([[h.evaluate(pt) for h in row] for row in hessian], field)


def scalar_verify_nodes(p, nus):
    """The oracle of ``verify_nodes``: the same parameters, with one GF(p)
    ``Poly.evaluate`` per node for the cubic, each gradient and each Hessian
    entry, and the exact rank of every Hessian."""
    field = GF(p)
    problems = []
    done = 0
    for nu in nus:
        reason = node_defect(nu)
        if reason:
            problems.append(f"nu={tuple(int(v) for v in nu.nu)} is outside the claim: "
                            f"{reason}")
            continue
        cubic = bicanon.scubic(nu)
        grads = [cubic.derivative(f"s{k}") for k in range(4)]
        hessian = affine_hessian(grads)
        ints = tuple(int(v) for v in nu.nu)
        for i in (1, 2, 3):
            n = node_coordinates(nu, i)
            if cubic.evaluate(n):
                problems.append(f"cubic(n_{i}) != 0 at nu={ints}")
            for g in grads:
                if g.evaluate(n):
                    problems.append(f"grad(n_{i}) != 0 at nu={ints}")
            hess = affine_hessian_rank(hessian, n, field)
            if hess != 3:
                problems.append(f"Hessian rank {hess} at n_{i}, nu={ints}")
        done += 1
    return verdict("bicanon.nodes", problems[:5], {"draws": done},
                   on_pass={"hessian_rank": 3})


HESSIAN_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def assert_jets_match_oracle(cubics, points, field):
    """``cubic_jets`` against GF(p) evaluation at every point: the value,
    the four partials, the six affine second partials, and a nonzero
    determinant exactly where the Hessian has rank 3."""
    p = field.p
    rows = np.array([[[int(v) for v in pt] for pt in pts] for pts in points],
                    dtype=np.int64).reshape(len(cubics), -1, 4)
    value, grad, hess = bicanon.cubic_jets(cubics, rows, p)
    det = bicanon._symmetric_det3(hess, p)
    ranks = []
    for d, (cubic, pts) in enumerate(zip(cubics, points)):
        grads = [cubic.derivative(f"s{k}") for k in range(4)]
        hessian = affine_hessian(grads)
        for k, pt in enumerate(pts):
            inv0 = field.one() / pt[0]
            affine = [v * inv0 for v in pt]
            assert value[d, k] == int(cubic.evaluate(pt))
            assert grad[d, k].tolist() == [int(g.evaluate(pt)) for g in grads]
            assert hess[d, k].tolist() == [int(hessian[a][b].evaluate(affine))
                                           for a, b in HESSIAN_ENTRIES]
            ranks.append(affine_hessian_rank(hessian, pt, field))
            assert bool(det[d, k]) == (ranks[-1] == 3)
    return ranks


@pytest.mark.parametrize("p", [13, 17, 2147483029])
def test_node_jets_match_scalar_oracle(p):
    """Every node of 40 random generic draws, plus two random points a draw
    where nothing vanishes, and the nu4 = 0 cubic -s0*l^2, of Hessian rank
    1 on l = s0+2s1+3s2+4s3 = 0."""
    f = GF(p)
    rng = random.Random(p)
    nus, cubics, points = [], [], []
    while len(cubics) < 40:
        nu = FamilyParams(f, tuple(rng.randrange(p) for _ in range(5)))
        if nu.degenerate()[0] or not nu.nu[4] or not nodes_distinct(nu):
            continue
        nus.append(nu)
        cubics.append(scubic(nu))
        points.append([node_coordinates(nu, i) for i in (1, 2, 3)]
                      + [tuple(f.from_int(rng.randrange(k == 0, p)) for k in range(4))
                         for _ in range(2)])
    ranks = assert_jets_match_oracle(cubics, points, f)
    assert all(r == 3 for r in ranks[::5] + ranks[1::5] + ranks[2::5])
    degenerate = scubic(FamilyParams(f, (1, 2, 3, 4, 0)))
    rank_one = tuple(f.from_int(v) for v in (1, p - 2, 1, 0))  # l = 1 - 4 + 3 = 0
    assert assert_jets_match_oracle([degenerate], [[rank_one]], f) == [1]
    assert verify_nodes(p, nus).to_json() == scalar_verify_nodes(p, nus).to_json()


def plus_s1s2s3(real):
    def mutant(nu):
        s1, s2, s3 = (bicanon.svar(nu.domain, i) for i in (1, 2, 3))
        return real(nu) + s1 * s2 * s3 * (nu.nu[4] * nu.nu[4])
    return mutant


def line_through_n1(nu):
    """L = (nu0+nu2+nu3)*s0 + nu1*s1, which vanishes at n_1 but not at n_2
    or n_3 (the nodes are distinct)."""
    s0, s1 = (bicanon.svar(nu.domain, i) for i in (0, 1))
    return s0 * (nu.nu[0] + nu.nu[2] + nu.nu[3]) + s1 * nu.nu[1]


def line_times_square(real):
    """L*M^2 with M = s0, which does not vanish at n_1: the cubic is zero at
    n_1, its gradient is not, and its affine Hessian there is zero."""
    def mutant(nu):
        s0 = bicanon.svar(nu.domain, 0)
        return line_through_n1(nu) * s0 * s0
    return mutant


def plus_line_times_s0_squared(real):
    """The cubic plus L*s0^2: still zero at n_1, with the same affine
    Hessian there (L is affine-linear in the chart s0 = 1), but a nonzero
    gradient, so only the gradient test can fail at n_1."""
    def mutant(nu):
        s0 = bicanon.svar(nu.domain, 0)
        return real(nu) + line_through_n1(nu) * s0 * s0
    return mutant


@pytest.mark.parametrize("p", [13, 17])
@pytest.mark.parametrize("make", [plus_s1s2s3, line_times_square,
                                  plus_line_times_s0_squared],
                         ids=["plus_s1s2s3", "line_times_square", "plus_line_times_s0_squared"])
def test_mutant_cubics_fail_alike_on_both_paths(make, p, monkeypatch):
    monkeypatch.setattr(bicanon, "scubic", make(bicanon.scubic))
    for seed in range(3):
        nus = node_draws(p, 10, seed)
        rep = verify_nodes(p, nus)
        assert not rep.passed
        problems = rep.witness["problems"]
        assert problems == scalar_verify_nodes(p, nus).witness["problems"]
        at_n1 = [pr.split(" ")[0] for pr in problems if "n_1" in pr]
        if make is line_times_square:
            assert at_n1[0] == "grad(n_1)" and at_n1[-1] == "Hessian"
            assert "Hessian rank 0 at n_1" in problems[len(at_n1) - 1]
        if make is plus_line_times_s0_squared:
            assert set(at_n1) == {"grad(n_1)"}


def product_and_square_scubic(nu):
    """The oracle of ``scubic``: 8*nu4^2*prod(s_i - s0) - s0*l^2 built from
    Poly products and the square of l."""
    d = nu.domain
    s = [bicanon.svar(d, i) for i in range(4)]
    prod = Poly.one(AMBIENT_S, d)
    for i in (1, 2, 3):
        prod = prod * (s[i] - s[0])
    l = Poly.zero(AMBIENT_S, d)
    for i in range(4):
        l = l + s[i] * nu.nu[i]
    return prod * (d.from_int(8) * nu.nu[4] * nu.nu[4]) - s[0] * l * l


def two_sided_difference(nu, cubic):
    """The oracle of ``derive_s3_cubic``'s difference: each side of the
    derivation built whole, then rewritten."""
    d = nu.domain
    x00_sq = xvar(d, 0, 0) ** 2
    images = {"s0": x00_sq, **{f"s{i}": s_form(d, i) for i in (1, 2, 3)}}
    a = reduce_by_rewriting(x00_sq * l_form(nu) ** 2
                            - product_of_sums(d) ** 2 * (nu.nu[4] * nu.nu[4]))
    return a + reduce_by_rewriting(ring_substitute(cubic, AMBIENT_XY, images))


def derivation_difference(nu, monkeypatch):
    """The cubic and the difference that ``derive_s3_cubic`` tests for zero,
    caught from the sum that builds it."""
    seen = []
    real = bicanon.weighted_sum

    def spy(ambient, domain, parts):
        out = real(ambient, domain, parts)
        if ambient == AMBIENT_XY:
            seen.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(bicanon, "weighted_sum", spy)
        cubic, rep = derive_s3_cubic(nu)
    (difference,) = seen
    assert rep.passed == difference.is_zero()
    return cubic, difference


def random_nus(field, n, seed):
    """n parameters over ``field`` with small entries, zero now and then
    (a Gaussian part over QI), then ones with zero entries and nu4 = 0."""
    rng = random.Random(seed)

    def entry():
        v = field.coerce(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        return v + field.sqrt_minus_one() * rng.randrange(-3, 4) if field is QI else v

    nus = [FamilyParams(field, tuple(entry() for _ in range(5))) for _ in range(n)]
    return nus + [FamilyParams(field, nu) for nu in
                  ((1, 0, 2, 0, 3), (1, 2, 3, 4, 0), (0, 0, 0, 0, 1), (0, 5, 0, 0, 0))]


CUBIC_FIELDS = [QQ, QI, GF(13), GF(2147483029)]


@pytest.mark.parametrize("field", CUBIC_FIELDS, ids=str)
def test_scubic_matches_product_and_square(field):
    for nu in random_nus(field, 12, str(field)):
        assert scubic(nu) == product_and_square_scubic(nu)


def plus_nu4_squared_s1_cubed(real):
    """The cubic plus nu4^2*s1^3: s1^3 is no monomial of the real cubic."""
    def mutant(nu):
        return real(nu) + bicanon.svar(nu.domain, 1) ** 3 * (nu.nu[4] * nu.nu[4])
    return mutant


@pytest.mark.parametrize("field", [QQ, GF(13), GF(17)], ids=str)
@pytest.mark.parametrize("make", [None, plus_s1s2s3, line_times_square,
                                  plus_line_times_s0_squared, plus_nu4_squared_s1_cubed],
                         ids=["real", "plus_s1s2s3", "line_times_square",
                              "plus_line_times_s0_squared", "plus_nu4_squared_s1_cubed"])
def test_derivation_difference_matches_two_sided_pipeline(make, field, monkeypatch):
    if make:
        monkeypatch.setattr(bicanon, "scubic", make(bicanon.scubic))
    for nu in random_nus(field, 4, f"{field}:{getattr(make, '__name__', 'real')}"):
        cubic, difference = derivation_difference(nu, monkeypatch)
        assert difference == two_sided_difference(nu, cubic)
        # a mutant passes only where it coincides with the real cubic
        assert difference.is_zero() == (cubic == product_and_square_scubic(nu))
    if make is plus_nu4_squared_s1_cubed:
        # the unseen monomial's image was added to the per-field cache
        s_image = bicanon._s3_derivation_parts(field)[2]
        hits = s_image.cache_info().hits
        s_image((0, 3, 0, 0))
        assert s_image.cache_info().hits == hits + 1


@pytest.mark.parametrize("field", CUBIC_FIELDS, ids=str)
def test_x00_side_images_sum_to_the_rewritten_products(field):
    x00_side, prod_sq, _, _ = bicanon._s3_derivation_parts(field)
    assert Poly(AMBIENT_XY, field, prod_sq) == reduce_by_rewriting(product_of_sums(field) ** 2)
    x00_sq = xvar(field, 0, 0) ** 2
    for nu in random_nus(field, 6, f"x00:{field}"):
        got = Poly.zero(AMBIENT_XY, field)
        for (i, j), part in zip(bicanon.PAIRS, x00_side):
            w = nu.nu[i] * nu.nu[j] * field.from_int(1 if i == j else 2)
            got = got + Poly(AMBIENT_XY, field, part) * w
        assert got == reduce_by_rewriting(x00_sq * l_form(nu) ** 2)


# `verify_nodes` records of the scalar loop, byte for byte, at (prime,
# draws, seed) with the check's params: an empty stack of draws, and the
# smallest admissible prime
NODES_RECORDS = {
    (13, 0, 0): '{"check": "bicanon.nodes", "status": "pass", "witness": '
                '{"draws": 0, "hessian_rank": 3}, "wall_ms": 0.0, '
                '"params": {"prime": 13, "seed": 0}}',
    (5, 100, 0): '{"check": "bicanon.nodes", "status": "pass", "witness": '
                 '{"draws": 100, "hessian_rank": 3}, "wall_ms": 0.0, '
                 '"params": {"prime": 5, "seed": 0}}',
}


@pytest.mark.parametrize("args", sorted(NODES_RECORDS))
def test_nodes_records_pinned(args):
    p, n, seed = args
    nus = node_draws(p, n, seed)
    params = {"prime": p, "seed": seed}
    assert replace(verify_nodes(p, nus), params=params).to_json() == NODES_RECORDS[args]
    assert replace(scalar_verify_nodes(p, nus), params=params).to_json() == NODES_RECORDS[args]


def substitution_hessian_rank(cubic, point, field):
    """The oracle: substitute s0 = 1, then take second partials in s1..s3."""
    from upv.ambient import AMBIENT_S
    from upv.linalg import rank_naive
    from upv.poly import Poly, ring_substitute
    inv0 = field.one() / point[0]
    pt = [v * inv0 for v in point]
    names = ["s1", "s2", "s3"]
    sub = {"s0": Poly.one(AMBIENT_S, field)}
    for nm in names:
        sub[nm] = Poly.variable(AMBIENT_S, field, nm)
    aff = ring_substitute(cubic, AMBIENT_S, sub)
    return rank_naive([[aff.derivative(a).derivative(b).evaluate(pt) for b in names]
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
    assert all(type(v) is int for v in hits.values())


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
    assert scubic(explicit) == pencil_cubic([svar(f, i) for i in range(4)], f.from_int(4))


@pytest.mark.parametrize("domain", [GF(13), GF(2147483029), QQ], ids=str)
def test_pencil_cubic_at_matches_the_displayed_formula(domain):
    # (lam+1)^2/2 * prod(s_i - s0) + lam*s0*(s1+s2+s3-s0)^2, written out
    s = [Poly.variable(AMBIENT_S, domain, f"s{i}") for i in range(4)]
    for value in (3, 4, -7):
        lam = domain.from_int(value)
        half = domain.one() / domain.from_int(2)
        prod_part = (s[1] - s[0]) * (s[2] - s[0]) * (s[3] - s[0])
        want = prod_part * ((lam + domain.one()) ** 2 * half) \
            + s[0] * (s[1] + s[2] + s[3] - s[0]) ** 2 * lam
        assert pencil_cubic(s, lam) == want


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
    assert bicanon._plane_model_residue(QQ).is_zero()
    residue = Poly.variable(AMBIENT_LU, QQ, "u0") ** 3
    monkeypatch.setattr(bicanon, "_plane_model_residue", lambda domain: residue)
    for lam in (Fraction(3), GF(13).from_int(4)):
        _, rep = burniat_parameter_map(lam)
        assert not rep.passed
        assert rep.witness["problems"] == ["pencil cubic does not vanish on the plane model"]
    rep = lambda_identity_report()
    assert not rep.passed
    assert rep.witness["problems"] == ["difference 2*u0^3"]


# the symbolic pencil cubic in Q[lam][s], composed with the plane model by
# ring_substitute: the oracle of pencil_cubic at the plane-model cubics
AMBIENT_SL = Ambient.graded("SL", ("lam", "s0", "s1", "s2", "s3"))


def symbolic_pencil_cubic(domain):
    lam = Poly.variable(AMBIENT_SL, domain, "lam")
    s = [Poly.variable(AMBIENT_SL, domain, f"s{i}") for i in range(4)]
    one = Poly.one(AMBIENT_SL, domain)
    half = domain.coerce(Fraction(1, 2))
    prod_part = (s[1] - s[0]) * (s[2] - s[0]) * (s[3] - s[0])
    return (lam + one) ** 2 * prod_part * half \
        + lam * s[0] * (s[1] + s[2] + s[3] - s[0]) ** 2


@pytest.mark.parametrize("mutant", [None, "s1 + u0^3", "s0 * lam", "s3 - u1*u2^2"])
def test_pencil_cubic_matches_the_symbolic_composition(mutant):
    s = plane_model_cubics(QQ)
    lam, u0, u1, u2 = (Poly.variable(AMBIENT_LU, QQ, v) for v in ("lam", "u0", "u1", "u2"))
    if mutant == "s1 + u0^3":
        s[1] = s[1] + u0 ** 3
    elif mutant == "s0 * lam":
        s[0] = s[0] * lam
    elif mutant == "s3 - u1*u2^2":
        s[3] = s[3] - u1 * u2 ** 2
    images = {"lam": lam, **{f"s{i}": s[i] for i in range(4)}}
    composed = ring_substitute(symbolic_pencil_cubic(QQ), AMBIENT_LU, images)
    assert pencil_cubic(s, lam) == composed
    assert composed.is_zero() == (mutant is None)
    if mutant is None:
        assert bicanon._plane_model_residue(QQ) == composed


def test_plane_model_identity_is_derived_once_per_field():
    bicanon._plane_model_residue.cache_clear()
    assert lambda_identity_report().passed
    assert burniat_parameter_map(Fraction(3))[1].passed
    assert burniat_parameter_map(GF(13).from_int(4))[1].passed
    info = bicanon._plane_model_residue.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize("chart, domain", [(chart_map_xi2, QI), (chart_map_zeta2, QQ)],
                         ids=["xi2", "zeta2"])
def test_chart_y_images_are_representation_zero(chart, domain):
    # y_t -> x_{1t1'}*x_{2t2'}*x_{3t3'}/x_{0t0}, read off UnprojectionDatum
    # and evaluated on the chart's own x-images
    images = chart(domain).images
    for t in EVEN_TUPLES:
        numerator, denominator = UnprojectionDatum(t).representations()[0]
        c, e = images[AMBIENT_XY.index(denominator)]
        coef, exps = domain.one() / c, [-k for k in e]
        for k, power in enumerate(numerator):
            if power:
                ck, ek = images[k]
                coef = coef * ck ** power
                exps = [a + power * b for a, b in zip(exps, ek)]
        assert images[AMBIENT_XY.index(yname(t))] == (coef, tuple(exps))


@pytest.mark.parametrize("name", ["x00", "x10", "x21", "x31"])
def test_flipping_one_x_image_fails_the_charts_check(name, monkeypatch):
    real = bicanon._chart_map

    def flipped(target, domain, x_images):
        c, e = x_images[name]
        return real(target, domain, dict(x_images, **{name: (-c, e)}))

    monkeypatch.setattr(bicanon, "_chart_map", flipped)
    assert not burniat_charts_report().passed


def test_pencil_members_singular_exactly_at_node_preimages():
    # members with -nu0 = nu1 = nu2 = nu3 stay free but acquire rank drops at
    # precisely the covering preimages of the 24 double-point images
    from upv.ambient import AMBIENT_XY
    from upv.cover import (AMBIENT_LOCAL4, build_lifts_and_certify,
                           canonical_weighted, enumerate_surface,
                           local_equations, sigma_images)
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
            w = [f.from_int(x if c == 0 else 0) for c, x in zip(*pt)]
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


# -- the bicanonical point checks against their scalar oracles -------------------

def s_coordinates(point16, p):
    """The scalar oracle of ``s_rows``: s_i = (x_i0^2 + x_i1^2)/2 scaled so
    that the first nonzero entry is 1, or None off the s-chart."""
    from upv.ambient import X_INDEX
    inv2 = pow(2, p - 2, p)
    s = [((point16[X_INDEX[(i, 0)]] ** 2 + point16[X_INDEX[(i, 1)]] ** 2) * inv2) % p
         for i in range(4)]
    lead = next((v for v in s if v), None)
    if lead is None:
        return None
    inv = pow(lead, p - 2, p)
    return tuple((v * inv) % p for v in s)


def locus_membership(sc, nu, p):
    """The scalar oracle of ``locus_masks`` at one s-point, in GF(p)
    arithmetic, with a projective comparison against each node."""
    field = GF(p)
    vals = [field.from_int(v) for v in sc]
    l = sum((vals[k] * nu.nu[k] for k in range(4)), field.zero())
    out = {}
    for i in (1, 2, 3):
        out[f"L{i}"] = not vals[0] and not vals[i]
        ip, iq = (i % 3) + 1, ((i + 1) % 3) + 1
        conic = (vals[ip] - vals[0]) * (vals[iq] - vals[0]) \
            * (field.from_int(16) * nu.nu[4] ** 2) + l * l
        out[f"C{i}"] = (not (vals[0] + vals[i])) and not conic
        node = node_coordinates(nu, i)
        la = next(v for v in vals if v)
        lb = next(v for v in node if v)
        out[f"n{i}"] = all(x * lb == y * la for x, y in zip(vals, node))
    for i in (1, 2, 3):
        ip, im = (i % 3) + 1, ((i + 1) % 3) + 1
        out[f"D{i}"] = out[f"C{ip}"] or out[f"L{im}"]
    out["pairwise"] = (out["D1"] and out["D2"]) or (out["D1"] and out["D3"]) \
        or (out["D2"] and out["D3"])
    return out


def scalar_off_cubic(points):
    """The scalar oracle of ``scubic_points_report``: (points in the s-chart,
    images off the cubic or off the chart), one ``cubic.evaluate`` a point."""
    from upv.cover import sigma_images
    p, cubic, field = points.p, scubic(points.nu), GF(points.p)
    total = bad = 0
    for img in sigma_images(points.points).tolist():
        sc = s_coordinates(img, p)
        if sc is None:
            bad += 1
        else:
            total += 1
            bad += bool(cubic.evaluate([field.from_int(v) for v in sc]))
    return total, bad


def assert_masks_match(s, masks, nu, p, rows=None):
    """``s_rows`` and ``locus_masks`` against the oracles at every row;
    returns the names of the loci that were hit."""
    hit = set()
    for n in range(len(s)):
        sc = s_coordinates(rows[n], p) if rows is not None else tuple(s[n].tolist())
        assert s[n].tolist() == (list(sc) if sc else [0, 0, 0, 0])
        if sc:
            want = locus_membership(sc, nu, p)
            assert {k: bool(m[n]) for k, m in masks.items()} == want
            hit.update(k for k, v in want.items() if v)
    return hit


ORACLE_SURFACES = {13: ((1, 1, 1, 1, 3), (3, 1, 4, 1, 5), (2, 7, 1, 8, 2)),
                   17: ((2, 3, 5, 7, 11), (1, 2, 3, 4, 5), (3, 1, 4, 1, 5))}


@pytest.mark.parametrize("p", sorted(ORACLE_SURFACES))
def test_s_rows_and_locus_masks_match_scalar_oracles(p):
    from upv.cover import distinct_rows, sigma_images
    hit = set()
    for nu_ints in ORACLE_SURFACES[p]:
        nu = FamilyParams(GF(p), nu_ints)
        rows = distinct_rows(sigma_images(enumerate_surface(p, nu).points))
        s = bicanon.s_rows(rows, p)
        hit |= assert_masks_match(s, bicanon.locus_masks(s, nu, p), nu, p,
                                  rows.tolist())
    assert {"L1", "L2", "L3", "C1", "C2", "C3", "pairwise"} <= hit


def test_s_rows_and_locus_masks_exact_near_prime_bound():
    p = 2147483029
    f = GF(p)
    eps = int(f.sqrt_minus_one())
    rng = random.Random(5)
    rows = np.array([[rng.randrange(p) for _ in range(16)] for _ in range(200)]
                    + [[0] * 8 + [rng.randrange(p) for _ in range(8)]], dtype=np.int64)
    nu = FamilyParams(f, tuple(rng.randrange(1, p) for _ in range(5)))
    s = bicanon.s_rows(rows, p)
    assert not s[-1].any()
    assert_masks_match(s, bicanon.locus_masks(s, nu, p), nu, p, rows.tolist())
    # s-rows on each line, node and conic: the conic point (-s0 at position
    # i, s0 + a^2 and s0 + b^2 at the other two) is on C_i once
    # 16*nu4^2*a^2*b^2 = -l^2, i.e. nu4 = eps*l/(4ab)
    pts, nus = [], []
    for i in (1, 2, 3):
        v = [rng.randrange(1, p) for _ in range(4)]
        s0, a, b = (rng.randrange(1, p) for _ in range(3))
        ip, iq = (i % 3) + 1, ((i + 1) % 3) + 1
        pt = [0] * 4
        pt[0], pt[i], pt[ip], pt[iq] = s0, p - s0, (s0 + a * a) % p, (s0 + b * b) % p
        l = sum(x * y for x, y in zip(v, pt)) % p
        nu4 = eps * l % p * pow(4 * a * b % p, p - 2, p) % p
        cnu = FamilyParams(f, tuple(v) + (nu4,))
        line = [0] * 4
        line[ip], line[iq] = rng.randrange(p), 1
        node = [int(c) for c in node_coordinates(cnu, i)]
        pts += [pt, line, node]
        nus += [cnu] * 3
    s = bicanon._lead_one(np.array(pts, dtype=np.int64), p)
    hit = set()
    for n, cnu in enumerate(nus):
        hit |= assert_masks_match(s[n:n + 1], bicanon.locus_masks(s[n:n + 1], cnu, p),
                                  cnu, p)
    assert {"L1", "L2", "L3", "C1", "C2", "C3", "n1", "n2", "n3"} <= hit


def mismatched_points(p, points_nu, loci_nu):
    """A point set of one nu presented with another nu's loci: every check
    on it fails, with counts, misses and examples to pin."""
    import dataclasses
    pts = enumerate_surface(p, FamilyParams(GF(p), points_nu))
    return dataclasses.replace(pts, nu=FamilyParams(GF(p), loci_nu))


MISMATCHED = {13: ((1, 1, 1, 1, 3), (2, 3, 5, 7, 11)),
              17: ((2, 3, 5, 7, 11), (1, 2, 3, 4, 5))}


@pytest.mark.parametrize("p", sorted(ORACLE_SURFACES))
def test_s3_points_count_matches_scalar_loop(p):
    sets = [enumerate_surface(p, FamilyParams(GF(p), nu)) for nu in ORACLE_SURFACES[p]]
    sets.append(mismatched_points(p, *MISMATCHED[p]))
    for pts in sets:
        rep = scubic_points_report(pts)
        total, bad = scalar_off_cubic(pts)
        assert (rep.witness["points"], rep.witness["off_cubic"]) == (total, bad)
    # the last set is the mismatched one: images off the cubic, counted as int
    assert type(rep.witness["off_cubic"]) is int and rep.witness["off_cubic"] > 0


# sha256 of the failing records on mismatched point sets (`MISMATCHED`):
# off-cubic counts, branch-loci violations, misses and example tuples
FAILING_RECORD_SHA256 = {
    ("s3", 13): "f9ba1131e877b2d63a8604c3859721ddfda08559fff7860c48454980edb4e993",
    ("s3", 17): "7c134302af64bb6cc96c5133c2c4dfbcf292b651a0d79834607e2dd4dce87ddb",
    ("branch", 13): "c9559f5c3dc7d8eadbac2302c09362f0bee191980c9c7c2f7d03ddab9e07de64",
    ("branch", 17): "e2b2aec2dcc2366e4f4d156716bda9e79ab1c7dc6e46d43ce92ec4d54520e8f2",
}


@pytest.mark.parametrize("p", sorted(MISMATCHED))
def test_failing_records_pinned(p):
    import hashlib
    pts = mismatched_points(p, *MISMATCHED[p])
    s3 = scubic_points_report(pts)
    branch = branch_locus_check(pts)
    assert not s3.passed and not branch.passed
    assert s3.witness["off_cubic"] == {13: 240, 17: 176}[p]
    assert any("e.g." in v for v in branch.witness["violations"])
    for key, rep in (("s3", s3), ("branch", branch)):
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == FAILING_RECORD_SHA256[key, p]


def test_branch_loci_needs_every_node():
    pts = mismatched_points(13, (1, 1, 1, 1, 3), (1, 1, 0, 1, 3))
    with pytest.raises(ValueError, match="node n_2 needs nu_2 != 0"):
        branch_locus_check(pts)


def test_images_off_the_s_chart_counted_at_5():
    # every point of (P^1(F_5))^4, not only the surface: 136 of the 1296
    # images lie off the s-chart, and b1*b2 fixes some of them
    import dataclasses
    import hashlib
    p = 5
    pts = enumerate_surface(p, FamilyParams(GF(p), (1, 1, 1, 1, 3)))
    grid = dataclasses.replace(pts, points=all_p1(p))
    s3 = scubic_points_report(grid)
    assert (s3.witness["points"], s3.witness["off_cubic"]) == scalar_off_cubic(grid)
    assert s3.witness["points"] == 1296 - 136
    branch = branch_locus_check(grid)
    assert branch.witness["violations"][0] == "b1*b2: fixed point off the s-chart"
    digests = [hashlib.sha256(r.to_json().encode()).hexdigest() for r in (s3, branch)]
    assert digests == ["8bb78856546c438a8834f1a8c991683f00eb568c000ef3d168d698060869f1e4",
                       "c0257f90876015aea33dded1b7814511bc011e5b7594e90b91d6cf06cfd0f5c0"]
