"""Acceptance gate: the ten exit criteria, each at its stated runtime bound.

Every criterion is exact (integer identities over exact fields; the finite
field certifications are exact statements about F_p points).  Run with
``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; the same suite backs ``upv run all``.
"""

import time

import pytest

from upv import bicanon, cover, invariants, unproj
from upv.checks import RunConfig, RunContext, resolve_targets, run_checks
from upv.scalars import GF, QQ


@pytest.fixture(scope="module")
def ctx():
    return RunContext(RunConfig())


def _criterion(n, label, limit_s, started, ok, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"criterion {n:2d} [{label}]: {status} "
          f"({elapsed:.2f}s of {limit_s:.0f}s budget){' ' + detail if detail else ''}")
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < limit_s, f"criterion {n} exceeded {limit_s}s ({elapsed:.2f}s)"


def test_criterion_01_census_and_master_pullback(ctx):
    t0 = time.perf_counter()
    j = unproj.build_unprojection_ideal()
    census = j.counts()
    sig = cover.sigma_map(QQ)
    all_zero = all(sig.apply(g).is_zero() for g in j.polys())
    z1_ok = cover.z1_poly(QQ) == cover.z1_display(QQ)
    nu = ctx.draw_nu(13, "acc1")
    _, zrep = cover.build_z2(nu)
    ok = (census == {"quadric": 3, "cubic": 32, "quartic": 28}
          and len(j.generators) == 63 and all_zero and z1_ok and zrep.passed)
    _criterion(1, "ideal census + pullback", 5, t0, ok,
               f"63 generators -> 0; Z2 convention: exact display match")


def test_criterion_02_plane_incidence(ctx):
    t0 = time.perf_counter()
    rep = unproj.verify_plane_incidences()
    ok = rep.passed and rep.witness["line_count"] == 24 \
        and rep.witness["empty_count"] == 4
    _criterion(2, "plane incidences", 1, t0, ok, "24 lines, 4 empty pairs")


def test_criterion_03_jacobian_minor(ctx):
    t0 = time.perf_counter()
    rep = unproj.verify_jacobian_minor()
    ok = rep.passed and len(rep.witness["signs"]) == 8
    _criterion(3, "Jacobian minors", 30, t0, ok, "all 8 determinants +-y^11")


def test_criterion_04_group_certification(ctx):
    t0 = time.perf_counter()
    group, rep = cover.build_lifts_and_certify()
    ok = rep.passed and group.order == 16 \
        and group.order_histogram() == {1: 1, 2: 3, 4: 12} \
        and not group.is_abelian()
    _criterion(4, "Z/2 x Q8 certification", 1, t0, ok,
               "order 16, statistics (1,3,12), mu bijective")


def test_criterion_05_freeness_and_smoothness(ctx):
    t0 = time.perf_counter()
    rep = run_checks(resolve_targets(["cover.free_action"]), ctx)[0]
    detail = []
    if rep.passed:
        for p, d in rep.witness["per_prime"].items():
            detail.append(f"GF({p}): 5 draws, {len(d['redraws'])} redraws")
    _criterion(5, "free action + smoothness", 60, t0, rep.passed,
               "; ".join(detail) or str(rep.witness))


def test_criterion_06_hilbert_plurigenera(ctx):
    t0 = time.perf_counter()
    nus = {p: [ctx.draw_nu(p, f"acc6_{k}") for k in range(3)]
           for p in (13, 17, 29)}
    rep_t = invariants.hilbert_t_report((13, 17, 29), nus, max_degree=4)
    rep_x = invariants.hilbert_x_report(13, 6)
    ok = rep_t.passed and rep_x.passed
    _criterion(6, "Hilbert functions", 120, t0, ok,
               "h_T = 1,7,32,80,152 over 3 primes x 3 draws; h_X matches series")


def test_criterion_07_intersection_numbers(ctx):
    t0 = time.perf_counter()
    rep = invariants.intersection_numbers_report()
    _criterion(7, "intersection numbers", 1, t0, rep.passed,
               "H^4 = 24, deg 12 downstairs, K^2 = 24")


def test_criterion_08_bicanonical_cubic(ctx):
    t0 = time.perf_counter()
    problems = []
    for p in (13, 17, 29):
        for k in range(20):
            nu = ctx.draw_nu(p, f"acc8_{k}")
            _, rep = bicanon.derive_s3_cubic(nu)
            if not rep.passed:
                problems.append(f"derivation failed at GF({p})")
    pts, _ = ctx.smooth_points(13, "acc8pts")
    rep_pts = bicanon.scubic_points_report(pts)
    if not rep_pts.passed:
        problems.append("point images off the cubic")
    rep_nodes = bicanon.verify_nodes(13, [ctx.draw_nu(13, "acc8n") for _ in range(100)])
    if not rep_nodes.passed:
        problems.append("node check failed")
    rep_split = bicanon.split_plane_sections(ctx.draw_nu(13, "acc8s"))
    if not rep_split.passed:
        problems.append("plane sections failed")
    _criterion(8, "bicanonical cubic", 30, t0, not problems,
               "; ".join(problems) or
               f"60 derivations, {rep_pts.witness['points']} point images, "
               f"100 node draws")


def test_criterion_09_branch_loci(ctx):
    t0 = time.perf_counter()
    rep = run_checks(resolve_targets(["bicanon.branch_loci"]), ctx)[0]
    detail = ""
    if rep.passed:
        detail = f"3 accepted draws, {len(rep.witness['redraws'])} redraws"
    else:
        detail = str(rep.witness.get("problems"))
    _criterion(9, "branch loci", 30, t0, rep.passed, detail)


def test_criterion_10_burniat_pencil(ctx):
    t0 = time.perf_counter()
    reps = {
        "nodes": bicanon.burniat_nodes_report(),
        "charts": bicanon.burniat_charts_report(),
        "f3": bicanon.burniat_f3_report(),
        "lambda": bicanon.lambda_identity_report(),
    }
    from fractions import Fraction
    out, rep_map = bicanon.burniat_parameter_map(Fraction(3))
    reps["parameter_map"] = rep_map
    problems = [k for k, r in reps.items() if not r.passed]
    _criterion(10, "Burniat pencil", 30, t0, not problems,
               "; ".join(problems) or
               f"24 double points; lambda identity = 0; "
               f"nu4 = (lambda+1)/4, stated 4(lambda+1), ratio 16")
