import random
import signal
import tracemalloc
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from upv.ambient import AMBIENT_T4, AMBIENT_XY, EVEN_TUPLES, X_INDEX, Y_INDEX
from upv import cover
from upv.cover import (AMBIENT_LOCAL4, CHARTS, SIGMA_EXPS, FiniteProjGroup,
                       PointArray, ProjAut, SurfacePointSet, aut_arrays,
                       brute_force_count, build_lifts_and_certify, build_z2,
                       canonical_weighted, canonical_weighted_rows,
                       certify_free_and_smooth, chart_keys, check_grid_budget,
                       coefficient_tensor, contract,
                       distinct_rows, downstairs_image_set, enumerate_surface,
                       expand_point, factorwise_fixed_points, gtilde_generators,
                       hplane_problems, image_keys, jacobian_rank2, key_rows,
                       local_equations, local_partials, normalize_factors,
                       p1_rows, p1_table, point_keys, pow_mod,
                       row_keys, s_surface_pattern, sigma_deck_report, sigma_images,
                       sigma_map, s_involution_map, square_rows, square_tensor,
                       table2_generators,
                       tabulated_generator_rows, verify_branch_structure,
                       verify_hplane_decomposition, y_point_count_report,
                       z1_display, z1_poly, z2_display, z2_poly)
from upv.poly import Poly
from upv.scalars import GF, QI, QQ
from upv.unproj import FamilyParams
from grids import all_p1


@pytest.fixture(scope="module")
def lifted():
    """The lifted group and its certificate, built once for this module."""
    return build_lifts_and_certify()


def all_p1_points(p):
    """Every point of (P^1(F_p))^4 in chart order, as tuples."""
    for chart in CHARTS:
        ranges = [range(p) if c == 0 else range(1) for c in chart]
        for vals in product(*ranges):
            yield (chart, tuple(vals))


def point_list(pa):
    return [pa.point(n) for n in range(len(pa))]


def point_array(points, p):
    rows = np.array([chart + vals for chart, vals in points], dtype=np.int64).reshape(-1, 8)
    return PointArray(p, rows[:, :4], rows[:, 4:])


def surface_set(p, nu, points):
    f = GF(p)
    return SurfacePointSet(p, nu, point_array(points, p), (z1_poly(f), z2_poly(nu)))


def test_sigma_images():
    sig = sigma_map(QQ)
    y0000 = Poly.variable(AMBIENT_XY, QQ, "y0000")
    img = sig.apply(y0000)
    (e, c), = img.terms.items()
    names = [AMBIENT_T4.variables[k] for k, v in enumerate(e) if v]
    assert sorted(names) == ["t01", "t11", "t21", "t31"]
    assert all(v in (0, 2) for v in e)


def test_z1_matches_display():
    assert z1_poly(QQ) == z1_display(QQ)
    x0sum = Poly.variable(AMBIENT_XY, QQ, "x00") + Poly.variable(AMBIENT_XY, QQ, "x01")
    assert sigma_map(QQ).apply(x0sum) == z1_display(QQ)


def test_deck_involution():
    rep = sigma_deck_report()
    assert rep.passed and rep.witness["lambda"] == "-1"
    s = s_involution_map(QQ)
    z1 = z1_poly(QQ)
    assert s.apply(z1) == -z1  # multidegree (1,1,1,1), one sign per factor


def test_table2_products_match_tabulated_rows():
    gens = gtilde_generators(QI)
    rows = tabulated_generator_rows(QI)
    for name in gens:
        assert gens[name] == rows[name]


def test_group_certification(lifted):
    group, rep = lifted
    assert rep.passed
    assert group.order == 16
    assert group.order_histogram() == {1: 1, 2: 3, 4: 12}
    # the Cayley-table orders agree with powers of the automorphisms
    assert group.element_orders() == [g.order() for g in group.elements]
    assert not group.is_abelian()
    s = table2_generators(QI)["s"]
    a1b2 = gtilde_generators(QI)["a1~b2~"]
    assert a1b2.mul(a1b2) == s
    squares = {g.mul(g) for g in group.elements if g.order() == 4}
    assert squares == {s}


LIFTED_GROUP_NAMES = [
    "1", "a1~b2~", "a2~b3~", "a3~b1~", "a1~b2~*a1~b2~", "a1~b2~*a2~b3~",
    "a1~b2~*a3~b1~", "a2~b3~*a1~b2~", "a2~b3~*a3~b1~", "a3~b1~*a1~b2~",
    "a3~b1~*a2~b3~", "a1~b2~*a1~b2~*a1~b2~", "a1~b2~*a1~b2~*a2~b3~",
    "a1~b2~*a1~b2~*a3~b1~", "a1~b2~*a2~b3~*a3~b1~", "a1~b2~*a3~b1~*a2~b3~"]


def all_pairs_cayley(group):
    """The oracle: every product of two elements, looked up by its key."""
    index = {g.key(): i for i, g in enumerate(group.elements)}
    return [[index[a.mul(b).key()] for b in group.elements] for a in group.elements]


@pytest.mark.parametrize("field", [QI, GF(13)], ids=["QI", "GF(13)"])
def test_walked_cayley_table_matches_all_pairs_products(field, monkeypatch):
    gens = {name: g.map_entries(field) for name, g in gtilde_generators(QI).items()}
    calls = []
    real_mul = ProjAut.mul

    def counted(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(ProjAut, "mul", counted)
    group = FiniteProjGroup.closure(gens)
    # one product per element and generator, none for the table
    assert len(calls) == 16 * 3
    monkeypatch.undo()
    assert group.names == LIFTED_GROUP_NAMES
    assert [g.key() for g in group.elements] == \
        [g.map_entries(field).key() for g in FiniteProjGroup.closure(
            gtilde_generators(QI)).elements]
    assert group.cayley == all_pairs_cayley(group)
    with pytest.raises(ValueError, match="closure exceeded cap"):
        FiniteProjGroup.closure(gens, cap=15)
    assert FiniteProjGroup.closure(gens, cap=16).cayley == group.cayley


def test_corrupt_cayley_table_fails_the_certificate_promptly(lifted, monkeypatch):
    group = lifted[0]
    cayley = [row[:] for row in group.cayley]
    for h in range(group.order):
        cayley[h][1] = h or 1  # h·g = h, so the powers of g = element 1 stay at 1
    bad = FiniteProjGroup(group.domain, group.elements, group.names, cayley)
    message = f"the powers of {group.names[1]} never reach the identity in the Cayley table"

    def stop(signum, frame):
        raise TimeoutError("the power walk did not stop")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError) as err:
            bad.element_orders()
        monkeypatch.setattr(FiniteProjGroup, "closure", staticmethod(lambda gens, cap=256: bad))
        _, rep = build_lifts_and_certify()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err.value) == message
    assert not rep.passed
    assert rep.witness["problems"][:2] == [message, "order histogram {}"]


def test_projaut_normalization_and_inverse():
    s = table2_generators(QI)["s"]
    assert s.mul(s) == ProjAut.identity(QI)
    # a2~b3~ has order 4 in Q8, so its inverse is its cube
    g = gtilde_generators(QI)["a2~b3~"]
    assert g.mul(g) != ProjAut.identity(QI)
    assert g.mul(g.mul(g).mul(g)) == ProjAut.identity(QI)


def test_z2_exact_display_and_invariance():
    f = GF(13)
    nu = FamilyParams(f, (1, 0, 0, 0, 0))
    z2, rep = build_z2(nu)
    assert rep.passed
    # the nu0-term: t00^2 prod t_j1^2 + t01^2 prod t_j0^2
    assert len(z2.terms) == 2
    assert z2 == z2_display(nu)
    assert z2.multidegrees() == {(2, 2, 2, 2)}
    nu = FamilyParams(f, (3, 1, 4, 1, 5))
    z2, rep = build_z2(nu)
    assert rep.passed and len(z2.terms) == 16


def test_enumeration_matches_brute_force():
    f = GF(13)
    nu = FamilyParams(f, (3, 1, 4, 1, 5))
    pts = enumerate_surface(13, nu)
    assert pts.count == brute_force_count(13, nu)
    assert pts.count % 2 == 0
    # determinism
    again = enumerate_surface(13, nu)
    assert np.array_equal(again.points.keys(), pts.points.keys())


def int_terms(poly):
    return [(int(c), e) for e, c in poly.terms.items()]


def terms_value(terms, coords, p):
    return sum(c * prod(pow(x, k, p) for x, k in zip(coords, e) if k)
               for c, e in terms) % p


@pytest.mark.parametrize("p", [5, 13, 17])
def test_enumeration_equals_brute_force_point_set(p):
    # the in-test oracle: every point of (P^1(F_p))^4, by integer substitution
    f = GF(p)
    z1 = int_terms(z1_poly(f))
    on_z1 = []
    for pt in all_p1_points(p):
        coords = [x for pair in expand_point(pt) for x in pair]
        if terms_value(z1, coords, p) == 0:
            on_z1.append((pt, coords))
    rng = random.Random(p)
    draws = [FamilyParams(f, (3, 1, 4, 1, 0))]  # nu4 = 0: through the coordinate points
    while len(draws) < 3:
        nu = FamilyParams(f, tuple(rng.randrange(p) for _ in range(5)))
        if nu.nu[4] and not nu.degenerate()[0]:
            draws.append(nu)
    if p == 13:
        delta = FamilyParams(f, (5, 1, 2, 3, 1))  # on a delta hyperplane mod 13
        assert delta.degenerate()[0]
        draws.append(delta)
    for nu in draws:
        z2 = int_terms(z2_poly(nu))
        got = point_list(enumerate_surface(p, nu).points)
        assert got == sorted(pt for pt, coords in on_z1 if terms_value(z2, coords, p) == 0)
        assert brute_force_count(p, nu) == len(got)
        # Z1 = C*t00 + D*t01 with C = t11 t21 t31 and D = t10 t20 t30, so
        # C = D = 0 where one of factors 1-3 is (1:0) and another is (0:1);
        # there every point of factor 0 is a candidate
        on_cd_zero = [pt for pt in got
                      if any(pt[0][i] == 0 and pt[1][i] == 0 for i in (1, 2, 3))
                      and any(pt[0][i] == 1 for i in (1, 2, 3))]
        assert on_cd_zero


def whole_grid_brute_force_count(p, nu):
    """The oracle of the blocked scan: the same substitution on every point
    of (P^1(F_p))^4 at once."""
    field = GF(p)
    nu = FamilyParams(field, tuple(field.coerce(v) for v in nu.nu))
    cols = all_p1(p).homogeneous().reshape(-1, 8).T
    for f in (z1_poly(field), z2_poly(nu)):
        acc = np.zeros(cols.shape[1], dtype=np.int64)
        for e, c in f.terms.items():
            t = np.full(cols.shape[1], int(c), dtype=np.int64)
            for col, k in zip(cols, e):
                for _ in range(k):
                    t = t * col % p
            acc = (acc + t) % p
        cols = cols[:, acc == 0]
    return cols.shape[1]


def whole_grid_image_set(p):
    """The oracle of the blocked scan: the sigma-images of the whole grid
    built one factor at a time, then their distinct rows."""
    h = p1_table(1, p)
    coords = h[:, cover.SIGMA_ROWS[:, 0]]
    for j in (1, 2, 3):
        coords = (coords[:, None, :] * h[None, :, cover.SIGMA_ROWS[:, j]]).reshape(-1, 16)
        coords %= p
    coords[:, 8:] **= 2
    return distinct_rows(canonical_weighted_rows(coords, p))


GRID_DRAWS = [(3, 1, 4, 1, 5), (3, 1, 4, 1, 0), (5, 1, 2, 3, 1)]  # nu4 = 0; delta mod 13


@pytest.fixture
def fresh_image_sets():
    """``downstairs_image_set`` computed anew inside the test, and its cache
    left clean for the tests after it."""
    downstairs_image_set.cache_clear()
    yield
    downstairs_image_set.cache_clear()


@pytest.mark.parametrize("p", [5, 13, 17])
def test_grid_scans_match_the_whole_grid_oracles(p, fresh_image_sets):
    assert FamilyParams(GF(13), GRID_DRAWS[2]).degenerate()[0]
    for nu in GRID_DRAWS:
        nu = FamilyParams(GF(p), nu)
        assert brute_force_count(p, nu) == whole_grid_brute_force_count(p, nu)
    image, want = downstairs_image_set(p), whole_grid_image_set(p)
    # the residues are stored in one byte each; the oracle keeps int64
    assert image.dtype == np.uint8 and want.dtype == np.int64
    assert image.shape == want.shape and np.array_equal(image, want)
    assert not image.flags.writeable


@pytest.mark.parametrize("p, block", [
    (5, 1),
    # 3 slices of factor 0 a block: neither 14 slices nor 14^4 points divide evenly
    (13, 3 * 14 ** 3 + 5),
])
def test_grid_scans_do_not_depend_on_the_block_size(p, block, fresh_image_sets, monkeypatch):
    counts = [whole_grid_brute_force_count(p, FamilyParams(GF(p), nu)) for nu in GRID_DRAWS]
    want = whole_grid_image_set(p)
    monkeypatch.setattr(cover, "GRID_BLOCK", block)
    assert [brute_force_count(p, FamilyParams(GF(p), nu)) for nu in GRID_DRAWS] == counts
    assert np.array_equal(downstairs_image_set(p), want)


def test_grid_scans_hold_a_block_not_the_grid(fresh_image_sets):
    # the whole-grid scans peaked at 19.2 MB and 35.7 MB here
    p, mb = 17, 2 ** 20
    nu = FamilyParams(GF(p), (3, 1, 4, 1, 5))
    brute_force_count(p, nu)  # builds the field and the equations' caches
    tracemalloc.start()
    try:
        brute_force_count(p, nu)
        brute_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        image = downstairs_image_set(p)
        image_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert brute_peak <= 2 * mb
    assert image_peak <= image.nbytes + 4 * mb


def test_grid_oracle_matches_the_enumerator_at_37():
    nu = FamilyParams(GF(37), (2, 3, 5, 7, 11))
    assert enumerate_surface(37, nu).count == brute_force_count(37, nu) > 0


@pytest.mark.parametrize("base", [2, 13, 17, 2 ** 31 - 1, 2 ** 62])
def test_key_rows_invert_row_keys(base):
    rng = np.random.default_rng(base % 1000)
    rows = rng.integers(0, base, size=(50, 16), dtype=np.int64)
    rows[0] = base - 1
    rows[1] = 0
    keys = row_keys(rows, base)
    assert all(k.dtype == np.int64 and (k >= 0).all() for k in keys)
    got = key_rows(keys, base, 16)
    assert got.dtype == {2: np.uint8, 13: np.uint8, 17: np.uint8,
                         2 ** 31 - 1: np.uint32, 2 ** 62: np.uint64}[base]
    assert got.tolist() == rows.tolist()


def test_grid_budget_admits_29_and_refuses_73():
    assert check_grid_budget(29) == 30 ** 4
    for p in (73, 97):
        with pytest.raises(ValueError, match=f"p = {p} needs {(p + 1) ** 4} points"):
            check_grid_budget(p)


def test_grid_scans_check_the_budget_first(monkeypatch):
    # a budget below the p = 13 grid, so that a scan that skipped the
    # check would run to the end instead of raising
    monkeypatch.setattr(cover, "GRID_BUDGET", 14 ** 4 - 1)
    downstairs_image_set.cache_clear()
    nu = FamilyParams(GF(13), (3, 1, 4, 1, 5))
    for scan in (lambda: brute_force_count(13, nu), lambda: downstairs_image_set(13)):
        with pytest.raises(ValueError, match=r"p = 13 needs 38416 points \(budget 38415\)"):
            scan()


def test_brute_force_shares_nothing_with_the_enumerator(monkeypatch):
    import upv.cover as cover_module
    p, nu = 13, FamilyParams(GF(13), (3, 1, 4, 1, 5))
    f = GF(p)
    z1, z2 = int_terms(z1_poly(f)), int_terms(z2_poly(nu))
    expected = 0
    for pt in all_p1_points(p):
        coords = [x for pair in expand_point(pt) for x in pair]
        expected += terms_value(z1, coords, p) == 0 and terms_value(z2, coords, p) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the enumerator's kernel")

    for name in ("contract", "p1_rows", "p1_table", "square_rows", "coefficient_tensor",
                 "square_tensor", "folded_tensor", "square_sums", "chart_keys", "pow_mod",
                 "enumerate_surface"):
        monkeypatch.setattr(cover_module, name, forbidden)
    assert brute_force_count(p, nu) == expected > 0


def partial_terms(f, k, p):
    """Integer terms (c, exps) mod p of the partial derivative in variable k."""
    field = GF(p)
    return [(int(field.coerce(c)) * e[k] % p, e[:k] + (e[k] - 1,) + e[k + 1:])
            for e, c in f.terms.items() if e[k]]


def eval_terms(polys, coords, p):
    """Values mod p of integer term lists at the rows of ``coords`` (N, k):
    shape (len(polys), N).  Every product is reduced mod p before it is
    added (no product exceeds (p-1)^2 < 2^62); each sum of residues is
    reduced once, at the end."""
    cols = coords.T % p
    powers = {1: cols}
    out = np.zeros((len(polys), cols.shape[1]), dtype=np.int64)
    for row, terms in zip(out, polys):
        for c, e in terms:
            t = c % p
            for k, ek in enumerate(e):
                if ek:
                    if ek not in powers:
                        powers[ek] = pow_mod(cols, ek, p)
                    t = t * powers[ek][k] % p
            row += t  # fewer than 2^32 residues cannot reach 2^63
        row %= p
    return out


def eval_terms_enumerate(p, nu):
    """The oracle of the tensor enumerator: Z1 solved for the first factor,
    slice by slice, with C, D and Z2 evaluated term by term (eval_terms)."""
    f = GF(p)
    nu = FamilyParams(f, tuple(f.coerce(v) for v in nu.nu))
    z1, z2 = (int_terms(g) for g in (z1_poly(f), z2_poly(nu)))
    cd = [[(c, e[2:]) for c, e in z1 if e[a]] for a in (0, 1)]
    n = p + 1
    line_chart = (np.arange(n) == p).astype(np.int64)
    line_vals = np.arange(n) % p
    pair = np.indices((n, n)).reshape(2, -1)
    grid = PointArray(p, np.zeros((n * n, 4), dtype=np.int64),
                      np.zeros((n * n, 4), dtype=np.int64))
    grid.chart[:, 2:], grid.vals[:, 2:] = line_chart[pair].T, line_vals[pair].T
    charts, vals = [], []
    for k in range(n):
        grid.chart[:, 1], grid.vals[:, 1] = line_chart[k], line_vals[k]
        c, d = eval_terms(cd, grid.homogeneous().reshape(-1, 8)[:, 2:], p)
        solved = (c != 0) | (d != 0)
        free = np.flatnonzero(~solved)
        rows = np.concatenate([np.flatnonzero(solved), free.repeat(n)])
        cand = PointArray(p, grid.chart[rows], grid.vals[rows])
        cand.chart[:, 0] = np.concatenate([d[solved] == 0, np.tile(line_chart, free.size)])
        cand.vals[:, 0] = np.concatenate([(p - c[solved]) * pow_mod(d[solved], p - 2, p) % p,
                                          np.tile(line_vals, free.size)])
        on = eval_terms([z2], cand.homogeneous().reshape(-1, 8), p)[0] == 0
        charts.append(cand.chart[on])
        vals.append(cand.vals[on])
    chart, vals = np.concatenate(charts), np.concatenate(vals)
    order = np.lexsort(np.concatenate([chart, vals], axis=1).T[::-1])
    return chart[order], vals[order]


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_tensor_enumeration_matches_eval_terms_oracle(p):
    f = GF(p)
    rng = random.Random(1000 + p)
    draws = [(3, 1, 4, 1, 0), (1, 1, 0, 1, 3)]  # nu4 = 0; nu2 = 0 (degenerate)
    while len(draws) < 12:
        nu = tuple(rng.randrange(p) for _ in range(5))
        if any(nu):
            draws.append(nu)
    for nu in draws:
        pts = enumerate_surface(p, FamilyParams(f, nu)).points
        chart, vals = eval_terms_enumerate(p, FamilyParams(f, nu))
        assert np.array_equal(pts.chart, chart) and np.array_equal(pts.vals, vals), nu


@pytest.mark.parametrize("p", [13, 17, 29])
def test_enumeration_in_blocks_of_one_point_matches_the_default(p, monkeypatch):
    # BLOCK_CELLS = 1 takes one point of factor 1 a block, the per-point
    # loop; the default takes one block at p = 13 and 17 and four at 29
    f = GF(p)
    rng = random.Random(3000 + p)
    draws = [(5, 1, 2, 3, 1)]  # delta-degenerate mod 13
    while len(draws) < 3:
        nu = tuple(rng.randrange(p) for _ in range(5))
        if nu[4] and not FamilyParams(f, nu).degenerate()[0]:
            draws.append(nu)
    for nu in map(lambda v: FamilyParams(f, v), draws):
        default = enumerate_surface(p, nu).points
        with monkeypatch.context() as m:
            m.setattr(cover, "BLOCK_CELLS", 1)
            single = enumerate_surface(p, nu).points
        assert np.array_equal(single.chart, default.chart)
        assert np.array_equal(single.vals, default.vals)
        assert len(default) == brute_force_count(p, nu)


def test_tensor_enumeration_matches_eval_terms_oracle_at_61():
    nu = FamilyParams(GF(61), (2, 3, 5, 7, 11))
    pts = enumerate_surface(61, nu).points
    chart, vals = eval_terms_enumerate(61, nu)
    assert np.array_equal(pts.chart, chart) and np.array_equal(pts.vals, vals)


def test_coefficient_tensors_evaluate_like_poly():
    p = 5
    f = GF(p)
    z2 = z2_poly(FamilyParams(f, (3, 1, 4, 1, 5)))
    for poly, d in ((z1_poly(f), 1), (z2, 2)):
        # each mode product moves the leading exponent axis to the end as
        # the axis of points: (a0, a1, a2, a3) becomes (k0, k1, k2, k3)
        value = coefficient_tensor(poly, d, p)
        for _ in range(4):
            value = contract(value, p1_table(d, p), p)
        grid = all_p1(p)
        index = np.where(grid.chart == 1, p, grid.vals)
        got = value[tuple(index.T)]
        expect = [int(poly.evaluate([f.from_int(x) for x in row]))
                  for row in grid.homogeneous().reshape(-1, 8).tolist()]
        assert got.tolist() == expect
    with pytest.raises(ValueError):
        coefficient_tensor(z2, 1, p)


def test_contract_exact_near_prime_bound():
    # (p-1)^2 is just below 2^62, so three unreduced products overflow int64
    p = BOUND_PRIME
    tensor = np.full((3, 3, 3, 3), p - 1, dtype=np.int64)
    table = np.full((4, 3), p - 1, dtype=np.int64)
    got = contract(tensor, table, p)
    assert got.shape == (3, 3, 3, 4)
    assert np.all(got == 3 * (p - 1) ** 2 % p)
    rng = random.Random(2)
    tensor = np.array([rng.randrange(p - 100, p) for _ in range(81)],
                      dtype=np.int64).reshape(3, 3, 3, 3)
    table = np.array([rng.randrange(p - 100, p) for _ in range(12)],
                     dtype=np.int64).reshape(4, 3)
    expect = [[[[sum(int(tensor[a, i, j, l]) * int(table[k, a]) for a in range(3)) % p
                 for k in range(4)] for l in range(3)] for j in range(3)] for i in range(3)]
    assert contract(tensor, table, p).tolist() == expect


def test_square_tensor_is_z2_read_on_the_squares():
    p = 13
    nu = FamilyParams(GF(p), (3, 1, 4, 1, 5))
    c = cover.square_tensor(z1_poly(GF(p)), z2_poly(nu), p)
    assert c.shape == (2, 2, 2, 2)
    full = coefficient_tensor(z2_poly(nu), 2, p)
    assert np.array_equal(c, full[::2, ::2, ::2, ::2]) and full.sum() == c.sum()


def monomial(exps, coef, p):
    return Poly.monomial(AMBIENT_T4, GF(p), exps, coef)


ODD_TERMS = [
    (1, 1, 2, 0, 2, 0, 2, 0),  # t00*t01*t10^2*t20^2*t30^2: odd in factor 0
    (0, 2, 2, 0, 1, 1, 0, 2),  # odd in factor 2 alone
]


@pytest.mark.parametrize("exps", ODD_TERMS)
def test_enumeration_rejects_a_z2_off_the_squares(exps, monkeypatch):
    p, z2_poly_of = 13, cover.z2_poly
    term = monomial(exps, 7, p)
    monkeypatch.setattr(cover, "z2_poly", lambda nu: z2_poly_of(nu) + term)
    with pytest.raises(ValueError) as err:
        enumerate_surface(p, FamilyParams(GF(p), (3, 1, 4, 1, 5)))
    # the message names the term as Poly prints it
    assert str(err.value) == ("Z2 is not a form in the squares t_j0^2, t_j1^2: "
                              f"it has the term {term}")
    assert str(term) in ("7*t00*t01*t10^2*t20^2*t30^2", "7*t01^2*t10^2*t20*t21*t31^2")


@pytest.mark.parametrize("exps", ODD_TERMS)
def test_certificate_rejects_a_z2_off_the_squares(exps, lifted, monkeypatch):
    # the Jacobian reads Z2 as a form in the squares, so a certificate for
    # equations of another shape must refuse them as the enumerator does
    group, _ = lifted
    p, z2_poly_of = 13, cover.z2_poly
    nu = FamilyParams(GF(p), (3, 1, 4, 1, 5))
    points = enumerate_surface(p, nu).points
    term = monomial(exps, 7, p)
    monkeypatch.setattr(cover, "z2_poly", lambda nu: z2_poly_of(nu) + term)
    with pytest.raises(ValueError) as enumerated:
        enumerate_surface(p, nu)
    odd = SurfacePointSet(p, nu, points, (z1_poly(GF(p)), cover.z2_poly(nu)))
    with pytest.raises(ValueError) as certified:
        certify_free_and_smooth(odd, group)
    assert str(certified.value) == str(enumerated.value)
    assert str(term) in str(certified.value)


@pytest.mark.parametrize("exps, coef, named", [
    ((1, 0, 1, 0, 1, 0, 1, 0), 1, "t00*t10*t20*t30 has coefficient 1"),  # a third term
    ((1, 0, 0, 1, 0, 1, 0, 1), 1, "t00*t11*t21*t31 has coefficient 2"),  # a scaled term
    ((0, 1, 1, 0, 1, 0, 1, 0), -1, "t01*t10*t20*t30 has coefficient 0"),  # a lost term
])
def test_enumeration_rejects_an_altered_z1(exps, coef, named, monkeypatch):
    p, z1_poly_of = 13, cover.z1_poly
    extra = monomial(exps, coef, p)
    monkeypatch.setattr(cover, "z1_poly", lambda field: z1_poly_of(field) + extra)
    with pytest.raises(ValueError) as err:
        enumerate_surface(p, FamilyParams(GF(p), (3, 1, 4, 1, 5)))
    assert str(err.value) == f"Z1 is not t00*t11*t21*t31 + t01*t10*t20*t30: its term {named}"


def test_folded_tensor_and_square_sums_exact_near_prime_bound():
    # (p-1)^2 is just below 2^62, so two unreduced products overflow int64
    p = BOUND_PRIME
    rng = random.Random(3)
    full = lambda *shape: np.full(shape, p - 1, dtype=np.int64)
    near = lambda *shape: np.array([rng.randrange(p - 100, p) for _ in range(prod(shape))],
                                   dtype=np.int64).reshape(shape)
    for residues in (full, near):
        c, squares = residues(2, 2, 2, 2), residues(5, 3, 2)
        cl, sq = c.tolist(), squares.tolist()
        # W[e] = c[0, e] where every e_j < 2, plus c[1, e - 1] where every e_j > 0
        want = [[[((cl[0][i][j][k] if max(i, j, k) < 2 else 0)
                   + (cl[1][i - 1][j - 1][k - 1] if min(i, j, k) > 0 else 0)) % p
                  for k in range(3)] for j in range(3)] for i in range(3)]
        assert cover.folded_tensor(c, p).tolist() == want
        want = [[sum(cl[b][a1][a2][a3] * sq[n][0][a1] * sq[n][1][a2] * sq[n][2][a3]
                     for a1, a2, a3 in product((0, 1), repeat=3)) % p
                 for n in range(5)] for b in (0, 1)]
        assert [x.tolist() for x in cover.square_sums(c, squares, p)] == want


def test_points_satisfy_equations_on_reload():
    f = GF(13)
    nu = FamilyParams(f, (3, 1, 4, 1, 5))
    pts = enumerate_surface(13, nu)
    z1 = z1_poly(f)
    from upv.unproj import q_section
    z2 = sigma_map(f).apply(q_section(nu)) * f.from_int(2)
    for pt in point_list(pts.points)[:50]:
        coords = [f.from_int(c) for pair in expand_point(pt) for c in pair]
        assert not z1.evaluate(coords) and not z2.evaluate(coords)


def test_free_and_smooth_good_nu(lifted):
    group, _ = lifted
    f = GF(13)
    nu = FamilyParams(f, (1, 1, 1, 1, 3))
    assert not nu.degenerate()[0]
    rep = certify_free_and_smooth(enumerate_surface(13, nu), group)
    assert rep.passed
    assert rep.witness["points"] == 432


def test_nu4_zero_fails_smoothness(lifted):
    # the family member with vanishing last parameter passes through the
    # coordinate points and must be caught by the rank test
    group, _ = lifted
    f = GF(13)
    nu = FamilyParams(f, (3, 1, 4, 1, 0))
    rep = certify_free_and_smooth(enumerate_surface(13, nu), group)
    assert not rep.passed
    assert rep.witness["nu4_zero"] is True


def test_branch_structure():
    assert verify_branch_structure(13).passed


def grid_fixed_points(g, p):
    """The oracle: the points of (P^1(F_p))^4 whose image under g, by the
    array action ``act_points``, has the point's own key."""
    grid = all_p1(p)
    chart, vals = act_points(*aut_arrays([g.map_entries(GF(p))], p), grid)
    image = point_keys(np.where(chart[0] == 1, p, vals[0]), p)
    return [grid.point(n) for n in np.flatnonzero(image == grid.keys())]


@pytest.mark.parametrize("p", [13, 17])
def test_factorwise_fixed_points_match_the_grid_scan(p):
    t2 = table2_generators(QI)
    one, zero, eps = QI.one(), QI.zero(), QI.sqrt_minus_one()
    swap, turn = ((zero, one), (one, zero)), ((zero, one), (eps, zero))
    shear = ((one, one), (zero, one))  # fixes (1, 0) alone
    auts = [t2[name] for name in ("s", "b1~", "b2~", "b3~")]
    auts += [ProjAut(QI, (0, 1, 2, 3), (swap, turn, shear, t2["s"].mats[3])),
             ProjAut.identity(QI)]
    for g in auts:
        fixed = factorwise_fixed_points(aut_arrays([g], p)[1][0], p)
        assert sorted(point_list(fixed)) == grid_fixed_points(g, p)
    # the deck involution: exactly the 16 coordinate points
    assert grid_fixed_points(t2["s"], p) == [(chart, (0, 0, 0, 0)) for chart in CHARTS]


@pytest.mark.parametrize("mutant, problem", [
    ("antidiagonal", "deck involution fixes 16 points"),
    ("permuted", "deck involution permutes the factors by (1, 0, 2, 3)"),
])
def test_branch_structure_fails_for_a_mutant_deck_involution(mutant, problem, monkeypatch):
    real = cover.table2_generators

    def mutated(domain=QI):
        gens = real(domain)
        s = gens["s"]
        one, zero = domain.one(), domain.zero()
        if mutant == "antidiagonal":  # fixes (1, 1) and (1, -1) on factor 0
            gens["s"] = ProjAut(domain, s.pi, (((zero, one), (one, zero)),) + s.mats[1:])
        else:
            gens["s"] = ProjAut(domain, (1, 0, 2, 3), s.mats)
        return gens

    monkeypatch.setattr(cover, "table2_generators", mutated)
    rep = verify_branch_structure(13)
    assert not rep.passed
    assert rep.witness["problems"] == [problem]


def constructor_product(g, h):
    """g*h by the public constructor: each entry summed from zero, then
    every entry coerced and each matrix scaled by its first nonzero entry."""
    d = g.domain
    mats = [[[sum((h.mats[j][r][k] * g.mats[h.pi[j]][k][c] for k in (0, 1)), d.zero())
              for c in (0, 1)] for r in (0, 1)] for j in range(4)]
    return ProjAut(d, [g.pi[h.pi[j]] for j in range(4)], mats)


@pytest.mark.parametrize("field", [QI, GF(13)], ids=str)
def test_mul_matches_the_constructor_product(field, lifted):
    group, _ = lifted
    elements = [g.map_entries(field) for g in group.elements]
    assert len(elements) == 16
    for g in elements:
        for h in elements:
            got, want = g.mul(h), constructor_product(g, h)
            assert got == want and hash(got) == hash(want)
    # products whose first nonzero entry is i, then 2, before the scaling
    eps, one, zero = field.sqrt_minus_one(), field.one(), field.zero()
    turn = ProjAut(field, (1, 2, 3, 0), [((zero, one), (eps, zero))] * 4)
    upper = ProjAut(field, (0, 1, 2, 3), [((one, one), (zero, one))] * 4)
    lower = ProjAut(field, (0, 1, 2, 3), [((one, zero), (one, one))] * 4)
    for g, h, lead in ((turn, turn, eps), (lower, upper, field.from_int(2))):
        (a, b), _ = h.mats[0]
        (e, _), (c, _) = g.mats[h.pi[0]]
        assert a * e + b * c == lead  # the top left entry of factor 0
        got = g.mul(h)
        assert got == constructor_product(g, h) and got.mats[0][0][0] == 1


def test_constructor_coerces_and_rejects_a_zero_matrix():
    eye = ((1, 0), (0, 1))
    g = ProjAut(QI, (0, 1, 2, 3), [((0, 2), (3, 0))] + [eye] * 3)
    assert g.mats[0] == ((0, 1), (QI.from_int(3) / 2, 0))
    assert all(type(x) is type(QI.one()) for m in g.mats for row in m for x in row)
    with pytest.raises(ValueError, match="zero matrix"):
        ProjAut(GF(13), (0, 1, 2, 3), [((0, 13), (26, 0))] + [eye] * 3)
    # two singular matrices whose product is zero
    upper = ProjAut(QI, (0, 1, 2, 3), [((1, 0), (0, 0))] + [eye] * 3)
    lower = ProjAut(QI, (0, 1, 2, 3), [((0, 0), (0, 1))] + [eye] * 3)
    with pytest.raises(ValueError, match="zero matrix"):
        upper.mul(lower)


def test_downstairs_image_count():
    rep = y_point_count_report(13)
    assert rep.passed
    assert rep.witness["image_points"] == ((13 + 1) ** 4 - 16) // 2 + 16 == 19216


def test_downstairs_image_is_the_sorted_set_of_sigma_images():
    p = 5
    image = downstairs_image_set(p)
    assert image.shape == (((p + 1) ** 4 - 16) // 2 + 16, 16)
    assert list(map(tuple, image.tolist())) == sorted(
        {tuple(scalar_sigma_image(pt, p)) for pt in all_p1_points(p)})
    assert not image.flags.writeable
    assert distinct_rows(np.vstack([image[::-1], image[:7]])).tolist() == image.tolist()


def lexsort_distinct_rows(rows):
    """The oracle: a lexsort over all columns, then adjacent rows compared."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def surface_images(p, nu):
    return sigma_images(enumerate_surface(p, FamilyParams(GF(p), nu)).points)


def random_rows(high):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, high, size=(300, 16), dtype=np.int64)
    rows[::2, :2] = rows[0, :2]  # half the rows share their leading key
    return np.vstack([rows, rows[::3], rows[:1]])


@pytest.mark.parametrize("rows, nkeys", [
    pytest.param(lambda: sigma_images(all_p1(13)), 1, id="grid_13"),
    pytest.param(lambda: surface_images(29, (3, 1, 4, 1, 5)), 2, id="surface_29"),
    pytest.param(lambda: surface_images(37, (2, 3, 5, 7, 11)), 2, id="surface_37"),
    # two residues below 2^31 - 1 share a key, since (2^31 - 2)^2 < 2^63
    pytest.param(lambda: random_rows(2 ** 31 - 1), 8, id="residues_below_2^31"),
    pytest.param(lambda: random_rows(2 ** 62), 16, id="entries_below_2^62"),
    pytest.param(lambda: np.zeros((0, 16), dtype=np.int64), 1, id="empty"),
    # base 16: fifteen columns in the first key, one in the second
    pytest.param(lambda: np.arange(16, dtype=np.int64)[None], 2, id="one_row"),
    pytest.param(lambda: np.tile(np.arange(16, dtype=np.int64) % 3, (9, 1)), 1,
                 id="all_duplicates"),
])
def test_distinct_rows_matches_the_column_lexsort(rows, nkeys, monkeypatch):
    rows = rows()
    lexsort, seen = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: seen.append(len(keys)) or lexsort(keys))
    got = distinct_rows(rows)
    monkeypatch.undo()
    assert seen == [nkeys]
    want = lexsort_distinct_rows(rows)
    assert got.shape == want.shape and got.dtype == rows.dtype
    assert got.tolist() == want.tolist()
    assert not got.flags.writeable
    assert len(got) == len({tuple(r) for r in rows.tolist()})


def test_distinct_rows_rejects_negative_entries():
    rows = np.ones((4, 16), dtype=np.int64)
    rows[2, 9] = -1
    with pytest.raises(ValueError, match="nonnegative"):
        distinct_rows(rows)


@pytest.mark.parametrize("p", [13, 17])
def test_downstairs_image_set_matches_the_point_kernel(p):
    # the grid built factor by factor against the chart-form kernel
    image = downstairs_image_set(p)
    assert image.tolist() == lexsort_distinct_rows(
        sigma_images(all_p1(p))).tolist()


def tuple_hplane_problems(image, p):
    """The oracle: the decomposition check as a scan over a set of tuples."""
    problems = []
    for t in EVEN_TUPLES:
        zero_cols = [X_INDEX[(k, t[k])] for k in range(4)]
        lhs = {pt for pt in image if all(pt[c] == 0 for c in zero_cols)}
        tc = tuple(1 - v for v in t)
        union = set()
        y_col = Y_INDEX[tc]
        coord_pt = {pt for pt in lhs
                    if all(pt[k] == 0 for k in range(16) if k != y_col) and pt[y_col]}
        union |= coord_pt
        name = "H~" + "".join(map(str, t))
        if not coord_pt:
            problems.append(f"{name}: coordinate point missing")
        for i, j in combinations(range(4), 2):
            allowed, (cx1, cx2, cy1, cy2) = s_surface_pattern(i, j, tc[i], tc[j])
            for pt in lhs:
                if any(pt[k] for k in range(16) if k not in allowed):
                    continue
                if (pt[cy1] * pt[cy2]) % p != (pt[cx1] * pt[cx1] * pt[cx2] * pt[cx2]) % p:
                    problems.append(f"{name}: quartic fails on S^{i}{j}")
                    continue
                union.add(pt)
        extra = lhs - union
        if extra:
            problems.append(f"{name}: {len(extra)} points outside the "
                            f"decomposition, e.g. {sorted(extra)[0]}")
    return problems


def test_hplane_decomposition():
    assert verify_hplane_decomposition(13).passed


@pytest.mark.parametrize("p", [5, 13])
def test_hplane_problems_match_tuple_scan(p):
    image = downstairs_image_set(p)
    assert hplane_problems(image, p) == tuple_hplane_problems(set(map(tuple, image.tolist())), p) == []
    # x01, x11, x21, x31 nonzero: inside the section H~0000, on none of its pieces
    off_pieces = [[0, 1, 0, 1, 0, 1, 0, 1] + [0] * 8, [0, 1, 0, 2, 0, 3, 0, 4] + [0] * 8]
    # y1111 (the coordinate point of H~0000) together with x01: on no piece
    beside = [0] * 16
    beside[X_INDEX[(0, 1)]] = beside[Y_INDEX[(1, 1, 1, 1)]] = 1
    # supported on the piece S^01 of H~0000, with y1*y2 = 2 != x1^2*x2^2 = 1
    off_quartic = [0] * 16
    _, (cx1, cx2, cy1, cy2) = s_surface_pattern(0, 1, 1, 1)
    off_quartic[cx1] = off_quartic[cx2] = off_quartic[cy1] = 1
    off_quartic[cy2] = 2
    perturbed = [distinct_rows(np.vstack([image, np.array(added, dtype=np.int64)]))
                 for added in (off_pieces, [beside], [off_quartic])]
    coordinate_point = ((image != 0).sum(axis=1) == 1) & (image[:, Y_INDEX[(1, 1, 1, 1)]] != 0)
    perturbed.append(image[~coordinate_point])
    problems = [hplane_problems(rows, p) for rows in perturbed]
    for rows, got in zip(perturbed, problems):
        assert got == tuple_hplane_problems(set(map(tuple, rows.tolist())), p)
    assert problems[0] == ["H~0000: 2 points outside the decomposition, "
                           f"e.g. {tuple(off_pieces[0])}"]
    assert f"H~0000: 1 points outside the decomposition, e.g. {tuple(beside)}" in problems[1]
    assert "H~0000: quartic fails on S^01" in problems[2]
    assert problems[3] == ["H~0000: coordinate point missing"]


def test_hplane_problems_widen_one_byte_rows_before_multiplying():
    # at p = 17 a product of two residues no longer fits the rows' byte
    p = 17
    image = downstairs_image_set(p)
    assert image.dtype == np.uint8
    # a point of the piece S^01 of H~0000 whose quartic y1*y2 = 16*16 = 1
    # = x1^2*x2^2 mod 17 holds, while 16*16 wraps to 0 in a byte
    row = np.zeros(16, dtype=np.uint8)
    _, (cx1, cx2, cy1, cy2) = s_surface_pattern(0, 1, 1, 1)
    row[[cx1, cx2, cy1, cy2]] = 1, 1, p - 1, p - 1
    assert (image == row).all(axis=1).any()
    assert hplane_problems(image, p) == hplane_problems(image.astype(np.int64), p) == []


def test_canonical_weighted_square_classes():
    p = 13
    # weight-2-only tuples are normalized inside their square class
    a = canonical_weighted([0] * 8 + [4] + [0] * 7, p)   # 4 is a square
    b = canonical_weighted([0] * 8 + [9] + [0] * 7, p)
    assert a == b
    n = canonical_weighted([0] * 8 + [2] + [0] * 7, p)   # 2 is not a square
    assert n != a
    with pytest.raises(ValueError):
        canonical_weighted([0] * 16, p)


def test_chart_bookkeeping():
    assert len(CHARTS) == 16
    assert len(list(all_p1_points(5))) == 6 ** 4
    pt = normalize_factors([(2, 6), (0, 3), (1, 0), (5, 5)], 13)
    assert pt[0] == (0, 1, 0, 0)
    assert expand_point(pt)[1] == (0, 1)


def test_orbit_closure(lifted):
    group, _ = lifted
    p, f = 13, GF(13)
    nu = FamilyParams(f, (3, 1, 4, 1, 5))
    pts = point_list(enumerate_surface(p, nu).points)
    point_set = set(pts)
    for g in group.elements[:6]:
        gp = g.map_entries(f)
        for pt in pts[:40]:
            assert gp.act_point(pt, p) in point_set


# -- the point kernel against its scalar oracles ------------------------------

BOUND_PRIME = 2147483029  # below 2^31 and 1 mod 4


def local_point(point):
    """The local coordinates w_i of a chart-form point (see local_equations)."""
    chart, vals = point
    return tuple(vals[i] if chart[i] == 0 else 0 for i in range(4))


def scalar_rank2(p, nu, pts):
    """Rank-2 test of the local Jacobian at each point, by Poly.evaluate."""
    f = GF(p)
    jacs = {}
    out = []
    for pt in pts:
        if pt[0] not in jacs:
            eqs = local_equations(p, nu, pt[0])
            jacs[pt[0]] = [[eq.derivative(v) for v in AMBIENT_LOCAL4.variables]
                           for eq in eqs]
        jac = jacs[pt[0]]
        w = [f.from_int(x) for x in local_point(pt)]
        r0 = [jac[0][k].evaluate(w) for k in range(4)]
        r1 = [jac[1][k].evaluate(w) for k in range(4)]
        out.append(any(r0[a] * r1[b] - r0[b] * r1[a]
                       for a, b in combinations(range(4), 2)))
    return out


def scalar_certify_problems(points, group):
    """The per-point certification: act_point and Poly.evaluate."""
    p, f = points.p, GF(points.p)
    problems = []
    pts = point_list(points.points)
    point_set = set(pts)
    reduced = [(name, g.map_entries(f)) for name, g in zip(group.names, group.elements)]
    free = closed = True
    for name, g in reduced:
        if g == ProjAut.identity(f):
            continue
        fixed = 0
        for pt in pts:
            img = g.act_point(pt, p)
            if img not in point_set:
                closed = False
                problems.append(f"orbit of {pt} leaves the surface under {name}")
                break
            if img == pt:
                fixed += 1
                if fixed == 1:
                    free = False
                    problems.append(f"{name} fixes {pt}")
    by_chart = sorted(pts, key=lambda pt: pt[0])
    singular = [pt for pt, ok in zip(by_chart, scalar_rank2(p, points.nu, by_chart))
                if not ok]
    if singular:
        problems.append(f"rank drop at {len(singular)} points, first {singular[0]}")
    if points.count % 2:
        problems.append(f"odd point count {points.count} (deck involution not free)")
    order = len({g.key() for _, g in reduced})
    if free and closed and points.count % order:
        problems.append(f"point count {points.count} is not a multiple of the "
                        f"group order {order}")
    return problems[:8]


def hand_group(g):
    return FiniteProjGroup(QI, [ProjAut.identity(QI), g], ["1", "g"], [[0, 1], [1, 0]])


def act_points(pi, mats, pa):
    """The oracle of the image keys, beside ``ProjAut.act_point``: images of
    N points under M automorphisms (``aut_arrays``) in chart form, chart and
    vals of shape (M, N, 4), each 2x2 map evaluated by products and Fermat
    inverses at the distinct coordinates of the point set."""
    p = pa.p
    digits = np.where(pa.chart == 1, p, pa.vals)  # digit p: the factor (0, 1)
    values, where = np.unique(digits, return_inverse=True)
    s0 = (values != p).astype(np.int64)
    s1 = np.where(values == p, 1, values)
    t0 = (mats[..., 0, 0, None] * s0 + mats[..., 0, 1, None] * s1) % p  # (M, 4, U)
    t1 = (mats[..., 1, 0, None] * s0 + mats[..., 1, 1, None] * s1) % p
    assert not np.any(t1[t0 == 0] == 0)
    chart = (t0 == 0).astype(np.int64)
    vals = t1 * pow_mod(t0, p - 2, p) % p  # Fermat inverse, 0 for t0 = 0
    src = where.reshape(digits.shape).T[pi]  # (M, 4, N): slot of factor pi[j]
    return (np.take_along_axis(chart, src, axis=2).transpose(0, 2, 1),
            np.take_along_axis(vals, src, axis=2).transpose(0, 2, 1))


def test_array_action_matches_act_point_everywhere_at_13(lifted):
    # the per-prime P^1 tables of the kernel against act_point and against
    # the distinct-coordinate oracle act_points, on all of (P^1(F_13))^4
    group, _ = lifted
    p, f = 13, GF(13)
    grid = all_p1(p)
    pts = list(all_p1_points(p))
    assert [grid.point(n) for n in range(len(grid))] == pts
    reduced = [g.map_entries(f) for g in group.elements]
    chart, vals = act_points(*aut_arrays(reduced, p), grid)
    for m, g in enumerate(reduced):
        expected = np.array([sum(g.act_point(pt, p), ()) for pt in pts])
        assert np.array_equal(np.concatenate([chart[m], vals[m]], axis=1), expected)
    red = group.mod_p(p)
    assert red.tables.shape == (15, 4, p + 1)
    keys = image_keys(red, grid)
    by_name = dict(zip(group.names, reduced))
    for m, name in enumerate(red.names):
        images = [by_name[name].act_point(pt, p) for pt in pts]
        assert keys[m].tolist() == point_array(images, p).keys().tolist()


def test_array_jacobian_matches_poly_evaluate():
    f = GF(13)
    for nu_ints, smooth in (((1, 1, 1, 1, 3), True), ((3, 1, 4, 1, 0), False)):
        nu = FamilyParams(f, nu_ints)
        pts = enumerate_surface(13, nu)
        got = jacobian_rank2(pts.points, pts.square).tolist()
        assert got == scalar_rank2(13, nu, point_list(pts.points))
        assert all(got) == smooth


@pytest.mark.parametrize("p", [13, BOUND_PRIME])
def test_local_partials_match_poly_derivatives(p):
    # points of every chart, off the surface too, so that each factor is
    # seen at (1, w) and at (0, 1); p - 1 is the largest residue
    f = GF(p)
    rng = random.Random(p)
    nu = FamilyParams(f, (p - 1, 2, 3, p - 4, 5))
    points = [(chart, tuple(0 if c else x for c, x in zip(chart, vals)))
              for chart in CHARTS
              for vals in ((p - 1,) * 4, tuple(rng.randrange(p) for _ in range(4)))]
    got = local_partials(point_array(points, p), square_tensor(z1_poly(f), z2_poly(nu), p))
    assert got.shape == (2, 4, len(points))
    for n, pt in enumerate(points):
        w = [f.from_int(x) for x in local_point(pt)]
        expect = [[int(eq.derivative(v).evaluate(w)) for v in AMBIENT_LOCAL4.variables]
                  for eq in local_equations(p, nu, pt[0])]
        assert got[:, :, n].tolist() == expect, pt


def z2_partials_oracle(c, points, p):
    """d/dw_k of Z2 = sum_a c[a] * prod_j u_j[a_j], u_j = (t_j0^2, t_j1^2), in
    Python integers: in chart 0 (w_k = t_k1) the derivative of u_k[a_k] is
    2*w_k for a_k = 1 and 0 for a_k = 0; in chart 1 it vanishes at w_k = 0."""
    out = []
    for chart, vals in points:
        t = [(1, v) if ch == 0 else (0, 1) for ch, v in zip(chart, vals)]
        row = []
        for k in range(4):
            total = 0
            if chart[k] == 0:
                for a in product((0, 1), repeat=4):
                    if a[k]:
                        rest = prod(t[j][a[j]] ** 2 for j in range(4) if j != k)
                        total += int(c[a]) * 2 * t[k][1] * rest
            row.append(total % p)
        out.append(row)
    return out


def test_local_partials_exact_near_prime_bound():
    # squares at p - 1 (the coordinate eps, a root of -1) next to squares at
    # 1, against a square tensor near p: two unreduced products overflow
    p = BOUND_PRIME
    eps = GF(p).eps_int
    rng = random.Random(5)
    points = [(chart, tuple(0 if ch else rng.choice([eps, p - eps, 1, p - 1, rng.randrange(p)])
                            for ch in chart))
              for chart in CHARTS for _ in range(6)]
    pa = point_array(points, p)
    for c in (np.full((2,) * 4, p - 1, dtype=np.int64),
              np.array([rng.randrange(p - 100, p) for _ in range(16)],
                       dtype=np.int64).reshape((2,) * 4)):
        got = local_partials(pa, c)
        assert got[1].T.tolist() == z2_partials_oracle(c, points, p)


def test_certify_matches_scalar_oracle(lifted):
    group, _ = lifted
    f = GF(13)
    eye = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    good = enumerate_surface(13, FamilyParams(f, (1, 1, 1, 1, 3)))
    singular = enumerate_surface(13, FamilyParams(f, (3, 1, 4, 1, 0)))
    cases = [
        (good, group),
        (singular, group),
        # the deck involution fixes the coordinate points, which lie on the
        # nu4 = 0 member
        (singular, hand_group(table2_generators(QI)["s"])),
        # swapping t00 and t01 alone does not preserve Z1
        (good, hand_group(ProjAut(QI, (0, 1, 2, 3), (swap, eye, eye, eye)))),
        (surface_set(13, good.nu, []), group),
    ]
    for pts, grp in cases:
        rep = certify_free_and_smooth(pts, grp)
        assert rep.witness.get("problems", []) == scalar_certify_problems(pts, grp)
    messages = [certify_free_and_smooth(pts, grp).witness.get("problems", [])
                for pts, grp in cases]
    assert messages[0] == []
    assert any("rank drop" in m for m in messages[1])
    assert any(m.startswith("g fixes") for m in messages[2])
    assert any("leaves the surface under g" in m for m in messages[3])


def test_count_must_be_a_multiple_of_a_free_group_order():
    # a factor rotation of order 3, posing as a group of order 2, acts freely
    # on a closed 3-point set
    f = GF(13)
    eye = ((1, 0), (0, 1))
    rot = hand_group(ProjAut(QI, (1, 2, 0, 3), (eye,) * 4))
    orbit = [((0, 0, 0, 0), v) for v in ((1, 2, 3, 0), (2, 3, 1, 0), (3, 1, 2, 0))]
    pts = surface_set(13, FamilyParams(f, (1, 1, 1, 1, 3)), sorted(orbit))
    problems = certify_free_and_smooth(pts, rot).witness["problems"]
    assert problems == scalar_certify_problems(pts, rot)
    assert "point count 3 is not a multiple of the group order 2" in problems


def test_kernel_exact_near_prime_bound(lifted):
    p = BOUND_PRIME
    f = GF(p)
    group, _ = lifted
    points = sorted([
        ((0, 0, 0, 0), (p - 1, p - 2, 2 ** 30 + 3, 123456789)),
        ((0, 0, 0, 1), (p // 2, 1, p - 3, 0)),
        ((0, 1, 0, 1), (2 ** 31 - 5000, 0, p - 7, 0)),
        ((1, 0, 0, 0), (0, p - 11, 2, p - 1)),
        ((1, 1, 1, 1), (0, 0, 0, 0)),
    ])
    pa = point_array(points, p)
    assert pa.keys().dtype == object and len(set(pa.keys().tolist())) == len(points)
    # the lifted group is monomial; a general matrix exercises every product
    general = ProjAut(f, (2, 0, 3, 1), [((1, p - 2), (p // 3, p - 5))] * 4)
    reduced = [g.map_entries(f) for g in group.elements] + [general]
    chart, vals = act_points(*aut_arrays(reduced, p), pa)
    for m, g in enumerate(reduced):
        expected = [g.act_point(pt, p) for pt in points]
        assert [(tuple(c), tuple(v)) for c, v
                in zip(chart[m].tolist(), vals[m].tolist())] == expected
    pts = surface_set(p, FamilyParams(f, (p - 1, 2, 3, p - 4, 5)), points)
    rep = certify_free_and_smooth(pts, group)
    assert rep.witness["problems"] == scalar_certify_problems(pts, group)
    assert sigma_images(pa).tolist() == [scalar_sigma_image(pt, p) for pt in points]


def test_canonical_weighted_rows_match_scalar():
    rng = random.Random(0)
    for p in (13, BOUND_PRIME):
        rows = [[rng.randrange(p) for _ in range(16)] for _ in range(40)]
        rows += [[0] * 8 + [rng.randrange(p) for _ in range(8)] for _ in range(40)]
        rows = [r for r in rows if any(r)]
        got = canonical_weighted_rows(np.array(rows, dtype=np.int64), p).tolist()
        assert got == [list(canonical_weighted(r, p)) for r in rows]


def test_canonical_weighted_rows_rejects_a_zero_row():
    rows = np.zeros((3, 16), dtype=np.int64)
    rows[0, 0] = rows[2, 9] = 1
    with pytest.raises(ValueError, match="zero tuple"):
        canonical_weighted_rows(rows, 13)
    assert canonical_weighted_rows(rows[::2], 13).tolist() == \
        [list(canonical_weighted(r, 13)) for r in rows[::2].tolist()]


def scalar_sigma_image(pt, p):
    coords = [c for pair in expand_point(pt) for c in pair]
    vals = [prod(pow(c, k, p) for c, k in zip(coords, SIGMA_EXPS[name])) % p
            for name in AMBIENT_XY.variables]
    return list(canonical_weighted(vals, p))


def test_sigma_images_match_scalar_everywhere_at_5():
    p = 5
    got = sigma_images(all_p1(p)).tolist()
    assert got == [scalar_sigma_image(pt, p) for pt in all_p1_points(p)]


@pytest.mark.parametrize("field", [QQ, QI, GF(13), GF(BOUND_PRIME)], ids=str)
def test_z2_from_parts_equals_twice_sigma_of_q(field):
    from upv.unproj import q_section
    rng = random.Random(4)
    draws = [tuple(rng.randrange(-40, 40) for _ in range(5)) for _ in range(4)]
    draws += [(1, 0, 3, 4, 5), (1, 2, 3, 4, 0), (0, 0, 0, 0, 1), (0, 5, 0, 0, 0)]
    for nu in draws:
        nu = FamilyParams(field, tuple(field.from_int(v) for v in nu))
        oracle = sigma_map(field).apply(q_section(nu)) * field.from_int(2)
        z2 = z2_poly(nu)
        assert z2.terms == oracle.terms and all(z2.terms.values())


@pytest.mark.parametrize("p", [13, 17])
def test_row_tables_match_p1_rows(p):
    grid = all_p1(p)
    h = grid.homogeneous()
    digits = grid.digits()
    for d in (1, 2, 4):
        rows = p1_table(d, p)
        assert np.array_equal(rows[digits], p1_rows(h[..., 0], h[..., 1], d, p))
    # the enumerator's cached rows: h, its squares u and E
    tables = square_rows(p)
    assert all(not t.flags.writeable for t in tables)
    want = (p1_table(1, p), p1_table(2, p)[:, ::2], p1_table(4, p)[:, ::2])
    assert all(np.array_equal(t, w) for t, w in zip(tables, want, strict=True))


def test_fermat_inverse_mod_p():
    # the kernel inverts by x^(p-2); 0 must map to 0
    for p in (13, 65537, BOUND_PRIME):
        x = np.array([0, 1, 2, p - 1, p // 2, 12345 % p], dtype=np.int64)
        inv = pow_mod(x, p - 2, p)
        assert inv[0] == 0 and np.all(x[1:] * inv[1:] % p == 1)


def test_eval_terms_matches_poly_evaluate_near_prime_bound():
    p = BOUND_PRIME
    f = GF(p)
    rng = random.Random(1)
    z2 = z2_poly(FamilyParams(f, (p - 1, 2, 3, p - 4, 5)))
    rows = [[rng.randrange(p - 1000, p) for _ in range(8)] for _ in range(10)]
    polys = [[(int(c), e) for e, c in z2.terms.items()]]
    polys += [partial_terms(z2, k, p) for k in range(8)]
    got = eval_terms(polys, np.array(rows, dtype=np.int64), p).tolist()
    expect = [[int(g.evaluate(r)) for r in rows]
              for g in [z2] + [z2.derivative(v) for v in AMBIENT_T4.variables]]
    assert got == expect


@pytest.mark.parametrize("p", [13, BOUND_PRIME])
def test_chart_keys_sort_as_lexsort(p):
    rng = np.random.default_rng(p % 1000)
    if p == 13:
        points = np.concatenate([all_p1(p).chart, all_p1(p).vals], axis=1)
    else:  # hand-made points, values near 0 and near p
        chart = rng.integers(0, 2, size=(400, 4))
        vals = np.where(chart == 1, 0, rng.choice([0, 1, 2, p - 2, p - 1], size=(400, 4)))
        vals[::3] = np.where(chart[::3] == 1, 0, rng.integers(0, p, size=(134, 4)))
        points = np.unique(np.concatenate([chart, vals], axis=1), axis=0)
    points = points[rng.permutation(len(points))]
    keys = chart_keys(points[:, :4], points[:, 4:], p)
    assert keys.dtype == (np.int64 if p == 13 else object)
    want = np.lexsort(points.T[::-1])
    assert np.argsort(keys).tolist() == want.tolist()
    assert points[want].tolist() == sorted(points.tolist())
