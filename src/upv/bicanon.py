"""The bicanonical geometry: the 3-nodal cubic surface, its branch data, and
the one-parameter subfamily realizing the classical plane model.

The bicanonical image of a quotient surface is the cubic

    8*nu4^2*(s1-s0)(s2-s0)(s3-s0) - s0*(nu0*s0+nu1*s1+nu2*s2+nu3*s3)^2 = 0

in the projectivized space of the four invariant quadrics s_i.  This module
verifies the squaring derivation as an exact polynomial identity, the three
nodes, the line-plus-conic splittings of the plane sections, the branch-locus
classification of the 24 coset involutions on enumerated points, and the
whole pencil story: the two affine chart equations F1, F2 with their 24
common double points, the third chart equation F3, the plane-model identity
in Q[lambda, u0, u1, u2], and the parameter match between the pencil and the
plane model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .ambient import (AMBIENT_LU, AMBIENT_S, AMBIENT_X3L, AMBIENT_XY, Ambient,
                      EVEN_TUPLES, X_INDEX, comp, xname, yname)
from .cover import SurfacePointSet, distinct_rows, pow_mod, sigma_images
from .grouprep import (parse_word, stabilizer_classification, theta_class,
                       word_str)
from .linalg import rank_mod_p
from .poly import (MonomialMap, Poly, exact_divide, frozen_terms, proportional,
                   ring_substitute, weighted_sum)
from .report import CheckReport, verdict
from .scalars import GF, QI, QQ, PrimeField, smallest_non_residue
from .unproj import (FamilyParams, build_v_ideal, l_form, node_defect,
                     product_of_sums, reduce_by_rewriting, s_form, xvar,
                     y_eigenvector)

AMBIENT_ZCHART = Ambient.graded("ZCHART", ("zx00", "zx21", "zx31"), laurent=True)


def svar(domain, i: int) -> Poly:
    return Poly.variable(AMBIENT_S, domain, f"s{i}")


# (i, j) for the monomials s_i*s_j of l^2, i <= j
PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))


def _l_squared_weights(nu: FamilyParams) -> List[object]:
    """The coefficients of l^2 = (sum nu_i*s_i)^2 at s_i*s_j, (i, j) in PAIRS."""
    return [nu.nu[i] * nu.nu[j] * (1 if i == j else 2) for i, j in PAIRS]


@lru_cache(maxsize=None)
def _scubic_parts(domain) -> Tuple[Mapping, Tuple[Mapping, ...]]:
    """The nu-free parts of ``scubic`` as read-only term maps:
    8*prod(s_i - s0), and s0*s_i*s_j for (i, j) in PAIRS."""
    s = [svar(domain, i) for i in range(4)]
    prod = (s[1] - s[0]) * (s[2] - s[0]) * (s[3] - s[0]) * domain.from_int(8)
    return frozen_terms(prod), tuple(frozen_terms(s[0] * s[i] * s[j]) for i, j in PAIRS)


def scubic(nu: FamilyParams) -> Poly:
    """8*nu4^2 * prod(s_i - s0) - s0 * l^2 in the s-coordinates, summed from
    the per-field parts ``_scubic_parts``."""
    prod, pairs = _scubic_parts(nu.domain)
    parts = [(prod, nu.nu[4] * nu.nu[4])]
    parts += [(part, -w) for part, w in zip(pairs, _l_squared_weights(nu))]
    return weighted_sum(AMBIENT_S, nu.domain, parts)


@lru_cache(maxsize=None)
def _s3_derivation_parts(domain) -> Tuple[Tuple[Mapping, ...], Mapping,
                                          Callable[[Tuple[int, ...]], Mapping],
                                          Tuple[str, ...]]:
    """The nu-free parts of ``derive_s3_cubic``, rewritten, as read-only term
    maps: x00^2*s_i*s_j for (i, j) in PAIRS (the terms of x00^2*l^2),
    prod((x_i0+x_i1))^2, and a lazily filled cache of the image of each
    s-monomial, keyed by exponents, under s_i -> (x_i0^2 + x_i1^2)/2 for
    i > 0 and s0 -> x00^2 (the rewritten value of (x00^2 + x01^2)/2 on the
    hyperplane).  Last, the problems found in the squared-sum rewriting used
    on the way, (x_i0+x_i1)^2 = 2(s_i - s0)."""
    x00_sq = xvar(domain, 0, 0) ** 2
    s = [s_form(domain, i) for i in range(4)]
    x00_side = tuple(frozen_terms(reduce_by_rewriting(x00_sq * s[i] * s[j])) for i, j in PAIRS)
    prod_sq = frozen_terms(reduce_by_rewriting(product_of_sums(domain) ** 2))
    images = {"s0": x00_sq, **{f"s{i}": s[i] for i in (1, 2, 3)}}

    @lru_cache(maxsize=None)
    def s_image(e: Tuple[int, ...]) -> Mapping:
        monomial = Poly.monomial(AMBIENT_S, domain, e)
        return frozen_terms(reduce_by_rewriting(ring_substitute(monomial, AMBIENT_XY, images)))

    problems = []
    for i in (1, 2, 3):
        sq = reduce_by_rewriting((xvar(domain, i, 0) + xvar(domain, i, 1)) ** 2)
        want = reduce_by_rewriting((s[i] - x00_sq) * domain.from_int(2))
        if sq != want:
            problems.append(f"(x{i}0+x{i}1)^2 does not rewrite to 2(s{i} - x00^2)")
    return x00_side, prod_sq, s_image, tuple(problems)


def derive_s3_cubic(nu: FamilyParams) -> Tuple[Poly, CheckReport]:
    """Build the cubic and verify the squaring derivation exactly:
    rewriting x00^2*l^2 - nu4^2*prod((x_i0+x_i1)^2) equals minus the cubic
    evaluated at the invariant quadrics.  Substitution and rewriting are
    linear, so the difference of the two sides is summed from the per-field
    rewritten images of ``_s3_derivation_parts``, weighted by nu_i*nu_j,
    -nu4^2 and the cubic's own coefficients."""
    d = nu.domain
    x00_side, prod_sq, s_image, squared_sum_problems = _s3_derivation_parts(d)
    cubic = scubic(nu)
    parts = [*zip(x00_side, _l_squared_weights(nu)), (prod_sq, -(nu.nu[4] * nu.nu[4]))]
    parts += [(s_image(e), c) for e, c in cubic.terms.items()]
    difference = weighted_sum(AMBIENT_XY, d, parts)
    problems = []
    if not difference.is_zero():
        problems.append(f"difference {str(difference)[:300]}")
    problems += squared_sum_problems
    return cubic, verdict(
        "bicanon.s3_derivation", problems,
        on_pass={"identity": "rewrite(x00^2 l^2 - nu4^2 prod^2) = -cubic(s)"},
        params=nu.as_params())


def _lead_one(rows: np.ndarray, p: int) -> np.ndarray:
    """Residue rows scaled so that the first nonzero entry is 1; a zero row
    stays zero (its Fermat inverse is 0)."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows * pow_mod(lead, p - 2, p)[:, None] % p


def s_rows(image: np.ndarray, p: int) -> np.ndarray:
    """Projective (s0:s1:s2:s3) images of canonical downstairs rows (N, 16),
    as (N, 4) rows whose first nonzero entry is 1.  s_i is
    (x_i0^2 + x_i1^2)/2; the common factor 1/2 drops out of the scaling.  A
    row off the s-chart (every s_i = 0) comes out as a zero row.  Every
    product is reduced mod p before it is added, so this is exact for
    p < 2^31."""
    sums = np.stack([(image[:, X_INDEX[(i, 0)]] ** 2 % p
                      + image[:, X_INDEX[(i, 1)]] ** 2 % p) % p for i in range(4)],
                    axis=1)
    return _lead_one(sums, p)


def scubic_points_report(points: SurfacePointSet) -> CheckReport:
    """Every enumerated surface point maps onto the cubic."""
    p = points.p
    nu = points.nu
    s = s_rows(sigma_images(points.points), p)
    on_chart = s.any(axis=1)
    value, = cubic_jets([scubic(nu)], s[on_chart][None], p, order=0)
    total = int(on_chart.sum())
    bad = len(s) - total + int(np.count_nonzero(value))
    problems = [f"{bad} point images off the cubic"] if bad else []
    if not total:
        problems.append("no point image in the s-chart")
    return verdict("bicanon.s3_points", problems, {"points": total, "off_cubic": bad},
                   params=dict(nu.as_params(), prime=p))


def node_coordinates(nu: FamilyParams, i: int) -> Tuple[object, ...]:
    """Projective coordinates of node n_i (solvable when nu_i != 0)."""
    d = nu.domain
    if not nu.nu[i]:
        raise ValueError(f"node n_{i} needs nu_{i} != 0")
    others = [k for k in (1, 2, 3) if k != i]
    s = [None] * 4
    s[0] = nu.nu[i]
    for k in others:
        s[k] = nu.nu[i]
    s[i] = -(nu.nu[0] + sum((nu.nu[k] for k in others), d.zero()))
    return tuple(s)


def verify_nodes(p: int, nus: Sequence[FamilyParams]) -> CheckReport:
    """For the given parameters over GF(p): the cubic and all four partials
    vanish at each node, and the affine Hessian there has full rank 3 (an
    ordinary double point).  A parameter with a ``node_defect`` is outside
    that claim: it is not tested, and it fails the check with the reason.

    The tested cubics are evaluated together by ``cubic_jets``; rank 3 is
    a nonzero 3x3 determinant mod p, and the exact rank is computed only
    for a node that fails, to quote it."""
    problems, accepted = [], []
    for nu in nus:
        reason = node_defect(nu)
        if reason:
            problems.append(f"nu={tuple(int(v) for v in nu.nu)} is outside the claim: {reason}")
        else:
            accepted.append(nu)
    cubics = [scubic(nu) for nu in accepted]
    nodes = [[[int(v) for v in node_coordinates(nu, i)] for i in (1, 2, 3)]
             for nu in accepted]
    value, grad, hess = cubic_jets(cubics, np.array(nodes, dtype=np.int64).reshape(-1, 3, 4), p)
    det = _symmetric_det3(hess, p)
    for d, k in zip(*np.nonzero((value != 0) | grad.any(axis=2) | (det == 0))):
        ints, i = tuple(int(v) for v in accepted[d].nu), k + 1
        if value[d, k]:
            problems.append(f"cubic(n_{i}) != 0 at nu={ints}")
        problems += [f"grad(n_{i}) != 0 at nu={ints}"] * int(np.count_nonzero(grad[d, k]))
        if not det[d, k]:
            h = hess[d, k].tolist()
            matrix = [h[0:3], [h[1], h[3], h[4]], [h[2], h[4], h[5]]]
            problems.append(f"Hessian rank {rank_mod_p(matrix, p)} at n_{i}, nu={ints}")
    return verdict("bicanon.nodes", problems[:5], {"draws": len(accepted)},
                   on_pass={"hessian_rank": 3})


def cubic_jets(cubics: Sequence[Poly], points: np.ndarray, p: int,
               order: int = 2) -> Tuple[np.ndarray, ...]:
    """Values mod p of D forms in s0..s3 over GF(p) at K points each.

    ``points`` (D, K, 4) holds residue rows.  Returns the values (D, K),
    alone for ``order`` 0; else also the four first partials (D, K, 4) and
    the six second partials in s1..s3 -- (11, 12, 13, 22, 23, 33) -- at the
    affine point (1, s1/s0, s2/s0, s3/s0) (D, K, 6), which needs s0 != 0.
    The forms are stacked as one coefficient array over their union of
    monomials and contracted with per-point power tables x^a and derivative
    tables a*x^(a-1) and a*(a-1)*x^(a-2), so no derivative of a form is
    built.  Every product is reduced mod p before it is added, so this is
    exact for p < 2^31.
    """
    keys = sorted({e for f in cubics for e in f.terms})
    column = {e: m for m, e in enumerate(keys)}
    coeffs = np.zeros((len(cubics), len(keys)), dtype=np.int64)
    for row, f in zip(coeffs, cubics):
        for e, c in f.terms.items():
            row[column[e]] = int(c) % p
    exps = np.array(keys, dtype=np.int64).reshape(-1, 4)
    a = np.arange(int(exps.max(initial=0)) + 1)

    def tables(x):
        """x^a, a*x^(a-1) and a*(a-1)*x^(a-2) as (D, K, 4, A) arrays."""
        pw = np.stack([pow_mod(x, int(k), p) for k in a], axis=-1)
        return (pw, a * pw[..., np.maximum(a - 1, 0)] % p,
                a * (a - 1) * pw[..., np.maximum(a - 2, 0)] % p)

    def contract(pw, replaced):
        """sum over monomials of coeff * prod_v table_v[exponent_v] mod p,
        with table_v the power table unless ``replaced`` names another."""
        t = coeffs[:, None, :]
        for v in range(4):
            t = t * replaced.get(v, pw)[:, :, v][..., exps[:, v]] % p
        return t.sum(axis=-1) % p

    x = points % p
    pw, d1, _ = tables(x)
    value = contract(pw, {})
    if order == 0:
        return (value,)
    grad = np.stack([contract(pw, {u: d1}) for u in range(4)], axis=-1)
    apw, ad1, ad2 = tables(x * pow_mod(x[..., :1], p - 2, p) % p)
    hess = np.stack([contract(apw, {u: ad2} if u == w else {u: ad1, w: ad1})
                     for u in (1, 2, 3) for w in (1, 2, 3) if u <= w], axis=-1)
    return value, grad, hess


def _symmetric_det3(h: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of symmetric 3x3 matrices given by their entries
    (11, 12, 13, 22, 23, 33) along the last axis, each product reduced."""
    a, b, c, d, e, f = (h[..., k] for k in range(6))

    def minor(w, x, y, z):
        return (w * x % p - y * z % p) % p

    return (a * minor(d, f, e, e) % p - b * minor(b, f, e, c) % p
            + c * minor(b, e, d, c) % p) % p


def nodes_error_paths() -> Tuple[bool, str]:
    """The documented error paths: nu_i = 0 makes n_i unsolvable and nu4 = 0
    degenerates the cubic to s0*l^2."""
    field = GF(13)
    try:
        node_coordinates(FamilyParams(field, (1, 0, 1, 1, 1)), 1)
        return False, "nu1 = 0 did not raise"
    except ValueError:
        pass
    nu = FamilyParams(field, (1, 2, 3, 4, 0))
    cubic = scubic(nu)
    s0 = svar(field, 0)
    l = Poly.zero(AMBIENT_S, field)
    for i in range(4):
        l = l + svar(field, i) * nu.nu[i]
    if cubic != -(s0 * l * l):
        return False, "nu4 = 0 cubic is not -s0*l^2"
    return True, "nu_i = 0 raises; nu4 = 0 gives the reducible -s0*l^2"


def split_plane_sections(nu: FamilyParams) -> CheckReport:
    """Restricting to s_i = -s0 factors the cubic exactly as s0 times the
    residual conic; the lines through pairs of nodes lie on the cubic."""
    d = nu.domain
    problems = []
    cubic = scubic(nu)
    s = [svar(d, i) for i in range(4)]
    for i in (1, 2, 3):
        images = {f"s{k}": s[k] for k in range(4)}
        images[f"s{i}"] = -s[0]
        restricted = ring_substitute(cubic, AMBIENT_S, images)
        quotient = exact_divide(restricted, s[0])
        if quotient is None:
            problems.append(f"s0 does not divide the restriction to s{i} = -s0")
            continue
        ip, iq = (i % 3) + 1, ((i + 1) % 3) + 1
        conic = (s[ip] - s[0]) * (s[iq] - s[0]) * (d.from_int(16) * nu.nu[4] ** 2)
        lfull = Poly.zero(AMBIENT_S, d)
        for k in range(4):
            lfull = lfull + s[k] * nu.nu[k]
        conic = conic + lfull * lfull
        conic_restricted = ring_substitute(conic, AMBIENT_S, images)
        if not proportional(quotient, conic_restricted):
            problems.append(f"residual of s{i} = -s0 is not the displayed conic")
    # N_ij = (s0 - s_k = l = 0) lies on the cubic
    for k in (1, 2, 3):
        i, j = [m for m in (1, 2, 3) if m != k]
        if not nu.nu[j]:
            continue
        images = {"s0": s[0], f"s{i}": s[i], f"s{k}": s[0]}
        coeff_j = -(d.one() / nu.nu[j])
        images[f"s{j}"] = (s[0] * (nu.nu[0] + nu.nu[k]) + s[i] * nu.nu[i]) * coeff_j
        if not ring_substitute(cubic, AMBIENT_S, images).is_zero():
            problems.append(f"N_{i}{j} does not lie on the cubic")
    return verdict("bicanon.plane_sections", problems,
                   on_pass={"splittings": 3, "node_lines_on_cubic": 3},
                   params=nu.as_params())


# -- branch loci on enumerated points ------------------------------------------

BETA_WORDS = {1: "b1*b2", 2: "b2*b3", 3: "b1*b3"}
CONIC_WORDS = {1: "a2*b1*b2*b3", 2: "a3*b1*b2*b3", 3: "a1*b1*b2*b3"}
NODE_WORDS = {1: "a2*a3*b2*b3", 2: "a1*a3*b1*b3", 3: "a1*a2*b1*b2"}


def locus_masks(s: np.ndarray, nu: FamilyParams, p: int) -> Dict[str, np.ndarray]:
    """Membership of s-rows (``s_rows``) in the named loci, as boolean masks.

    L_i: s0 = s_i = 0; C_i: s0 + s_i = 0 on the residual conic of that plane
    section; n_i: the node, normalised like the rows, so that membership is
    row equality.  D_i = C_{i+1} + L_{i-1} is the branch divisor of the i-th
    involution class; ``pairwise`` flags membership in some D_a cap D_b with
    a != b, where the inertia-Gamma fixed points land.  Zero rows (off the
    s-chart) are not meaningful here; callers mask them out."""
    v = [int(c) for c in nu.nu]
    nodes = _lead_one(np.array([[int(c) for c in node_coordinates(nu, i)]
                                for i in (1, 2, 3)], dtype=np.int64), p)
    l = sum(s[:, k] * v[k] % p for k in range(4)) % p
    l2 = l * l % p
    c16 = 16 * v[4] * v[4] % p
    out = {}
    for i in (1, 2, 3):
        ip, iq = (i % 3) + 1, ((i + 1) % 3) + 1
        quad = (s[:, ip] - s[:, 0]) % p * ((s[:, iq] - s[:, 0]) % p) % p
        conic = (quad * c16 % p + l2) % p
        out[f"L{i}"] = (s[:, 0] == 0) & (s[:, i] == 0)
        out[f"C{i}"] = ((s[:, 0] + s[:, i]) % p == 0) & (conic == 0)
        out[f"n{i}"] = (s == nodes[i - 1]).all(axis=1)
    for i in (1, 2, 3):
        ip = (i % 3) + 1
        im = ((i + 1) % 3) + 1
        out[f"D{i}"] = out[f"C{ip}"] | out[f"L{im}"]
    d1, d2, d3 = out["D1"], out["D2"], out["D3"]
    out["pairwise"] = (d1 & d2) | (d1 & d3) | (d2 & d3)
    return out


def branch_locus_check(points: SurfacePointSet) -> CheckReport:
    """Classify the fixed points of the 24 coset involutions.

    For a word of class i, every fixed-point image must lie in the class's
    branch data D_i + {n_i} (D_i = C_{i+1} + L_{i-1}) or, for points of full
    inertia, in a pairwise intersection D_a cap D_b.  The two-beta word hits
    the line, the four-letter word hits the conic, the node word maps only
    into {n_i} (plus full-inertia points), and the five remaining words fix
    only full-inertia points.  Fixed points are visited in the
    lexicographic order of their downstairs rows, so each "e.g." is the
    first offending image in that order."""
    p = points.p
    nu = points.nu
    downstairs = distinct_rows(sigma_images(points.points))
    s = s_rows(downstairs, p)
    on_chart = s.any(axis=1)
    loci = locus_masks(s, nu, p)
    violations = []
    missing = []
    hits = {}

    def example(mask):
        return tuple(s[mask][0].tolist())

    for i in (1, 2, 3):
        words = theta_class(i)
        fixed = stabilizer_classification(downstairs, words, p)
        ip = (i % 3) + 1
        im = ((i + 1) % 3) + 1  # i - 1 cyclically in {1,2,3}
        beta_w = parse_word(BETA_WORDS[i])
        conic_w = parse_word(CONIC_WORDS[i])
        node_w = parse_word(NODE_WORDS[i])
        for w in words:
            name = word_str(w)
            violations += [f"{name}: fixed point off the s-chart"] \
                * int((fixed[w] & ~on_chart).sum())
            images = fixed[w] & on_chart
            allowed_bad = images & ~(loci[f"D{i}"] | loci[f"n{i}"] | loci["pairwise"])
            if allowed_bad.any():
                violations.append(
                    f"{name}: {int(allowed_bad.sum())} images outside the "
                    f"allowed loci, e.g. {example(allowed_bad)}")
            if w == beta_w:
                hits[f"theta{i}.line"] = int((images & loci[f"L{im}"]).sum())
                if not hits[f"theta{i}.line"]:
                    missing.append(f"{name} misses L{im}")
            elif w == conic_w:
                hits[f"theta{i}.conic"] = int((images & loci[f"C{ip}"]).sum())
                if not hits[f"theta{i}.conic"]:
                    missing.append(f"{name} misses C{ip}")
            elif w == node_w:
                hits[f"theta{i}.node"] = int((images & loci[f"n{i}"]).sum())
                if (images & ~(loci[f"n{i}"] | loci["pairwise"])).any():
                    violations.append(f"{name} maps outside n{i}")
            else:
                extra = images & ~loci["pairwise"]
                if extra.any():
                    violations.append(
                        f"{name} fixes {int(extra.sum())} points outside the "
                        f"full-inertia intersections, e.g. {example(extra)}")
    problems = missing + ([f"{len(violations)} fixed-point images violate containment"]
                          if violations else [])
    deg, reason = nu.degenerate()
    return verdict("bicanon.branch_loci", problems, {"hits": hits},
                   on_fail={"violations": violations[:8], "degenerate_nu": deg,
                            "degenerate_reason": reason},
                   params=dict(nu.as_params(), prime=p))


# -- the pencil charts ----------------------------------------------------------

def x3var(domain, i: int) -> Poly:
    return Poly.variable(AMBIENT_X3L, domain, f"x{i}")


def f1_poly(domain=QI) -> Poly:
    acc = Poly.one(AMBIENT_X3L, domain)
    half = domain.coerce(Fraction(1, 2))
    for i in (1, 2, 3):
        x = x3var(domain, i)
        xinv = Poly.monomial(AMBIENT_X3L, domain,
                             tuple(-1 if k == i - 1 else 0 for k in range(3)))
        acc = acc - (x * x + xinv * xinv) * half
    return acc


def f2_poly(domain=QI) -> Poly:
    acc = Poly.one(AMBIENT_X3L, domain)
    for i in (1, 2, 3):
        x = x3var(domain, i)
        xinv = Poly.monomial(AMBIENT_X3L, domain,
                             tuple(-1 if k == i - 1 else 0 for k in range(3)))
        acc = acc * (x - xinv)
    return acc


def double_point_set(domain=QI) -> List[Tuple[object, object, object]]:
    """The common double points: fourth roots of unity on F1 = 0, derived by
    scanning all 64 sign patterns; exactly the tuples with one coordinate a
    primitive root."""
    eps = domain.sqrt_minus_one()
    one = domain.one()
    roots = [one, -one, eps, -eps]
    f1 = f1_poly(domain)
    out = []
    for pt in product(roots, repeat=3):
        if not f1.evaluate(pt):
            out.append(pt)
    return out


def _chart_map(target: Ambient, domain, x_images) -> MonomialMap:
    """The Laurent monomial map into ``target`` that sends each of the eight
    x-variables to its (coefficient, exponents) image in ``x_images`` and
    each y_t to its rational section x_{1t1'}*x_{2t2'}*x_{3t3'}/x_{0t0}
    (representation 0 of ``UnprojectionDatum``) at those images."""
    images = dict(x_images)
    for t in EVEN_TUPLES:
        c0, e0 = x_images[xname(0, t[0])]
        coef, exps = domain.one() / c0, [-k for k in e0]
        for i in (1, 2, 3):
            c, e = x_images[xname(i, comp(t[i]))]
            coef, exps = coef * c, [a + b for a, b in zip(exps, e)]
        images[yname(t)] = (coef, tuple(exps))
    return MonomialMap(AMBIENT_XY, target, domain, images, laurent=True)


def chart_map_xi2(domain=QI) -> MonomialMap:
    """The local inverse of x_i = x_{i0}/x_{00} on the open torus: x00 -> 1,
    x01 -> -1, x_{i0} -> x_i, x_{i1} -> -1/x_i, weight-2 variables by their
    defining rational sections."""
    one = domain.one()
    images = {"x00": (one, (0, 0, 0)), "x01": (-one, (0, 0, 0))}
    for i in (1, 2, 3):
        e = tuple(1 if k == i - 1 else 0 for k in range(3))
        images[xname(i, 0)] = (one, e)
        images[xname(i, 1)] = (-one, tuple(-k for k in e))
    return _chart_map(AMBIENT_X3L, domain, images)


def pencil_generators(domain) -> Tuple[Poly, Poly]:
    """The two quadric sections spanning the special pencil: l with
    (-1,1,1,1) and the signed sum of the weight-2 variables."""
    return l_form(FamilyParams(domain, (-1, 1, 1, 1, 0))), y_eigenvector(domain)


def burniat_nodes_report(domain=QI) -> CheckReport:
    """F1 and F2 vanish on all 24 double points; the F1-Hessian is diagonal
    with entries -3/x_i^4 - 1, hence -4 and nonsingular at each."""
    problems = []
    pts = double_point_set(domain)
    if len(pts) != 24:
        problems.append(f"|D| = {len(pts)}")
    eps = domain.sqrt_minus_one()
    expected = set()
    for pos in range(3):
        for signs in product((1, -1), repeat=3):
            pt = [domain.from_int(signs[k]) for k in range(3)]
            pt[pos] = pt[pos] * eps
            expected.add(tuple(pt))
    if set(pts) != expected:
        problems.append("double points differ from the sign-pattern set")
    f1, f2 = f1_poly(domain), f2_poly(domain)
    hess_entries = [f1.derivative(f"x{i}").derivative(f"x{i}") for i in (1, 2, 3)]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        if not f1.derivative(f"x{i}").derivative(f"x{j}").is_zero():
            problems.append(f"off-diagonal Hessian entry ({i},{j}) nonzero")
    minus3 = Poly.constant(AMBIENT_X3L, domain, -3)
    for i in (1, 2, 3):
        e = tuple(-4 if k == i - 1 else 0 for k in range(3))
        want = Poly.monomial(AMBIENT_X3L, domain, e, -3) + Poly.constant(
            AMBIENT_X3L, domain, -1)
        if hess_entries[i - 1] != want:
            problems.append(f"d^2F1/dx{i}^2 != -3/x{i}^4 - 1")
    minus4 = domain.from_int(-4)
    for pt in pts:
        if f1.evaluate(pt) or f2.evaluate(pt):
            problems.append(f"F1/F2 do not vanish at {pt}")
        dets = [h.evaluate(pt) for h in hess_entries]
        if any(v != minus4 for v in dets):
            problems.append(f"Hessian diagonal at {pt} is {dets}")
    return verdict("burniat.nodes", problems[:6],
                   on_pass={"double_points": 24, "hessian_diagonal": "-4"})


def burniat_charts_report(domain=QI) -> CheckReport:
    """The chart pullbacks of the pencil generators equal -F1 and F2 on the
    nose (Laurent form), and the chart lands inside the key 3-fold: all 64
    of its equations pull back to zero."""
    problems = []
    xi2 = chart_map_xi2(domain)
    for name, g, _ in build_v_ideal(domain).generators:
        if not xi2.apply(g).is_zero():
            problems.append(f"{name} does not vanish on the chart")
    q1, q2 = pencil_generators(domain)
    p1 = xi2.apply(q1)
    p2 = xi2.apply(q2)
    if p1 != -f1_poly(domain):
        problems.append("pullback of the l-generator is not -F1")
    if p2 != f2_poly(domain):
        problems.append("pullback of the signed-y generator is not F2")
    return verdict("burniat.charts", problems[:6],
                   on_pass={"pullbacks": "q1 -> -F1, q2 -> F2 exactly",
                            "chart_inside_key_3fold": True})


def chart_map_zeta2(domain=QQ) -> MonomialMap:
    """The second chart: coordinates (x00, x21, x31) with the distinguished
    weight-2 coordinate set to 1; every ambient variable becomes a signed
    Laurent monomial through the chart relations."""
    one = domain.one()
    return _chart_map(AMBIENT_ZCHART, domain, {
        "x00": (one, (1, 0, 0)),
        "x01": (-one, (1, 0, 0)),
        "x21": (one, (0, 1, 0)),
        "x31": (one, (0, 0, 1)),
        "x20": (-one, (2, -1, 0)),
        "x30": (-one, (2, 0, -1)),
        "x10": (-one, (1, 1, 1)),
        "x11": (one, (1, -1, -1)),
    })


def f3_chart_polynomial(domain=QQ) -> Poly:
    """The pencil generator's equation in the second chart, cleared by
    -2*zx21^2*zx31^2; a genuine polynomial of degree 8."""
    zeta2 = chart_map_zeta2(domain)
    q1, _ = pencil_generators(domain)
    cleared = zeta2.apply(q1) * Poly.monomial(AMBIENT_ZCHART, domain, (0, 2, 2), -2)
    if any(k < 0 for e in cleared.terms for k in e):
        raise ValueError("chart equation failed to clear denominators")
    return cleared


def burniat_f3_report(domain=QQ) -> CheckReport:
    """At x00 = 0 the two partials of F3 are the displayed binomials whose
    only common zero with x21*x31 != 0 would need the rank-2 system
    {4a + 2b = 0, 2a + 4b = 0} (determinant 12) to degenerate."""
    problems = []
    f3 = f3_chart_polynomial(domain)
    zero_x00 = {"zx00": Poly.zero(AMBIENT_ZCHART, domain),
                "zx21": Poly.variable(AMBIENT_ZCHART, domain, "zx21"),
                "zx31": Poly.variable(AMBIENT_ZCHART, domain, "zx31")}
    d21 = ring_substitute(f3.derivative("zx21"), AMBIENT_ZCHART, zero_x00)
    d31 = ring_substitute(f3.derivative("zx31"), AMBIENT_ZCHART, zero_x00)
    m = Poly.monomial
    want21 = m(AMBIENT_ZCHART, domain, (0, 3, 2), -4) + m(AMBIENT_ZCHART, domain, (0, 1, 4), -2)
    want31 = m(AMBIENT_ZCHART, domain, (0, 4, 1), -2) + m(AMBIENT_ZCHART, domain, (0, 2, 3), -4)
    if d21 != want21:
        problems.append(f"dF3/dx21 at x00=0 is {d21}")
    if d31 != want31:
        problems.append(f"dF3/dx31 at x00=0 is {d31}")
    # factor out x21*x31^2 and x21^2*x31: linear system in (x21^2, x31^2)
    q21 = exact_divide(d21, m(AMBIENT_ZCHART, domain, (0, 1, 2), 1))
    q31 = exact_divide(d31, m(AMBIENT_ZCHART, domain, (0, 2, 1), 1))
    if q21 is None or q31 is None:
        problems.append("partials do not factor as expected")
    else:
        a21 = q21.coefficient((0, 2, 0)), q21.coefficient((0, 0, 2))
        a31 = q31.coefficient((0, 2, 0)), q31.coefficient((0, 0, 2))
        det = a21[0] * a31[1] - a21[1] * a31[0]
        if not det or det != domain.from_int(12):
            problems.append(f"coefficient determinant {det} (expected 12)")
    return verdict("burniat.f3", problems,
                   on_pass={"partials": "as displayed", "determinant": 12,
                            "conclusion": "no common zero with x21*x31 != 0"})


# -- the plane model -------------------------------------------------------------

def plane_model_cubics(domain=QQ) -> List[Poly]:
    """The four cubics in u0, u1, u2 with one formal parameter."""
    lam = Poly.variable(AMBIENT_LU, domain, "lam")
    u0 = Poly.variable(AMBIENT_LU, domain, "u0")
    u1 = Poly.variable(AMBIENT_LU, domain, "u1")
    u2 = Poly.variable(AMBIENT_LU, domain, "u2")
    one = Poly.one(AMBIENT_LU, domain)
    half = domain.coerce(Fraction(1, 2))
    s0 = (u0 - lam * u1) * (u1 - u2) * (u2 - lam * u0) * (-half)
    s1 = (one - lam) * u0 * (u1 - u2) * (lam * u1 - u2) - s0
    s2 = (one - lam) * u1 * (u2 - u0) * (u2 - lam * u0) - s0
    s3 = (one - lam) * u2 * (u0 - u1) * (u0 - lam * u1) - s0
    return [s0, s1, s2, s3]


def pencil_cubic(s: Sequence[Poly], lam) -> Poly:
    """The cubic of the pencil member with nu = (-v, v, v, v, nu4), v^2 =
    -lam and nu4 = (lam+1)/4, at the four forms ``s`` of one ring:
    (lam+1)^2/2 * prod(s_i - s0) + lam*s0*(s1+s2+s3-s0)^2.  ``lam`` is a
    scalar or a polynomial of that ring."""
    s0, s1, s2, s3 = s
    half = s0.domain.coerce(Fraction(1, 2))
    return (s1 - s0) * (s2 - s0) * (s3 - s0) * ((lam + 1) ** 2 * half) \
        + s0 * (s1 + s2 + s3 - s0) ** 2 * lam


@lru_cache(maxsize=None)
def _plane_model_residue(domain) -> Poly:
    """``pencil_cubic`` at the plane-model cubics, in Q[lam, u0, u1, u2]: the
    zero polynomial exactly when the plane-model identity holds.  Derived
    once per field and shared by ``lambda_identity_report`` and
    ``burniat_parameter_map``."""
    return pencil_cubic(plane_model_cubics(domain), Poly.variable(AMBIENT_LU, domain, "lam"))


def lambda_identity_report(domain=QQ) -> CheckReport:
    """(lam+1)^2 (s1-s0)(s2-s0)(s3-s0) + 2 lam s0 (s1+s2+s3-s0)^2, twice the
    ``pencil_cubic`` at the displayed cubics, is the zero polynomial of
    Q[lam, u0, u1, u2]."""
    diff = _plane_model_residue(domain) * 2
    return verdict("burniat.lambda_identity",
                   [] if diff.is_zero() else [f"difference {str(diff)[:200]}"],
                   on_pass={"identity": "zero polynomial"})


def check_pencil_lambda(lam) -> None:
    """Raises ``ValueError`` at the excluded pencil parameters 0, 1 and -1."""
    if lam == 0 or lam == 1:
        raise ValueError("lambda = 0, 1 are excluded parameters")
    if lam == -1:
        raise ValueError("lambda = -1 is excluded: the plane model gains a fourth triple "
                         "point (the quaternary configuration), and nu4 = 0 there")


def burniat_parameter_map(lam_value) -> Tuple[dict, CheckReport]:
    """Solve the pencil normalization against the plane model.

    Matching the pencil cubic 8*nu4^2*prod - s0*l^2 (with -nu0=nu1=nu2=nu3=v,
    v^2 = -lam) against the identity form forces 8*nu4^2 = (lam+1)^2/2, so
    nu4 = (lam+1)/4 up to sign; the printed normalization 4*(lam+1) differs
    by the factor 16, which is reported rather than asserted.  Returns the
    solved parameters (with an explicit square root of -lam when the field
    has one) and the membership certificate.
    """
    problems = []
    domain = QQ if isinstance(lam_value, (int, Fraction)) else lam_value.field
    lam = domain.coerce(lam_value)
    check_pencil_lambda(lam)
    nu4 = (lam + domain.one()) / domain.from_int(4)
    if not _plane_model_residue(QQ).is_zero():
        problems.append("pencil cubic does not vanish on the plane model")
    solved = {"nu_squared": "-lambda", "nu4_formula": "(lambda+1)/4",
              "stated_nu4": "4*(lambda+1)", "ratio_to_stated": "16"}
    explicit = None
    if isinstance(domain, PrimeField):
        p = domain.p
        neg = -lam
        if pow(int(neg), (p - 1) // 2, p) == 1:
            r = _sqrt_mod(int(neg), p)
            v = domain.from_int(r)
            explicit = FamilyParams(domain, (-v, v, v, v, nu4))
            if scubic(explicit) != pencil_cubic([svar(domain, i) for i in range(4)], lam):
                problems.append("explicit parameters do not reproduce the pencil cubic")
        else:
            solved["note"] = f"-lambda is not a square mod {p}; parameters stay symbolic"
    out = {"nu4": nu4, "explicit": explicit, **solved}
    return out, verdict("burniat.parameter_map", problems, on_pass=solved,
                        params={"lambda": str(lam_value)})


def _sqrt_mod(a: int, p: int) -> int:
    """The smaller square root r <= p - r of a modulo an odd prime p, by
    Tonelli-Shanks (O(log^2 p) multiplications)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, m = p - 1, 0
    while q % 2 == 0:
        q, m = q // 2, m + 1
    c = pow(smallest_non_residue(p), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    # invariant: r^2 = a*t, c has order 2^m and the order of t is below it
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)
