"""The unprojection ideals and their structural verifications.

Builds, over any coefficient field, the ideals of

* X: the 4-fold complete intersection of 3 quadrics in P^7,
* Y: its parallel unprojection in P(1^8, 2^8), with the 63-generator ideal J
  (3 quadrics, 32 cubics, 28 quartics),
* V = Y cap (x00 + x01 = 0) and the quadric sections T = V cap (q = 0) of the
  five-parameter family,

and machine-checks the structure used downstream: the pairwise incidences of
the 8 unprojected linear spaces, consistency of the four rational-section
representations of each unprojection variable, the 12x12 Jacobian minors
equal to +-y^11, the symmetric-matrix chart at the weight-1 coordinate
points, and the cubic obtained by eliminating the weight-2 variables.

Every generator of X, Y and V is a +-1 binomial, built straight from its two
exponent vectors.  Their presentations are built once per field, frozen,
and shared by every caller; T adds the quadric section of each nu to V's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .ambient import (AMBIENT_T4L, AMBIENT_XY, EVEN_TUPLES, IndexTuple, X_INDEX,
                      Y_INDEX, comp, comp_tuple, xname, yname)
from .linalg import det_poly, rank
from .poly import MonomialMap, Poly, PolyError, exact_divide
from .report import CheckReport, verdict
from .scalars import QQ

QUADRIC = "quadric"
CUBIC = "cubic"
QUARTIC = "quartic"
HYPERPLANE = "hyperplane"
QUADRIC_SECTION = "quadric-section"


class IdealConstructionError(RuntimeError):
    """An index-convention bug: a quartic failed to clear denominators."""


@dataclass(frozen=True)
class FamilyParams:
    """A projective 5-tuple of section parameters over a fixed field."""

    domain: object
    nu: tuple

    def __post_init__(self):
        if len(self.nu) != 5:
            raise ValueError(f"nu={tuple(self.nu)} must have 5 entries")
        given = tuple(self.nu)
        object.__setattr__(self, "nu", tuple(self.domain.coerce(v) for v in self.nu))
        if not any(self.nu):
            raise ValueError(f"nu={given} is zero over {self.domain}")

    def degenerate(self) -> Tuple[bool, str]:
        """Parameters for which the small-group action acquires fixed points.

        True when nu1*nu2*nu3 = 0 or nu0-nu1-nu2-nu3 + delta*nu4 = 0 for
        delta in {+8*eps, -8*eps} (equivalently (nu0-nu1-nu2-nu3)^2 +
        64*nu4^2 = 0); the delta set is certified empirically by
        ``delta_set_report``.
        """
        n0, n1, n2, n3, n4 = self.nu
        if not (n1 * n2 * n3):
            return True, "nu1*nu2*nu3 = 0"
        d = n0 - n1 - n2 - n3
        if d * d + self.domain.from_int(64) * n4 * n4 == self.domain.zero():
            return True, "nu0-nu1-nu2-nu3 = -delta*nu4 for delta in {+-8*eps}"
        return False, ""

    def as_params(self) -> dict:
        return {"nu": [str(v) for v in self.nu], "field": getattr(self.domain, "name", str(self.domain))}


def nodes_distinct(nu: FamilyParams) -> bool:
    """The three nodes of the bicanonical cubic are pairwise distinct iff
    nu0+nu1+nu2+nu3 != 0; when the sum vanishes they all collapse to
    (1:1:1:1) and the double point is no longer ordinary."""
    return bool(nu.nu[0] + nu.nu[1] + nu.nu[2] + nu.nu[3])


def node_defect(nu: FamilyParams) -> str:
    """Why the nodes of the bicanonical cubic at ``nu`` fall outside the
    claim that they are three ordinary double points, or "" when they do
    not: node n_i needs nu_i != 0, nu4 = 0 makes the cubic the reducible
    -s0*l^2, and a vanishing nu0+nu1+nu2+nu3 collapses the three nodes."""
    if not (nu.nu[1] * nu.nu[2] * nu.nu[3]):
        return "nu1*nu2*nu3 = 0"
    if not nu.nu[4]:
        return "nu4 = 0"
    if not nodes_distinct(nu):
        return "nu0+nu1+nu2+nu3 = 0, so the three nodes collapse"
    return ""


@dataclass(frozen=True, eq=False)
class IdealPresentation:
    """Named, provenance-tagged generators in a fixed ambient, read-only and
    compared by identity, as X, Y and V are shared."""

    name: str
    ambient: object
    domain: object
    generators: Tuple[Tuple[str, Poly, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    def polys(self) -> List[Poly]:
        return [g for _, g, _ in self.generators]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, _, t in self.generators:
            out[t] = out.get(t, 0) + 1
        return out

    def dump_lines(self) -> List[str]:
        return [f"{n}\t{t}\t{g}" for n, g, t in self.generators]


def xvar(domain, i: int, a: int) -> Poly:
    return Poly.variable(AMBIENT_XY, domain, xname(i, a))


def yvar(domain, t: Sequence[int]) -> Poly:
    return Poly.variable(AMBIENT_XY, domain, yname(t))


def _monomial(*indices: int) -> Tuple[int, ...]:
    """The exponent vector of the product of the variables at ``indices``."""
    e = [0] * AMBIENT_XY.nvars
    for k in indices:
        e[k] += 1
    return tuple(e)


def _binomial(domain, plus: Tuple[int, ...], minus: Tuple[int, ...], sign: int = -1) -> Poly:
    """x^plus + sign * x^minus, with the plus term first."""
    one = domain.one()
    return Poly._trusted(AMBIENT_XY, domain, {plus: one, minus: one if sign > 0 else -one})


def _per_domain(build):
    """``build(domain)`` once per domain; the presentation is shared."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def per_domain(domain=QQ):
        return cached(domain)
    per_domain.cache_clear = cached.cache_clear
    return per_domain


@_per_domain
def build_x_ideal(domain=QQ) -> IdealPresentation:
    """The 3 quadrics x00*x01 = x10*x11 = x20*x21 = x30*x31."""
    gens = [(f"q{i}", _binomial(domain, _monomial(X_INDEX[(i, 0)], X_INDEX[(i, 1)]),
                                _monomial(X_INDEX[(i + 1, 0)], X_INDEX[(i + 1, 1)])), QUADRIC)
            for i in range(3)]
    return IdealPresentation("X", AMBIENT_XY, domain, gens)


@dataclass(frozen=True)
class UnprojectionDatum:
    """The four rational-section representations of one unprojection variable.

    Representation k of phi_{abcd} has numerator prod_{l != k} x_{l, idx_l'}
    and denominator x_{k, idx_k}; any two cross-multiplied representations
    differ by a monomial multiple of a single quadric.
    """

    index: IndexTuple

    def representations(self) -> List[Tuple[Tuple[int, ...], str]]:
        reps = []
        for k in range(4):
            exps = [0] * AMBIENT_XY.nvars
            for l in range(4):
                if l != k:
                    exps[X_INDEX[(l, comp(self.index[l]))]] += 1
            reps.append((tuple(exps), xname(k, self.index[k])))
        return reps

    def cross_difference(self, domain, k: int, l: int) -> Poly:
        reps = self.representations()
        nk, dk = reps[k]
        nl, dl = reps[l]
        return (Poly.monomial(AMBIENT_XY, domain, nk)
                * Poly.variable(AMBIENT_XY, domain, dl)
                - Poly.monomial(AMBIENT_XY, domain, nl)
                * Poly.variable(AMBIENT_XY, domain, dk))


def cubic_generator(domain, t: IndexTuple, k: int) -> Poly:
    """y_t * (denominator of representation k) - (its numerator)."""
    return _binomial(domain, _monomial(Y_INDEX[t], X_INDEX[(k, t[k])]),
                     _monomial(*(X_INDEX[(l, comp(t[l]))] for l in range(4) if l != k)))


def quartic_witnesses(a: IndexTuple, b: IndexTuple) -> Tuple[int, int]:
    """Deterministic witness pair: the two smallest differing positions."""
    diff = [k for k in range(4) if a[k] != b[k]]
    return diff[0], diff[1]


def quartic_generator(domain, a: IndexTuple, b: IndexTuple) -> Poly:
    """y_a*y_b minus the product of representations i of a and j of b.

    Formed fractionally and cleared against x_{i,a_i} * x_{j,b_j}; failure to
    clear would indicate an index-convention bug and raises.
    """
    return quartic_generator_with_witnesses(domain, a, b, *quartic_witnesses(a, b))


def quartic_generator_with_witnesses(domain, a: IndexTuple, b: IndexTuple,
                                     i: int, j: int) -> Poly:
    """The quartic for a chosen witness pair; the monomial depends only on
    the witness set {i, j}."""
    num = [0] * AMBIENT_XY.nvars
    for k in range(4):
        if k != i:
            num[X_INDEX[(k, comp(a[k]))]] += 1
        if k != j:
            num[X_INDEX[(k, comp(b[k]))]] += 1
    num[X_INDEX[(i, a[i])]] -= 1
    num[X_INDEX[(j, b[j])]] -= 1
    if any(e < 0 for e in num):
        raise IdealConstructionError(
            f"quartic for {a},{b} does not clear denominators with witnesses {(i, j)}")
    return _binomial(domain, _monomial(Y_INDEX[a], Y_INDEX[b]), tuple(num))


def quadric_normal_form(f: Poly) -> Poly:
    """Normal form modulo the three defining quadrics only: every mixed pair
    x_{i0}x_{i1} (i > 0) rewrites to x00*x01.  The rules are terminating and
    confluent (disjoint redexes), so two polynomials are congruent modulo the
    quadric ideal iff their normal forms agree."""
    raw = f.domain.raw
    terms: Dict[Tuple[int, ...], object] = {}
    for exps, coef in f.terms.items():
        e = list(exps)
        for i in range(1, 4):
            lo = min(e[X_INDEX[(i, 0)]], e[X_INDEX[(i, 1)]])
            if lo:
                e[X_INDEX[(i, 0)]] -= lo
                e[X_INDEX[(i, 1)]] -= lo
                e[X_INDEX[(0, 0)]] += lo
                e[X_INDEX[(0, 1)]] += lo
        key = tuple(e)
        s = terms.get(key)
        terms[key] = raw(coef) if s is None else s + raw(coef)
    return Poly._from_raw(AMBIENT_XY, f.domain, terms)


def quartic_witness_report(domain=QQ) -> CheckReport:
    """For every quartic and every admissible witness set: pairs differing in
    two positions admit a single witness set (the written form is unique);
    the four antipodal pairs admit six sets whose forms differ literally but
    agree modulo the quadrics."""
    problems = []
    literal_unique = 0
    antipodal_variants = 0
    for a, b in combinations(EVEN_TUPLES, 2):
        diff = [k for k in range(4) if a[k] != b[k]]
        forms = []
        for i, j in combinations(diff, 2):
            forms.append(quartic_generator_with_witnesses(domain, a, b, i, j))
            # the ordered choice does not matter
            if quartic_generator_with_witnesses(domain, a, b, j, i) != forms[-1]:
                problems.append(f"{a},{b}: witness order changes the form")
        canonical = quartic_generator(domain, a, b)
        if forms[0] != canonical:
            problems.append(f"{a},{b}: canonical witness mismatch")
        if len(diff) == 2:
            literal_unique += 1
        else:
            if all(g == forms[0] for g in forms[1:]):
                problems.append(f"{a},{b}: antipodal forms unexpectedly identical")
            antipodal_variants += len(forms)
            if any(not quadric_normal_form(g - forms[0]).is_zero()
                   for g in forms[1:]):
                problems.append(f"{a},{b}: witness forms differ modulo the quadrics")
    if literal_unique != 24:
        problems.append(f"{literal_unique} quartics have a unique witness set, expected 24")
    return verdict("unproj.quartic_witnesses", problems,
                   {"single_witness_quartics": literal_unique,
                    "antipodal_witness_forms": antipodal_variants},
                   on_pass={"equivalence": "literal for 24; modulo the quadrics "
                                           "for the 4 antipodal"})


@_per_domain
def build_unprojection_ideal(domain=QQ) -> IdealPresentation:
    """The 63-generator ideal of Y: 3 quadrics + 32 cubics + 28 quartics."""
    gens = list(build_x_ideal(domain).generators)
    for t in EVEN_TUPLES:
        for k in range(4):
            gens.append((f"c{''.join(map(str, t))}_{k}", cubic_generator(domain, t, k), CUBIC))
    for a, b in combinations(EVEN_TUPLES, 2):
        name = f"s{''.join(map(str, a))}_{''.join(map(str, b))}"
        gens.append((name, quartic_generator(domain, a, b), QUARTIC))
    return IdealPresentation("Y", AMBIENT_XY, domain, gens)


def hyperplane_section(domain) -> Poly:
    return _binomial(domain, _monomial(X_INDEX[(0, 0)]), _monomial(X_INDEX[(0, 1)]), 1)


# ``s_form``, ``y_eigenvector`` and ``product_of_sums`` do not depend on nu, so
# each is built once per field; a Poly is immutable, so callers share it.

@lru_cache(maxsize=None)
def s_form(domain, i: int) -> Poly:
    """s_i = (x_{i0}^2 + x_{i1}^2) / 2, the i-th invariant quadric."""
    half = domain.coerce(Fraction(1, 2))
    return (xvar(domain, i, 0) ** 2 + xvar(domain, i, 1) ** 2) * half


def l_form(nu: FamilyParams) -> Poly:
    d = nu.domain
    acc = Poly.zero(AMBIENT_XY, d)
    for i in range(4):
        acc = acc + s_form(d, i) * nu.nu[i]
    return acc


@lru_cache(maxsize=None)
def y_eigenvector(domain) -> Poly:
    """sum (-1)^(b+c+d) y_{abcd} = sum (-1)^a y_{abcd}."""
    acc = Poly.zero(AMBIENT_XY, domain)
    for t in EVEN_TUPLES:
        sign = -1 if (t[1] + t[2] + t[3]) % 2 else 1
        acc = acc + yvar(domain, t) * domain.from_int(sign)
    return acc


def q_section(nu: FamilyParams) -> Poly:
    """q = nu0*s0 + nu1*s1 + nu2*s2 + nu3*s3 + nu4 * sum (-1)^a y_abcd."""
    return l_form(nu) + y_eigenvector(nu.domain) * nu.nu[4]


@lru_cache(maxsize=None)
def q_basis(domain) -> Tuple[Poly, ...]:
    """The nu-free forms of q: s_0, .., s_3 and the y-eigenvector, so that
    q(nu) = sum nu_i * q_basis[i]."""
    return tuple(s_form(domain, i) for i in range(4)) + (y_eigenvector(domain),)


@_per_domain
def build_v_ideal(domain=QQ) -> IdealPresentation:
    gens = build_unprojection_ideal(domain).generators
    return IdealPresentation("V", AMBIENT_XY, domain,
                             gens + (("h", hyperplane_section(domain), HYPERPLANE),))


def build_t_ideal(nu: FamilyParams) -> IdealPresentation:
    """The 65 generators of a family member: J + hyperplane + q(nu)."""
    gens = build_v_ideal(nu.domain).generators
    return IdealPresentation("T", AMBIENT_XY, nu.domain,
                             gens + (("q", q_section(nu), QUADRIC_SECTION),))


def build_ideal(name: str, nu: Optional[FamilyParams] = None, domain=QQ) -> IdealPresentation:
    if name == "X":
        return build_x_ideal(domain)
    if name == "Y":
        return build_unprojection_ideal(domain)
    if name == "V":
        return build_v_ideal(domain)
    if name == "T":
        if nu is None:
            raise ValueError("the T ideal needs family parameters")
        return build_t_ideal(nu)
    raise ValueError(f"unknown ideal {name!r} (expected X, Y, V or T)")


# -- incidence of the 8 unprojected linear spaces ---------------------------

def plane_equations(t: IndexTuple) -> List[int]:
    """Column indices of the 4 coordinate equations x_{0a}=x_{1b}=x_{2c}=x_{3d}=0."""
    return [X_INDEX[(k, t[k])] for k in range(4)]


def verify_plane_incidences(domain=QQ) -> CheckReport:
    """Rank of the union of equations for all 28 pairs: 8 for the 4 antipodal
    pairs (empty intersection), 6 for the remaining 24 (a line each)."""
    lines = []
    empties = []
    problems = []
    for a, b in combinations(EVEN_TUPLES, 2):
        cols = plane_equations(a) + plane_equations(b)
        rows = []
        for c in cols:
            row = [domain.zero()] * 8
            row[c] = domain.one()
            rows.append(row)
        r = rank(rows, domain)
        antipodal = b == comp_tuple(a)
        if antipodal and r == 8:
            empties.append((a, b))
        elif not antipodal and r == 6:
            lines.append((a, b))
        else:
            problems.append(f"{(a, b)}: rank {r}")
    if (len(lines), len(empties)) != (24, 4):
        problems.append(f"{len(lines)} line pairs and {len(empties)} empty pairs")
    return verdict("unproj.plane_incidences", problems,
                   {"line_pairs": [f"{''.join(map(str, a))}|{''.join(map(str, b))}"
                                   for a, b in lines],
                    "line_count": len(lines), "empty_count": len(empties)})


def phi_consistency_report(domain=QQ) -> CheckReport:
    """Cross-multiplied differences of the four representations of each
    phi_{abcd} are exact monomial multiples of single quadric binomials."""
    problems = []
    for t in EVEN_TUPLES:
        datum = UnprojectionDatum(t)
        for k, l in combinations(range(4), 2):
            diff = datum.cross_difference(domain, k, l)
            quad = xvar(domain, k, 0) * xvar(domain, k, 1) \
                - xvar(domain, l, 0) * xvar(domain, l, 1)
            if exact_divide(diff, quad) is None:
                problems.append(f"{t}: representations {k} and {l}")
    return verdict("unproj.phi_representations", problems,
                   on_pass={"pairs_checked": 8 * 6, "divisor": "x_k0*x_k1 - x_l0*x_l1"})


# -- the directed rewriting system ------------------------------------------

def _rewrite_monomial(exps: Tuple[int, ...], coef):
    """One rewriting step on a monomial with a raw coefficient; None when the
    monomial is normal.

    Rules: x01 -> -x00; x_i0*x_i1 -> -x00^2 (i = 1,2,3); y_abcd times an
    adjacent x-variable -> the cubic's monomial side (x01 eliminated first).
    Each rule strictly decreases (y-degree, x01-degree, mixed-pair count).
    """
    i01 = X_INDEX[(0, 1)]
    if exps[i01] > 0:
        e = list(exps)
        e[i01] -= 1
        e[X_INDEX[(0, 0)]] += 1
        return tuple(e), -coef
    for i in range(1, 4):
        a, b = X_INDEX[(i, 0)], X_INDEX[(i, 1)]
        if exps[a] > 0 and exps[b] > 0:
            e = list(exps)
            e[a] -= 1
            e[b] -= 1
            e[X_INDEX[(0, 0)]] += 2
            return tuple(e), -coef
    for t in EVEN_TUPLES:
        iy = Y_INDEX[t]
        if exps[iy] == 0:
            continue
        # pair with x00 (the two x0-representations, folded through x01=-x00)
        if exps[X_INDEX[(0, 0)]] > 0:
            e = list(exps)
            e[iy] -= 1
            e[X_INDEX[(0, 0)]] -= 1
            for l in range(1, 4):
                e[X_INDEX[(l, comp(t[l]))]] += 1
            return tuple(e), -coef if t[0] == 1 else coef
        for k in range(1, 4):
            ix = X_INDEX[(k, t[k])]
            if exps[ix] > 0:
                e = list(exps)
                e[iy] -= 1
                e[ix] -= 1
                e[X_INDEX[(0, 0)]] += 1
                for l in range(1, 4):
                    if l != k:
                        e[X_INDEX[(l, comp(t[l]))]] += 1
                return tuple(e), coef if t[0] == 1 else -coef
    return None


def reduce_by_rewriting(f: Poly) -> Poly:
    """Normal form under the directed rules; idempotent and terminating."""
    if f.ambient != AMBIENT_XY:
        raise PolyError("the rewriting system lives on the weighted ambient")
    raw = f.domain.raw
    out: Dict[Tuple[int, ...], object] = {}
    work = [(e, raw(c)) for e, c in f.terms.items()]
    while work:
        exps, coef = work.pop()
        step = _rewrite_monomial(exps, coef)
        if step is None:
            s = out.get(exps)
            out[exps] = coef if s is None else s + coef
        else:
            work.append(step)
    return Poly._from_raw(AMBIENT_XY, f.domain, out)


@lru_cache(maxsize=None)
def product_of_sums(domain) -> Poly:
    acc = Poly.one(AMBIENT_XY, domain)
    for i in range(1, 4):
        acc = acc * (xvar(domain, i, 0) + xvar(domain, i, 1))
    return acc


def elimination_cubic_report(nu: FamilyParams) -> CheckReport:
    """Rewriting x00*q eliminates the weight-2 variables into a cubic equal,
    up to a recorded global sign convention, to x00*l +- nu4*(x10+x11)(x20+x21)(x30+x31)."""
    d = nu.domain
    got = reduce_by_rewriting(xvar(d, 0, 0) * q_section(nu))
    lead = reduce_by_rewriting(xvar(d, 0, 0) * l_form(nu))
    prod = product_of_sums(d) * nu.nu[4]
    match = None
    for s1, s2, label in ((1, 1, "x00*l + nu4*prod"), (1, -1, "x00*l - nu4*prod"),
                          (-1, -1, "-(x00*l + nu4*prod)"), (-1, 1, "-(x00*l - nu4*prod)")):
        if got == lead * d.from_int(s1) + prod * d.from_int(s2):
            match = label
            break
    return verdict("unproj.elimination_cubic",
                   [] if match else ["no sign convention matched"],
                   on_pass={"convention": match,
                            "note": "cubic is x00*l + nu4*prod with this package's "
                                    "orientation"},
                   params=nu.as_params())


# -- Jacobian minors at the weight-2 coordinate points -----------------------

def jacobian_minor_data(domain, base: IndexTuple):
    """The 12 generators through y_base and the 12 differentiation variables."""
    others = [t for t in EVEN_TUPLES if t != base]
    gens = [hyperplane_section(domain)]
    gens += [quartic_generator(domain, t, base) for t in others]
    gens += [cubic_generator(domain, base, k) for k in range(4)]
    a = base[0]
    variables = [xname(0, comp(a))] + [yname(t) for t in others] + \
                [xname(0, a)] + [xname(k, base[k]) for k in range(1, 4)]
    return gens, variables


def verify_jacobian_minor(domain=QQ) -> CheckReport:
    """det of the 12x12 gradient block equals +-y_base^11 for all 8 indices."""
    signs = {}
    problems = []
    for base in EVEN_TUPLES:
        gens, variables = jacobian_minor_data(domain, base)
        mat = [[g.derivative(v) for v in variables] for g in gens]
        det = det_poly(mat)
        target = yvar(domain, base) ** 11
        if det == target:
            signs["".join(map(str, base))] = "+"
        elif det == -target:
            signs["".join(map(str, base))] = "-"
        else:
            problems.append(f"det at y{''.join(map(str, base))} is not +-y^11")
    return verdict("unproj.jacobian_minor", problems, {"signs": signs},
                   on_pass={"determinant_degree": 22})


# -- the symmetric-matrix chart at a weight-1 coordinate point ---------------

VERONESE_MATRIX = (
    ("y1100", "x31", "x21", "x00"),
    ("x31", "y0110", "x01", "x20"),
    ("x21", "x01", "y0101", "x30"),
    ("x00", "x20", "x30", "y1111"),
)


def chart_sigma_map(domain):
    """v -> sigma(v) / sigma(x10)^weight(v), a Laurent monomial map.

    Vanishing of a chart polynomial under this pullback certifies vanishing
    on the chart of Y, since the double cover surjects onto Y.
    """
    from .cover import sigma_map  # local import: cover depends on unproj
    sig = sigma_map(domain)
    base_c, base_e = sig.images[AMBIENT_XY.index("x10")]
    images = {}
    for k, name in enumerate(AMBIENT_XY.variables):
        w = AMBIENT_XY.weights[k]
        c, e = sig.images[k]
        images[name] = (c / base_c ** w, tuple(a - w * b for a, b in zip(e, base_e)))
    return MonomialMap(AMBIENT_XY, AMBIENT_T4L, domain, images, laurent=True)


def verify_veronese_chart(domain=QQ) -> CheckReport:
    """In the chart x10 = 1: the eliminations hold and every distinct 2x2
    minor of the displayed symmetric 4x4 matrix vanishes on the chart."""
    pull = chart_sigma_map(domain)
    failures = []
    # elimination identities: y_{a0cd} = x_{0a'} x_{2c'} x_{3d'} and x11 = x00*x01
    for t in EVEN_TUPLES:
        if t[1] != 0:
            continue
        lhs = yvar(domain, t)
        rhs = xvar(domain, 0, comp(t[0])) * xvar(domain, 2, comp(t[2])) \
            * xvar(domain, 3, comp(t[3]))
        if not pull.apply(lhs - rhs).is_zero():
            failures.append(f"elimination y{''.join(map(str, t))}")
    if not pull.apply(xvar(domain, 1, 1) - xvar(domain, 0, 0) * xvar(domain, 0, 1)).is_zero():
        failures.append("elimination x11")
    # symmetry of the displayed matrix
    for r in range(4):
        for c in range(4):
            if VERONESE_MATRIX[r][c] != VERONESE_MATRIX[c][r]:
                failures.append(f"symmetry ({r},{c})")
    # all distinct 2x2 minors
    entry = {n: Poly.variable(AMBIENT_XY, domain, n)
             for row in VERONESE_MATRIX for n in row}
    pairs = list(combinations(range(4), 2))
    minors = 0
    for ri, rows in enumerate(pairs):
        for cols in pairs[ri:]:
            m = entry[VERONESE_MATRIX[rows[0]][cols[0]]] * entry[VERONESE_MATRIX[rows[1]][cols[1]]] \
                - entry[VERONESE_MATRIX[rows[0]][cols[1]]] * entry[VERONESE_MATRIX[rows[1]][cols[0]]]
            minors += 1
            if not pull.apply(m).is_zero():
                failures.append(f"minor rows{rows} cols{cols}")
    return verdict("unproj.veronese_chart", failures,
                   {"minors_checked": minors, "eliminations_checked": 5})
