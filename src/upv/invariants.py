"""Numerical invariants by exact linear algebra.

Hilbert functions of X, and of any ideal in the tests' oracles, are (number
of monomials of the degree) minus the rank of the generator multiples over
GF(p).  V needs no elimination, as each of its 64 generators is c_a*x^a +
c_b*x^b with c_a, c_b = +-1 (Eisenbud and Sturmfels, *Binomial ideals*,
1996; Sturmfels, *Groebner bases and convex polytopes*, ch. 4).  A multiple
m*g of degree d says x^(a+m) = -c_a*c_b * x^(b+m) modulo V_d, and
``binomial_quotient`` joins those monomials with that sign, so that each
monomial of a class is +- its root modulo V_d.  If the signs around a cycle
multiply to -1, then 2*root, and so the root (2 is a unit), lies in V_d:
the class is dead.  Otherwise x^u = s(u)*root defines s on the class, and
the functional taking x^u to s(u) there and to 0 elsewhere kills V_d, is 1
at the root and 0 at every other root.  So the live roots are a basis of
(S/V)_d, over QQ and over GF(p) for every odd p alike: one computation
over QQ serves every prime (``checks.RunContext.v_quotient``).
``hilbert_v`` compares each h_V(d) it records with the closed form
((d+1)^4 - d^4 + (-1)^d)/2.

T = V + (q(nu)) goes through V's normal form: modulo V each monomial of
degree d-2 is +- a live root or 0, so (T/V)_d is spanned by q times the
live roots of degree d-2, and h_T(d) = h_V(d) minus the rank of those rows.

The intersection-theoretic sanity checks are top-degree products in the
ring Z[h1,h2,h3,h4]/(h1^2, h2^2, h3^2, h4^2) of (P^1)^4: permanents of
multidegree matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .ambient import AMBIENT_P7, AMBIENT_XY, Ambient
from .linalg import SparseRows, eliminate, rank_mod_p
from .poly import Poly
from .report import CheckReport, verdict
from .scalars import GF, QQ, PrimeField
from .unproj import (FamilyParams, IdealPresentation, build_v_ideal,
                     build_x_ideal, q_section)


class DegreeBudgetError(ValueError):
    """The monomial basis for the requested degree exceeds the budget."""


def exponent_key(e: Tuple[int, ...], base: int) -> int:
    """The exponents as the digits of one integer in the given base."""
    return sum(a * base ** i for i, a in enumerate(e))


@lru_cache(maxsize=64)
def monomial_keys(ambient: Ambient, d: int, base: int) -> Tuple[int, ...]:
    """``exponent_key`` of each exponent vector of weighted degree d, in
    ascending order of the vectors (base > d).

    Built from the last variable to the first: ``tails[r]`` lists the keys
    of the exponent vectors of the variables after the current one that
    have weighted degree r, ascending, so prefixing each exponent a in turn
    to ``tails[r - a*w]`` (key a + base*tail) keeps the order."""
    weights = ambient.weights
    if any(w not in (1, 2) for w in weights):
        raise DegreeBudgetError("only weights 1 and 2 are supported")
    tails: List[List[int]] = [[0]] + [[]] * d
    for w in reversed(weights[1:]):
        tails = [[a + base * t for a in range(r // w + 1) for t in tails[r - a * w]]
                 for r in range(d + 1)]
    w = weights[0]
    return tuple(a + base * t for a in range(d // w + 1) for t in tails[d - a * w])


def monomial_count(ambient: Ambient, d: int) -> int:
    """#monomials of weighted degree d: sum_j C(d-2j+n1-1, n1-1)*C(j+n2-1, n2-1)
    over the weight-2 total j, with n1 weight-1 and n2 weight-2 variables
    (with no variables of a weight, only the total 0 counts, once)."""
    def parts(total: int, n: int) -> int:
        return comb(total + n - 1, total) if n else int(total == 0)
    n1, n2 = ambient.weights.count(1), ambient.weights.count(2)
    return sum(parts(d - 2 * j, n1) * parts(j, n2) for j in range(d // 2 + 1))


MONOMIAL_BUDGET = 60000


def check_budget(d: int, ambient: Ambient = AMBIENT_XY) -> int:
    """#monomials of weighted degree d in ``ambient`` (by default that of V
    and T), at most ``MONOMIAL_BUDGET``."""
    ncols = monomial_count(ambient, d)
    if ncols > MONOMIAL_BUDGET:
        raise DegreeBudgetError(
            f"degree {d} needs {ncols} monomials (budget {MONOMIAL_BUDGET})")
    return ncols


def graded_terms(g: Poly, p: int, base: int) -> Tuple[Optional[int], List[Tuple[int, int]]]:
    """The weighted degree of the homogeneous g over GF(p) (None if it is 0
    there) and its terms as (``exponent_key`` in ``base``, residue) pairs."""
    degrees = {g.ambient.weighted_degree(e) for e in g.terms}
    if len(degrees) > 1:
        raise ValueError("hilbert_function needs homogeneous generators")
    if not isinstance(g.domain, PrimeField):
        g = g.map_coefficients(GF(p))
    elif g.domain.p != p:
        raise ValueError("ideal coefficients live in a different prime field")
    terms = [(exponent_key(e, base), int(c)) for e, c in g.terms.items()]
    return (degrees.pop() if terms else None), terms


def hilbert_rows(ideal: IdealPresentation, d: int, p: int) -> SparseRows:
    """The degree-d multiples of the generators over GF(p): one sparse row per
    (generator, monomial) pair, in generator order and ascending monomial
    order, with columns indexed by the ascending degree-d monomial basis.

    An exponent vector of weighted degree <= d has entries <= d, so its
    digits in base d + 1 make one integer key, distinct for distinct vectors;
    the key of a generator term times a monomial is the sum of their keys.
    A generator's term degrees and keys are read once per call.
    """
    ambient = ideal.ambient
    ncols = check_budget(d, ambient)
    base = d + 1
    col = {k: j for j, k in enumerate(monomial_keys(ambient, d, base))}
    rows: List[Dict[int, int]] = []
    for _, g, _ in ideal.generators:
        e, terms = graded_terms(g, p, base)
        if e is None or e > d:
            continue
        for km in monomial_keys(ambient, d - e, base):
            rows.append({col[kg + km]: c for kg, c in terms})
    return SparseRows(rows, (len(rows), ncols))


def hilbert_function(ideal: IdealPresentation, d: int, p: int) -> int:
    """dim of degree-d part of the quotient ring over GF(p)."""
    if d < 0:
        return 0
    rows = hilbert_rows(ideal, d, p)
    ncols = rows.shape[1]
    if not rows:
        return ncols
    return ncols - rank_mod_p(rows, p)


def signed_binomial(g: Poly, base: int) -> Tuple[int, int, int, int]:
    """The homogeneous g = c_a*x^a + c_b*x^b with c_a, c_b = +-1 as (degree,
    ``exponent_key`` of a and of b in ``base``, -c_a*c_b), as x^a = -c_a*c_b
    * x^b modulo g.  Raises ``ValueError`` naming any other g."""
    one, terms = g.domain.one(), list(g.terms.items())
    degrees = {g.ambient.weighted_degree(e) for e, _ in terms}
    if len(terms) != 2 or len(degrees) != 1 or any(c != one and c != -one for _, c in terms):
        raise ValueError(f"generator {g} is not a homogeneous binomial with coefficients +-1")
    (a, ca), (b, cb) = terms
    return degrees.pop(), exponent_key(a, base), exponent_key(b, base), -1 if ca == cb else 1


def _find(up: Dict[int, Tuple[int, int]], k: int) -> Tuple[int, int]:
    """The root r of k in ``up`` and the s with x^k = s * x^r; k is relinked to r."""
    r, s = k, 1
    while r in up:
        r, t = up[r]
        s *= t
    if r != k:
        up[k] = (r, s)
    return r, s


@dataclass(frozen=True)
class BinomialQuotient:
    """S/I for I generated by +-1 binomials, in degrees 0..len(roots)-1: per
    degree the keys (``exponent_key`` in ``base``) of the live roots, a basis,
    and the normal form, key of each monomial outside I -> (root index, sign)."""
    base: int
    roots: List[List[int]]
    forms: List[Dict[int, Tuple[int, int]]]

    def profile(self) -> List[Tuple[int, int]]:
        """``[(d, dim of the degree-d part of the quotient ring)]``."""
        return [(d, len(roots)) for d, roots in enumerate(self.roots)]


def binomial_quotient(ambient: Ambient, generators: Sequence[Poly],
                      max_degree: int) -> BinomialQuotient:
    """The quotient by ``generators`` (each read by ``signed_binomial``) in
    degrees <= max_degree, over QQ and every GF(p) with p odd: per degree a
    signed union-find joins the two monomials of each generator multiple,
    and a join closing a cycle of sign -1 kills the class (the module
    docstring).  Keys are in base max_degree + 1, above every exponent."""
    base = max_degree + 1
    binomials = [signed_binomial(g, base) for g in generators]
    roots, forms = [], []
    for d in range(max_degree + 1):
        check_budget(d, ambient)
        up: Dict[int, Tuple[int, int]] = {}  # key -> (parent, s): x^key = s * x^parent
        dead = set()  # roots of dead classes
        for e, ka, kb, sign in binomials:
            for km in monomial_keys(ambient, d - e, base) if e <= d else ():
                ra, sa = _find(up, ka + km)
                rb, sb = _find(up, kb + km)
                s = sa * sign * sb  # x^ra = s * x^rb
                if ra != rb:
                    up[ra] = (rb, s)
                    if ra in dead:
                        dead.add(rb)
                elif s < 0:
                    dead.add(ra)
        found = [(k, *_find(up, k)) for k in monomial_keys(ambient, d, base)]
        # live roots by their class's first monomial, descending: this
        # order keeps the fill-in of ``t_profiles``'s eliminations small
        live = list(dict.fromkeys(r for _, r, _ in found if r not in dead))[::-1]
        index = {r: j for j, r in enumerate(live)}
        roots.append(live)
        forms.append({k: (index[r], s) for k, r, s in found if r in index})
    return BinomialQuotient(base, roots, forms)


def v_quotient(max_degree: int) -> BinomialQuotient:
    """V's quotient in degrees <= max_degree, from its generators over QQ."""
    return binomial_quotient(AMBIENT_XY, build_v_ideal(QQ).polys(), max_degree)


def t_profiles(p: int, nus: Sequence[FamilyParams], max_degree: int,
               v: Optional[BinomialQuotient] = None) -> List[List[Tuple[int, int]]]:
    """``[(d, h_T(d)) for d <= max_degree]`` over GF(p), one list per nu.

    Every draw reads and never writes V's quotient ``v`` (in at least these
    degrees; built here when None).  The row of a live root r of degree d-2
    is q*r in V's degree-d normal form, and h_T(d) = h_V(d) - rank."""
    if v is None:
        v = v_quotient(max_degree)
    if len(v.roots) <= max_degree:
        raise ValueError(f"V's quotient stops below degree {max_degree}")
    profiles = []
    for nu in nus:
        e, q = graded_terms(q_section(FamilyParams(GF(p), nu.nu)), p, v.base)
        values = []
        for d, live in enumerate(v.roots[:max_degree + 1]):
            form, rows = v.forms[d], []
            for kr in v.roots[d - e] if e is not None and d >= e else ():
                row: Dict[int, int] = {}
                for kq, c in q:
                    hit = form.get(kq + kr)
                    if hit:
                        row[hit[0]] = row.get(hit[0], 0) + hit[1] * c
                rows.append(row)
            values.append((d, len(live) - len(eliminate(rows, p))))
        profiles.append(values)
    return profiles


@dataclass
class HilbertProfile:
    ideal_name: str
    prime: int
    nu: Optional[FamilyParams]
    values: List[Tuple[int, int]]

    def table(self) -> List[str]:
        head = (f"# {self.ideal_name}  GF({self.prime})"
                + (f"  nu={tuple(int(v) for v in self.nu.nu)}" if self.nu else ""))
        return [head, "degree\tdimension"] + [f"{d}\t{h}" for d, h in self.values]


def hilbert_profile(name: str, p: int, max_degree: int,
                    nu: Optional[FamilyParams] = None) -> HilbertProfile:
    field = GF(p)
    if name == "T":
        if nu is None:
            raise ValueError("the T ideal needs family parameters")
        nu = FamilyParams(field, nu.nu)
        return HilbertProfile(name, p, nu, t_profiles(p, [nu], max_degree)[0])
    if name == "V":
        ideal = build_v_ideal(field)
    elif name == "X":
        ideal = x_ideal_p7(field)
    else:
        raise ValueError(f"unknown ideal {name!r}")
    values = [(d, hilbert_function(ideal, d, p)) for d in range(max_degree + 1)]
    return HilbertProfile(name, p, None, values)


def x_ideal_p7(domain) -> IdealPresentation:
    """The complete intersection of 3 quadrics in the 8 weight-1 variables."""
    gens = [(name, Poly(AMBIENT_P7, domain, {e[:8]: c for e, c in g.terms.items()}), tag)
            for name, g, tag in build_x_ideal(domain).generators]
    return IdealPresentation("X", AMBIENT_P7, domain, gens)


def plurigenus_expected(n: int) -> int:
    """P_n = chi + n(n-1)/2 * K^2 = 8 + 12n(n-1) for the degree-24 surfaces."""
    if n < 2:
        raise ValueError("the plurigenus formula is asserted for n >= 2 only")
    return 8 + 12 * n * (n - 1)


def ci_series_coefficient(d: int) -> int:
    """Hilbert series of 3 quadric relations on 8 degree-1 generators: the
    t^d coefficient of (1-t^2)^3 * (1-t)^-8."""
    return sum((-1) ** k * comb(3, k) * comb(d - 2 * k + 7, 7)
               for k in range(4) if 2 * k <= d)


def hilbert_x_report(p: int = 13, max_degree: int = 6) -> CheckReport:
    """h_X(d) from exact rank computation equals the complete-intersection
    series coefficient for d <= max_degree."""
    prof = hilbert_profile("X", p, max_degree)
    expected = [(d, ci_series_coefficient(d)) for d in range(max_degree + 1)]
    return verdict("invariants.hilbert_x",
                   [] if prof.values == expected else ["h_X differs from the series"],
                   {"computed": prof.values, "series": expected},
                   params={"prime": p, "max_degree": max_degree})


def hilbert_t_report(primes: Sequence[int], nus: Dict[int, List[FamilyParams]],
                     max_degree: int = 4,
                     v: Optional[BinomialQuotient] = None) -> CheckReport:
    """h_T(1) = 7 and h_T(n) = 8 + 12n(n-1) for 2 <= n <= max_degree,
    identically across all supplied primes and parameter draws, from V's
    quotient ``v`` in at least max_degree degrees (built here when None)."""
    expected = [(0, 1), (1, 7)] + [(n, plurigenus_expected(n))
                                   for n in range(2, max_degree + 1)]
    if v is None:
        v = v_quotient(max_degree)
    problems, runs = [], 0
    for p in primes:
        for nu, values in zip(nus[p], t_profiles(p, nus[p], max_degree, v)):
            runs += 1
            if values != expected:
                problems.append(
                    f"GF({p}) nu={tuple(int(v) for v in nu.nu)}: {values}")
    return verdict("invariants.hilbert_t", problems,
                   {"expected": expected, "runs": runs},
                   params={"primes": list(primes), "max_degree": max_degree})


def hilbert_v_expected(d: int) -> int:
    """The closed form h_V(d) = ((d+1)^4 - d^4 + (-1)^d) / 2."""
    return ((d + 1) ** 4 - d ** 4 + (-1) ** d) // 2


def hilbert_v_report(primes: Sequence[int], max_degree: int = 3,
                     v: Optional[BinomialQuotient] = None) -> CheckReport:
    """h_V(d) = ``hilbert_v_expected(d)`` (1, 7, 33, ..) for every recorded
    d <= max_degree, from V's quotient ``v`` in at least these degrees
    (built here when None), which holds over QQ and every GF(p) with p odd:
    over every prime given, and the others."""
    values = (v or v_quotient(max_degree)).profile()[:max_degree + 1]
    problems = [f"h_V({d}) = {h}, expected {hilbert_v_expected(d)}"
                for d, h in values if h != hilbert_v_expected(d)]
    return verdict("invariants.hilbert_v", problems,
                   {"values": values, "stable_across_primes": True},
                   params={"primes": list(primes), "max_degree": max_degree})


# -- intersection numbers on (P^1)^4 ------------------------------------------

def intersection_number(multidegrees: Sequence[Sequence[int]]) -> int:
    """D1*D2*D3*D4 for divisors of multidegrees a_k = (a_k1, .., a_k4) on
    (P^1)^4.  D_k = sum_j a_kj*h_j with h_j^2 = 0 and h1*h2*h3*h4 = 1, so
    the product is the permanent of the 4x4 matrix (a_kj)."""
    if len(multidegrees) != 4 or any(len(a) != 4 for a in multidegrees):
        raise ValueError(f"need four multidegrees of length 4, got {multidegrees}")
    return sum(prod(a[j] for a, j in zip(multidegrees, perm))
               for perm in permutations(range(4)))


def intersection_numbers_report() -> CheckReport:
    """H^4 = 24; deg of the unprojected 4-fold is H^4/2 = 12; the halved
    anticanonical cube of the hyperplane section is 12; the canonical square
    of the surface upstairs is H^2*Z1*Z2 = 48, halving to 24."""
    H = (1, 1, 1, 1)  # h1 + h2 + h3 + h4, pulled back from the weighted space
    z1 = H
    z2 = (2, 2, 2, 2)
    problems = []
    h4 = intersection_number([H, H, H, H])
    if h4 != 24:
        problems.append(f"H^4 = {h4}")
    deg_cover = intersection_number([H, H, H, z1])
    if deg_cover != 24 or deg_cover // 2 != 12:
        problems.append(f"H^3*Z1 = {deg_cover}")
    k2_cover = intersection_number([H, H, z1, z2])
    if k2_cover != 48 or k2_cover // 2 != 24:
        problems.append(f"H^2*Z1*Z2 = {k2_cover}")
    return verdict("invariants.intersection_numbers", problems,
                   on_pass={"H^4": 24, "deg_Y": 12, "minus_K_V^3": 12, "K^2_T": 24})
