"""Numerical invariants by exact linear algebra.

Degreewise Hilbert functions of the graded quotient rings are computed over
prime fields as (number of ambient monomials of the degree) minus the rank of
the span of generator multiples, and cross-checked across primes; identical
ranks over independent primes give overwhelming confidence at a fraction of
the characteristic-0 cost, and disagreements are reported, never averaged.

``extend`` computes the same ranks with fewer rows, by the Koszul half of
Faugère's F5 criterion: at degree d, generator g_k of degree e multiplies
only the degree-(d-e) monomials whose column leads no pivot made by a
generator g_i with i < k.  The rows it leaves out are redundant:
  1. every monomial m of degree d-e is r + v, with r in the span of the
     monomials kept and v in I_{k-1} = (g_i : i < k), since the columns an
     echelon basis of (I_{k-1})_{d-e} leaves unled span the quotient by it;
  2. g_k·v = sum_{i<k} (g_k·a_i)·g_i is a sum of earlier generators' rows;
  3. by induction on k and d the kept rows span every graded piece.
No geometry is assumed: a generator may be a zero divisor or lie in the
ideal of the ones before it.  The surfaces T = V + (q(ν)) share V's
echelon, which a run builds once per prime (``checks.RunContext.v_echelon``)
for every draw and for h_V itself.

The intersection-theoretic sanity checks are top-degree products in the
ring Z[h1,h2,h3,h4]/(h1^2, h2^2, h3^2, h4^2) of (P^1)^4: permanents of
multidegree matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ambient import AMBIENT_P7, AMBIENT_XY, Ambient
from .linalg import Pivots, SparseRows, eliminate, rank_mod_p
from .poly import Poly
from .report import CheckReport, verdict
from .scalars import GF, PrimeField
from .unproj import (FamilyParams, IdealPresentation, build_v_ideal,
                     build_x_ideal, q_section)


class DegreeBudgetError(ValueError):
    """The monomial basis for the requested degree exceeds the budget."""


@lru_cache(maxsize=64)
def monomials_of_weighted_degree(ambient: Ambient, d: int) -> Tuple[Tuple[int, ...], ...]:
    """All exponent vectors of weighted degree d, in ascending order.

    Built from the last variable to the first: ``tails[r]`` lists the
    exponent vectors of the variables after the current one that have
    weighted degree r, ascending, so prefixing each exponent a in turn to
    ``tails[r - a*w]`` keeps the order."""
    weights = ambient.weights
    if any(w not in (1, 2) for w in weights):
        raise DegreeBudgetError("only weights 1 and 2 are supported")
    tails: List[List[Tuple[int, ...]]] = [[()]] + [[]] * d
    for w in reversed(weights[1:]):
        tails = [[(a,) + t for a in range(r // w + 1) for t in tails[r - a * w]]
                 for r in range(d + 1)]
    w = weights[0]
    return tuple((a,) + t for a in range(d // w + 1) for t in tails[d - a * w])


def exponent_key(e: Tuple[int, ...], base: int) -> int:
    """The exponents as the digits of one integer in the given base."""
    k = 0
    for a in reversed(e):
        k = k * base + a
    return k


@lru_cache(maxsize=64)
def monomial_keys(ambient: Ambient, d: int, base: int) -> Tuple[int, ...]:
    """``exponent_key`` of each monomial of weighted degree d, in order."""
    return tuple(exponent_key(e, base) for e in monomials_of_weighted_degree(ambient, d))


def monomial_count(ambient: Ambient, d: int) -> int:
    """#monomials of weighted degree d: sum_j C(d-2j+n1-1, n1-1)*C(j+n2-1, n2-1)
    over the weight-2 total j, with n1 weight-1 and n2 weight-2 variables."""
    n1 = sum(1 for w in ambient.weights if w == 1)
    n2 = sum(1 for w in ambient.weights if w == 2)
    total = 0
    for j in range(d // 2 + 1):
        r1 = d - 2 * j
        c1 = comb(r1 + n1 - 1, n1 - 1) if n1 else (1 if r1 == 0 else 0)
        c2 = comb(j + n2 - 1, n2 - 1) if n2 else (1 if j == 0 else 0)
        total += c1 * c2
    return total


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


@dataclass
class Echelon:
    """An ideal's graded pieces over GF(p) in degrees 0..len(pivots)-1, as
    ``extend`` leaves them after its first ``count`` generators: per degree,
    the pivot rows keyed by leading column, and the index of the generator
    whose rows made each pivot."""
    ambient: Ambient
    p: int
    count: int
    pivots: List[Pivots]
    makers: List[Dict[int, int]]

    def profile(self) -> List[Tuple[int, int]]:
        """``[(d, dim of the degree-d part of the quotient ring)]``."""
        return [(d, monomial_count(self.ambient, d) - len(pivots))
                for d, pivots in enumerate(self.pivots)]


def extend(ambient: Ambient, generators: Sequence[Poly], p: int, max_degree: int,
           prefix: Optional[Echelon] = None) -> Echelon:
    """The echelon of the ideal of ``prefix``'s generators (none if it is
    None) followed by ``generators``, in degrees <= max_degree over GF(p).

    Degree by degree and generator by generator, generator k of degree e
    multiplies only the degree-(d-e) monomials whose column leads no pivot
    made by a generator with index < k (the criterion of the module
    docstring), and ``linalg.eliminate`` continues the degree-d pivots with
    those rows.  ``prefix`` is read and never written, so one echelon can be
    extended by many generator lists.  Exponent keys are in base
    max_degree + 1, which bounds every exponent.
    """
    for d in range(max_degree + 1):
        check_budget(d, ambient)
    if prefix is not None and (prefix.ambient != ambient or prefix.p != p
                               or len(prefix.pivots) <= max_degree):
        raise ValueError("the prefix echelon has another ring or fewer degrees")
    base = max_degree + 1
    graded = [graded_terms(g, p, base) for g in generators]
    first = prefix.count if prefix else 0
    pivots: List[Pivots] = []
    makers: List[Dict[int, int]] = []
    for d in range(max_degree + 1):
        col = {k: j for j, k in enumerate(monomial_keys(ambient, d, base))}
        pivots.append(dict(prefix.pivots[d]) if prefix else {})
        makers.append(dict(prefix.makers[d]) if prefix else {})
        for k, (e, terms) in enumerate(graded, first):
            if e is None or e > d:
                continue
            led = makers[d - e]
            rows = ({col[kg + km]: c for kg, c in terms}
                    for j, km in enumerate(monomial_keys(ambient, d - e, base))
                    if led.get(j, k) >= k)
            new = eliminate(rows, p, pivots[d])
            pivots[d].update(new)
            makers[d].update(dict.fromkeys(new, k))
    return Echelon(ambient, p, first + len(graded), pivots, makers)


def v_echelon(p: int, max_degree: int) -> Echelon:
    """The echelon of V's ideal over GF(p) in degrees <= max_degree."""
    v = build_v_ideal(GF(p))
    return extend(v.ambient, [g for _, g, _ in v.generators], p, max_degree)


def t_profiles(p: int, nus: Sequence[FamilyParams], max_degree: int,
               v: Optional[Echelon] = None) -> List[List[Tuple[int, int]]]:
    """``[(d, h_T(d)) for d <= max_degree]`` over GF(p), one list per ν.

    T = V + (q(ν)) and only q depends on ν, so V's echelon ``v`` (in at
    least these degrees; built here when None) is shared and each draw
    extends it by q alone.  By the criterion q, the last generator,
    multiplies only the monomials standard for V: at degree d its h_V(d-2)
    rows, continued from V's pivots.
    """
    field = GF(p)
    if v is None:
        v = v_echelon(p, max_degree)
    return [extend(v.ambient, [q_section(FamilyParams(field, nu.nu))], p,
                   max_degree, v).profile() for nu in nus]


@dataclass
class HilbertProfile:
    ideal_name: str
    prime: int
    nu: Optional[FamilyParams]
    values: List[Tuple[int, int]]

    def table(self) -> List[str]:
        lines = [f"# {self.ideal_name}  GF({self.prime})"
                 + (f"  nu={tuple(int(v) for v in self.nu.nu)}" if self.nu else "")]
        lines.append("degree\tdimension")
        for d, h in self.values:
            lines.append(f"{d}\t{h}")
        return lines


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
    gens = []
    for name, g, tag in build_x_ideal(domain).generators:
        terms = {}
        for e, c in g.terms.items():
            terms[e[:8]] = c
        gens.append((name, Poly(AMBIENT_P7, domain, terms), tag))
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
                     echelon: Optional[Callable[[int], Echelon]] = None) -> CheckReport:
    """h_T(1) = 7 and h_T(n) = 8 + 12n(n-1) for 2 <= n <= max_degree,
    identically across all supplied primes and parameter draws.

    ``echelon(p)`` is V's echelon over GF(p) in at least max_degree
    degrees; without it each prime builds its own."""
    expected = [(0, 1), (1, 7)] + [(n, plurigenus_expected(n))
                                   for n in range(2, max_degree + 1)]
    problems = []
    runs = 0
    for p in primes:
        v = echelon(p) if echelon else None
        for nu, values in zip(nus[p], t_profiles(p, nus[p], max_degree, v)):
            runs += 1
            if values != expected:
                problems.append(
                    f"GF({p}) nu={tuple(int(v) for v in nu.nu)}: {values}")
    return verdict("invariants.hilbert_t", problems,
                   {"expected": expected, "runs": runs},
                   params={"primes": list(primes), "max_degree": max_degree})


def hilbert_v_report(primes: Sequence[int], max_degree: int = 3,
                     echelon: Optional[Callable[[int], Echelon]] = None) -> CheckReport:
    """h_V(1) = 7; higher values recorded and required stable across primes.

    The values are read from ``echelon(p)``, V's echelon over GF(p) in at
    least max_degree degrees, which is built here when not given.  A
    cross-prime disagreement is flagged ``unstable`` rather than averaged."""
    values = {}
    for p in primes:
        v = echelon(p) if echelon else v_echelon(p, max_degree)
        values[p] = v.profile()[:max_degree + 1]
    distinct = {tuple(v) for v in values.values()}
    problems = []
    stable = len(distinct) == 1
    some = next(iter(values.values()))
    if some[0] != (0, 1) or some[1] != (1, 7):
        problems.append(f"h_V(0), h_V(1) = {some[:2]}")
    witness = {"values": some, "stable_across_primes": stable}
    if not stable:
        witness["per_prime"] = values
    return verdict("invariants.hilbert_v", problems, witness, unstable=not stable,
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
