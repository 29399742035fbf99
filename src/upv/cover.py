"""The (P^1)^4 double-cover model and the finite-field certification engine.

``sigma_map`` realizes the degree-2 morphism onto the unprojected 4-fold: the
weight-1 coordinates pull back to the eight degree-(1,1,1,1) monomials fixed
by the deck involution s(t_{ia}) = (-1)^a t_{ia} up to sign, and the weight-2
coordinates pull back to squares.  On top of it live

* the lifted automorphisms of (P^1)^4 (``ProjAut``: a factor permutation and
  four 2x2 matrices, compared after per-factor scalar normalization),
* the order-16 closure of the three lifted generators, certified to be
  Z/2 x Q8 both structurally (order statistics, unique common square) and via
  an explicit bijective homomorphism,
* the hypersurfaces Z1 (multidegree (1,1,1,1)) and Z2 = 2*sigma^#(q)
  (multidegree (2,2,2,2)) cutting the simply connected surface upstairs, and
* the enumeration of its F_p points, used to certify that the group acts
  freely and that no rational point is singular.  Both read the shape that
  sigma gives the equations, checked once on their coefficient tensors: Z1
  is the two monomials t00*t11*t21*t31 + t01*t10*t20*t30, so it is solved
  for the first factor and its partials are products of coordinates, and
  Z2 is a form in the squares t_j0^2, t_j1^2, so on that solution it is a
  form of three factors and its partials contract the 2x2x2x2 square
  tensor.

Every scan over points runs on the point kernel (``PointArray``): the points
as int64 arrays of P^1 indices, the group elements reduced mod p once,
images, keys and Jacobians computed for all points at once.  Per prime, the
kernel tabulates over the p + 1 points of P^1(F_p) the image of each point
under each element's 2x2 maps (``ReducedGroup.tables``), so a batch of
images is one gather; near the prime bound, where such tables would not
fit, only the points' distinct coordinates are mapped (``p1_slots``).  The
enumerator reads its per-prime rows of squares from ``square_rows``.  The
local Jacobian reads the shape of Z1 and Z2 that ``square_tensor`` checks,
with the points on the last axis (``local_partials``).  Every product is
reduced mod p before it is added, so all of it is exact for every prime
``GF`` admits (p < 2^31).  ``ProjAut.act_point``, ``Poly.evaluate``,
``Poly.derivative`` and ``canonical_weighted`` stay as the per-point oracles
of the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .ambient import (AMBIENT_T4, AMBIENT_XY, EVEN_TUPLES, T_INDEX, X_INDEX,
                      Y_INDEX, Ambient, comp, tname, xname, yname)
from .grouprep import G_GENERATOR_WORDS, signed_permutation
from .poly import MonomialMap, Poly, frozen_terms, proportional, weighted_sum
from .report import CheckReport, verdict
from .scalars import GF, QI, PrimeField, ScalarError, smallest_non_residue
from .unproj import FamilyParams, q_basis

Chart = Tuple[int, int, int, int]
Point = Tuple[Chart, Tuple[int, int, int, int]]

CHARTS: Tuple[Chart, ...] = tuple(product((0, 1), repeat=4))

AMBIENT_LOCAL4 = Ambient.graded("LOCAL4", ("w0", "w1", "w2", "w3"))


# -- the covering map ---------------------------------------------------------

def sigma_exponents() -> Dict[str, Tuple[int, ...]]:
    """Exponent vector in the t-variables of sigma^#(v) for each v."""
    out: Dict[str, Tuple[int, ...]] = {}
    for i in range(4):
        for a in (0, 1):
            e = [0] * 8
            for k in range(4):
                e[T_INDEX[(k, comp(a) if k == i else a)]] += 1
            out[xname(i, a)] = tuple(e)
    for t in EVEN_TUPLES:
        e = [0] * 8
        flip = t[0] == t[1] == t[2] == t[3]
        for k in range(4):
            e[T_INDEX[(k, comp(t[k]) if flip else t[k])]] += 2
        out[yname(t)] = tuple(e)
    return out


SIGMA_EXPS = sigma_exponents()


def sigma_map(domain) -> MonomialMap:
    images = {name: (domain.one(), e) for name, e in SIGMA_EXPS.items()}
    return MonomialMap(AMBIENT_XY, AMBIENT_T4, domain, images)


def s_involution_map(domain) -> MonomialMap:
    images = {}
    for i in range(4):
        for a in (0, 1):
            e = [0] * 8
            e[T_INDEX[(i, a)]] = 1
            images[tname(i, a)] = (domain.from_int(-1 if a else 1), tuple(e))
    return MonomialMap(AMBIENT_T4, AMBIENT_T4, domain, images)


# -- automorphisms of (P^1)^4 -------------------------------------------------

class ProjAut:
    """Automorphism of (P^1)^4: factor permutation pi and four 2x2 matrices.

    The substitution reads t_{ja} -> sum_b M_j[a][b] * t_{pi(j), b}; equality
    is tested after scaling each matrix so its first nonzero entry in
    row-major order is 1, which is a congruence for composition.
    """

    __slots__ = ("domain", "pi", "mats", "_residues")

    def __init__(self, domain, pi: Sequence[int], mats):
        self._set(domain, tuple(pi),
                  [tuple(tuple(domain.coerce(x) for x in row) for row in m) for m in mats])

    def _set(self, domain, pi: Tuple[int, ...], mats) -> None:
        """Set the fields from matrices whose entries already lie in ``domain``."""
        self.domain, self.pi = domain, pi
        self.mats = tuple(map(normalized, mats))
        self._residues: Dict[int, List[List[List[int]]]] = {}

    @classmethod
    def identity(cls, domain) -> "ProjAut":
        one, zero = domain.one(), domain.zero()
        eye = ((one, zero), (zero, one))
        return cls(domain, (0, 1, 2, 3), (eye,) * 4)

    @classmethod
    def from_images(cls, domain, images: Dict[str, Tuple[object, str]]) -> "ProjAut":
        """Build from substitution images t_var -> (scalar, t_var)."""
        pi = [None] * 4
        mats = [[[domain.zero(), domain.zero()], [domain.zero(), domain.zero()]]
                for _ in range(4)]
        for j in range(4):
            for a in (0, 1):
                coef, target = images[tname(j, a)]
                m, b = int(target[1]), int(target[2])
                if pi[j] is None:
                    pi[j] = m
                elif pi[j] != m:
                    raise ValueError("images of one factor land in two factors")
                mats[j][a][b] = domain.coerce(coef)
        return cls(domain, pi, mats)

    def mul(self, other: "ProjAut") -> "ProjAut":
        """Group product: substitution of ``other`` followed by ``self``.
        The entries of both are in the domain already, so the four 2x2
        products are formed and normalized with no further coercion."""
        mats = []
        for j in range(4):
            (a, b), (c, d) = other.mats[j]
            (e, f), (g, h) = self.mats[other.pi[j]]
            mats.append(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))
        out = ProjAut.__new__(ProjAut)
        out._set(self.domain, tuple(self.pi[j] for j in other.pi), mats)
        return out

    def key(self):
        return (self.pi, self.mats)

    def __eq__(self, other):
        return isinstance(other, ProjAut) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def order(self, cap: int = 64) -> int:
        e = ProjAut.identity(self.domain)
        g = self
        for n in range(1, cap + 1):
            if g == e:
                return n
            g = g.mul(self)
        raise ValueError("order exceeds cap")

    def to_monomial_map(self) -> MonomialMap:
        d = self.domain
        images = {}
        for j in range(4):
            for a in (0, 1):
                row = self.mats[j][a]
                nz = [b for b in (0, 1) if row[b]]
                if len(nz) != 1:
                    raise ValueError("not a monomial automorphism")
                b = nz[0]
                e = [0] * 8
                e[T_INDEX[(self.pi[j], b)]] = 1
                images[tname(j, a)] = (d.coerce(row[b]), tuple(e))
        return MonomialMap(AMBIENT_T4, AMBIENT_T4, d, images)

    def map_entries(self, domain) -> "ProjAut":
        return ProjAut(domain, self.pi, self.mats)

    def act_point(self, point: Point, p: int) -> Point:
        """Image of an enumerated point, renormalized to chart form.  The
        matrix entries are reduced mod p on the first call for p."""
        if p not in self._residues:
            field = GF(p)
            self._residues[p] = [[[int(field.coerce(x)) for x in row] for row in m]
                                 for m in self.mats]
        imats = self._residues[p]
        coords = expand_point(point)
        out = []
        for j in range(4):
            src = coords[self.pi[j]]
            m = imats[j]
            out.append(((m[0][0] * src[0] + m[0][1] * src[1]) % p,
                        (m[1][0] * src[0] + m[1][1] * src[1]) % p))
        return normalize_factors(out, p)

    def __repr__(self):
        return f"ProjAut(pi={self.pi})"


def normalized(m):
    """A 2x2 matrix of field entries scaled so that its first nonzero entry
    in row-major order is 1, or ``m`` itself when that entry is 1."""
    (a, b), (c, d) = m
    lead = a or b or c or d
    if not lead:
        raise ValueError("zero matrix in a projective automorphism")
    if lead == 1:
        return m
    inv = 1 / lead
    return ((a * inv, b * inv), (c * inv, d * inv))


def table2_generators(domain=QI) -> Dict[str, ProjAut]:
    """The tabulated automorphisms: the three factor swaps, the three
    diagonal eps-twists, and the deck involution s."""
    eps = domain.sqrt_minus_one()
    one, zero = domain.one(), domain.zero()
    eye = ((one, zero), (zero, one))
    swap = ((zero, one), (one, zero))

    def diag(u, v):
        return ((u, zero), (zero, v))

    gens = {
        "a1~": ProjAut(domain, (1, 0, 3, 2), (eye, eye, swap, swap)),
        "a2~": ProjAut(domain, (2, 3, 0, 1), (eye, swap, eye, swap)),
        "a3~": ProjAut(domain, (3, 2, 1, 0), (eye, swap, swap, eye)),
        "b1~": ProjAut(domain, (0, 1, 2, 3),
                       (diag(-eps, one), diag(one, -eps), diag(one, eps), diag(one, eps))),
        "b2~": ProjAut(domain, (0, 1, 2, 3),
                       (diag(-eps, one), diag(one, eps), diag(one, -eps), diag(one, eps))),
        "b3~": ProjAut(domain, (0, 1, 2, 3),
                       (diag(-eps, one), diag(one, eps), diag(one, eps), diag(one, -eps))),
        "s": ProjAut(domain, (0, 1, 2, 3),
                     (diag(one, -one),) * 4),
    }
    return gens


def tabulated_generator_rows(domain=QI) -> Dict[str, ProjAut]:
    """The three generators of the lifted group as tabulated directly."""
    eps = domain.sqrt_minus_one()
    one = domain.one()

    def build(images):
        return ProjAut.from_images(domain, images)

    rows = {
        "a1~b2~": build({
            "t00": (-eps, "t10"), "t01": (one, "t11"),
            "t10": (one, "t00"), "t11": (eps, "t01"),
            "t20": (one, "t31"), "t21": (-eps, "t30"),
            "t30": (one, "t21"), "t31": (eps, "t20")}),
        "a2~b3~": build({
            "t00": (-eps, "t20"), "t01": (one, "t21"),
            "t10": (one, "t31"), "t11": (eps, "t30"),
            "t20": (one, "t00"), "t21": (eps, "t01"),
            "t30": (one, "t11"), "t31": (-eps, "t10")}),
        "a3~b1~": build({
            "t00": (-eps, "t30"), "t01": (one, "t31"),
            "t10": (one, "t21"), "t11": (-eps, "t20"),
            "t20": (one, "t11"), "t21": (eps, "t10"),
            "t30": (one, "t00"), "t31": (eps, "t01")}),
    }
    return rows


GT_GENERATOR_NAMES = ("a1~b2~", "a2~b3~", "a3~b1~")
GT_WORDS = dict(zip(GT_GENERATOR_NAMES, G_GENERATOR_WORDS))


def gtilde_generators(domain=QI) -> Dict[str, ProjAut]:
    t2 = table2_generators(domain)
    return {
        "a1~b2~": t2["a1~"].mul(t2["b2~"]),
        "a2~b3~": t2["a2~"].mul(t2["b3~"]),
        "a3~b1~": t2["a3~"].mul(t2["b1~"]),
    }


@dataclass
class FiniteProjGroup:
    """Closure set of projective automorphisms with Cayley data."""

    domain: object
    elements: List[ProjAut]
    names: List[str]
    cayley: List[List[int]]

    def __post_init__(self):
        self._mod_p: Dict[int, "ReducedGroup"] = {}

    def mod_p(self, p: int) -> "ReducedGroup":
        """The nontrivial elements over GF(p) as kernel arrays, once per prime."""
        if p not in self._mod_p:
            self._mod_p[p] = ReducedGroup.of(self, p)
        return self._mod_p[p]

    @classmethod
    def closure(cls, gens: Dict[str, ProjAut], cap: int = 256) -> "FiniteProjGroup":
        """Breadth-first closure under right multiplication by the generators.

        The search forms every product e_i * g_k once, so it records the
        table ``right[i][k]`` and, for each new element, the element and
        generator it was reached from (its name spells that word).  Then
        e_a * e_b is e_a times b's word, one generator at a time, and by
        associativity ``cayley[a][b] = right[cayley[a][parent]][k]`` with no
        further products of automorphisms.
        """
        domain = next(iter(gens.values())).domain
        elements = [ProjAut.identity(domain)]
        names = ["1"]
        index = {elements[0].key(): 0}
        right: List[List[int]] = []
        steps = []  # (parent, generator) of elements 1, 2, ...
        gen_items = sorted(gens.items())
        while len(right) < len(elements):
            i = len(right)
            row = []
            for k, (gname, g) in enumerate(gen_items):
                h = elements[i].mul(g)
                if h.key() not in index:
                    if len(elements) >= cap:
                        raise ValueError("closure exceeded cap")
                    index[h.key()] = len(elements)
                    elements.append(h)
                    names.append(gname if names[i] == "1" else f"{names[i]}*{gname}")
                    steps.append((i, k))
                row.append(index[h.key()])
            right.append(row)
        cayley = []
        for a in range(len(elements)):
            row = [a]
            for parent, k in steps:
                row.append(right[row[parent]][k])
            cayley.append(row)
        return cls(domain, elements, names, cayley)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_orders(self) -> List[int]:
        """Orders from index walks g, g^2, ... in the Cayley table until the
        identity, which the closure puts at index 0.  An order divides the
        group order, so a walk that passes it raises ``ValueError``."""
        orders = []
        for g in range(self.order):
            n, h = 1, g
            while h != 0:
                if n == self.order:
                    raise ValueError(f"the powers of {self.names[g]} never reach "
                                     f"the identity in the Cayley table")
                n, h = n + 1, self.cayley[h][g]
            orders.append(n)
        return orders

    def order_histogram(self) -> Dict[int, int]:
        return dict(Counter(self.element_orders()))

    def is_abelian(self) -> bool:
        n = len(self.elements)
        return all(self.cayley[i][j] == self.cayley[j][i]
                   for i in range(n) for j in range(i + 1, n))


@dataclass
class ReducedGroup:
    """The nontrivial elements of a group over GF(p), as kernel arrays.

    ``pi`` (M, 4) and ``mats`` (M, 4, 2, 2) hold the factor permutations and
    residue matrices of the M elements named ``names``; ``order`` counts the
    distinct reductions, the identity included.  ``tables`` (M, 4, p + 1),
    built on first use, holds the P^1 index of mats[j] applied to each
    point of P^1(F_p) (``p1_images``).
    """

    names: List[str]
    pi: np.ndarray
    mats: np.ndarray
    order: int
    p: int

    @classmethod
    def of(cls, group: FiniteProjGroup, p: int) -> "ReducedGroup":
        field = GF(p)
        ident = ProjAut.identity(field)
        reduced = [(name, g.map_entries(field))
                   for name, g in zip(group.names, group.elements)]
        kept = [(name, g) for name, g in reduced if g != ident]
        pi, mats = aut_arrays([g for _, g in kept], p)
        return cls([name for name, _ in kept], pi, mats,
                   len({g.key() for _, g in reduced}), p)

    @cached_property
    def tables(self) -> np.ndarray:
        tables = p1_images(self.mats, np.arange(self.p + 1), self.p)
        tables.flags.writeable = False  # shared by every certificate at p
        return tables


def aut_arrays(auts: Sequence[ProjAut], p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Factor permutations (M, 4) and residue matrices (M, 4, 2, 2)."""
    field = GF(p)
    pi = np.array([g.pi for g in auts], dtype=np.int64).reshape(-1, 4)
    mats = np.array([[[[int(field.coerce(x)) for x in row] for row in m]
                      for m in g.mats] for g in auts],
                    dtype=np.int64).reshape(-1, 4, 2, 2)
    return pi, mats


# -- abstract Z/2 x Q8 for the isomorphism certificate -----------------------

_Q8_TABLE = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}

Q8_ELEMENTS = [(s, l) for l in ("1", "i", "j", "k") for s in (1, -1)]
Z2Q8_ELEMENTS = [(z, q) for z in (1, -1) for q in Q8_ELEMENTS]


def z2q8_mul(x, y):
    (z1, (s1, l1)), (z2, (s2, l2)) = x, y
    s, l = _Q8_TABLE[(l1, l2)]
    return (z1 * z2, (s1 * s2 * s, l))


def build_lifts_and_certify(domain=QI) -> Tuple[FiniteProjGroup, CheckReport]:
    """Close the three lifted generators and certify the group is Z/2 x Q8.

    Three independent certificates: (i) each lifted generator commutes with
    the covering map over its image word, with one scalar per generator;
    (ii) the closure has order 16, is non-abelian, has order statistics
    (1, 3, 12) and all order-4 elements share a single square; (iii) the
    explicit assignment of the five standard generators extends to a
    bijective homomorphism from Z/2 x Q8.
    """
    problems = []
    gens = gtilde_generators(domain)
    # tabulated rows agree with the products of the separate lifts
    for name, row in tabulated_generator_rows(domain).items():
        if gens[name] != row:
            problems.append(f"{name}: composed lift differs from its tabulated row")
    # lift relations sigma o g~ = g o sigma (one scalar per generator)
    for name, g in gens.items():
        lam = _lift_scalar(domain, g, GT_WORDS[name])
        if lam is None:
            problems.append(f"{name}: no single scalar makes the lift square commute")
    group = FiniteProjGroup.closure(gens)
    if group.order != 16:
        problems.append(f"|closure| = {group.order}")
    try:
        orders = group.element_orders()
    except ValueError as exc:
        problems.append(str(exc))
        orders = []
    hist = dict(Counter(orders))
    if hist != {1: 1, 2: 3, 4: 12}:
        problems.append(f"order histogram {hist}")
    if group.is_abelian():
        problems.append("closure is abelian")
    s_aut = table2_generators(domain)["s"]
    index = {g.key(): i for i, g in enumerate(group.elements)}
    squares = {group.cayley[i][i] for i, o in enumerate(orders) if o == 4}
    if squares != {index.get(s_aut.key())}:
        problems.append("order-4 elements do not share the single square s")
    # generator squares and the Kronecker commutation rule
    a1b2 = gens["a1~b2~"]
    if a1b2.mul(a1b2) != s_aut:
        problems.append("(a1~b2~)^2 != s")
    t2 = table2_generators(domain)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lhs = t2[f"a{i}~"].mul(t2[f"b{j}~"])
            rhs = t2[f"b{j}~"].mul(t2[f"a{i}~"])
            if i == j:
                rhs = s_aut.mul(rhs)
            if lhs != rhs:
                problems.append(f"a{i}~ b{j}~ != s^delta * b{j}~ a{i}~")
    # the explicit homomorphism, checked through the Cayley table
    mu = _build_mu(domain, gens, s_aut)
    mu_idx = {}
    for x, g in mu.items():
        if g.key() not in index:
            problems.append(f"mu({x}) lies outside the closure")
        else:
            mu_idx[x] = index[g.key()]
    if len(set(mu_idx.values())) != 16:
        problems.append(f"mu image has size {len(set(mu_idx.values()))}")
    for x in Z2Q8_ELEMENTS:
        for y in Z2Q8_ELEMENTS:
            if mu_idx[z2q8_mul(x, y)] != group.cayley[mu_idx[x]][mu_idx[y]]:
                problems.append(f"mu breaks at {x} * {y}")
    return group, verdict(
        "cover.group_structure", problems,
        on_pass={"order": 16, "order_histogram": {"1": 1, "2": 3, "4": 12},
                 "common_square": "s", "mu": "bijective homomorphism"})


def _build_mu(domain, gens, s_aut) -> Dict[tuple, ProjAut]:
    a, b, c = (gens[n] for n in GT_GENERATOR_NAMES)
    base = {
        (1, (1, "1")): ProjAut.identity(domain),
        (1, (-1, "1")): s_aut,
        (-1, (1, "1")): a.mul(b).mul(c),
        (1, (1, "i")): b.mul(c),
        (1, (1, "j")): c.mul(a),
        (1, (1, "k")): a.mul(b),
    }
    mu = {}
    for z in (1, -1):
        for s, l in Q8_ELEMENTS:
            g = base[(1, (1, l))] if l != "1" else ProjAut.identity(domain)
            if s == -1:
                g = s_aut.mul(g)
            if z == -1:
                g = base[(-1, (1, "1"))].mul(g)
            mu[(z, (s, l))] = g
    return mu


def _lift_scalar(domain, gt: ProjAut, word) -> Optional[object]:
    """The scalar lambda with gt#(sigma#(v)) = lambda^weight(v) * sigma#(g#(v)),
    where the word sends v_k to sign[k] * v_target[k] (``signed_permutation``)."""
    sig = sigma_map(domain)
    gmap = gt.to_monomial_map()
    target, sign = signed_permutation(word)
    lam = None
    for k, name in enumerate(AMBIENT_XY.variables):
        w = AMBIENT_XY.weights[k]
        lhs = gmap.apply(sig.apply(Poly.variable(AMBIENT_XY, domain, name)))
        if len(lhs.terms) != 1:
            return None
        (el, cl), = lhs.terms.items()
        cr, er = sig.images[target[k]]
        if el != er:
            return None
        ratio = cl / (cr * domain.from_int(sign[k]))
        if lam is None and w == 1:
            lam = ratio
        expect = (lam ** w) if lam is not None else ratio
        if ratio != expect:
            return None
    return lam if lam is not None else domain.one()


def sigma_deck_report(domain=QI) -> CheckReport:
    """sigma o s = sigma: the deck involution rescales every pullback by
    (-1)^weight, the identity lift scalar lambda = -1."""
    s_aut = table2_generators(domain)["s"]
    lam = _lift_scalar(domain, s_aut, (0, 0, 0, 0, 0, 0))
    ok = lam is not None and lam == domain.from_int(-1)
    return verdict("cover.sigma_deck", [] if ok else ["the lift scalar of s is not -1"],
                   {"lambda": str(lam)})


# -- Z1 and Z2 ---------------------------------------------------------------

@lru_cache(maxsize=None)
def z1_poly(domain) -> Poly:
    """Z1 = sigma^#(x00 + x01), once per field (a ``Poly`` is immutable)."""
    return sigma_map(domain).apply(
        Poly.variable(AMBIENT_XY, domain, "x00")
        + Poly.variable(AMBIENT_XY, domain, "x01"))


def z1_display(domain) -> Poly:
    e1 = [0] * 8
    e2 = [0] * 8
    for i in range(4):
        e1[T_INDEX[(i, 1 if i == 0 else 0)]] = 1
        e2[T_INDEX[(i, 0 if i == 0 else 1)]] = 1
    return Poly.monomial(AMBIENT_T4, domain, e1) + Poly.monomial(AMBIENT_T4, domain, e2)


def z2_display(nu: FamilyParams) -> Poly:
    """The tabulated multidegree-(2,2,2,2) equation of the surface family."""
    d = nu.domain
    acc = Poly.zero(AMBIENT_T4, d)
    for i in range(4):
        e1 = [0] * 8
        e2 = [0] * 8
        for j in range(4):
            e1[T_INDEX[(j, 0 if j == i else 1)]] = 2
            e2[T_INDEX[(j, 1 if j == i else 0)]] = 2
        acc = acc + (Poly.monomial(AMBIENT_T4, d, e1)
                     + Poly.monomial(AMBIENT_T4, d, e2)) * nu.nu[i]
    two_nu4 = d.from_int(2) * nu.nu[4]
    for t in EVEN_TUPLES:
        sign = (-1) ** ((t[1] + t[2] + t[3] - t[0]) // 2)
        e = [0] * 8
        for j in range(4):
            e[T_INDEX[(j, t[j])]] = 2
        acc = acc - Poly.monomial(AMBIENT_T4, d, e) * (two_nu4 * d.from_int(sign))
    return acc


@lru_cache(maxsize=None)
def _z2_parts(domain) -> Tuple[Mapping, ...]:
    """2*sigma^#(b) for the nu-free forms b of q (``q_basis``), as
    read-only term maps."""
    sigma, two = sigma_map(domain), domain.from_int(2)
    return tuple(frozen_terms(sigma.apply(b) * two) for b in q_basis(domain))


def z2_poly(nu: FamilyParams) -> Poly:
    """Z2 = 2*sigma^#(q) over the field of the parameters: q is linear in
    nu, so Z2 is summed from the per-field parts ``_z2_parts``."""
    return weighted_sum(AMBIENT_T4, nu.domain, zip(_z2_parts(nu.domain), nu.nu))


def build_z2(nu: FamilyParams) -> Tuple[Poly, CheckReport]:
    """Z2 = 2*sigma^#(q); certifies it matches the tabulated display exactly
    and is invariant under the deck involution and the lifted group."""
    d = nu.domain
    z2 = z2_poly(nu)
    problems = []
    disp = z2_display(nu)
    if z2 != disp:
        problems.append(f"2*sigma#(q) - display = {z2 - disp}")
    if z2.multidegrees() != {(2, 2, 2, 2)}:
        problems.append(f"multidegrees {sorted(z2.multidegrees())}")
    if s_involution_map(d).apply(z2) != z2:
        problems.append("Z2 not fixed by the deck involution")
    try:
        gens = gtilde_generators(d)
        for name, g in gens.items():
            img = g.to_monomial_map().apply(z2)
            if not proportional(img, z2):
                problems.append(f"Z2 not semi-invariant under {name}")
            imgz1 = g.to_monomial_map().apply(z1_poly(d))
            if not proportional(imgz1, z1_poly(d)):
                problems.append(f"Z1 not semi-invariant under {name}")
    except ScalarError:
        problems.append("domain lacks sqrt(-1); group invariance unchecked")
    return z2, verdict("cover.z2_construction", problems,
                       on_pass={"display_match": "exact", "terms": len(z2.terms),
                                "multidegree": "(2,2,2,2)"},
                       params=nu.as_params())


# -- point enumeration --------------------------------------------------------

def expand_point(point: Point) -> Tuple[Tuple[int, int], ...]:
    chart, vals = point
    return tuple((1, vals[i]) if chart[i] == 0 else (0, 1) for i in range(4))


def normalize_factors(factors: Sequence[Tuple[int, int]], p: int) -> Point:
    chart = []
    vals = []
    for t0, t1 in factors:
        t0 %= p
        t1 %= p
        if t0:
            inv = pow(t0, p - 2, p)
            chart.append(0)
            vals.append((t1 * inv) % p)
        elif t1:
            chart.append(1)
            vals.append(0)
        else:
            raise ValueError("zero factor in a projective point")
    return (tuple(chart), tuple(vals))


def pow_mod(arr: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(arr)
    base = arr % p
    while e:
        if e & 1:
            out = (out * base) % p
        e >>= 1
        if e:
            base = (base * base) % p
    return out


# -- the point kernel -----------------------------------------------------------

INT64_MAX = 2 ** 63 - 1


class PointArray:
    """Points of (P^1(F_p))^4 in chart form, as (N, 4) int64 arrays.

    Factor i of point n is (1, vals[n, i]) when chart[n, i] is 0 and (0, 1)
    when it is 1; vals is 0 there.
    """

    __slots__ = ("p", "chart", "vals")

    def __init__(self, p: int, chart: np.ndarray, vals: np.ndarray):
        self.p, self.chart, self.vals = p, chart, vals

    def __len__(self) -> int:
        return len(self.chart)

    def point(self, n: int) -> Point:
        return (tuple(self.chart[n].tolist()), tuple(self.vals[n].tolist()))

    def homogeneous(self) -> np.ndarray:
        """(N, 4, 2): t_{i0}, t_{i1} per factor; reshaped (N, 8) it is in
        the variable order of AMBIENT_T4."""
        return np.stack([1 - self.chart, np.where(self.chart == 1, 1, self.vals)],
                        axis=-1)

    def digits(self) -> np.ndarray:
        """The P^1 index of each factor of each point, (N, 4), as in
        ``p1_table``: k < p stands for (1, k) and p for (0, 1)."""
        return np.where(self.chart == 1, self.p, self.vals)

    def keys(self) -> np.ndarray:
        return point_keys(self.digits(), self.p)


def point_keys(digits: np.ndarray, p: int) -> np.ndarray:
    """One integer per point from its four P^1 indices (the last axis), as
    base p+1 digits.  int64 while (p+1)^4 fits, Python ints beyond."""
    if (p + 1) ** 4 > INT64_MAX:
        digits = digits.astype(object)
    key = digits[..., 0]
    for j in (1, 2, 3):
        key = key * (p + 1) + digits[..., j]
    return key


def p1_images(mats: np.ndarray, digits: np.ndarray, p: int) -> np.ndarray:
    """The P^1 index of m applied to the point of P^1 index k, for each 2x2
    residue matrix m of ``mats`` (..., 2, 2) and each k of the 1-D
    ``digits``: shape (..., len(digits)).  Images are renormalized by
    Fermat inverses."""
    s0 = (digits != p).astype(np.int64)
    s1 = np.where(digits == p, 1, digits)
    # one product of two residues plus at most one residue: < p^2 + p < 2^63
    t0 = (mats[..., 0, 0, None] * s0 + mats[..., 0, 1, None] * s1) % p
    t1 = (mats[..., 1, 0, None] * s0 + mats[..., 1, 1, None] * s1) % p
    if np.any(t1[t0 == 0] == 0):
        raise ValueError("zero factor in a projective point")
    return np.where(t0 == 0, p, t1 * pow_mod(t0, p - 2, p) % p)


def p1_slots(pa: PointArray) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Where ``image_keys`` reads the per-factor values of a point set: a
    pair (values, slots) with slots (N, 4) indexing a table over the P^1
    indices ``values``.

    Normally the table covers all p + 1 points of P^1(F_p) and is kept per
    prime by the caller: then ``values`` is None and the slots are the P^1
    indices.  The size rule: when p + 1 exceeds the 4N coordinates of the
    points (only near the prime bound, where a full table would take
    gigabytes), ``values`` holds the distinct P^1 indices of the points and
    only those are evaluated.
    """
    digits = pa.digits()
    if pa.p + 1 <= digits.size:
        return None, digits
    values, where = np.unique(digits, return_inverse=True)
    return values, where.reshape(digits.shape)


def image_keys(red: "ReducedGroup", pa: PointArray) -> np.ndarray:
    """Keys (M, N) of the images of N points under the M elements of
    ``red``.  As in ``ProjAut.act_point``, factor j of an image is mats[j]
    applied to factor pi[j] of the point, read from the element's P^1 table
    (``ReducedGroup.tables``, or the distinct coordinates by the size rule
    of ``p1_slots``)."""
    values, slots = p1_slots(pa)
    table = red.tables if values is None else p1_images(red.mats, values, pa.p)
    src = slots.T[red.pi]  # (M, 4, N): the slot of factor pi[j]
    return point_keys(np.take_along_axis(table, src, axis=2).transpose(0, 2, 1), pa.p)


@dataclass
class SurfacePointSet:
    """All F_p points of the upstairs surface, sorted by (chart, vals), with
    its two equations (Z1, Z2) over GF(p)."""

    p: int
    nu: FamilyParams
    points: PointArray
    equations: Tuple[Poly, Poly]

    @cached_property
    def square(self) -> np.ndarray:
        """Z2's square tensor c, read from the equations after the shape
        check of ``square_tensor``; ``enumerate_surface`` stores the one it
        built, so the certificate of its points reads that."""
        return square_tensor(*self.equations, self.p)

    @property
    def count(self) -> int:
        return len(self.points)

    def dump_lines(self) -> List[str]:
        head = f"{self.p} " + " ".join(str(int(v)) for v in self.nu.nu) + f" {self.count}"
        lines = [head]
        for chart, vals in zip(self.points.chart.tolist(), self.points.vals.tolist()):
            lines.append("".join(map(str, chart)) + " " + " ".join(map(str, vals)))
        return lines


def coefficient_tensor(f: Poly, d: int, p: int) -> np.ndarray:
    """A form of multidegree (d,d,d,d) over GF(p) as a (d+1)^4 int64 tensor:
    C[a0, a1, a2, a3] is the coefficient of prod t_j0^(d-a_j) t_j1^(a_j)."""
    field = GF(p)
    tensor = np.zeros((d + 1,) * 4, dtype=np.int64)
    for e, c in f.terms.items():
        if any(e[T_INDEX[(j, 0)]] + e[T_INDEX[(j, 1)]] != d for j in range(4)):
            raise ValueError(f"a term of multidegree other than {(d,) * 4}")
        tensor[tuple(e[T_INDEX[(j, 1)]] for j in range(4))] = int(field.coerce(c))
    return tensor


def p1_rows(t0: np.ndarray, t1: np.ndarray, d: int, p: int) -> np.ndarray:
    """R[..., a] = t0^(d-a) * t1^a mod p for residue arrays t0, t1."""
    return np.stack([pow_mod(t0, d - a, p) * pow_mod(t1, a, p) % p
                     for a in range(d + 1)], axis=-1)


def p1_table(d: int, p: int) -> np.ndarray:
    """``p1_rows`` at (1, k) for k < p, then (0, 1): all of P^1(F_p)."""
    k = np.arange(p + 1)
    affine = k < p
    return p1_rows(affine.astype(np.int64), np.where(affine, k, 1), d, p)


@lru_cache(maxsize=8)
def square_rows(p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows the enumerator reads over P^1(F_p), indexed as in
    ``p1_table``: h = (t0, t1), u = (t0^2, t1^2) and E = (t0^4, t0^2*t1^2,
    t1^4), once per prime, shared by every caller and hence read-only."""
    h = p1_table(1, p)
    u = h * h % p
    rows = (h, u, p1_rows(u[:, 0], u[:, 1], 2, p))
    for r in rows:
        r.flags.writeable = False
    return rows


def monomial_values(rows: np.ndarray, exps: np.ndarray, p: int) -> np.ndarray:
    """prod_j rows[n, j, exps[m, j]] mod p, shape (N, M): M monomials, one
    P^1 row entry per factor, at N points with rows (N, 4, d + 1)."""
    out = rows[:, 0, exps[:, 0]]
    for j in (1, 2, 3):
        out *= rows[:, j, exps[:, j]]
        out %= p
    return out


def contract(tensor: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """Mode product mod p: the leading axis of ``tensor`` (an exponent a) is
    summed against ``table[k, a]``, and the axis of k is appended last.
    Every product of two residues (< 2^62) is reduced before it is added,
    and a sum of d + 1 residues stays far below 2^63."""
    out = 0
    for a in range(table.shape[1]):
        out = out + tensor[a][..., None] * table[:, a] % p
    return out % p


# the most cells (points of factor 1 times points of factors 2 and 3) that
# ``enumerate_surface`` treats in one numpy pass
BLOCK_CELLS = 2 ** 13

# Z1 = t00*t11*t21*t31 + t01*t10*t20*t30: its coefficient tensor (d = 1)
Z1_TENSOR = np.zeros((2,) * 4, dtype=np.int64)
Z1_TENSOR[0, 1, 1, 1] = Z1_TENSOR[1, 0, 0, 0] = 1
Z1_TENSOR.flags.writeable = False


def tensor_term(index: Sequence[int], d: int) -> str:
    """The monomial prod t_j0^(d-a_j) t_j1^(a_j) at ``index`` (a0, ..., a3)
    of a coefficient tensor of degree d, written as ``Poly`` writes it."""
    factors = []
    for j, a in enumerate(index):
        for v, k in ((0, d - a), (1, a)):
            if k:
                factors.append(tname(j, v) if k == 1 else f"{tname(j, v)}^{k}")
    return "*".join(factors)


def square_tensor(z1: Poly, z2: Poly, p: int) -> np.ndarray:
    """The 2x2x2x2 residue tensor c of Z2 as a form in the squares
    u_j = (t_j0^2, t_j1^2), after checking the shape ``enumerate_surface``
    relies on: Z1 is exactly its two monomials, and Z2 has no term with an
    odd exponent.  Raises ``ValueError`` naming the first offending term."""
    t1 = coefficient_tensor(z1, 1, p)
    bad = np.argwhere(t1 != Z1_TENSOR)
    if len(bad):
        index = tuple(bad[0].tolist())
        raise ValueError(f"Z1 is not t00*t11*t21*t31 + t01*t10*t20*t30: its term "
                         f"{tensor_term(index, 1)} has coefficient {t1[index]}")
    t2 = coefficient_tensor(z2, 2, p)
    odd = t2.copy()
    odd[::2, ::2, ::2, ::2] = 0
    bad = np.argwhere(odd)
    if len(bad):
        index = tuple(bad[0].tolist())
        raise ValueError(f"Z2 is not a form in the squares t_j0^2, t_j1^2: it has the "
                         f"term {t2[index]}*{tensor_term(index, 2)}")
    return t2[::2, ::2, ::2, ::2]


def folded_tensor(c: np.ndarray, p: int) -> np.ndarray:
    """Z2 with factor 0 at (A : -B), as the 3x3x3 tensor W of a form in
    the rows E = (t0^4, t0^2*t1^2, t1^4) of factors 1-3.  There u_0 =
    (A^2, B^2), and factor by factor A^2 turns u_j[a] into E[a] and B^2
    turns it into E[a + 1], so W[a] += c[0, a] and W[a + 1] += c[1, a] for
    the square tensor c (2x2x2x2).  An entry sums at most two residues."""
    w = np.zeros((3, 3, 3), dtype=np.int64)
    w[:2, :2, :2] = c[0]
    w[1:, 1:, 1:] += c[1]
    return w % p


def square_sums(c: np.ndarray, squares: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """B0 and B2, the coefficients of t00^2 and t01^2 in Z2, at N cells of
    factors 1-3 with squares (N, 3, 2) = (t_j0^2, t_j1^2): the 8-term sums
    of c[0] and c[1] against the products of one square per factor, each
    product reduced before it is added."""
    prods = (squares[:, 0, :, None] * squares[:, 1, None, :] % p)[..., None]
    prods = prods * squares[:, 2, None, None, :] % p
    b0, b2 = ((prods * cb % p).sum(axis=(1, 2, 3)) % p for cb in c)
    return b0, b2


def enumerate_surface(p: int, nu: FamilyParams) -> SurfacePointSet:
    """All F_p points of Z1 = Z2 = 0, with Z1 solved for the first factor.

    The solve reads the shape of the equations (``square_tensor``): Z1 =
    t00*B + t01*A with A = t10*t20*t30 and B = t11*t21*t31, and Z2 is a
    form c in the squares u_j = (t_j0^2, t_j1^2).  Where (A, B) != (0, 0),
    factor 0 is the single point (A : -B), and there Z2 is F = sum_e W[e] *
    prod_j E[k_j, e_j] over factors 1-3 (``folded_tensor``), with E =
    (t0^4, t0^2*t1^2, t1^4) a table over P^1(F_p) (``square_rows``, kept
    per prime with the rows of t and u).  Factors 3 and 2 are
    contracted once (``contract``), on all (p+1)^2 of their points; then F
    costs three products a cell.  The points of factor 1 go in blocks of up
    to ``BLOCK_CELLS`` cells, one broadcast each with factor 1 leading and
    the (p+1)^2 points of factors 2 and 3 innermost (one block at p = 13
    and 17, one point of factor 1 a block once (p+1)^2 > 2^12, as at p =
    101).  F also vanishes at the O(p) cells with A = B = 0, where Z2 =
    B0*t00^2 + B2*t01^2 (``square_sums``) is tested at every point of
    factor 0.  Every product of two residues is reduced before it is
    added, so all of it is exact for p < 2^31.  O(p^3) work, O(p^2) memory.
    The points are sorted by one packed key (``chart_keys``), and the set
    carries c, so the certificate of these points checks no shape again.
    """
    field = GF(p)
    if not isinstance(nu.domain, PrimeField) or nu.domain.p != p:
        nu = FamilyParams(field, tuple(field.coerce(v) for v in nu.nu))
    equations = (z1_poly(field), z2_poly(nu))
    c = square_tensor(*equations, p)
    n = p + 1  # the points of P^1(F_p), indexed as in ``p1_table``
    h, u, e = square_rows(p)
    # axes (e2, e3, e1) contracted twice: (e1, k2, k3), then the points of
    # factors 2 and 3 flattened to k2*n + k3
    g = contract(contract(folded_tensor(c, p).transpose(1, 2, 0), e, p), e, p)
    g = g.reshape(3, n * n)
    step = max(1, BLOCK_CELLS // (n * n))
    cells = []  # per block, the cells k1*n*n + k2*n + k3 where F = 0
    buf, tmp = np.empty((2, step, n * n), dtype=np.int64)
    for lo in range(0, n, step):
        rows = e[lo:lo + step]
        f, t = buf[:len(rows)], tmp[:len(rows)]
        np.multiply(rows[:, 0, None], g[0], out=f)
        f %= p
        for a in (1, 2):
            np.multiply(rows[:, a, None], g[a], out=t)
            t %= p
            f += t
        f %= p
        cells.append(np.flatnonzero(f == 0) + lo * n * n)
    k = np.unravel_index(np.concatenate(cells), (n, n, n))  # factors 1-3
    a = h[k[0], 0] * h[k[1], 0] % p * h[k[2], 0] % p
    b = h[k[0], 1] * h[k[1], 1] % p * h[k[2], 1] % p
    zero = (a == 0) & (b == 0)
    # (A : -B) is (1, -B/A) by a Fermat inverse, or (0, 1) where A = 0
    a, b = a[~zero], b[~zero]
    solved = np.stack([np.where(a == 0, p, (p - b) * pow_mod(a, p - 2, p) % p),
                       *(kj[~zero] for kj in k)], axis=1)
    # A = B = 0: Z2 = B0*t00^2 + B2*t01^2 at every point of factor 0
    k = np.stack([kj[zero] for kj in k], axis=1)
    b0, b2 = square_sums(c, u[k], p)
    cell, k0 = np.nonzero((b0[:, None] * u[:, 0] % p + b2[:, None] * u[:, 1] % p) % p == 0)
    index = np.concatenate([solved, np.column_stack([k0, k[cell]])])
    chart, vals = (index == p).astype(np.int64), index % p
    order = np.argsort(chart_keys(chart, vals, p))
    found = SurfacePointSet(p, nu, PointArray(p, chart[order], vals[order]), equations)
    found.square = c  # checked above, and read by the certificate
    return found


# the chart code 8*c0 + 4*c1 + 2*c2 + c3, which orders charts lexicographically
CHART_CODE = np.array([8, 4, 2, 1])


def chart_keys(chart: np.ndarray, vals: np.ndarray, p: int) -> np.ndarray:
    """One integer per point (rows of chart and vals, (N, 4)) that orders the
    points as (chart, vals) does lexicographically: the chart code, then
    the four values as base p digits.  int64 while 16*p^4 fits, Python ints
    beyond (as in ``point_keys``)."""
    key = chart @ CHART_CODE
    if 16 * p ** 4 > INT64_MAX:
        key = key.astype(object)
    for j in range(4):
        key = key * p + vals[:, j]
    return key


# The scans over every point of (P^1(F_p))^4 (``brute_force_count`` and
# ``downstairs_image_set``) go through the grid in blocks of ``GRID_BLOCK``
# points (or one slice of factor 0, if larger).  Besides the block they hold
# only the image set's keys, their sort and its one-byte result, about 40
# bytes a grid point (0.03 GB at p = 29, 0.08 GB at p = 37).  So
# ``GRID_BUDGET`` bounds their time: it admits p <= 47, and the two take
# 0.5 s at p = 29 and 2.5 s at p = 41.
GRID_BUDGET = 2 ** 23
GRID_BLOCK = 2 ** 13


def check_grid_budget(p: int) -> int:
    """#points of (P^1(F_p))^4, at most ``GRID_BUDGET``."""
    n = (p + 1) ** 4
    if n > GRID_BUDGET:
        raise ValueError(f"the grid scan at p = {p} needs {n} points (budget {GRID_BUDGET})")
    return n


def brute_force_count(p: int, nu: FamilyParams) -> int:
    """Independent oracle: substitute into Z1 at every point of
    (P^1(F_p))^4, and into Z2 at the points where that Z1 value vanished,
    term by term, multiplying in one coordinate factor at a time and
    reducing mod p after each product (both factors are residues, so no
    product exceeds (p-1)^2 < 2^62).  The points go in blocks of
    ``GRID_BLOCK``: point n has the base p+1 digits of n, factor 0 first, as
    its P^1 indices, k < p standing for (1, k) and p for (0, 1)."""
    n = check_grid_budget(p)
    field = GF(p)
    nu = FamilyParams(field, tuple(field.coerce(v) for v in nu.nu))
    equations = (z1_poly(field), z2_poly(nu))
    places = (p + 1) ** np.arange(3, -1, -1)[:, None]
    count = 0
    for lo in range(0, n, GRID_BLOCK):
        digits = np.arange(lo, min(lo + GRID_BLOCK, n)) // places % (p + 1)
        # (t_{j0}, t_{j1}) per factor j: the variable order of AMBIENT_T4
        cols = np.stack([(digits != p).astype(np.int64), np.where(digits == p, 1, digits)],
                        axis=1).reshape(8, -1)
        for f in equations:
            acc = np.zeros(cols.shape[1], dtype=np.int64)
            for e, c in f.terms.items():
                t = np.full(cols.shape[1], int(c), dtype=np.int64)
                for col, k in zip(cols, e):
                    for _ in range(k):
                        t = t * col % p
                acc = (acc + t) % p
            cols = cols[:, acc == 0]
        count += cols.shape[1]
    return count


# -- freeness and smoothness ---------------------------------------------------

def local_equations(p: int, nu: FamilyParams, chart: Chart) -> List[Poly]:
    """Z1, Z2 dehomogenized in the affine chart around its points: factor i
    contributes local variable w_i (= t_{i1} when chart bit 0, else t_{i0}).
    Their derivatives are the scalar oracle of ``local_partials``."""
    field = GF(p)
    z1 = z1_poly(field)
    z2 = z2_poly(nu)
    images = {}
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        if chart[i] == 0:
            images[tname(i, 0)] = (field.one(), (0, 0, 0, 0))
            images[tname(i, 1)] = (field.one(), tuple(e))
        else:
            images[tname(i, 0)] = (field.one(), tuple(e))
            images[tname(i, 1)] = (field.one(), (0, 0, 0, 0))
    m = MonomialMap(AMBIENT_T4, AMBIENT_LOCAL4, field, images)
    return [m.apply(z1), m.apply(z2)]


def local_partials(pa: PointArray, c: np.ndarray) -> np.ndarray:
    """d/dw_k of Z1 and Z2 at each point, shape (2, 4, N), with w_k local
    on factor k as in ``local_equations``: t_k1 in chart 0, and t_k0 in
    chart 1, where it is 0.  It reads the shape ``square_tensor`` checks.

    Z1 = t00*B + t01*A (A = t10*t20*t30, B = t11*t21*t31): its partial in
    w_0 is A in chart 0 and B in chart 1; in w_k (k >= 1) it is t00 times
    the t_j1, j not 0 or k, in chart 0, and t01 times the t_j0 in chart 1.
    Z2 = sum_a c[a] * prod_j u_j[a_j] with u_j = (t_j0^2, t_j1^2): its
    partial in w_k is 2*t_k1*G_k in chart 0 and 0 in chart 1, where G_k
    sums the terms with a_k = 1 without u_k.  c contracted with u_2 (x) u_3
    gives G_0 and G_1, with u_0 (x) u_1 gives G_2 and G_3.  Arrays are
    (component, N); every product of two residues is reduced before it is
    added and no sum exceeds four residues, so all of it is exact for
    p < 2^31."""
    p = pa.p
    # (4, N), contiguous, so that every product below runs along the points
    chart = np.ascontiguousarray(pa.chart.T) == 1
    t0 = (~chart).astype(np.int64)  # 0 or 1 in chart form
    t1 = np.where(chart, 1, np.ascontiguousarray(pa.vals.T))
    out = np.empty((2,) + chart.shape, dtype=np.int64)
    for k in range(4):
        rest = [j for j in (1, 2, 3) if j != k]
        ones, zeros = t1[rest[0]], t0[rest[0]]  # prod t_j1 and prod t_j0 over rest
        for j in rest[1:]:
            ones, zeros = ones * t1[j] % p, zeros * t0[j]
        if k == 0:
            out[0, 0] = np.where(chart[0], ones, zeros)
        else:
            out[0, k] = np.where(chart[k], t1[0] * zeros, t0[0] * ones)
    u = np.stack([t0, t1 * t1 % p], axis=1)  # (4, 2, N): u[j, a] = t_ja^2
    g = np.empty_like(t1)
    for (x, y), (z, w) in (((0, 1), (2, 3)), ((2, 3), (0, 1))):
        # h[a_x, a_y] = sum over (a_z, a_w) of c[a] * u_z[a_z] * u_w[a_w]
        uu = (u[z][:, None] * u[w][None] % p).reshape(4, -1)
        cc = c.transpose(x, y, z, w).reshape(4, 4)
        h = cc[:, 0, None] * uu[0] % p
        for i in (1, 2, 3):
            h += cc[:, i, None] * uu[i] % p
        h = (h % p).reshape(2, 2, -1)
        g[x] = (h[1] * u[y] % p).sum(axis=0) % p
        g[y] = (h[:, 1] * u[x] % p).sum(axis=0) % p
    out[1] = np.where(chart, 0, 2 * t1 % p * g % p)
    return out


def jacobian_rank2(pa: PointArray, c: np.ndarray) -> np.ndarray:
    """Whether the local 2x4 Jacobian of Z1 and Z2 has rank 2 at each point,
    for Z2 of square tensor c (``local_partials``)."""
    p = pa.p
    j0, j1 = local_partials(pa, c)
    rank2 = np.zeros(len(pa), dtype=bool)
    for a, b in combinations(range(4), 2):
        # a difference of two products of residues lies within +-2^62
        rank2 |= (j0[a] * j1[b] - j0[b] * j1[a]) % p != 0
    return rank2


def certify_free_and_smooth(points: SurfacePointSet,
                            group: FiniteProjGroup) -> CheckReport:
    """(i) no nontrivial element of the lifted group fixes a point; (ii) the
    2x4 Jacobian of the two local equations has rank 2 at every point; (iii)
    group images of points stay on the surface (orbit closure).  When (i)
    and (iii) hold, the points split into free orbits, so their number is a
    multiple of the group order.

    Per element, the problems name the first point it fixes and the first
    point it moves off the surface (scanning stops there); a rank drop
    names the first singular point in chart order.
    """
    p = points.p
    nu = points.nu
    problems = []
    pa = points.points
    n = len(pa)
    keys = pa.keys()
    sorted_keys = np.sort(keys)
    red = group.mod_p(p)
    img = image_keys(red, pa)
    # an automorphism is injective, so it keeps the set iff it permutes the
    # keys; per element, the first point it fixes and the first point it
    # moves off the surface (n for none)
    moved = ~(np.sort(img, axis=1) == sorted_keys).all(axis=1)
    off = np.zeros(img.shape, dtype=bool)
    off[moved] = ~_members(sorted_keys, img[moved])
    fixes_at, leaves_at = _first(img == keys), _first(off)
    closed = free = True
    for first_fixed, first_off, name in zip(fixes_at.tolist(), leaves_at.tolist(),
                                            red.names):
        if first_fixed < first_off:
            free = False
            problems.append(f"{name} fixes {pa.point(first_fixed)}")
        if first_off < n:
            closed = False
            problems.append(f"orbit of {pa.point(first_off)} leaves the "
                            f"surface under {name}")
    singular = np.flatnonzero(~jacobian_rank2(pa, points.square))
    if singular.size:
        first = singular[np.argmin(pa.chart[singular] @ CHART_CODE)]
        problems.append(f"rank drop at {singular.size} points, "
                        f"first {pa.point(first)}")
    if points.count % 2 != 0:
        problems.append(f"odd point count {points.count} (deck involution not free)")
    if free and closed and points.count % red.order:
        problems.append(f"point count {points.count} is not a multiple of the "
                        f"group order {red.order}")
    degenerate, reason = nu.degenerate()
    return verdict("cover.free_action", problems[:8],
                   {"points": points.count,
                    "free": not any("fixes" in m for m in problems),
                    "rank2_everywhere": not singular.size},
                   on_fail={"degenerate_nu": degenerate, "degenerate_reason": reason,
                            "nu4_zero": not nu.nu[4]},
                   params=dict(nu.as_params(), prime=p))


def _members(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each query key occurs in the nonempty ``sorted_keys``."""
    pos = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
    return sorted_keys[pos] == query


def _first(mask: np.ndarray) -> np.ndarray:
    """Per row of an (M, N) mask, the first column where it holds, else N."""
    return np.concatenate([mask, np.ones((len(mask), 1), dtype=bool)], axis=1).argmax(axis=1)


# -- images on the unprojected 4-fold ------------------------------------------

def canonical_weighted(coords: Sequence[int], p: int) -> Tuple[int, ...]:
    """Canonical representative under (x, y) ~ (l*x, l^2*y).

    When some weight-1 coordinate is nonzero the scale is unique.  On the
    weight-2-only locus the reachable rescalings of y are the squares, so the
    first nonzero y is normalized to 1 or to the smallest non-residue
    according to its square class.
    """
    coords = [c % p for c in coords]
    xs, ys = coords[:8], coords[8:]
    lead = next((v for v in xs if v), None)
    if lead is not None:
        lam = pow(lead, p - 2, p)
        lam2 = (lam * lam) % p
        return tuple([(v * lam) % p for v in xs] + [(v * lam2) % p for v in ys])
    lead = next((v for v in ys if v), None)
    if lead is None:
        raise ValueError("zero tuple is not a projective point")
    if pow(lead, (p - 1) // 2, p) == 1:
        target = 1
    else:
        target = smallest_non_residue(p)
    m = (target * pow(lead, p - 2, p)) % p
    return tuple([0] * 8 + [(v * m) % p for v in ys])


def canonical_weighted_rows(coords: np.ndarray, p: int) -> np.ndarray:
    """``canonical_weighted`` applied to each row of an (N, 16) array.  The
    scale of the y-lead (its square class and inverse) is computed only on
    the rows with no nonzero x."""
    out = coords % p  # scaled in place below, with no (N, 16) temporary
    xs, ys = out[:, :8], out[:, 8:]
    has_x = xs.any(axis=1)
    lam = pow_mod(xs[np.arange(len(out)), (xs != 0).argmax(axis=1)], p - 2, p)
    scale_y = lam * lam % p
    y_only = np.flatnonzero(~has_x)
    lead_y = ys[y_only, (ys[y_only] != 0).argmax(axis=1)]
    if not lead_y.all():
        raise ValueError("zero tuple is not a projective point")
    target = np.where(pow_mod(lead_y, (p - 1) // 2, p) == 1, 1, smallest_non_residue(p))
    scale_y[y_only] = target * pow_mod(lead_y, p - 2, p) % p
    xs *= lam[:, None]
    ys *= scale_y[:, None]
    out %= p
    return out


# the exponent of t_{k1} in sigma^#(v), halved for the weight-2 squares
SIGMA_ROWS = np.array([[SIGMA_EXPS[name][T_INDEX[(k, 1)]] // w for k in range(4)]
                       for name, w in zip(AMBIENT_XY.variables, AMBIENT_XY.weights)])


def sigma_images(pa: PointArray) -> np.ndarray:
    """Canonical weighted coordinates of the images of upstairs points, (N, 16):
    products of one homogeneous coordinate (P^1 row of degree 1) per factor."""
    coords = monomial_values(pa.homogeneous(), SIGMA_ROWS, pa.p)
    coords[:, 8:] **= 2  # < 2^62, reduced by canonical_weighted_rows
    return canonical_weighted_rows(coords, pa.p)


def key_width(base: int, ncols: int) -> int:
    """The most of ``ncols`` digits of base ``base`` that one int64 key holds."""
    width = 1
    while width < ncols and base ** (width + 1) <= 2 ** 63:
        width += 1
    return width


def row_keys(rows: np.ndarray, base: int) -> List[np.ndarray]:
    """The rows of an (N, k) array with entries in [0, base) as int64 keys:
    runs of columns packed base ``base``, the first column most significant,
    each key as wide as 2^63 allows (one key for 16 residues at p = 13, two
    at p = 17 to 47), so sorting the keys sorts the rows."""
    ncols = rows.shape[1]
    width = key_width(base, ncols)
    keys = []
    for start in range(0, ncols, width):
        key = rows[:, start].astype(np.int64)
        for j in range(start + 1, min(start + width, ncols)):
            key *= base
            key += rows[:, j]
        keys.append(key)
    return keys


def key_rows(keys: Sequence[np.ndarray], base: int, ncols: int) -> np.ndarray:
    """The inverse of ``row_keys``: the (N, ncols) rows of the keys, in the
    narrowest unsigned dtype that holds [0, base) (uint8 for base <= 256)."""
    out = np.empty((len(keys[0]), ncols), dtype=np.min_scalar_type(base - 1))
    digit = np.empty(len(keys[0]), dtype=np.int64)
    width = key_width(base, ncols)
    for start, key in zip(range(0, ncols, width), keys):
        key = key.copy()
        for j in reversed(range(start, min(start + width, ncols))):
            np.divmod(key, base, out=(key, digit))
            out[:, j] = digit
    return out


def distinct_keys(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The index of the first of each run of equal key tuples, in the
    lexicographic order of the tuples."""
    order = np.lexsort(keys[::-1])
    keep = np.zeros(len(order), dtype=bool)
    keep[:1] = True
    for key in keys:  # a tuple is kept where some key differs from the one before
        key = key[order]
        keep[1:] |= key[1:] != key[:-1]
    return order[keep]


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, k) array of nonnegative integers, in
    lexicographic order, read-only: the rows at the ``distinct_keys`` of
    their ``row_keys`` in base ``max + 1``."""
    if rows.size and rows.min() < 0:
        raise ValueError("distinct_rows needs nonnegative entries")
    base = int(rows.max()) + 1 if rows.size else 1
    out = rows[distinct_keys(row_keys(rows, base))]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def downstairs_image_set(p: int) -> np.ndarray:
    """Canonical images of every point of (P^1(F_p))^4, the F_p shadow of
    the unprojected 4-fold: an (M, 16) array of distinct rows in
    lexicographic order, shared by every caller and hence read-only.  Its
    residues are stored as ``np.min_scalar_type(p - 1)`` (uint8 for every p
    the grid budget admits), so a reader casts them to int64 before it
    multiplies.

    The sigma-images of factors 1-3 are built once, one factor at a time:
    the coordinate rows of the factors before, times the 16 coordinates of
    the next factor at each of its p + 1 points, reduced mod p.  Then the
    points of factor 0 go in blocks, as many as keep a block's slices of
    the grid within ``GRID_BLOCK`` points (at least one): their coordinates
    times those rows, canonicalized and packed into keys of base p
    (``row_keys``).  The distinct keys of all blocks are unpacked once."""
    check_grid_budget(p)
    h = p1_table(1, p)  # (t0, t1) at each point of P^1(F_p)
    tail = h[:, SIGMA_ROWS[:, 1]]
    for j in (2, 3):
        tail = (tail[:, None, :] * h[None, :, SIGMA_ROWS[:, j]]).reshape(-1, 16)
        tail %= p
    step = max(1, GRID_BLOCK // len(tail))
    # the keys of the whole grid, filled block by block
    keys = np.empty((-(-16 // key_width(p, 16)), (p + 1) * len(tail)), dtype=np.int64)
    lo = 0
    for head in np.array_split(h[:, SIGMA_ROWS[:, 0]], range(step, p + 1, step)):
        coords = (head[:, None, :] * tail[None]).reshape(-1, 16)
        coords %= p
        coords[:, 8:] **= 2  # < 2^62, reduced by canonical_weighted_rows
        for row, key in zip(keys, row_keys(canonical_weighted_rows(coords, p), p)):
            row[lo:lo + len(key)] = key
        lo += len(coords)
    # what is read no more is dropped before the next array is built, so
    # the peak is the grid's keys and what sorting them takes
    del tail, coords
    first = distinct_keys(list(keys))
    keys = [key[first] for key in keys]
    del first
    out = key_rows(keys, p, 16)
    out.flags.writeable = False
    return out


def factorwise_fixed_points(mats: np.ndarray, p: int) -> PointArray:
    """The points of (P^1(F_p))^4 fixed by an automorphism that keeps every
    factor (pi = id) and acts on factor j by the residue matrix mats[j]
    (4, 2, 2): the product of the four fixed sets in P^1(F_p), in the
    lexicographic order of the P^1 indices."""
    k = np.arange(p + 1)
    fixed = [k[p1_images(m, k, p) == k] for m in mats]
    grid = np.stack(np.meshgrid(*fixed, indexing="ij"), axis=-1).reshape(-1, 4)
    return PointArray(p, (grid == p).astype(np.int64), grid % p)


def verify_branch_structure(p: int = 13) -> CheckReport:
    """(i) the deck involution fixes exactly the 16 coordinate points; (ii)
    in each of the 8 affine pieces at a weight-1 coordinate, the coordinate
    algebra pulls back onto exactly the squares of the local maximal ideal
    (monomials of degree >= 2, with all ten quadratics realized); (iii) Z1
    passes through all 16 coordinate points.  The deck involution keeps
    every factor, so its fixed points are the product of its fixed points
    on the four factors (``factorwise_fixed_points``)."""
    field = GF(p)
    problems = []
    s_aut = table2_generators(QI)["s"]
    coord_points = [(chart, (0, 0, 0, 0)) for chart in CHARTS]
    if s_aut.pi != (0, 1, 2, 3):
        problems.append(f"deck involution permutes the factors by {s_aut.pi}")
    else:
        fixed = factorwise_fixed_points(aut_arrays([s_aut], p)[1][0], p)
        if sorted(map(fixed.point, range(len(fixed)))) != sorted(coord_points):
            problems.append(f"deck involution fixes {len(fixed)} points")
    for i in range(4):
        for a in (0, 1):
            base = SIGMA_EXPS[xname(i, a)]
            support = {k for k, e in enumerate(base) if e}
            local = [k for k in range(8) if k not in support]
            degree2 = set()
            for name in AMBIENT_XY.variables:
                if name == xname(i, a):
                    continue
                w = AMBIENT_XY.weights[AMBIENT_XY.index(name)]
                ratio = [e - w * b for e, b in zip(SIGMA_EXPS[name], base)]
                local_exps = tuple(ratio[k] for k in local)
                if any(e < 0 for e in local_exps):
                    problems.append(f"chart U_{xname(i, a)}: {name} pulls back non-regular")
                    continue
                deg = sum(local_exps)
                if deg < 2:
                    problems.append(f"chart U_{xname(i, a)}: {name} has local degree {deg}")
                if deg == 2:
                    degree2.add(local_exps)
            if degree2 != {e for e in product(range(3), repeat=4) if sum(e) == 2}:
                problems.append(f"chart U_{xname(i, a)}: degree-2 pullbacks "
                                f"{len(degree2)} != 10")
    z1 = z1_poly(field)
    off_z1 = {(1, 0, 0, 0), (0, 1, 1, 1)}  # the two points over x00, x01
    for pt in coord_points:
        coords = [field.from_int(c) for pair in expand_point(pt) for c in pair]
        on_z1 = not z1.evaluate(coords)
        if on_z1 == (pt[0] in off_z1):
            problems.append(f"Z1 membership wrong at coordinate point {pt}")
    return verdict("cover.branch_structure", problems,
                   on_pass={"deck_fixed_points": 16, "charts": 8,
                            "local_ideal": "(w0,w1,w2,w3)^2",
                            "coordinate_points_on_z1": 14},
                   params={"prime": p})


def y_point_count_report(p: int = 13) -> CheckReport:
    """#image(F_p) = ((p+1)^4 - 16)/2 + 16: the covering is two-to-one away
    from the 16 branch points."""
    n = len(downstairs_image_set(p))
    expected = ((p + 1) ** 4 - 16) // 2 + 16
    return verdict("cover.enumeration",
                   [] if n == expected else [f"{n} image points, expected {expected}"],
                   {"image_points": n, "expected": expected}, params={"prime": p})


# -- the hyperplane-section decomposition --------------------------------------

def s_surface_pattern(i: int, j: int, a: int, b: int):
    """Allowed-nonzero coordinate indices of the quartic surface in the
    sub-space spanned by x_{ia}, x_{jb} and the two matching y's."""
    rest = [k for k in range(4) if k not in (i, j)]
    fixed = {i: comp(a), j: comp(b)}
    tuples = []
    for bits in product((0, 1), repeat=2):
        cand = [None] * 4
        cand[i], cand[j] = fixed[i], fixed[j]
        for k, v in zip(rest, bits):
            cand[k] = v
        if sum(cand) % 2 == 0:
            tuples.append(tuple(cand))
    alpha, beta = tuples
    allowed = {X_INDEX[(i, a)], X_INDEX[(j, b)], Y_INDEX[alpha], Y_INDEX[beta]}
    return allowed, (X_INDEX[(i, a)], X_INDEX[(j, b)], Y_INDEX[alpha], Y_INDEX[beta])


def verify_hplane_decomposition(p: int = 13) -> CheckReport:
    """Each hyperplane-section subscheme of the image equals, pointwise over
    F_p, the union of one weight-2 coordinate point and six quartic surfaces."""
    return verdict("cover.hplane_decomposition",
                   hplane_problems(downstairs_image_set(p), p),
                   on_pass={"sections_checked": 8, "pieces_each": 7},
                   params={"prime": p})


def hplane_problems(image: np.ndarray, p: int) -> List[str]:
    """The decomposition check on an (M, 16) array of distinct canonical
    image rows, of any integer dtype.  Per section H~t: a missing
    coordinate point; one "quartic fails" entry per section point supported
    on a piece's four coordinates but off its quartic; the section points on
    no piece, with the lexicographically smallest as the example."""
    problems = []
    for t in EVEN_TUPLES:
        name = "H~" + "".join(map(str, t))
        # int64 before the products below
        section = image[~image[:, [X_INDEX[(k, t[k])] for k in range(4)]].any(axis=1)
                        ].astype(np.int64)
        nonzero = section != 0
        tc = tuple(comp(v) for v in t)
        y_col = Y_INDEX[tc]
        union = nonzero[:, y_col] & (nonzero.sum(axis=1) == 1)
        if not union.any():
            problems.append(f"{name}: coordinate point missing")
        for i, j in combinations(range(4), 2):
            allowed, (cx1, cx2, cy1, cy2) = s_surface_pattern(i, j, tc[i], tc[j])
            outside = np.ones(16, dtype=bool)
            outside[sorted(allowed)] = False
            supported = ~nonzero[:, outside].any(axis=1)
            x1 = section[:, cx1] * section[:, cx1] % p
            x2 = section[:, cx2] * section[:, cx2] % p
            quartic = section[:, cy1] * section[:, cy2] % p == x1 * x2 % p
            problems.extend([f"{name}: quartic fails on S^{i}{j}"]
                            * int((supported & ~quartic).sum()))
            union |= supported & quartic
        extra = section[~union]
        if len(extra):
            problems.append(f"{name}: {len(extra)} points outside the "
                            f"decomposition, e.g. {min(map(tuple, extra.tolist()))}")
    return problems
