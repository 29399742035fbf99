"""The (Z/2)^6 signed-permutation action on the weighted ambient.

Six commuting involutions a1, a2, a3, b1, b2, b3 act on the 16 coordinates:
a_i exchanges x00 with x01 and x_{i0} with x_{i1} and complements the y-index
in positions 0 and i; b_i negates x_{i0}, x_{i1} and every y.  A word's
action is one signed permutation of the 16 slots, read from its bits
(``signed_permutation``); every reader of the action reads that table, and
``_signed_image`` is the one code that moves polynomial terms under it
(``act`` on a ``Poly``).  ``table1_relations`` proves the table an action
by composing tables (``compose``).  Inside sit

* G, the order-8 subgroup generated by a1*b2, a2*b3, a3*b1, which acts with
  the regular representation on the x-span and (for general parameters)
  freely on the family surfaces, and
* H, the order-32 subgroup of words with even total exponent, exactly the
  words sending the quadric section q to q,

together with the three order-8 cosets theta_i = [a_i*b_i] of G in H whose
involutions drive the branch-locus bookkeeping.

Group elements are canonicalized as exponent vectors in (Z/2)^6, so equality
is syntactic; words serialize as strings like ``a1*b2``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter
from random import Random
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .ambient import AMBIENT_XY, EVEN_TUPLES, X_INDEX, Y_INDEX, comp, xname, yname
from .poly import Poly, PolyError, proportional
from .report import CheckReport, verdict
from .scalars import GF, QQ
from .unproj import (FamilyParams, build_unprojection_ideal, build_v_ideal,
                     q_basis, q_section)

Word = Tuple[int, int, int, int, int, int]

IDENTITY_WORD: Word = (0, 0, 0, 0, 0, 0)
GENERATOR_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")
GENERATOR_WORDS: Tuple[Word, ...] = tuple(tuple(int(j == k) for j in range(6))
                                          for k in range(6))


def word_mul(u: Word, v: Word) -> Word:
    return tuple((a + b) % 2 for a, b in zip(u, v))


def word_str(w: Word) -> str:
    parts = [n for n, e in zip(GENERATOR_NAMES, w) if e]
    return "*".join(parts) if parts else "1"


def parse_word(text: str) -> Word:
    bits = [0] * 6
    text = text.strip()
    if text in ("", "1"):
        return tuple(bits)
    for part in text.split("*"):
        try:
            bits[GENERATOR_NAMES.index(part.strip())] ^= 1
        except ValueError:
            raise ValueError(f"unknown generator {part!r} in word {text!r}") from None
    return tuple(bits)


@lru_cache(maxsize=None)
def signed_permutation(word: Word) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The word's action on the 16 slots of ``AMBIENT_XY``: slot k goes to
    ``sign[k]`` times slot ``target[k]``.  Factor (and y-position) j flips
    with f_j = a_j for j >= 1 and with f_0 = a1 + a2 + a3; x_{j,c} goes to
    x_{j,c+f_j}, negated iff j >= 1 and b_j = 1, and y_t goes to
    (-1)^(b1+b2+b3) * y_{t+f}."""
    a1, a2, a3, b1, b2, b3 = word
    flips = ((a1 + a2 + a3) % 2, a1, a2, a3)
    x_signs = (1, 1 - 2 * b1, 1 - 2 * b2, 1 - 2 * b3)
    y_sign = 1 - 2 * ((b1 + b2 + b3) % 2)
    target = [0] * AMBIENT_XY.nvars
    sign = [y_sign] * AMBIENT_XY.nvars
    for (j, c), k in X_INDEX.items():
        target[k], sign[k] = X_INDEX[(j, c ^ flips[j])], x_signs[j]
    for t, k in Y_INDEX.items():
        target[k] = Y_INDEX[tuple(a ^ f for a, f in zip(t, flips))]
    return tuple(target), tuple(sign)


@lru_cache(maxsize=None)
def _key_permutation(word: Word) -> Tuple[Callable, Tuple[int, ...]]:
    """How the word moves an exponent key e: the image key is ``permute(e)``,
    whose slot j holds the exponent of the variable the word sends to slot j,
    and the coefficient changes sign when the exponents in the negated slots
    ``neg`` have an odd sum."""
    target, sign = signed_permutation(word)
    src = [0] * AMBIENT_XY.nvars
    for k, j in enumerate(target):
        src[j] = k
    return itemgetter(*src), tuple(k for k, s in enumerate(sign) if s < 0)


def _signed_image(items, word: Word) -> dict:
    """The image of a polynomial given as (e, c, -c) triples under ``word``,
    as a terms dict: each key permuted and, by the parity of its negated
    exponents, ``c`` or ``-c`` kept (the two may be coefficient ids)."""
    permute, neg = _key_permutation(word)
    return {permute(e): neg_c if sum([e[k] for k in neg]) & 1 else c
            for e, c, neg_c in items}


def act(word: Word, f: Poly) -> Poly:
    """The image of f under the word, in f's domain: ``_signed_image`` of
    its terms.  A permutation of keys is injective, so no two terms
    collide."""
    if f.ambient != AMBIENT_XY:
        raise PolyError(f"ambient mismatch: poly in {f.ambient.tag}, "
                        f"action on {AMBIENT_XY.tag}")
    return Poly._trusted(AMBIENT_XY, f.domain,
                         _signed_image(((e, c, -c) for e, c in f.terms.items()), word))


def image_of_variable(word: Word, name: str) -> Tuple[int, str]:
    """The word's image of one variable, as (sign, variable name)."""
    target, sign = signed_permutation(word)
    k = AMBIENT_XY.index(name)
    return sign[k], AMBIENT_XY.variables[target[k]]


def trace_on_x_span(word: Word) -> int:
    target, sign = signed_permutation(word)
    return sum(sign[k] for k in X_INDEX.values() if target[k] == k)


G_GENERATOR_WORDS: Tuple[Word, ...] = (
    (1, 0, 0, 0, 1, 0),   # a1*b2
    (0, 1, 0, 0, 0, 1),   # a2*b3
    (0, 0, 1, 1, 0, 0),   # a3*b1
)


def group_G() -> List[Word]:
    out = []
    for e1, e2, e3 in product((0, 1), repeat=3):
        w = IDENTITY_WORD
        for e, g in zip((e1, e2, e3), G_GENERATOR_WORDS):
            if e:
                w = word_mul(w, g)
        out.append(w)
    return sorted(set(out))


def group_H() -> List[Word]:
    return [w for w in product((0, 1), repeat=6) if sum(w) % 2 == 0]


def theta_class(i: int) -> List[Word]:
    """The coset of a_i*b_i modulo G, i in {1,2,3}; 8 involution words."""
    rep = [0] * 6
    rep[i - 1] = 1
    rep[3 + i - 1] = 1
    return sorted(word_mul(tuple(rep), g) for g in group_G())


def subgroup_census_report() -> CheckReport:
    """|G| = 8, |H| = 32, G < H, the theta_i are disjoint 8-element cosets,
    and theta_1 equals the reference list of involution words."""
    G = group_G()
    H = group_H()
    thetas = {i: theta_class(i) for i in (1, 2, 3)}
    reference_theta1 = sorted(parse_word(w) for w in (
        "a1*b1", "b1*b2", "a1*a2*b1*b3", "a1*a3",
        "a2*b1*b2*b3", "a3*b2", "a1*a2*a3*b3", "a2*a3*b2*b3"))
    problems = []
    if len(G) != 8:
        problems.append(f"|G| = {len(G)}")
    if len(set(H)) != 32:
        problems.append(f"|H| = {len(H)}")
    if not set(G) <= set(H):
        problems.append("G not inside H")
    for i in (1, 2, 3):
        if len(set(thetas[i])) != 8:
            problems.append(f"|theta_{i}| = {len(set(thetas[i]))}")
        if not set(thetas[i]) <= set(H):
            problems.append(f"theta_{i} not inside H")
    for i, j in combinations((1, 2, 3), 2):
        if set(thetas[i]) & set(thetas[j]):
            problems.append(f"theta_{i} meets theta_{j}")
    if any(set(thetas[i]) & set(G) for i in (1, 2, 3)):
        problems.append("a theta class meets G")
    if thetas[1] != reference_theta1:
        problems.append("theta_1 differs from the reference list")
    return verdict("grouprep.subgroup_census", problems,
                   {"G": [word_str(w) for w in G],
                    "theta_1": [word_str(w) for w in thetas[1]]})


def compose(outer, inner):
    """The (target, sign) table of ``outer`` after ``inner``: slot k goes to
    inner's sign times outer's image of inner's target slot."""
    (t_out, s_out), (t_in, s_in) = outer, inner
    return tuple(t_out[j] for j in t_in), tuple(s * s_out[j] for j, s in zip(t_in, s_in))


def table1_relations_report() -> CheckReport:
    """The signed-permutation table is an action of (Z/2)^6: each generator
    squares to the identity, all 15 pairs commute, the table of every word
    is the table of the word without its last generator composed with that
    generator's (63 compositions), and the tabulated spot values hold (a1:
    x00<->x01, y -> y index-complemented in positions 0,1; b2 negates x2*
    and every y).  ``j_stability`` rests on the compositions: it tests the
    six generators for the whole group."""
    gens = GENERATOR_WORDS
    tables = [signed_permutation(g) for g in gens]
    identity = (tuple(range(AMBIENT_XY.nvars)), (1,) * AMBIENT_XY.nvars)
    problems = []
    for name, t in zip(GENERATOR_NAMES, tables):
        if compose(t, t) != identity:
            problems.append(f"{name}^2 != 1")
    for (i, g), (j, h) in combinations(list(enumerate(tables)), 2):
        if compose(g, h) != compose(h, g):
            problems.append(f"{GENERATOR_NAMES[i]} and {GENERATOR_NAMES[j]} do not commute")
    for w in product((0, 1), repeat=6):
        if w == IDENTITY_WORD:
            continue
        k = max(i for i, e in enumerate(w) if e)
        prefix = word_mul(w, gens[k])
        if signed_permutation(w) != compose(signed_permutation(prefix), tables[k]):
            problems.append(f"{word_str(w)} != {word_str(prefix)} * {GENERATOR_NAMES[k]}")
    a1, b2 = gens[0], gens[4]
    spots = [
        image_of_variable(a1, "x00") == (1, "x01"),
        image_of_variable(a1, "y0011") == (1, "y1111"),
        image_of_variable(b2, "x20") == (-1, "x20"),
        image_of_variable(b2, "y0000") == (-1, "y0000"),
    ]
    if not all(spots):
        problems.append(f"spot values failed: {spots}")
    return verdict("grouprep.table1_relations", problems,
                   on_pass={"involutions": 6, "commuting_pairs": 15})


# -- fixed loci ---------------------------------------------------------------

SECTORS = ("(+,+)", "(-,+)", "(0,-)")


class LinearFixedLocus:
    """Eigen-conditions cutting one sector of the fixed locus of an involution."""

    def __init__(self, word: Word, sector: str, x_constraints: List[Poly],
                 y_constraints: List[Poly]):
        self.word = word
        self.sector = sector
        self.x_constraints = x_constraints
        self.y_constraints = y_constraints

    def all_constraints(self) -> List[Poly]:
        return list(self.x_constraints) + list(self.y_constraints)

    def __repr__(self):
        eqs = ", ".join(str(c) for c in self.all_constraints())
        return f"Fix{self.sector}({word_str(self.word)}): {eqs}"


def _canonical_constraint(c: Poly) -> Poly:
    if c.is_zero():
        return c
    _, lead = c.leading()
    return c * (c.domain.one() / lead)


def fixed_locus(word: Word, domain, sector: str) -> LinearFixedLocus:
    """Linear conditions over ``domain`` for points fixed by the word with
    the given sign pattern.

    Sector (s,+): sub(v) = s*v on the weight-1 variables and sub(v) = v on
    the weight-2 ones; sector (0,-): all weight-1 variables vanish and
    sub(v) = -v on the weight-2 ones.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    if word == IDENTITY_WORD and sector != "(+,+)":
        raise ValueError("fixed loci are taken for involutions")
    xs: List[Poly] = []
    ys: List[Poly] = []
    seen = set()

    def push(target: List[Poly], c: Poly):
        c = _canonical_constraint(c)
        if c.is_zero():
            return
        key = tuple(sorted(c.terms.items(), key=lambda kv: kv[0]))
        if key not in seen:
            seen.add(key)
            target.append(c)

    for i in range(4):
        for a in (0, 1):
            v = Poly.variable(AMBIENT_XY, domain, xname(i, a))
            if sector == "(0,-)":
                push(xs, v)
            else:
                sign = domain.from_int(1 if sector == "(+,+)" else -1)
                push(xs, act(word, v) - v * sign)
    for t in EVEN_TUPLES:
        v = Poly.variable(AMBIENT_XY, domain, yname(t))
        sign = domain.from_int(-1 if sector == "(0,-)" else 1)
        push(ys, act(word, v) - v * sign)
    return LinearFixedLocus(word, sector, xs, ys)


def fixed_loci_report(domain=QQ) -> CheckReport:
    """The fixed-locus constraints are genuine eigen-conditions for every
    nontrivial element of G and both sign sectors, and the two reference
    displays (a1*b2 in (+,+), a1*a2*a3*b1*b2*b3 in (-,+)) come out exactly."""
    problems = []
    for w in group_G():
        if w == IDENTITY_WORD:
            continue
        for sector in ("(+,+)", "(-,+)"):
            loc = fixed_locus(w, domain, sector)
            for c in loc.all_constraints():
                if not proportional(act(w, c), c):
                    problems.append(f"{word_str(w)} {sector}: {c} not an eigen-condition")

    def constraint_set(word: str, sector: str):
        loc = fixed_locus(parse_word(word), domain, sector)
        return {str(c) for c in loc.all_constraints()}

    d = domain
    expect_a1b2 = {str(_canonical_constraint(c)) for c in [
        Poly.variable(AMBIENT_XY, d, "x00") - Poly.variable(AMBIENT_XY, d, "x01"),
        Poly.variable(AMBIENT_XY, d, "x10") - Poly.variable(AMBIENT_XY, d, "x11"),
        Poly.variable(AMBIENT_XY, d, "x20"),
        Poly.variable(AMBIENT_XY, d, "x21")] + [
        Poly.variable(AMBIENT_XY, d, yname(t))
        + Poly.variable(AMBIENT_XY, d, yname((comp(t[0]), comp(t[1]), t[2], t[3])))
        for t in EVEN_TUPLES]}
    got = constraint_set("a1*b2", "(+,+)")
    if got != expect_a1b2:
        problems.append(f"a1*b2 (+,+) constraints differ: {sorted(got)}")
    expect_triple = {str(_canonical_constraint(c)) for c in [
        Poly.variable(AMBIENT_XY, d, "x00") + Poly.variable(AMBIENT_XY, d, "x01"),
        Poly.variable(AMBIENT_XY, d, "x10") - Poly.variable(AMBIENT_XY, d, "x11"),
        Poly.variable(AMBIENT_XY, d, "x20") - Poly.variable(AMBIENT_XY, d, "x21"),
        Poly.variable(AMBIENT_XY, d, "x30") - Poly.variable(AMBIENT_XY, d, "x31")] + [
        Poly.variable(AMBIENT_XY, d, yname(t))
        + Poly.variable(AMBIENT_XY, d, yname(tuple(comp(x) for x in t)))
        for t in EVEN_TUPLES]}
    got = constraint_set("a1*a2*a3*b1*b2*b3", "(-,+)")
    if got != expect_triple:
        problems.append(f"triple (-,+) constraints differ: {sorted(got)}")
    ident = fixed_locus(IDENTITY_WORD, domain, "(+,+)")
    if ident.all_constraints():
        problems.append("identity has nonempty constraint list")
    return verdict("grouprep.fixed_loci", problems,
                   on_pass={"elements_checked": 7, "sectors": ["(+,+)", "(-,+)"]})


# -- representation theory ----------------------------------------------------

def check_regular_representation(domain=QQ) -> CheckReport:
    """G acts on the x-span with the character of the regular representation
    (trace 8 at the identity, 0 elsewhere), hence with trace 7 / -1 on the
    quotient by the invariant vector x00+x01; the 8 signed y-sums are
    simultaneous eigenvectors realizing all 8 characters."""
    problems = []
    hyper = Poly.variable(AMBIENT_XY, domain, "x00") + Poly.variable(AMBIENT_XY, domain, "x01")
    for w in group_G():
        tr = trace_on_x_span(w)
        expected = 8 if w == IDENTITY_WORD else 0
        if tr != expected:
            problems.append(f"trace({word_str(w)}) = {tr} on x-span")
        if act(w, hyper) != hyper:
            problems.append(f"{word_str(w)} does not fix x00+x01")
        qtr = tr - 1
        if qtr != (7 if w == IDENTITY_WORD else -1):
            problems.append(f"quotient trace({word_str(w)}) = {qtr}")
    # eigenvectors of the y-span
    seen_chars = set()
    for e, f, g_ in product((0, 1), repeat=3):
        vec = Poly.zero(AMBIENT_XY, domain)
        for t in EVEN_TUPLES:
            sign = (-1) ** (e * t[1] + f * t[2] + g_ * t[3])
            vec = vec + Poly.variable(AMBIENT_XY, domain, yname(t)) * domain.from_int(sign)
        evs = []
        for gen in G_GENERATOR_WORDS:
            img = act(gen, vec)
            if img == vec:
                evs.append(1)
            elif img == -vec:
                evs.append(-1)
            else:
                problems.append(f"character ({e},{f},{g_}): not an eigenvector")
                break
        else:
            seen_chars.add(tuple(evs))
    if len(seen_chars) != 8:
        problems.append(f"only {len(seen_chars)} distinct characters realized")
    return verdict("grouprep.regular_representation", problems,
                   on_pass={"x_span_character": "regular", "y_characters": 8})


def _support_moves(support: Sequence[Tuple[int, ...]], words: Sequence[Word]) -> np.ndarray:
    """How each word moves the terms of a form supported on ``support``,
    read as a coefficient list with one zero slot appended: shape (W, 2,
    S) for S = len(support).  Row 0 holds the source slot of each move,
    plus S + 1 when the word negates that term; row 1 the slot of its
    image key, or the zero slot S when the key lies outside the support."""
    index = {e: i for i, e in enumerate(support)}
    slots = len(support) + 1
    ids = [(e, i, i + slots) for i, e in enumerate(support)]
    out = np.empty((len(words), 2, len(support)), dtype=np.int64)
    for row, w in zip(out, words):
        moved = _signed_image(ids, w)  # in the order of the support
        row[0] = list(moved.values())
        row[1] = [index.get(e, slots - 1) for e in moved]
    return out


def q_invariance_report(nus: Sequence, rng: Random) -> CheckReport:
    """H-words send q(nu) to q(nu) exactly; words outside H change more
    than the sign for generic nu, checked at each given nu for 8 words
    sampled with ``rng``.  (A word outside H fixes s0..s3 and negates the
    y-eigenvector, so it sends q(nu) to +-q(nu) only when nu4 = 0 or
    nu0 = .. = nu3 = 0.)

    q(nu) is read as its coefficient list on the support of its nu-free
    forms (``unproj.q_basis``) plus a zero slot, and the coefficients as
    ids (equal values, equal ids) with their negatives after them.  A word
    sends q to +q (to -q) iff along each of its moves (``_support_moves``)
    the target coefficient equals the signed (negated) source coefficient;
    every word of a draw is compared in one numpy pass."""
    problems = []
    H = set(group_H())
    non_h = [w for w in product((0, 1), repeat=6) if w not in H]
    support = sorted({e for b in q_basis(QQ) for e in b.terms})
    slots = len(support) + 1
    h_words = list(H)
    h_moves, non_h_moves = _support_moves(support, h_words), _support_moves(support, non_h)
    non_h_row = {w: i for i, w in enumerate(non_h)}
    for nu in nus:
        q, zero = q_section(nu).terms, nu.domain.zero()
        coef = [q.get(e, zero) for e in support] + [zero]
        ids: Dict[object, int] = {}
        signed = np.array([ids.setdefault(c, len(ids)) for c in coef + [-c for c in coef]])
        ints = tuple(int(v) for v in nu.nu)
        fixes = (signed[h_moves[:, 1]] == signed[h_moves[:, 0]]).all(axis=1)
        problems += [f"{word_str(w)} breaks q invariance at nu={ints}"
                     for w, ok in zip(h_words, fixes) if not ok]
        sampled = rng.sample(non_h, 8)
        moves = non_h_moves[[non_h_row[w] for w in sampled]]
        target = signed[moves[:, 1]]
        fixes = (target == signed[moves[:, 0]]).all(axis=1)
        negates = (target == signed[(moves[:, 0] + slots) % (2 * slots)]).all(axis=1)
        problems += [f"{word_str(w)} outside H fixed q at nu={ints}"
                     for w, bad in zip(sampled, fixes | negates) if bad]
    return verdict("grouprep.q_invariance", problems[:5],
                   on_pass={"draws": len(nus), "H_words": 32})


def j_generator_stability_report(domain=QQ) -> CheckReport:
    """Every word of the full group sends each of the 63 generators of the
    unprojection ideal to +-(a generator of the same provenance class).

    It is tested on the six generator words a1 .. b3 alone.  The set of
    +-generators of a class is closed under negation and a word acts
    linearly, so a generator word that sends each generator of the class
    into the set sends the set into itself; ``table1_relations`` proves that
    every word's table is the composition of its generators' tables, so
    every word sends the set into itself as well.  The witness still counts
    the 64 words, as the statement is unchanged.

    Coefficients are numbered once (equal values, equal ids), so a
    generator's image is a frozenset of (key, id) pairs, looked up among
    the +- generators of its class in the same form."""
    ids: Dict[object, int] = {}

    def number(c):
        return ids.setdefault(c, len(ids))

    gens = []
    by_prov: Dict[str, set] = {}
    for name, g, t in build_unprojection_ideal(domain).generators:
        items = [(e, number(c), number(-c)) for e, c in g.terms.items()]
        gens.append((name, items, t))
        by_prov.setdefault(t, set()).update(
            (frozenset((e, c) for e, c, _ in items),
             frozenset((e, neg_c) for e, _, neg_c in items)))
    problems = []
    for w in GENERATOR_WORDS:
        for name, items, t in gens:
            if frozenset(_signed_image(items, w).items()) not in by_prov[t]:
                problems.append(f"{word_str(w)} moves {name} outside the {t} set")
    return verdict("grouprep.j_stability", problems[:5],
                   on_pass={"words": 64, "generators": 63})


TRIPLE_WORD: Word = (1, 1, 1, 1, 1, 1)


def _triple_fixed_points(nu) -> List[list]:
    """All points of the family surface fixed by a1*a2*a3*b1*b2*b3 in the
    sign-flipped sector, by direct construction.

    On that locus x01 = -x00 != 0 (else everything vanishes), each x_{j0} =
    x_{j1} is a square root of -x00^2, and the weight-2 coordinates are
    forced to (-1)^a * (that product); only the section equation survives.
    The 64 generators of V do not involve nu, so ``_triple_candidates``
    tests them once per field; q(nu) is linear in nu, so its value at a
    candidate is read off the cached values of its five basis forms.
    """
    zero = nu.domain.zero()
    return [vec for vec, basis in _triple_candidates(nu.domain)
            if not sum((v * b for v, b in zip(nu.nu, basis)), zero)]


@lru_cache(maxsize=None)
def _triple_candidates(field) -> List[Tuple[list, tuple]]:
    """The sign-triple points on which every generator of V vanishes, each
    with the values there of s_0, .., s_3 and the y-eigenvector: q(nu) =
    sum nu_i*s_i + nu4*y (``unproj.q_section``)."""
    eps = field.sqrt_minus_one()
    gens = build_v_ideal(field).polys()
    basis = q_basis(field)
    out = []
    for signs in product((1, -1), repeat=3):
        c = [eps * field.from_int(s) for s in signs]
        coords = {"x00": field.one(), "x01": -field.one()}
        for j in (1, 2, 3):
            coords[xname(j, 0)] = c[j - 1]
            coords[xname(j, 1)] = c[j - 1]
        prod_c = c[0] * c[1] * c[2]
        for t in EVEN_TUPLES:
            coords[yname(t)] = prod_c if t[0] == 0 else -prod_c
        vec = [coords[n] for n in AMBIENT_XY.variables]
        if all(not g.evaluate(vec) for g in gens):
            out.append((vec, tuple(b.evaluate(vec) for b in basis)))
    return out


def delta_set_report(p: int, rng: Random) -> CheckReport:
    """Determine empirically the multiples delta = m*eps for which enforcing
    nu0 - nu1 - nu2 - nu3 + delta*nu4 = 0 gives the three-letter involution
    fixed points on the surface: expected exactly m = +-8.

    Each candidate point is verified against all 65 equations and against
    projective fixedness under the word."""
    from .cover import canonical_weighted_rows  # local import: cover depends on grouprep

    field = GF(p)
    eps = field.sqrt_minus_one()
    hits = {}
    vecs, labels = [], []
    for m in range(-8, 9):
        # at every sign-triple candidate s0 = 1, s1 = s2 = s3 = -1 and the
        # y-eigenvector is Y = +-8*eps, so on this hyperplane q(nu) there is
        # nu4*(Y - m*eps) with nu4 != 0: the hits do not depend on the draw,
        # and one draw per multiple decides them
        n1, n2, n3, n4 = (field.from_int(rng.randrange(1, p)) for _ in range(4))
        n0 = n1 + n2 + n3 - field.from_int(m) * eps * n4
        pts = _triple_fixed_points(FamilyParams(field, (n0, n1, n2, n3, n4)))
        vecs += [[int(v) for v in vec] for vec in pts]
        labels += [m] * len(pts)
        hits[m] = len(pts)
    rows = canonical_weighted_rows(np.array(vecs, dtype=np.int64).reshape(-1, 16), p)
    fixed = stabilizer_classification(rows, [TRIPLE_WORD], p)[TRIPLE_WORD]
    problems = [f"constructed point not fixed at m={m}"
                for m, ok in zip(labels, fixed) if not ok]
    empirical = sorted(m for m, n in hits.items() if n)
    # multiples alias mod p: m*eps = +-8*eps iff m = +-8 (mod p)
    expected = sorted(m for m in range(-8, 9)
                      if (m - 8) % p == 0 or (m + 8) % p == 0)
    if empirical != expected:
        problems.append(f"delta multiples with fixed points: {empirical}, "
                        f"expected {expected}")
    return verdict("grouprep.delta_set", problems,
                   {"delta_multiples_of_eps": empirical,
                    "canonical_set": "{+8, -8} (mod p aliases included)",
                    "points_at_8": hits.get(8, 0)})


# -- stabilizers on enumerated point sets --------------------------------------

def stabilizer_classification(rows: np.ndarray, words: Sequence[Word],
                              p: int) -> Dict[Word, np.ndarray]:
    """For each word, the boolean mask of the rows it fixes.

    ``rows`` is an (N, 16) array of canonical weighted coordinates over
    GF(p).  A word acts on a row by a column permutation times a sign
    vector; the images of all rows under all W words are stacked into one
    (W*N, 16) array and put through ``canonical_weighted_rows`` at once,
    so that fixedness is projective equality.
    """
    from .cover import canonical_weighted_rows  # local import: cover depends on grouprep

    table = np.array([signed_permutation(w) for w in words], dtype=np.int64).reshape(-1, 2, 16)
    stacked = np.moveaxis(rows[:, table[:, 0]] * table[:, 1], 1, 0).reshape(-1, 16)
    canonical = canonical_weighted_rows(stacked, p).reshape(len(words), len(rows), 16)
    return dict(zip(words, (canonical == rows).all(axis=2)))
