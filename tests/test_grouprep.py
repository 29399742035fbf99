import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from upv import cover, grouprep
from upv.ambient import AMBIENT_S, AMBIENT_XY, EVEN_TUPLES, xname, yname
from upv.checks import RunConfig, RunContext, resolve_targets, run_checks
from poly_oracle import table_map, word_map
from upv.grouprep import (act, check_regular_representation, delta_set_report,
                          fixed_loci_report, fixed_locus, group_G, group_H,
                          image_of_variable, j_generator_stability_report,
                          parse_word, q_invariance_report, signed_permutation,
                          stabilizer_classification,
                          subgroup_census_report, table1_relations_report,
                          theta_class, trace_on_x_span, word_str)
from upv.poly import Poly, PolyError
from upv.report import verdict
from upv.scalars import GF, QI, QQ
from upv.unproj import CUBIC, FamilyParams, IdealPresentation, q_section

ALL_WORDS = list(product((0, 1), repeat=6))


def q_invariance_args(draws, seed=0):
    """The parameters and the word stream of ``grouprep.q_invariance`` at
    prime 13 and ``seed``, with ``draws`` draws."""
    ctx = RunContext(RunConfig(primes=(13,), seed=seed))
    return [ctx.draw_nu(13, "qinv") for _ in range(draws)], ctx.rng("qinv_words:13")


def test_word_parsing_roundtrip():
    w = parse_word("a1*b2")
    assert w == (1, 0, 0, 0, 1, 0)
    assert word_str(w) == "a1*b2"
    assert word_str(parse_word("1")) == "1"
    with pytest.raises(ValueError):
        parse_word("c1")


def test_table1_spot_actions():
    a1 = parse_word("a1")
    assert image_of_variable(a1, "x00") == (1, "x01")
    assert image_of_variable(a1, "x10") == (1, "x11")
    assert image_of_variable(a1, "x20") == (1, "x20")
    # y index complemented in positions 0 and 1
    assert image_of_variable(a1, "y0011") == (1, "y1111")
    b2 = parse_word("b2")
    assert image_of_variable(b2, "x20") == (-1, "x20")
    assert image_of_variable(b2, "x00") == (1, "x00")
    assert image_of_variable(b2, "y0000") == (-1, "y0000")


def test_relations_and_census():
    assert table1_relations_report().passed
    assert subgroup_census_report().passed
    assert len(group_G()) == 8
    assert len(group_H()) == 32
    t1 = theta_class(1)
    assert parse_word("b1*b2") in t1
    assert parse_word("a1*a3") in t1
    assert len(set(t1) | set(theta_class(2)) | set(theta_class(3))) == 24


def test_fixed_locus_display():
    g = parse_word("a1*b2")
    loc = fixed_locus(g, QQ, "(+,+)")
    strs = {str(c) for c in loc.x_constraints}
    assert "1*x20" in strs and "1*x21" in strs
    assert len(loc.x_constraints) == 4
    assert len(loc.y_constraints) == 4
    zero_sector = fixed_locus(g, QQ, "(0,-)")
    assert len(zero_sector.x_constraints) == 8
    with pytest.raises(ValueError):
        fixed_locus(g, QQ, "(+,-)")


def test_fixed_loci_report():
    assert fixed_loci_report().passed


def test_regular_representation():
    rep = check_regular_representation()
    assert rep.passed
    assert trace_on_x_span(parse_word("a1*b2")) == 0
    assert trace_on_x_span(parse_word("1")) == 8


def test_q_invariance():
    assert q_invariance_report(*q_invariance_args(5)).passed


def test_j_stability():
    assert j_generator_stability_report().passed


def random_xy_poly(field, rng):
    coefs = {QQ: lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
             QI: lambda: QI.from_int(rng.randrange(-5, 6))
             + QI.sqrt_minus_one() * QI.from_int(rng.randrange(-5, 6))}
    coef = coefs.get(field, lambda: field.from_int(rng.randrange(field.char)))
    terms = {}
    for _ in range(rng.randrange(1, 9)):
        e = [0] * AMBIENT_XY.nvars
        for _ in range(rng.randrange(0, 6)):
            e[rng.randrange(AMBIENT_XY.nvars)] += 1
        terms[tuple(e)] = coef()
    return Poly(AMBIENT_XY, field, terms)


def assert_apply_matches_map(polys, field):
    for w in ALL_WORDS:
        m = word_map(w, field)
        for f in polys:
            assert act(w, f) == m.apply(f), (word_str(w), str(f))


def test_apply_matches_the_map_on_the_unprojection_generators():
    from upv.unproj import build_unprojection_ideal
    polys = build_unprojection_ideal(QQ).polys()
    assert len(polys) == 63
    assert_apply_matches_map(polys, QQ)


@pytest.mark.parametrize("p", [13, 17])
def test_apply_matches_the_map_on_q_sections(p):
    from upv.unproj import FamilyParams, q_section
    f = GF(p)
    rng = random.Random(p)
    assert_apply_matches_map(
        [q_section(FamilyParams(f, tuple(rng.randrange(1, p) for _ in range(5))))
         for _ in range(5)], f)


@pytest.mark.parametrize("field", [QQ, GF(13), QI], ids=str)
def test_apply_matches_the_map_on_random_polys(field):
    rng = random.Random(12)
    assert_apply_matches_map([random_xy_poly(field, rng) for _ in range(12)], field)


def test_apply_rejects_other_ambients():
    s1 = Poly.variable(AMBIENT_S, QQ, "s1")
    for w in (parse_word("1"), parse_word("a1*b2")):
        with pytest.raises(PolyError):
            act(w, s1)


def name_images(word):
    """The oracle: the images of all 16 variables as (sign, variable name),
    written out generator by generator."""
    a1, a2, a3, b1, b2, b3 = word
    betas = (0, b1, b2, b3)
    out = {}
    # x00, x01 swap once per alpha
    swap0 = (a1 + a2 + a3) % 2
    for a in (0, 1):
        out[xname(0, a)] = (1, xname(0, a ^ swap0))
    for i in range(1, 4):
        ai = word[i - 1]
        sign = -1 if betas[i] else 1
        for a in (0, 1):
            out[xname(i, a)] = (sign, xname(i, a ^ ai))
    ysign = -1 if (b1 + b2 + b3) % 2 else 1
    for t in EVEN_TUPLES:
        img = list(t)
        if a1:
            img[0] ^= 1
            img[1] ^= 1
        if a2:
            img[0] ^= 1
            img[2] ^= 1
        if a3:
            img[0] ^= 1
            img[3] ^= 1
        out[yname(t)] = (ysign, yname(tuple(img)))
    return out


def test_signed_permutation_matches_the_name_table():
    for w in ALL_WORDS:
        images = name_images(w)
        target, sign = signed_permutation(w)
        assert [(s, AMBIENT_XY.variables[j]) for j, s in zip(target, sign)] == \
            [images[n] for n in AMBIENT_XY.variables], word_str(w)


def patched_sign_table(monkeypatch, edit):
    """Patch the sign table: each word's (target, sign) lists pass through
    ``edit(word, target, sign)``, in ``grouprep`` and in ``cover``; the
    per-word caches are cleared around it.  A generator, for fixtures."""
    real = grouprep.signed_permutation

    def clear():
        grouprep.signed_permutation.cache_clear()
        grouprep._key_permutation.cache_clear()

    @lru_cache(maxsize=None)
    def patched(word):
        target, sign = edit(word, *map(list, real(word)))
        return tuple(target), tuple(sign)

    clear()
    for module in (grouprep, cover):
        monkeypatch.setattr(module, "signed_permutation", patched)
    yield
    monkeypatch.undo()
    clear()


def negated_y(target, sign):
    return target, sign[:8] + [-s for s in sign[8:]]


def swapped_x00_and_y0000(target, sign):
    x00, y0000 = AMBIENT_XY.index("x00"), AMBIENT_XY.index("y0000")
    for side in (target, sign):
        side[x00], side[y0000] = side[y0000], side[x00]
    return target, sign


@pytest.fixture
def b1_without_y_sign(monkeypatch):
    """The sign table with b1's sign on the weight-2 variables dropped, in
    every word containing b1."""
    yield from patched_sign_table(
        monkeypatch, lambda word, *table: negated_y(*table) if word[3] else table)


@pytest.fixture
def a1_swapping_x00_and_a_y(monkeypatch):
    """The sign table with the images of x00 and y0000 exchanged in every
    word containing a1: such a word moves terms of q out of the support of
    its nu-free forms."""
    yield from patched_sign_table(
        monkeypatch, lambda word, *table: swapped_x00_and_y0000(*table) if word[0] else table)


@pytest.fixture
def a1a2_negating_y(monkeypatch):
    """The sign table with the H word a1*a2 negating every y as well, so
    that it sends the y-eigenvector to its negative."""
    yield from patched_sign_table(
        monkeypatch,
        lambda word, *table: negated_y(*table) if word == parse_word("a1*a2") else table)


@pytest.fixture
def a2b3_negating_y(monkeypatch):
    """The sign table with the G generator a2*b3 negating every y as well,
    while a2 and b3 keep their tables."""
    yield from patched_sign_table(
        monkeypatch,
        lambda word, *table: negated_y(*table) if word == parse_word("a2*b3") else table)


def test_table1_relations_composes_every_word(a2b3_negating_y):
    rep = table1_relations_report()
    assert not rep.passed
    assert rep.witness["problems"] == ["a2*b3 != a2 * b3"]


def test_table1_relations_squares_each_generator(monkeypatch):
    # a1 sending x00 to -x01 and x01 to x00 has order 4, and it no longer
    # commutes with a2 or a3, which swap x00 and x01 as well
    def edit(word, target, sign):
        if word == parse_word("a1"):
            sign[AMBIENT_XY.index("x00")] = -1
        return target, sign

    for _ in patched_sign_table(monkeypatch, edit):
        rep = table1_relations_report()
        assert not rep.passed
        assert rep.witness["problems"][:3] == [
            "a1^2 != 1", "a1 and a2 do not commute", "a1 and a3 do not commute"]


def test_compose_is_substitution_after_substitution():
    rng = random.Random(5)
    f = random_xy_poly(GF(13), rng)
    for _ in range(20):
        outer, inner = [(tuple(rng.sample(range(16), 16)),
                         tuple(rng.choice((1, -1)) for _ in range(16))) for _ in range(2)]
        composed = table_map(grouprep.compose(outer, inner), GF(13))
        assert composed.apply(f) == table_map(outer, GF(13)).apply(
            table_map(inner, GF(13)).apply(f))
    for u, v in product(ALL_WORDS, repeat=2):
        assert grouprep.compose(signed_permutation(u), signed_permutation(v)) == \
            signed_permutation(grouprep.word_mul(u, v))


def test_flipped_sign_fails_j_stability(b1_without_y_sign):
    assert image_of_variable(parse_word("b1"), "y0000") == (1, "y0000")
    rep = j_generator_stability_report()
    assert not rep.passed
    assert rep.witness["problems"][0].startswith("b1 moves ")


def test_flipped_sign_fails_q_invariance(b1_without_y_sign):
    rep = q_invariance_report(*q_invariance_args(5))
    assert not rep.passed
    assert all("b1" in m and "breaks q invariance" in m for m in rep.witness["problems"])


def test_a_wrong_table_breaks_the_lift_relation(b1_without_y_sign):
    # the lift of a3*b1 no longer covers its word; the deck involution s
    # covers the identity word, whose table the mutant leaves alone
    deck, group = run_checks(resolve_targets(["cover.sigma_deck", "cover.group_structure"]),
                             RunContext(RunConfig()))
    assert deck.passed
    assert not group.passed
    assert group.witness["problems"] == [
        "a3~b1~: no single scalar makes the lift square commute"]


def poly_q_invariance_report(nus, rng):
    """The oracle: ``q_invariance_report`` on ``grouprep.act`` and
    ``Poly`` equality."""
    problems = []
    H = set(group_H())
    non_h = [w for w in ALL_WORDS if w not in H]
    for nu in nus:
        q = q_section(nu)
        ints = tuple(int(v) for v in nu.nu)
        for w in H:
            if act(w, q) != q:
                problems.append(f"{word_str(w)} breaks q invariance at nu={ints}")
        for w in rng.sample(non_h, 8):
            img = act(w, q)
            if img == q or img == -q:
                problems.append(f"{word_str(w)} outside H fixed q at nu={ints}")
    return verdict("grouprep.q_invariance", problems[:5],
                   on_pass={"draws": len(nus), "H_words": 32})


def poly_j_stability_moves(domain=QQ):
    """The oracle: every move of a generator out of its +- class set by
    any of the 64 words, on ``grouprep.act`` and sets of ``Poly``."""
    ideal = grouprep.build_unprojection_ideal(domain)
    by_prov = {}
    for _, g, t in ideal.generators:
        by_prov.setdefault(t, set()).update((g, -g))
    problems = []
    for w in ALL_WORDS:
        for name, g, t in ideal.generators:
            if act(w, g) not in by_prov[t]:
                problems.append(f"{word_str(w)} moves {name} outside the {t} set")
    return problems


def poly_j_stability_report(domain=QQ):
    """The all-words oracle of ``j_generator_stability_report``."""
    return verdict("grouprep.j_stability", poly_j_stability_moves(domain)[:5],
                   on_pass={"words": 64, "generators": 63})


@pytest.fixture
def doubled_generator(monkeypatch):
    """The unprojection ideal with its first cubic generator doubled: the
    other words send it to twice a cubic generator, outside the +- set."""
    real = grouprep.build_unprojection_ideal

    def mutant(domain=QQ):
        ideal = real(domain)
        gens = list(ideal.generators)
        k = next(k for k, (_, _, t) in enumerate(gens) if t == CUBIC)
        name, g, t = gens[k]
        gens[k] = (name, g + g, t)
        return IdealPresentation(ideal.name, ideal.ambient, ideal.domain, gens)

    monkeypatch.setattr(grouprep, "build_unprojection_ideal", mutant)


@pytest.mark.parametrize("mutant", [None, "b1_without_y_sign", "doubled_generator"])
@pytest.mark.parametrize("domain", [QQ, GF(13)], ids=str)
def test_j_stability_matches_the_poly_path(domain, mutant, request):
    # the same verdict as the scan of all 64 words, the same record on a
    # pass, and on a failure only moves by generator words that the scan
    # reports as well
    if mutant:
        request.getfixturevalue(mutant)
    rep = j_generator_stability_report(domain)
    moves = poly_j_stability_moves(domain)
    assert rep.passed == (not moves) == (mutant is None)
    if rep.passed:
        assert rep.to_json() == poly_j_stability_report(domain).to_json()
    else:
        named = rep.witness["problems"]
        assert named and set(named) <= set(moves)
        assert {m.split(" moves ")[0] for m in named} <= set(grouprep.GENERATOR_NAMES)


def test_a_product_word_mutant_is_caught_by_table1_relations(a2b3_negating_y):
    # j_stability reads only the generators' tables, so a wrong table of
    # the product a2*b3 passes it; table1_relations, on which it rests,
    # fails, as does the scan of all 64 words
    assert j_generator_stability_report().passed
    rep = table1_relations_report()
    assert not rep.passed and rep.witness["problems"] == ["a2*b3 != a2 * b3"]
    assert poly_j_stability_moves()[0].startswith("a2*b3 moves ")


@pytest.mark.parametrize("mutant", [None, "b1_without_y_sign", "a1a2_negating_y",
                                    "a1_swapping_x00_and_a_y"])
@pytest.mark.parametrize("case", ["drawn", "nu4_zero", "zero_entries"])
def test_q_invariance_matches_the_poly_path(case, mutant, request):
    if mutant:
        request.getfixturevalue(mutant)
    nus, _ = q_invariance_args(5)
    if case == "nu4_zero":  # words outside H fix q as well
        nus = [FamilyParams(GF(13), (1, 2, 3, 4, 0)), *nus[:2]]
    if case == "zero_entries":  # q has fewer terms than its nu-free forms;
        # at (0,0,0,0,1) the words outside H send q to -q
        nus = [FamilyParams(GF(13), nu)
               for nu in ((0, 0, 0, 0, 1), (1, 0, 3, 4, 5), (1, 2, 3, 4, 0))]
    rep = q_invariance_report(nus, random.Random(3))
    assert rep.to_json() == poly_q_invariance_report(nus, random.Random(3)).to_json()
    assert rep.passed == (mutant is None and case == "drawn")


def test_moves_out_of_the_support_land_in_the_zero_slot(a1_swapping_x00_and_a_y):
    from upv.unproj import q_basis
    support = sorted({e for b in q_basis(QQ) for e in b.terms})
    key = {n: next(iter((Poly.variable(AMBIENT_XY, QQ, n) ** k).terms))
           for n, k in (("x00", 2), ("y0000", 1))}
    moves = grouprep._support_moves(support, [parse_word("a1"), parse_word("a2")])
    assert moves.shape == (2, 2, 16)
    assert sorted(support[i] for i in np.flatnonzero(moves[0, 1] == 16)) == sorted(key.values())
    assert (moves[1, 1] < 16).all() and sorted(moves[1, 1]) == list(range(16))


def test_an_h_word_sending_q_to_minus_q_breaks_q_invariance(a1a2_negating_y):
    # at nu = (0,0,0,0,1), q is the y-eigenvector, which a1*a2 now negates:
    # H words must fix q, not send it to -q
    rep = q_invariance_report([FamilyParams(GF(13), (0, 0, 0, 0, 1))], random.Random(0))
    assert not rep.passed
    assert rep.witness["problems"][0] == "a1*a2 breaks q invariance at nu=(0, 0, 0, 0, 1)"
    # then the first four of the 8 sampled words outside H, which negate q
    # at this nu
    assert len(rep.witness["problems"]) == 5
    assert all(m.endswith(" outside H fixed q at nu=(0, 0, 0, 0, 1)")
               for m in rep.witness["problems"][1:])


def test_j_stability_hashes_no_poly(monkeypatch):
    calls = []
    real = Poly.__hash__
    monkeypatch.setattr(Poly, "__hash__", lambda self: calls.append(1) or real(self))
    assert j_generator_stability_report().passed
    assert calls == []
    assert poly_j_stability_report().passed
    assert calls  # the probe sees the oracle's lookups


def test_delta_set_aliasing():
    r13 = delta_set_report(13, random.Random(0))
    assert r13.passed
    assert r13.witness["delta_multiples_of_eps"] == [-8, -5, 5, 8]
    r17 = delta_set_report(17, random.Random(0))
    assert r17.passed
    assert r17.witness["delta_multiples_of_eps"] == [-8, 8]


@pytest.mark.parametrize("p", [13, 17, 29])
def test_delta_set_record_does_not_depend_on_the_draw(p):
    reps = [delta_set_report(p, random.Random(seed)) for seed in (0, 12345)]
    assert reps[0].passed
    assert reps[0].to_json() == reps[1].to_json()


def test_delta_set_draws_once_per_multiple(monkeypatch):
    calls = []
    real = grouprep._triple_fixed_points

    def counting(nu):
        calls.append(nu)
        return real(nu)

    monkeypatch.setattr(grouprep, "_triple_fixed_points", counting)
    assert delta_set_report(13, random.Random(0)).passed
    assert len(calls) == 17


@pytest.mark.parametrize("p", [13, 17])
def test_triple_candidate_basis_values_give_q(p):
    from upv.grouprep import _triple_candidates, _triple_fixed_points
    from upv.unproj import FamilyParams, q_section
    f = GF(p)
    rng = random.Random(p)
    candidates = _triple_candidates(f)
    assert candidates
    for _ in range(20):
        nu = FamilyParams(f, tuple(rng.randrange(p) for _ in range(4)) + (rng.randrange(1, p),))
        q = q_section(nu)
        for vec, basis in candidates:
            assert sum((v * b for v, b in zip(nu.nu, basis)), f.zero()) == q.evaluate(vec)
        assert _triple_fixed_points(nu) == [vec for vec, _ in candidates
                                            if not q.evaluate(vec)]


def test_stabilizer_identity_fixes_everything():
    from upv.cover import canonical_weighted
    p = 13
    pts = [canonical_weighted([1] + [0] * 15, p),
           canonical_weighted([0] * 8 + [1] + [0] * 7, p)]
    rows = np.array(pts, dtype=np.int64)
    fixed = stabilizer_classification(rows, [parse_word("1")], p)
    assert [tuple(r) for r in rows[fixed[parse_word("1")]].tolist()] == pts


def loop_stabilizers(points, words, p):
    """The per-point oracle: each word's signed image of each point,
    re-canonicalized by ``canonical_weighted``."""
    from upv.cover import canonical_weighted
    fixed = {w: [] for w in words}
    for pt in points:
        for w in words:
            img = []
            for name in AMBIENT_XY.variables:
                sign, target = image_of_variable(w, name)
                img.append(sign * pt[AMBIENT_XY.index(target)])
            if canonical_weighted(img, p) == pt:
                fixed[w].append(pt)
    return fixed


def per_word_stabilizers(rows, words, p):
    """The oracle of the stacked kernel: one ``canonical_weighted_rows``
    call per word."""
    from upv.cover import canonical_weighted_rows
    fixed = {}
    for w in words:
        images = [image_of_variable(w, n) for n in AMBIENT_XY.variables]
        cols = [AMBIENT_XY.index(target) for _, target in images]
        signs = np.array([sign for sign, _ in images], dtype=np.int64)
        fixed[w] = (canonical_weighted_rows(rows[:, cols] * signs, p) == rows).all(axis=1)
    return fixed


@pytest.mark.parametrize("words", [
    pytest.param([], id="none"),
    pytest.param([parse_word("a1*b1")], id="one"),
    pytest.param(theta_class(2) + [parse_word("1"), parse_word("a1*a2*a3*b1*b2*b3")],
                 id="theta_2_and_more"),
])
def test_stacked_stabilizers_match_a_per_word_loop(words):
    from upv.cover import distinct_rows, downstairs_image_set, enumerate_surface, sigma_images
    p = 13
    surface = distinct_rows(sigma_images(
        enumerate_surface(p, FamilyParams(GF(p), (3, 1, 4, 1, 5))).points))
    # the whole image has rows with no x, which the y-lead scale handles;
    # its one-byte residues are widened before the kernels multiply them
    for rows in (surface, downstairs_image_set(p)[::7].astype(np.int64)):
        got = stabilizer_classification(rows, words, p)
        want = per_word_stabilizers(rows, words, p)
        assert list(got) == list(want)
        for w in words:
            assert got[w].shape == (len(rows),) and np.array_equal(got[w], want[w])


def test_array_stabilizers_match_the_point_loop_at_13():
    from upv.cover import distinct_rows, enumerate_surface, sigma_images
    from upv.unproj import FamilyParams
    p = 13
    words = [w for i in (1, 2, 3) for w in theta_class(i)]
    assert len(set(words)) == 24
    hits = 0
    for nu in ((1, 1, 1, 1, 3), (3, 1, 4, 1, 5), (2, 7, 1, 8, 2)):
        rows = distinct_rows(sigma_images(enumerate_surface(p, FamilyParams(GF(p), nu)).points))
        got = {w: [tuple(r) for r in rows[mask].tolist()]
               for w, mask in stabilizer_classification(rows, words, p).items()}
        assert got == loop_stabilizers([tuple(r) for r in rows.tolist()], words, p)
        hits += sum(map(len, got.values()))
    assert hits


def test_triple_fixed_points_satisfy_all_t_equations():
    from upv.grouprep import _triple_fixed_points
    from upv.scalars import GF
    from upv.unproj import FamilyParams, build_t_ideal
    f = GF(13)
    eps = f.sqrt_minus_one()
    seen = 0
    for m in (8, -8, 3):
        n1, n2, n3, n4 = (f.from_int(v) for v in (2, 5, 7, 11))
        nu = FamilyParams(f, (n1 + n2 + n3 - f.from_int(m) * eps * n4, n1, n2, n3, n4))
        gens = build_t_ideal(nu).polys()
        pts = _triple_fixed_points(nu)
        assert all(not g.evaluate(vec) for vec in pts for g in gens)
        seen += len(pts)
    assert seen
