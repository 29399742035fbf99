import random
from fractions import Fraction

import pytest

import poly_oracle
from upv.ambient import AMBIENT_T4, AMBIENT_T4L, AMBIENT_XY
from upv.cover import sigma_map
from upv.grouprep import SignedAction, parse_word
from upv.poly import (MonomialMap, Poly, PolyError, exact_divide, ring_substitute,
                      weighted_sum)
from upv.scalars import GF, QI, QQ, GaussianRational


def V(name, domain=QQ):
    return Poly.variable(AMBIENT_XY, domain, name)


def test_canonical_printing():
    f = V("x00") * V("x00") * 3 + V("y0011") * V("x00") * V("x00")
    assert str(f) == "1*x00^2*y0011 + 3*x00^2"
    assert str(Poly.zero(AMBIENT_XY, QQ)) == "0"


def test_arithmetic_basics():
    x, y = V("x00"), V("x01")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 3 == x**3 + 3 * x * x * y + 3 * x * y * y + y**3
    assert x - x == Poly.zero(AMBIENT_XY, QQ)


def test_weighted_degrees():
    f = V("x00") * V("y0011")
    assert f.weighted_degree() == 3
    assert f.is_homogeneous()
    assert not (V("x00") + V("y0011")).is_homogeneous()


def test_ambient_mismatch_raises():
    with pytest.raises(PolyError):
        V("x00") + Poly.variable(AMBIENT_T4, QQ, "t00")


def test_substitution_examples():
    # the quadric x00*x01 - x10*x11 dies under the covering map
    sig = sigma_map(QQ)
    f = V("x00") * V("x01") - V("x10") * V("x11")
    assert sig.apply(f).is_zero()
    # identity map
    ident = MonomialMap.identity(AMBIENT_XY, QQ)
    assert ident.apply(V("x00")) == V("x00")
    # the sign generator negates every weight-2 variable
    b1 = SignedAction(parse_word("b1"), QQ)
    assert b1.apply(V("y0000")) == -V("y0000")


def test_substitution_homomorphism_seeded_1000():
    # pinned sample count: 1000 random pairs over a prime field
    field = GF(13)
    rng = random.Random(0)
    sig = sigma_map(field)
    names = list(AMBIENT_XY.variables)

    def rand_poly():
        f = Poly.zero(AMBIENT_XY, field)
        for _ in range(rng.randrange(1, 4)):
            e = [0] * 16
            for _ in range(rng.randrange(0, 3)):
                e[rng.randrange(16)] += 1
            f = f + Poly.monomial(AMBIENT_XY, field, e, rng.randrange(1, 13))
        return f

    maps = [sig, MonomialMap.identity(AMBIENT_XY, field),
            SignedAction(parse_word("a1*b2"), field).map]
    for k in range(1000):
        f, g = rand_poly(), rand_poly()
        m = maps[k % len(maps)]
        assert m.apply(f * g) == m.apply(f) * m.apply(g)
        assert m.apply(f + g) == m.apply(f) + m.apply(g)


def test_map_composition_is_application():
    field = GF(13)
    a = SignedAction(parse_word("a1"), field).map
    b = SignedAction(parse_word("b2"), field).map
    f = V("y0011", field) * V("x20", field)
    assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_laurent_flag_enforced():
    with pytest.raises(PolyError):
        Poly.monomial(AMBIENT_XY, QQ, (-1,) + (0,) * 15)
    images = {n: (QQ.one(), tuple(-1 if k == 0 else 0 for k in range(8)))
              for k, n in enumerate(AMBIENT_T4.variables)}
    with pytest.raises(PolyError):
        MonomialMap(AMBIENT_T4, AMBIENT_T4, QQ, images, laurent=False)


def test_public_constructor_and_apply_keep_their_checks():
    with pytest.raises(PolyError, match="wrong length"):
        Poly(AMBIENT_XY, QQ, {(1,) * 15: QQ.one()})
    with pytest.raises(PolyError, match="negative exponent"):
        Poly(AMBIENT_XY, QQ, {(-1,) + (0,) * 15: QQ.one()})
    images = {n: (QQ.one(), tuple(-1 if k == 0 else 0 for k in range(8)))
              for k, n in enumerate(AMBIENT_T4.variables)}
    laurent = MonomialMap(AMBIENT_T4, AMBIENT_T4, QQ, images, laurent=True)
    with pytest.raises(PolyError, match="non-Laurent target"):
        laurent.apply(Poly.variable(AMBIENT_T4, QQ, "t00"))


def test_internal_results_drop_zero_coefficients():
    f = GF(13)
    assert Poly.constant(AMBIENT_XY, f, 13).is_zero()
    x = Poly.variable(AMBIENT_XY, f, "x00")
    assert (x ** 13).derivative("x00").is_zero()  # 13*x00^12 = 0 over GF(13)
    units = [tuple(int(k == j) for k in range(16)) for j in range(16)]
    zero_map = MonomialMap(AMBIENT_XY, AMBIENT_XY, f,
                           {n: (0 if n == "x00" else 1, e)
                            for n, e in zip(AMBIENT_XY.variables, units)})
    assert zero_map.apply(x).is_zero()


def test_exact_divide():
    x, y = V("x00"), V("x01")
    f = (x + y) * (x * x + y)
    assert exact_divide(f, x + y) == x * x + y
    assert exact_divide(f + Poly.one(AMBIENT_XY, QQ), x + y) is None


def test_ring_substitute_matches_evaluation():
    from upv.ambient import AMBIENT_S
    f = V("x00") ** 2 + V("x01") * 5
    images = {n: Poly.zero(AMBIENT_S, QQ) for n in AMBIENT_XY.variables}
    images["x00"] = Poly.variable(AMBIENT_S, QQ, "s0") + Poly.variable(AMBIENT_S, QQ, "s1")
    images["x01"] = Poly.variable(AMBIENT_S, QQ, "s0")
    g = ring_substitute(f, AMBIENT_S, images)
    s0 = Poly.variable(AMBIENT_S, QQ, "s0")
    s1 = Poly.variable(AMBIENT_S, QQ, "s1")
    assert g == (s0 + s1) ** 2 + s0 * 5


def test_derivative():
    f = V("x00") ** 3 * V("x01")
    assert f.derivative("x00") == V("x00") ** 2 * V("x01") * 3
    assert f.derivative("x10").is_zero()


def test_evaluate():
    f = V("x00") * V("x01") - V("x10")
    vals = [QQ.zero()] * 16
    vals[0], vals[1], vals[2] = QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)
    assert f.evaluate(vals) == QQ.from_int(1)


# -- the raw accumulation path against the per-term loops of poly_oracle --------

KERNEL_DOMAINS = [QQ, QI, GF(13), GF(2147483029)]


def rand_scalar(rng, domain):
    """A nonzero element: non-integral in QQ and QI, near p in GF(p)."""
    if domain is QQ:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    if domain is QI:
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    return domain.from_int(rng.choice([rng.randrange(1, domain.p), domain.p - rng.randint(1, 3)]))


def rand_kernel_poly(rng, ambient, domain, nterms=6):
    """Few variables and small exponents, so sums collide and often cancel;
    negative exponents in a Laurent ambient."""
    low = -2 if ambient.laurent else 0
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        e = tuple(rng.randint(low, 2) if k < 3 else 0 for k in range(ambient.nvars))
        terms[e] = domain.coerce(rand_scalar(rng, domain))
    return Poly(ambient, domain, terms)


def assert_terms(got, want, domain):
    assert got.terms == want
    kind = type(domain.one())
    assert all(type(c) is kind and c for c in got.terms.values())


@pytest.mark.parametrize("ambient", [AMBIENT_T4, AMBIENT_T4L], ids=lambda a: a.tag)
@pytest.mark.parametrize("domain", KERNEL_DOMAINS, ids=str)
def test_add_and_mul_match_the_per_term_loops(domain, ambient):
    rng = random.Random(f"add-mul:{domain}:{ambient.tag}")
    zero = Poly.zero(ambient, domain)
    for _ in range(150):
        f, g = rand_kernel_poly(rng, ambient, domain), rand_kernel_poly(rng, ambient, domain)
        h = f + g * domain.from_int(-1)  # shares terms with g, some cancel
        for a, b in ((f, g), (f, h), (g, -g), (f, zero)):
            assert_terms(a + b, poly_oracle.add_terms(a, b), domain)
            assert_terms(a - b, poly_oracle.add_terms(a, -b), domain)
            assert_terms(a * b, poly_oracle.mul_terms(a, b), domain)
        assert (f + g) * (f - g) == f * f - g * g
        assert (g - g).is_zero() and (f * (g - g)).is_zero()


@pytest.mark.parametrize("ambient", [AMBIENT_T4, AMBIENT_T4L], ids=lambda a: a.tag)
@pytest.mark.parametrize("domain", KERNEL_DOMAINS, ids=str)
def test_weighted_sum_matches_the_per_term_loop(domain, ambient):
    rng = random.Random(f"weighted:{domain}:{ambient.tag}")
    for _ in range(100):
        fs = [rand_kernel_poly(rng, ambient, domain) for _ in range(3)]
        ws = [domain.coerce(rand_scalar(rng, domain)) for _ in fs]
        parts = [(f.terms, w) for f, w in zip(fs, ws)]
        parts += [(fs[0].terms, -ws[0]), (fs[1].terms, domain.zero())]  # cancels fs[0]
        assert_terms(weighted_sum(ambient, domain, parts),
                     poly_oracle.weighted_sum_terms(parts), domain)
        assert weighted_sum(ambient, domain, parts[:1] + parts[3:4]).is_zero()


def rand_map(rng, source, target, domain, zero_images):
    laurent = source.laurent or target.laurent
    images = {}
    for name in source.variables:
        c = domain.zero() if zero_images and rng.random() < 0.2 else rand_scalar(rng, domain)
        e = [0] * target.nvars
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(target.nvars)] += rng.choice([-1, 1]) if laurent else 1
        images[name] = (c, e)
    return MonomialMap(source, target, domain, images, laurent=laurent)


@pytest.mark.parametrize("source,target", [(AMBIENT_T4, AMBIENT_T4), (AMBIENT_T4, AMBIENT_T4L),
                                           (AMBIENT_T4L, AMBIENT_T4L)],
                         ids=["T4-T4", "T4-T4L", "T4L-T4L"])
@pytest.mark.parametrize("domain", KERNEL_DOMAINS, ids=str)
def test_apply_matches_the_per_term_loop(domain, source, target):
    rng = random.Random(f"apply:{domain}:{source.tag}:{target.tag}")
    for _ in range(100):
        # zero image coefficients only where no negative power meets them
        m = rand_map(rng, source, target, domain, zero_images=not source.laurent)
        f = rand_kernel_poly(rng, source, domain, nterms=8)
        assert_terms(m.apply(f), poly_oracle.apply_terms(m, f), domain)
    # a source over QQ, integral so that it has residues, is coerced into
    # the map's field term by term
    f = rand_kernel_poly(rng, source, QQ) * 12
    assert_terms(m.apply(f), poly_oracle.apply_terms(m, f), domain)
