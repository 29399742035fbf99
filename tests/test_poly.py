import random

import pytest

from upv.ambient import AMBIENT_T4, AMBIENT_XY
from upv.cover import sigma_map
from upv.grouprep import SignedAction, parse_word
from upv.poly import MonomialMap, Poly, PolyError, exact_divide, ring_substitute
from upv.scalars import GF, QQ


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
