from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from upv.cover import build_lifts_and_certify
from upv.scalars import GF, QI, GaussianRational, ScalarError

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, fractions, fractions)
# small integers (zero and the units included) and general fractions
parts = st.one_of(st.integers(-3, 3).map(Fraction), fractions)


# A reference Gaussian rational: a pair (re, im) of Fractions.

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_neg(x):
    return (-x[0], -x[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inv(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if im < 0:
        return f"{re}-{-im}*i"
    return f"{re}+{im}*i"


def pair(z):
    """The parts of z, after checking that its triple is normalised."""
    assert z._d > 0 and gcd(z._a, z._b, z._d) == 1
    re, im = z.re, z.im
    assert type(re) is Fraction and type(im) is Fraction
    return (re, im)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60)
def test_gaussian_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if a:
        assert a * a.inverse() == QI.one()


@given(parts, parts, parts, parts, st.integers(-4, 4))
@settings(max_examples=300)
def test_gaussian_matches_fraction_pair_reference(a, b, c, e, n):
    z, w = GaussianRational(a, b), GaussianRational(c, e)
    x, y = (a, b), (c, e)
    assert pair(z) == x
    assert pair(z + w) == ref_add(x, y)
    assert pair(z - w) == ref_add(x, ref_neg(y))
    assert pair(-z) == ref_neg(x)
    assert pair(z * w) == ref_mul(x, y)
    # mixed with int and Fraction operands, on either side
    for s in (c, c.numerator):
        r = (Fraction(s), Fraction(0))
        assert pair(z + s) == pair(s + z) == ref_add(x, r)
        assert pair(z - s) == ref_add(x, ref_neg(r))
        assert pair(s - z) == ref_add(r, ref_neg(x))
        assert pair(z * s) == pair(s * z) == ref_mul(x, r)
        if s:
            assert pair(z / s) == ref_mul(x, ref_inv(r))
        if x != (0, 0):
            assert pair(s / z) == ref_mul(r, ref_inv(x))
    if y != (0, 0):
        assert pair(z / w) == ref_mul(x, ref_inv(y))
        assert pair(w.inverse()) == ref_inv(y)
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
        with pytest.raises(ZeroDivisionError):
            w.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / w
    if n >= 0 or x != (0, 0):
        assert pair(z ** n) == ref_pow(x, n)
    else:
        with pytest.raises(ZeroDivisionError):
            z ** n
    # equality and hashing agree with int and Fraction
    assert (z == w) == (x == y)
    assert (z == a) == (a == z) == (b == 0)
    assert (z == a.numerator) == (b == 0 and a.denominator == 1)
    assert hash(z) == hash(GaussianRational(*pair(z)))
    assert hash(z) == (hash(a) if b == 0 else hash(x))
    if b == 0:
        assert {a: "x"}.get(z) == "x"
    assert bool(z) == (x != (0, 0))
    # printing as for the pair
    assert str(z) == ref_str(x)
    assert repr(z) == f"GaussianRational({a!r}, {b!r})"


def test_real_gaussian_hashes_like_its_real_part():
    assert {3: "x"}.get(GaussianRational(3)) == "x"
    assert {Fraction(1, 2): "y"}.get(GaussianRational(Fraction(1, 2))) == "y"
    assert len({GaussianRational(2), 2, Fraction(2)}) == 1


@pytest.mark.parametrize("bad", [0.1, 2.0, "1", 1j, None, GF(13).one()])
def test_gaussian_parts_checked_at_boundary(bad):
    with pytest.raises(ScalarError):
        GaussianRational(bad)
    with pytest.raises(ScalarError):
        GaussianRational(0, bad)
    with pytest.raises(ScalarError):
        QI.coerce(bad)


def test_lifted_group_entries_are_gaussian_units_or_zero():
    # every product in the group closure then has denominator 1
    group, _ = build_lifts_and_certify()
    assert group.order == 16
    units = {GaussianRational(0), GaussianRational(1), GaussianRational(-1),
             GaussianRational(0, 1), GaussianRational(0, -1)}
    entries = {x for g in group.elements for m in g.mats for row in m for x in row}
    assert entries <= units
    assert all(x._d == 1 for x in entries)


def test_gaussian_i_squares_to_minus_one():
    i = QI.sqrt_minus_one()
    assert i * i == GaussianRational(-1)
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


@pytest.mark.parametrize("p", [5, 13, 17, 29, 41, 101])
def test_eps_is_canonical_root(p):
    f = GF(p)
    eps = f.sqrt_minus_one()
    assert eps * eps == f.from_int(-1)
    # the smaller of the two square roots is chosen
    assert f.eps_int == min(f.eps_int, p - f.eps_int)


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_non_one_mod_four_primes_rejected(p):
    with pytest.raises(ScalarError, match="eps"):
        GF(p)


def test_prime_bound():
    # below 2^31 the product of two residues is exact in int64
    field = GF(2147483029)
    assert (field.sqrt_minus_one() ** 2) == field.from_int(-1)
    with pytest.raises(ScalarError, match=r"2\^31"):
        GF(4294967357)
    with pytest.raises(ScalarError, match=r"2\^31"):
        GF(2 ** 31)


def test_composite_rejected():
    with pytest.raises(ScalarError):
        GF(21)


def test_prime_field_arithmetic():
    f = GF(13)
    a, b = f.from_int(7), f.from_int(9)
    assert int(a + b) == 3
    assert int(a * b) == 63 % 13
    assert a * a.inverse() == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()


def test_fraction_coercion_is_a_homomorphism():
    f = GF(13)
    x, y = Fraction(3, 4), Fraction(-5, 7)
    assert f.coerce(x * y) == f.coerce(x) * f.coerce(y)
    assert f.coerce(x + y) == f.coerce(x) + f.coerce(y)


def test_gaussian_to_prime_field_sends_i_to_eps():
    f = GF(13)
    assert f.coerce(QI.sqrt_minus_one()) == f.sqrt_minus_one()


@pytest.mark.parametrize("x", [Fraction(1, 13), Fraction(-7, 26),
                               GaussianRational(Fraction(1, 13)),
                               GaussianRational(2, Fraction(3, 13)),
                               GaussianRational(Fraction(1, 13), Fraction(5, 13))])
def test_prime_field_rejects_denominators_divisible_by_p(x):
    # 1/13 has no residue mod 13; it must not come back as 0
    with pytest.raises(ScalarError, match="divisible by 13"):
        GF(13).coerce(x)


@given(gaussians)
@settings(max_examples=60)
def test_gaussian_coercion_is_re_plus_eps_im(z):
    f = GF(13)
    assume(z.re.denominator % 13 and z.im.denominator % 13)
    assert f.coerce(z) == f.coerce(z.re) + f.coerce(z.im) * f.sqrt_minus_one()


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=40)
def test_fp_field_axioms(a, b):
    f = GF(13)
    x, y = f.from_int(a), f.from_int(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + f.one()) == x * y + x
