from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upv.scalars import GF, QI, QQ, GaussianRational, ScalarError

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(fractions)
def test_rational_string_roundtrip(x):
    assert QQ.parse(str(x)) == x


@given(gaussians)
def test_gaussian_string_roundtrip(z):
    assert QI.parse(str(z)) == z


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60)
def test_gaussian_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if a:
        assert a * a.inverse() == QI.one()


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
    assert f.parse("20") == f.from_int(7)
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


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=40)
def test_fp_field_axioms(a, b):
    f = GF(13)
    x, y = f.from_int(a), f.from_int(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + f.one()) == x * y + x


def test_gaussian_parse_edge_forms():
    i = QI.sqrt_minus_one()
    assert QI.parse("i") == i
    assert QI.parse("-i") == -i
    assert QI.parse("+i") == i
    assert QI.parse("2*i") == GaussianRational(0, 2)
    assert QI.parse("1/2-i") == GaussianRational(Fraction(1, 2), -1)
