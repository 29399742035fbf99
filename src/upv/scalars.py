"""Exact coefficient fields: rationals, Gaussian rationals, prime fields with sqrt(-1).

Every computation in this package is exact.  Three coefficient domains are
supported:

* ``QQ``      -- arbitrary-precision rationals (``fractions.Fraction``),
* ``QI``      -- Gaussian rationals a + b*i,
* ``GF(p)``   -- prime fields with p = 1 (mod 4), so that a square root of -1
                 exists; the distinguished root ``eps`` is the smaller of the
                 two residues and is deterministic given p.  Primes must stay
                 below ``PRIME_BOUND`` = 2^31, where the product of two
                 residues is still exact in the int64 kernels.

Each domain also has the two hooks of ``Poly``'s accumulation loops:
``raw(c)`` gives a plain number to compute with (the residue int in GF(p);
in QQ the numerator when the denominator is 1, else the Fraction; the
element itself in QI), and ``wrap_terms(acc)`` turns a dict of such sums
back into field elements, each once, and drops the zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

_new = object.__new__


class ScalarError(ValueError):
    """Raised for invalid field constructions and coercions."""


PRIME_BOUND = 2 ** 31


def smallest_non_residue(p: int) -> int:
    """The least quadratic non-residue modulo an odd prime p."""
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    return n


class GaussianRational:
    """A Gaussian rational (a + b*i)/d held as three ints.

    The triple is normalised: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples.  Arithmetic runs on the ints and skips the gcd when
    the result has d = 1, as every product of two Gaussian integers (such as
    the entries of the lifted group) does.  ``re`` and ``im`` return the
    parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise ScalarError(f"GaussianRational parts must be int or Fraction, "
                              f"not {re!r} and {im!r}")
        q, s = re.denominator, im.denominator
        return _gaussian(re.numerator * s, im.numerator * q, q * s)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return _gaussian(other, 0, 1)
        if isinstance(other, Fraction):
            return _gaussian(other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d, f = self._d, o._d
        return _gaussian(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d, f = self._d, o._d
        return _gaussian(self._a * f - o._a * d, self._b * f - o._b * d, d * f)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, e = self._a, self._b, o._a, o._b
        return _gaussian(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in QI")
        return _gaussian(d * a, -d * b, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _gaussian(1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # equal to the hash of an equal int or Fraction when the value is real
        if self._d == 1:
            return hash(self._a) if self._b == 0 else hash((self._a, self._b))
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if im < 0:
            return f"{re}-{-im}*i"
        return f"{re}+{im}*i"


# the slot descriptors set the slots past the immutable ``__setattr__``
_set_a, _set_b, _set_d = (GaussianRational._a.__set__, GaussianRational._b.__set__,
                          GaussianRational._d.__set__)


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b*i)/d for d > 0, normalised.

    Every GaussianRational is made here.  The gcd is skipped when d = 1.
    """
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


class FpElement:
    """Residue in a fixed prime field."""

    __slots__ = ("field", "value")

    def __new__(cls, field: "PrimeField", value: int):
        return _fp(field, value % field.p)

    def __setattr__(self, *a):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, other):
        # the fields are cached (``GF``), so the same field is the same object
        if other.__class__ is FpElement and other.field is self.field:
            return other
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise ScalarError("mixed prime fields")
            return other
        if isinstance(other, int):
            return _fp(self.field, other % self.field.p)
        if isinstance(other, Fraction):
            return self.field.coerce(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _fp(self.field, (self.value + o.value) % self.field.p)

    __radd__ = __add__

    def __neg__(self):
        return _fp(self.field, -self.value % self.field.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _fp(self.field, (self.value - o.value) % self.field.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _fp(self.field, self.value * o.value % self.field.p)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.field.p})")
        p = self.field.p
        return _fp(self.field, pow(self.value, p - 2, p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _fp(self.field, pow(self.value, n, self.field.p))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.value == o.value

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"GF({self.field.p})({self.value})"

    def __str__(self):
        return str(self.value)


_set_field, _set_value = FpElement.field.__set__, FpElement.value.__set__


def _fp(field: "PrimeField", value: int) -> FpElement:
    """The element of ``field`` with residue ``value``, already in [0, p).

    Every FpElement is made here.
    """
    x = _new(FpElement)
    _set_field(x, field)
    _set_value(x, value)
    return x


class RationalField:
    """The field of rationals, with Fraction elements."""

    name = "QQ"
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, GaussianRational) and x.im == 0:
            return x.re
        raise ScalarError(f"cannot coerce {x!r} into QQ")

    @staticmethod
    def raw(c: Fraction):
        # the slots behind ``numerator`` and ``denominator``, 3x faster to read
        return c._numerator if c._denominator == 1 else c

    @staticmethod
    def wrap_terms(acc: dict) -> dict:
        return {e: v if v.__class__ is Fraction else Fraction(v) for e, v in acc.items() if v}

    def sqrt_minus_one(self):
        raise ScalarError("QQ contains no square root of -1 (use QI or GF(p))")

    def __repr__(self):
        return "QQ"


class GaussianRationalField:
    """The field of Gaussian rationals Q(i)."""

    name = "QI"
    char = 0

    def zero(self):
        return _gaussian(0, 0, 1)

    def one(self):
        return _gaussian(1, 0, 1)

    def from_int(self, n: int) -> GaussianRational:
        return _gaussian(n, 0, 1)

    def coerce(self, x) -> GaussianRational:
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _gaussian(x, 0, 1)
        if isinstance(x, Fraction):
            return _gaussian(x.numerator, 0, x.denominator)
        raise ScalarError(f"cannot coerce {x!r} into QI")

    @staticmethod
    def raw(c: GaussianRational) -> GaussianRational:
        return c

    @staticmethod
    def wrap_terms(acc: dict) -> dict:
        return {e: v for e, v in acc.items() if v}

    def sqrt_minus_one(self) -> GaussianRational:
        return _gaussian(0, 1, 1)

    def __repr__(self):
        return "QI"


class PrimeField:
    """GF(p) for a prime p = 1 (mod 4).

    ``eps`` is the canonical square root of -1: of the two roots r and p-r,
    the smaller residue is chosen, so eps is deterministic given p.
    """

    char_positive = True

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ScalarError(
                f"prime {p} rejected: primes must be below 2^31 = {PRIME_BOUND}, "
                f"where products of residues are exact in int64 arithmetic")
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise ScalarError(f"{p} is not prime")
        if p % 4 != 1:
            raise ScalarError(
                f"prime {p} rejected: p = 1 (mod 4) is required so that the "
                f"square root of -1 (eps) exists in GF(p)")
        self.p = p
        self.name = f"GF({p})"
        self.char = p
        self.eps_int = self._find_eps()

    def _find_eps(self) -> int:
        r = pow(smallest_non_residue(self.p), (self.p - 1) // 4, self.p)
        return min(r, self.p - r)

    def zero(self):
        return _fp(self, 0)

    def one(self):
        return _fp(self, 1)

    def from_int(self, n: int) -> FpElement:
        return _fp(self, n % self.p)

    def coerce(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise ScalarError("mixed prime fields")
            return x
        if isinstance(x, int):
            return _fp(self, x % self.p)
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        elif isinstance(x, GaussianRational):
            num, den = x._a + x._b * self.eps_int, x._d
        else:
            raise ScalarError(f"cannot coerce {x!r} into GF({self.p})")
        if den % self.p == 0:
            raise ScalarError(f"{x} has no residue in GF({self.p}): "
                              f"its denominator is divisible by {self.p}")
        return _fp(self, num * pow(den, self.p - 2, self.p) % self.p)

    def sqrt_minus_one(self) -> FpElement:
        return _fp(self, self.eps_int)

    raw = staticmethod(attrgetter("value"))

    def wrap_terms(self, acc: dict) -> dict:
        p = self.p
        return {e: _fp(self, r) for e, v in acc.items() if (r := v % p)}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
QI = GaussianRationalField()

_PRIME_FIELDS: dict = {}


def GF(p: int) -> PrimeField:
    """Return the cached GF(p); rejects p != 1 (mod 4)."""
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]
