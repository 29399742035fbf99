"""Sparse exact multivariate polynomials and monomial substitution maps.

A ``Poly`` stores a map from exponent vectors to nonzero coefficients over a
fixed ambient and coefficient domain.  Values are immutable after
construction and safe to share; all arithmetic builds new objects.  The
canonical term order (descending lexicographic on exponent vectors) fixes
printing, division and hashing.

Sums and products (``+``, ``-``, poly x poly ``*``, ``weighted_sum`` and
``MonomialMap.apply``) run on one path for every domain: they accumulate
``domain.raw`` values in one dict and turn each output term back into a
field element once, with ``domain.wrap_terms``.

A ``MonomialMap`` sends each source variable to scalar * monomial in a target
ambient and applies as a ring homomorphism.  Laurent images (negative
exponents) must be explicitly allowed by the map and by the target ambient.
"""

from __future__ import annotations

from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .ambient import Ambient, AmbientError

Exponents = Tuple[int, ...]


class PolyError(ValueError):
    pass


class Poly:
    __slots__ = ("ambient", "domain", "terms")

    def __init__(self, ambient: Ambient, domain, terms: Mapping[Exponents, object]):
        clean: Dict[Exponents, object] = {}
        for e, c in terms.items():
            if not c:
                continue
            if len(e) != ambient.nvars:
                raise PolyError(f"exponent vector {e} has wrong length for {ambient.tag}")
            if not ambient.laurent and any(k < 0 for k in e):
                raise PolyError(f"negative exponent in non-Laurent ambient {ambient.tag}")
            clean[tuple(e)] = c
        self.ambient = ambient
        self.domain = domain
        self.terms = clean

    @classmethod
    def _trusted(cls, ambient: Ambient, domain, terms: Mapping[Exponents, object]) -> "Poly":
        """Internal results whose exponent tuples are known to fit the
        ambient: zero coefficients are dropped, nothing else is checked."""
        out = cls.__new__(cls)
        out.ambient, out.domain = ambient, domain
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def _from_raw(cls, ambient: Ambient, domain, acc: Mapping[Exponents, object]) -> "Poly":
        """Internal results accumulated as ``domain.raw`` values."""
        out = cls.__new__(cls)
        out.ambient, out.domain, out.terms = ambient, domain, domain.wrap_terms(acc)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient: Ambient, domain) -> "Poly":
        return cls(ambient, domain, {})

    @classmethod
    def constant(cls, ambient: Ambient, domain, c) -> "Poly":
        return cls._trusted(ambient, domain, {(0,) * ambient.nvars: domain.coerce(c)})

    @classmethod
    def one(cls, ambient: Ambient, domain) -> "Poly":
        return cls.constant(ambient, domain, 1)

    @classmethod
    def variable(cls, ambient: Ambient, domain, name: str) -> "Poly":
        e = [0] * ambient.nvars
        e[ambient.index(name)] = 1
        return cls._trusted(ambient, domain, {tuple(e): domain.one()})

    @classmethod
    def monomial(cls, ambient: Ambient, domain, exps: Sequence[int], coef=1) -> "Poly":
        return cls(ambient, domain, {tuple(exps): domain.coerce(coef)})

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if self.ambient != other.ambient:
            raise PolyError(f"ambient mismatch: {self.ambient.tag} vs {other.ambient.tag}")
        if self.domain is not other.domain and self.domain != other.domain:
            raise PolyError(f"domain mismatch: {self.domain} vs {other.domain}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ambient, self.domain, other)
        self._check_compatible(other)
        raw = self.domain.raw
        acc = {e: raw(c) for e, c in self.terms.items()}
        get = acc.get
        for e, c in other.terms.items():
            s = get(e)
            acc[e] = raw(c) if s is None else s + raw(c)
        return Poly._from_raw(self.ambient, self.domain, acc)

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.ambient, out.domain = self.ambient, self.domain
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ambient, self.domain, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            raw = self.domain.raw
            c = raw(self.domain.coerce(other))
            return Poly._from_raw(self.ambient, self.domain,
                                  {e: raw(k) * c for e, k in self.terms.items()})
        self._check_compatible(other)
        raw = self.domain.raw
        right = [(e, raw(c)) for e, c in other.terms.items()]
        acc: Dict[Exponents, object] = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            r1 = raw(c1)
            for e2, r2 in right:
                e = tuple(map(add, e1, e2))
                s = get(e)
                acc[e] = r1 * r2 if s is None else s + r1 * r2
        return Poly._from_raw(self.ambient, self.domain, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative polynomial power")
        out = Poly.one(self.ambient, self.domain)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return self.terms == Poly.constant(self.ambient, self.domain, other).terms
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash((self.ambient.tag, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> Iterable[Exponents]:
        return sorted(self.terms, reverse=True)

    def leading(self) -> Tuple[Exponents, object]:
        if not self.terms:
            raise PolyError("leading term of 0")
        e = max(self.terms)
        return e, self.terms[e]

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), self.domain.zero())

    def weighted_degree(self):
        """Max weighted degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ambient.weighted_degree(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ambient.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def multidegrees(self):
        return {self.ambient.multidegree(e) for e in self.terms}

    def derivative(self, name: str) -> "Poly":
        k = self.ambient.index(name)
        terms: Dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            d = list(e)
            n = d[k]
            d[k] = n - 1
            nc = c * self.domain.from_int(n)
            if nc:
                key = tuple(d)
                s = terms.get(key)
                terms[key] = nc if s is None else s + nc
        return Poly._trusted(self.ambient, self.domain, terms)

    def evaluate(self, values: Sequence[object]):
        """Evaluate at field elements, one per ambient variable."""
        vals = [self.domain.coerce(v) for v in values]
        acc = self.domain.zero()
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t = t * v ** k
            acc = acc + t
        return acc

    def map_coefficients(self, domain) -> "Poly":
        """Push coefficients into another domain with ``domain.coerce``."""
        return Poly(self.ambient, domain,
                    {e: domain.coerce(c) for e, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in self.monomials():
            c = self.terms[e]
            factors = [str(c)]
            for name, k in zip(self.ambient.variables, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class MonomialMap:
    """Substitution homomorphism: each source variable -> scalar * monomial."""

    __slots__ = ("source", "target", "domain", "images", "laurent", "_raw")

    def __init__(self, source: Ambient, target: Ambient, domain,
                 images: Mapping[str, Tuple[object, Sequence[int]]],
                 laurent: bool = False):
        self.source = source
        self.target = target
        self.domain = domain
        self.laurent = laurent
        imgs: Dict[int, Tuple[object, Exponents]] = {}
        for name, (coef, exps) in images.items():
            exps = tuple(exps)
            if len(exps) != target.nvars:
                raise AmbientError(f"image of {name} has wrong arity")
            if any(k < 0 for k in exps) and not laurent:
                raise PolyError(f"Laurent image of {name} on a map not flagged Laurent")
            imgs[source.index(name)] = (domain.coerce(coef), exps)
        missing = set(range(source.nvars)) - set(imgs)
        if missing:
            names = [source.variables[k] for k in sorted(missing)]
            raise AmbientError(f"map is missing images for {names}")
        self.images = imgs
        self._raw = None

    def _raw_images(self):
        """Per source variable: the raw image coefficient, its raw inverse for
        the negative powers of a Laurent source, and the nonzero exponents;
        built on the first ``apply``."""
        if self._raw is None:
            d, laurent = self.domain, self.source.laurent
            self._raw = [(d.raw(c), d.raw(d.one() / c) if laurent and c else None,
                          [(j, w) for j, w in enumerate(e) if w])
                         for c, e in (self.images[k] for k in range(self.source.nvars))]
        return self._raw

    @classmethod
    def identity(cls, ambient: Ambient, domain) -> "MonomialMap":
        images = {}
        for k, name in enumerate(ambient.variables):
            e = [0] * ambient.nvars
            e[k] = 1
            images[name] = (domain.one(), tuple(e))
        return cls(ambient, ambient, domain, images)

    def apply(self, f: Poly) -> Poly:
        """Substitute into f; exact, homomorphic."""
        if f.ambient != self.source:
            raise PolyError(f"ambient mismatch: poly in {f.ambient.tag}, map from {self.source.tag}")
        if f.domain is not self.domain:
            f = f.map_coefficients(self.domain)
        raw, images, n = self.domain.raw, self._raw_images(), self.target.nvars
        check = not self.target.laurent and (self.laurent or self.source.laurent)
        acc: Dict[Exponents, object] = {}
        get = acc.get
        for e, c in f.terms.items():
            exps = [0] * n
            r = raw(c)
            for k, power in enumerate(e):
                if power:
                    rc, ri, iexps = images[k]
                    r = r * (rc ** power if power > 0 else ri ** -power)
                    for j, w in iexps:
                        exps[j] += w * power
            if not r:
                continue
            if check and any(k < 0 for k in exps):
                raise PolyError("Laurent output in a non-Laurent target ambient")
            key = tuple(exps)
            s = get(key)
            acc[key] = r if s is None else s + r
        return Poly._from_raw(self.target, self.domain, acc)

    def compose(self, inner: "MonomialMap") -> "MonomialMap":
        """self after inner: v -> self(inner(v))."""
        if inner.target != self.source:
            raise AmbientError("composition ambient mismatch")
        images = {}
        for k in range(inner.source.nvars):
            c, e = inner.images[k]
            coef = self.domain.coerce(c)
            exps = [0] * self.target.nvars
            for j, w in enumerate(e):
                if w == 0:
                    continue
                jc, je = self.images[j]
                coef = coef * jc ** w
                for t, wt in enumerate(je):
                    exps[t] += wt * w
            images[inner.source.variables[k]] = (coef, tuple(exps))
        return MonomialMap(inner.source, self.target, self.domain, images,
                           laurent=self.laurent or inner.laurent)

    def __eq__(self, other):
        return (isinstance(other, MonomialMap) and other.source == self.source
                and other.target == self.target and other.images == self.images)

    def __hash__(self):
        return hash((self.source.tag, self.target.tag,
                     frozenset(self.images.items())))

    def __repr__(self):
        return f"MonomialMap({self.source.tag} -> {self.target.tag})"


def frozen_terms(f: Poly) -> Mapping:
    """The terms of a cached form, read-only, as they are shared."""
    return MappingProxyType(f.terms)


def weighted_sum(ambient: Ambient, domain, parts) -> Poly:
    """sum of w * part over the (term map, scalar w) pairs ``parts``, as one
    dict accumulation."""
    raw = domain.raw
    acc: Dict[Exponents, object] = {}
    get = acc.get
    for part, w in parts:
        if not w:
            continue
        rw = raw(domain.coerce(w))
        for e, c in part.items():
            s = get(e)
            acc[e] = raw(c) * rw if s is None else s + raw(c) * rw
    return Poly._from_raw(ambient, domain, acc)


def exact_divide(f: Poly, g: Poly):
    """Return f/g when g divides f exactly, else None.

    Single-divisor division in the canonical order; for a principal divisor
    the remainder vanishes iff f lies in (g), so the test is sound.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_compatible(g)
    ge, gc = g.leading()
    q = Poly.zero(f.ambient, f.domain)
    r = f
    while not r.is_zero():
        re_, rc = r.leading()
        d = tuple(a - b for a, b in zip(re_, ge))
        if any(k < 0 for k in d) and not f.ambient.laurent:
            return None
        t = Poly.monomial(f.ambient, f.domain, d, rc / gc)
        q = q + t
        r = r - t * g
        if not r.is_zero() and max(r.terms) >= re_:
            return None
    return q


def proportional(f: Poly, g: Poly) -> bool:
    """f = c*g for a nonzero scalar c (both zero counts as proportional)."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    ef, cf = f.leading()
    eg, cg = g.leading()
    if ef != eg:
        return False
    return f == g * (cf / cg)


def ring_substitute(f: Poly, target: Ambient, images: Mapping[str, Poly]) -> Poly:
    """General ring homomorphism: substitute a polynomial for each variable.

    Unlike MonomialMap this allows arbitrary polynomial images; used where a
    constraint is solved into a linear or cubic parametrization.
    """
    domain = f.domain
    imgs = []
    for name in f.ambient.variables:
        g = images[name]
        if g.ambient != target:
            raise PolyError(f"image of {name} lives in {g.ambient.tag}, not {target.tag}")
        imgs.append(g)
    parts = []
    cache: Dict[Tuple[int, int], Poly] = {}

    def power(k: int, n: int) -> Poly:
        key = (k, n)
        if key not in cache:
            cache[key] = imgs[k] ** n
        return cache[key]

    for e, c in f.terms.items():
        term = Poly.one(target, domain)
        for k, n in enumerate(e):
            if n:
                term = term * power(k, n)
        parts.append((term.terms, c))
    return weighted_sum(target, domain, parts)
