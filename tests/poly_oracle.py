"""Per-term oracles of ``Poly``'s accumulation loops, on field elements.

These are the loops that ``Poly.__add__``, ``Poly.__sub__``, the poly x
poly case of ``Poly.__mul__``, ``weighted_sum``, ``MonomialMap.apply`` and
``Poly.evaluate`` ran before they accumulated ``domain.raw`` values: every
step is one operation of the field's elements, and a sum that reaches zero
is dropped at once.  Each returns a term map (``evaluate_value`` a field
element); the tests compare it with the kernel's ``terms``.

``word_map`` is a group word's signed permutation as a ``MonomialMap``
(``table_map`` of its table), the oracle of ``grouprep.act``.
"""

from operator import add

from upv import grouprep
from upv.ambient import AMBIENT_XY
from upv.poly import MonomialMap


def _accumulate(terms, e, c):
    s = terms.get(e)
    s = c if s is None else s + c
    if s:
        terms[e] = s
    else:
        terms.pop(e, None)


def add_terms(f, g):
    terms = dict(f.terms)
    for e, c in g.terms.items():
        _accumulate(terms, e, c)
    return terms


def sub_terms(f, g):
    """f - g as f plus the negation of each term of g."""
    terms = dict(f.terms)
    for e, c in g.terms.items():
        _accumulate(terms, e, -c)
    return terms


def evaluate_value(f, values):
    """f at field elements, one product and power of elements per term; a
    negative power is a power of the element's inverse."""
    vals = [f.domain.coerce(v) for v in values]
    acc = f.domain.zero()
    for e, c in f.terms.items():
        t = c
        for v, k in zip(vals, e):
            if k:
                t = t * v ** k
        acc = acc + t
    return acc


def mul_terms(f, g):
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            _accumulate(terms, tuple(map(add, e1, e2)), c1 * c2)
    return terms


def weighted_sum_terms(parts):
    terms = {}
    for part, w in parts:
        if w:
            for e, c in part.items():
                _accumulate(terms, e, c * w)
    return terms


def apply_terms(m, f):
    terms = {}
    for e, c in f.terms.items():
        exps = [0] * m.target.nvars
        coef = m.domain.coerce(c)
        for k, power in enumerate(e):
            if power:
                icoef, iexps = m.images[k]
                coef = coef * icoef ** power
                for j, w in enumerate(iexps):
                    exps[j] += w * power
        if coef:
            _accumulate(terms, tuple(exps), coef)
    return terms


def table_map(table, domain):
    """The substitution v_k -> sign[k] * v_target[k] of a (target, sign)
    table on the 16 slots of ``AMBIENT_XY``."""
    images = {}
    for name, j, sign in zip(AMBIENT_XY.variables, *table):
        e = [0] * AMBIENT_XY.nvars
        e[j] = 1
        images[name] = (domain.from_int(sign), tuple(e))
    return MonomialMap(AMBIENT_XY, AMBIENT_XY, domain, images)


def word_map(word, domain):
    """The substitution of the word's table, ``grouprep.signed_permutation``."""
    return table_map(grouprep.signed_permutation(word), domain)
