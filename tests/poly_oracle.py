"""Per-term oracles of ``Poly``'s accumulation loops, on field elements.

These are the loops that ``Poly.__add__``, the poly x poly case of
``Poly.__mul__``, ``weighted_sum`` and ``MonomialMap.apply`` ran before they
accumulated ``domain.raw`` values: every step is one operation of the
field's elements, and a sum that reaches zero is dropped at once.  Each
returns a term map; the tests compare it with the kernel's ``terms``.
"""

from operator import add


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
