"""Ambient coordinate rings and the index combinatorics shared by all modules.

Two fixed ambients carry the construction:

* ``AMBIENT_XY``: the 16 weighted variables of P(1^8, 2^8), in the fixed
  order x00, x01, ..., x31, y0000, y0011, ..., y1111 (x's weight 1, y's
  weight 2).  The y-variables are indexed by EVEN_TUPLES, the 4-tuples over
  {0,1} with even coordinate sum, in lexicographic order.
* ``AMBIENT_T4``: the 8 bihomogeneous coordinates t00..t31 of (P^1)^4; the
  degree of t_{ia} is the i-th unit vector of N^4.
  ``AMBIENT_T4L`` holds the same coordinates as Laurent variables, the
  target of the chart pullbacks of ``unproj.chart_sigma_map``.

Small auxiliary rings (s-coordinates of the cubic surface, plane coordinates
u0,u1,u2, a formal pencil parameter, Laurent chart coordinates) are built with
``Ambient.graded``.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence, Tuple

IndexTuple = Tuple[int, int, int, int]

EVEN_TUPLES: Tuple[IndexTuple, ...] = tuple(
    t for t in product((0, 1), repeat=4) if sum(t) % 2 == 0)


def comp(a: int) -> int:
    """Complement convention on {0,1}: 0' = 1 and 1' = 0."""
    return 1 - a


def comp_tuple(t: Sequence[int]) -> tuple:
    return tuple(1 - a for a in t)


class AmbientError(ValueError):
    pass


class Ambient:
    """A fixed, totally ordered list of variables with integer weights.

    ``laurent`` ambients admit negative exponents.  For the (P^1)^4 ambient
    the N^4 multidegree of a monomial is exposed via ``multidegree``.
    """

    __slots__ = ("tag", "variables", "weights", "laurent", "_index", "factor_of")

    def __init__(self, tag: str, variables: Sequence[str],
                 weights: Sequence[int], laurent: bool = False,
                 factor_of: Sequence[int] | None = None):
        self.tag = tag
        self.variables = tuple(variables)
        self.weights = tuple(weights)
        self.laurent = laurent
        self._index = {v: k for k, v in enumerate(self.variables)}
        self.factor_of = tuple(factor_of) if factor_of is not None else None
        if len(self.weights) != len(self.variables):
            raise AmbientError("weights/variables length mismatch")

    @classmethod
    def graded(cls, tag: str, variables: Sequence[str],
               weights: Sequence[int] | None = None,
               laurent: bool = False) -> "Ambient":
        if weights is None:
            weights = [1] * len(variables)
        return cls(tag, variables, weights, laurent=laurent)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AmbientError(f"no variable {name!r} in ambient {self.tag}") from None

    def weighted_degree(self, exps: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def multidegree(self, exps: Sequence[int]) -> tuple:
        """N^4 multidegree of a monomial; only meaningful on (P^1)^4."""
        if self.factor_of is None:
            raise AmbientError(f"ambient {self.tag} carries no multigrading")
        deg = [0, 0, 0, 0]
        for e, f in zip(exps, self.factor_of):
            deg[f] += e
        return tuple(deg)

    def __eq__(self, other):
        return isinstance(other, Ambient) and other.tag == self.tag

    def __hash__(self):
        return hash(("Ambient", self.tag))

    def __repr__(self):
        return f"Ambient({self.tag})"


def xname(i: int, a: int) -> str:
    return f"x{i}{a}"


def yname(t: Sequence[int]) -> str:
    return "y" + "".join(str(a) for a in t)


def tname(i: int, a: int) -> str:
    return f"t{i}{a}"


X_VARS = tuple(xname(i, a) for i in range(4) for a in (0, 1))
Y_VARS = tuple(yname(t) for t in EVEN_TUPLES)
T_VARS = tuple(tname(i, a) for i in range(4) for a in (0, 1))

AMBIENT_XY = Ambient("XY", X_VARS + Y_VARS, (1,) * 8 + (2,) * 8)
AMBIENT_T4 = Ambient("T4", T_VARS, (1,) * 8,
                     factor_of=tuple(i for i in range(4) for _ in (0, 1)))
AMBIENT_T4L = Ambient("T4L", T_VARS, (1,) * 8, laurent=True,
                      factor_of=tuple(i for i in range(4) for _ in (0, 1)))

# index helpers into AMBIENT_XY exponent vectors
X_INDEX = {(i, a): AMBIENT_XY.index(xname(i, a)) for i in range(4) for a in (0, 1)}
Y_INDEX = {t: AMBIENT_XY.index(yname(t)) for t in EVEN_TUPLES}
T_INDEX = {(i, a): AMBIENT_T4.index(tname(i, a)) for i in range(4) for a in (0, 1)}

# auxiliary rings for the bicanonical geometry
AMBIENT_S = Ambient.graded("S", ("s0", "s1", "s2", "s3"))
AMBIENT_LU = Ambient.graded("LU", ("lam", "u0", "u1", "u2"))
AMBIENT_X3L = Ambient.graded("X3L", ("x1", "x2", "x3"), laurent=True)
AMBIENT_P7 = Ambient.graded("P7", X_VARS)
