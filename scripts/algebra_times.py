#!/usr/bin/env python3
"""Warm timings of exact polynomial arithmetic and of V's ideal, per field.

    python3 scripts/algebra_times.py [--primes 13,2147483029] [--repeats N]

For QQ, QI and GF(p) for each prime given, prints one line per kernel with
the median and quartiles (q1, q3) of N calls, in ms, after one call to warm
up:

* `build_v_ideal cold`: X, Y and V built with their per-field caches
  cleared before each call (a checkout without the caches builds every
  call anyway);
* `build_v_ideal cached`: the same call with the caches filled;
* `mul`: u^2 * u^2 for u = sum (k+1) * x_k over the 8 weight-1 variables
  (36 x 36 terms, 330 out);
* `add`: u^3 + (u + x00)^3 (120 terms each);
* `weighted_sum`: 3 * u^3 - 2 * (u + x00)^3 as two weighted term maps;
* `apply`: the monomial map x_{i,a} -> (a+1) * x_{i,1-a}, y_t -> y_t on u^4.

The inputs are fixed, so two checkouts time the same work.
"""

import argparse
import sys

from point_kernel_times import warm_ms  # puts src on sys.path

from upv import unproj
from upv.ambient import AMBIENT_XY
from upv.poly import MonomialMap, Poly, weighted_sum
from upv.scalars import GF, QI, QQ

BUILDS = (unproj.build_x_ideal, unproj.build_unprojection_ideal, unproj.build_v_ideal)


def cold_v_ideal(domain):
    for build in BUILDS:
        getattr(build, "cache_clear", lambda: None)()
    return unproj.build_v_ideal(domain)


def kernels(domain):
    """(name, call) for each timed kernel over ``domain``, on fixed inputs."""
    xs = [Poly.variable(AMBIENT_XY, domain, n) for n in AMBIENT_XY.variables[:8]]
    u = Poly.zero(AMBIENT_XY, domain)
    for k, x in enumerate(xs):
        u = u + x * (k + 1)
    f, g, h = u ** 2, u ** 3, (u + xs[0]) ** 3
    quartic = f * f
    images = {}
    for name in AMBIENT_XY.variables:
        e = [0] * AMBIENT_XY.nvars
        if name.startswith("x"):
            i, a = int(name[1]), int(name[2])
            e[AMBIENT_XY.index(f"x{i}{1 - a}")] = 1
            images[name] = (a + 1, e)
        else:
            e[AMBIENT_XY.index(name)] = 1
            images[name] = (1, e)
    swap = MonomialMap(AMBIENT_XY, AMBIENT_XY, domain, images)
    parts = [(g.terms, domain.from_int(3)), (h.terms, domain.from_int(-2))]
    return [("build_v_ideal cold", lambda: cold_v_ideal(domain)),
            ("build_v_ideal cached", lambda: unproj.build_v_ideal(domain)),
            ("mul", lambda: f * f),
            ("add", lambda: g + h),
            ("weighted_sum", lambda: weighted_sum(AMBIENT_XY, domain, parts)),
            ("apply", lambda: swap.apply(quartic))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--primes", default="13,2147483029")
    ap.add_argument("--repeats", type=int, default=21, help="warm calls per kernel")
    args = ap.parse_args()
    domains = [QQ, QI] + [GF(int(p)) for p in args.primes.split(",")]
    for domain in domains:
        for name, call in kernels(domain):
            print(f"{domain} {name} {warm_ms(call, args.repeats)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
