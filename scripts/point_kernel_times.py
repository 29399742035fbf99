#!/usr/bin/env python3
"""Warm timings of the point kernel: the enumerator and the certificate.

    python3 scripts/point_kernel_times.py [--primes 13,17,29,101] [--repeats N]

For each prime, draws one generic nu (seeded by the prime, so two checkouts
time the same surface), runs `enumerate_surface` and
`certify_free_and_smooth` once to fill the per-prime caches, then times N
more calls of each in this process.  Prints one line per prime: the nu, the
point count, and the median and quartiles (q1, q3) of each kernel in ms.
Over several primes this is the kernels' scaling curve in p.
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from upv.cover import (build_lifts_and_certify, certify_free_and_smooth,
                       enumerate_surface)  # noqa: E402
from upv.scalars import GF  # noqa: E402
from upv.unproj import FamilyParams  # noqa: E402


def draw_nu(p: int) -> FamilyParams:
    rng = random.Random(f"kernel:{p}")
    while True:
        draw = tuple(rng.randrange(p) for _ in range(5))
        if draw[4] and not FamilyParams(GF(p), draw).degenerate()[0]:
            return FamilyParams(GF(p), draw)


def warm_ms(call, repeats: int) -> str:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    if repeats < 2:
        return f"{times[0]:.2f} ms"
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{median:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--primes", default="13,17,29,101")
    ap.add_argument("--repeats", type=int, default=21, help="warm calls per kernel")
    args = ap.parse_args()
    group, _ = build_lifts_and_certify()
    for p in (int(x) for x in args.primes.split(",")):
        nu = draw_nu(p)
        points = enumerate_surface(p, nu)
        enum = warm_ms(lambda: enumerate_surface(p, nu), args.repeats)
        cert = warm_ms(lambda: certify_free_and_smooth(points, group), args.repeats)
        print(f"p {p}: nu {tuple(int(v) for v in nu.nu)}, {points.count} points, "
              f"enumerate_surface {enum}, certify_free_and_smooth {cert}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
