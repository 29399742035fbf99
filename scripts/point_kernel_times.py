#!/usr/bin/env python3
"""Cold and warm timings of the point kernel: the enumerator and the certificate.

    python3 scripts/point_kernel_times.py [--primes 13,17,29,101] [--repeats N]

First prints one line for `build_lifts_and_certify`, which builds the lifted
group the certificates read: its cold first call and the median and
quartiles of N more.  Then, for each prime, draws one generic nu (seeded by the prime, so two checkouts
time the same surface) and times `enumerate_surface` and
`certify_free_and_smooth` on it in this process: the first call of each,
which fills the per-prime caches and is what `upv run all` pays once per
prime, then N more calls.  Prints one line per prime: the nu, the point
count, and for each kernel the cold first call and the median and quartiles
(q1, q3) of the warm calls, in ms; after a semicolon, how many rows of the
reduced group the certificate scans: the involutions over GF(p), tested for
fixed points, and the generators, tested for orbit closure (a row can be
both).  Over several primes this is the kernels' scaling curve in p.
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


def cold_ms(call):
    """The result of one call, and its time."""
    start = time.perf_counter()
    result = call()
    return result, f"{(time.perf_counter() - start) * 1e3:.2f} ms"


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
    (group, _), lifts_cold = cold_ms(build_lifts_and_certify)
    print(f"build_lifts_and_certify cold {lifts_cold}, "
          f"warm {warm_ms(build_lifts_and_certify, args.repeats)}", flush=True)
    for p in (int(x) for x in args.primes.split(",")):
        nu = draw_nu(p)
        enumerate_call = lambda: enumerate_surface(p, nu)  # noqa: E731
        points, enum_cold = cold_ms(enumerate_call)
        certify_call = lambda: certify_free_and_smooth(points, group)  # noqa: E731
        _, cert_cold = cold_ms(certify_call)
        red = group.mod_p(p)
        print(f"p {p}: nu {tuple(int(v) for v in nu.nu)}, {points.count} points, "
              f"enumerate_surface cold {enum_cold}, warm {warm_ms(enumerate_call, args.repeats)}, "
              f"certify_free_and_smooth cold {cert_cold}, "
              f"warm {warm_ms(certify_call, args.repeats)}; "
              f"scanned rows {int((red.involution | red.generator).sum())} of {len(red.names)} "
              f"({int(red.involution.sum())} involutions, {int(red.generator.sum())} generators)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
