#!/usr/bin/env python3
"""Warm timings of the Hilbert layer: V's quotient and the ranks of T.

    python3 scripts/hilbert_times.py [--max-degree 5] [--primes 13,17,29] [--repeats N]

Builds V's binomial quotient (`invariants.v_quotient`) to the given degree
once to fill the monomial caches, then times N more builds; it holds at
every odd prime, so one build serves them all.  For each prime, draws one
generic nu (as `point_kernel_times.py` does, seeded by the prime, so two
checkouts time the same surface) and times N calls of `t_profiles` on it
against that quotient.  Prints the median and quartiles (q1, q3) in ms,
and h_T of the draw.
"""

import argparse
import sys

from point_kernel_times import draw_nu, warm_ms  # puts src on sys.path

from upv.invariants import t_profiles, v_quotient


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-degree", type=int, default=5)
    ap.add_argument("--primes", default="13,17,29")
    ap.add_argument("--repeats", type=int, default=21, help="warm calls per kernel")
    args = ap.parse_args()
    d = args.max_degree
    v = v_quotient(d)
    print(f"v_quotient to degree {d}: {warm_ms(lambda: v_quotient(d), args.repeats)}, "
          f"h_V {[h for _, h in v.profile()]}", flush=True)
    for p in (int(x) for x in args.primes.split(",")):
        nu = draw_nu(p)
        values = t_profiles(p, [nu], d, v)[0]
        times = warm_ms(lambda: t_profiles(p, [nu], d, v), args.repeats)
        print(f"p {p}: nu {tuple(int(x) for x in nu.nu)}, t_profiles {times}, "
              f"h_T {[h for _, h in values]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
