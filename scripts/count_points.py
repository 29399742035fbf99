#!/usr/bin/env python3
"""Point-count experiment: enumerate the covering surface over several primes.

For each prime and seeded parameter draw, reports the number of F_p points of
the surface upstairs, whether the draw was free and smooth, and, for every
prime whose grid the grid budget admits, the image count downstairs
((p+1)^4 - 16)/2 + 16 for the ambient check.
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from upv.cover import (build_lifts_and_certify, certify_free_and_smooth,
                       check_grid_budget, downstairs_image_set,
                       enumerate_surface)  # noqa: E402
from upv.scalars import GF  # noqa: E402
from upv.unproj import FamilyParams  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="5,13,17,29")
    ap.add_argument("--draws", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    group, rep = build_lifts_and_certify()
    print(f"group certification: {rep.status}")
    for p in (int(x) for x in args.primes.split(",")):
        rng = random.Random(f"{args.seed}:{p}")
        try:
            check_grid_budget(p)
        except ValueError as exc:
            note = f", no image count ({exc})"
        else:
            note = f", image downstairs {len(downstairs_image_set(p))}"
        print(f"\nGF({p}){note}")
        for _ in range(args.draws):
            draw = tuple(rng.randrange(p) for _ in range(5))
            nu = FamilyParams(GF(p), draw) if any(draw) else None
            degenerate, why = nu.degenerate() if nu else (True, "nu = 0")
            if degenerate or not draw[4]:
                print(f"  nu={draw}: rejected ({why or 'nu4 = 0'})")
                continue
            pts = enumerate_surface(p, nu)
            verdict = certify_free_and_smooth(pts, group)
            print(f"  nu={tuple(int(v) for v in nu.nu)}: {pts.count} points, "
                  f"{'free+smooth' if verdict.passed else 'singular or fixed point'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
