#!/usr/bin/env python3
"""Digests of `upv run` streams at the seeds a benchmark run samples.

    python3 scripts/stream_digests.py [--base B] [--samples N] [targets ...]

Runs `python -m upv run TARGETS --seed S` in a fresh process for each seed
S = B + i * 1,000,000 (i < N): the seeds that `perfbench/run.py --seed B`
gives its samples.  Prints one line per seed with the sha256 of the stream
and the number of records whose status is not `pass`.  Other options (such
as `--max-degree 5`) are passed on to `upv run`.  Exits 1 if any record is
not `pass` or any run exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
SEED_STRIDE = 1_000_000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=int, default=0, help="first seed (default 0)")
    ap.add_argument("--samples", type=int, default=10, help="number of seeds (default 10)")
    ap.add_argument("targets", nargs="*", default=["all"],
                    help="check ids or suite names (default: all)")
    args, upv_options = ap.parse_known_args()
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = False
    for i in range(args.samples):
        seed = args.base + i * SEED_STRIDE
        res = subprocess.run([sys.executable, "-m", "upv", "run", *args.targets,
                              *upv_options, "--seed", str(seed)],
                             capture_output=True, env=env)
        not_pass = sum(json.loads(line)["status"] != "pass"
                       for line in res.stdout.decode().splitlines())
        print(f"seed {seed}: sha256 {hashlib.sha256(res.stdout).hexdigest()} "
              f"not_pass {not_pass} exit {res.returncode}", flush=True)
        if res.returncode or not_pass:
            failed = True
            sys.stderr.write(res.stderr.decode())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
