#!/usr/bin/env python3
"""Peak memory after each check of one `upv run` process.

    python3 scripts/rss_by_check.py [upv run arguments ...]

Runs the selected checks (default: all) in this one process, in the order
`upv run` runs them, and prints one line per check: its id, its status and
the process's peak resident set size (`ru_maxrss`, MB) after it.  The first
line that shows the last value is the check in which the run peaks.  The
arguments are those of `upv run` (targets, `--primes`, `--seed`, `--nu`,
...); the stream itself is not printed.
"""

import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from upv.checks import RunContext, resolve_targets, run_checks  # noqa: E402
from upv.cli import build_config, make_parser  # noqa: E402


def main() -> int:
    args = make_parser().parse_args(["run", *sys.argv[1:]])
    ctx = RunContext(build_config(args))
    for check in resolve_targets(args.targets):
        report, = run_checks([check], ctx)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{check.check_id} {report.status} {rss_mb:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
