"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup <upv run arguments>
    python3 perfbench/child.py trace <workload> <trace file> <upv run arguments>

`setup` imports `upv` and builds the validated `RunContext` for the
arguments, which every `upv run` pays before its first check, and prints one
JSON line naming the `upv` package it loaded.  `trace` does the same, wraps
the layer entry points (see `tracer.py`), runs each selected check on its own
under a `checks.<id>` span, prints the report stream exactly as `upv run`
does, and writes the recorded spans to the trace file.  Both expect `src` on
`PYTHONPATH`.
"""

from __future__ import annotations

import json
import sys
from typing import List


def _prepare(argv: List[str]):
    from upv import cli
    from upv.checks import RunContext, resolve_targets

    args = cli.make_parser().parse_args(["run", *argv])
    cfg = cli.build_config(args)
    return cfg, resolve_targets(args.targets), RunContext(cfg)


def setup(argv: List[str]) -> int:
    import numpy
    import upv

    _, defs, _ = _prepare(argv)
    print(json.dumps({"upv": upv.__file__, "numpy": numpy.__version__,
                      "checks": len(defs)}))
    return 0


def trace(workload: str, trace_path: str, argv: List[str]) -> int:
    from upv import cli
    from upv.checks import run_checks

    from tracer import Tracer

    tracer = Tracer(workload)
    tracer.install()
    reports = []
    try:
        with tracer.span("run"):
            cfg, defs, ctx = _prepare(argv)
            for d in defs:
                with tracer.span("checks." + d.check_id):
                    reports.extend(run_checks([d], ctx))
            cli._emit(reports, cfg)
    finally:
        tracer.restore()
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return 0 if all(r.passed for r in reports) else 1


def main(argv: List[str]) -> int:
    if argv[:1] == ["setup"]:
        return setup(argv[1:])
    if argv[:1] == ["trace"] and len(argv) >= 3:
        return trace(argv[1], argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
