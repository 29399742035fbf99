"""Command-line front end: run checks, dump artifacts, list the catalog.

Configuration precedence: defaults < key=value config file < UPV_* environment
variables < flags.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import invariants, unproj
from .checks import ALIASES, CATALOG, RunConfig, RunContext, resolve_targets, run_checks
from .report import CheckReport
from .scalars import ScalarError

CONFIG_KEYS = ("primes", "seed", "nu", "lam", "max_degree", "output", "timings")


class UsageError(Exception):
    pass


def _parse_ints(key: str, text: str) -> tuple:
    """The integers of a comma- or space-separated value of ``key``."""
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"{key} {text!r} is not a list of integers") from None


def _parse_int(key: str, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{key} {text!r} is not an integer") from None


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            if key not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


def build_config(args) -> RunConfig:
    raw = {}
    if args.config:
        raw.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        env = os.environ.get("UPV_" + key.upper())
        if env is not None:
            raw[key] = env
    flags = {
        "primes": args.primes,
        "seed": args.seed,
        "nu": args.nu,
        "lam": getattr(args, "lam", None),
        "max_degree": args.max_degree,
        "output": args.output,
        "timings": args.timings or None,
    }
    for key, value in flags.items():
        if value is not None:
            raw[key] = value
    cfg = RunConfig()
    if "primes" in raw:
        cfg.primes = _parse_ints("primes", raw["primes"])
    if "seed" in raw:
        cfg.seed = _parse_int("seed", raw["seed"])
    if "nu" in raw and raw["nu"]:
        cfg.nu = _parse_ints("nu", raw["nu"])
    if "lam" in raw and raw["lam"]:
        cfg.lam = str(raw["lam"])
    if "max_degree" in raw:
        cfg.max_degree = _parse_int("max_degree", raw["max_degree"])
    if "output" in raw and raw["output"]:
        cfg.output = str(raw["output"])
    if "timings" in raw and raw["timings"]:
        cfg.timings = str(raw["timings"]).lower() not in ("0", "false", "no")
    cfg.validate()
    return cfg


def _claim_output(cfg: RunConfig) -> None:
    """Create the output file before any work, so that a path that cannot
    be written is a configuration error (exit 2) and nothing is printed."""
    if cfg.output:
        open(cfg.output, "w").close()


def _emit(reports: Sequence[CheckReport], cfg: RunConfig):
    lines = [r.to_json(timings=cfg.timings) for r in reports]
    for line in lines:
        print(line)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = build_config(args)
    try:
        defs = resolve_targets(args.targets)
    except KeyError as exc:
        print(f"unknown check or suite: {exc.args[0]} (try `list`)", file=sys.stderr)
        return 2
    _claim_output(cfg)
    ctx = RunContext(cfg)
    reports = run_checks(defs, ctx)
    _emit(reports, cfg)
    return 0 if all(r.passed for r in reports) else 1


def cmd_list(args) -> int:
    width = max(len(c.check_id) for c in CATALOG)
    for c in CATALOG:
        print(f"{c.check_id:<{width}}  {c.description}")
        print(f"{'':<{width}}  claim: {c.claim}")
    alias_pairs = ", ".join(f"{a} -> {b}" for a, b in sorted(ALIASES.items()))
    print(f"\naliases: {alias_pairs}")
    return 0


def cmd_dump(args) -> int:
    cfg = build_config(args)
    _claim_output(cfg)
    ctx = RunContext(cfg)
    p = cfg.primes[0]
    if args.artifact == "ideal":
        ideal = (unproj.build_t_ideal(ctx.draw_nu(p, "dump")) if args.ideal == "T"
                 else unproj.build_ideal(args.ideal))
        lines = ideal.dump_lines()
    elif args.artifact == "points":
        nu = ctx.draw_nu(p, "dump")
        lines = ctx.points(p, nu).dump_lines()
    else:
        nu = ctx.draw_nu(p, "dump")
        lines = invariants.hilbert_profile("T", p, cfg.max_degree, nu).table()
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upv",
        description="exact verification suite for the unprojection family "
                    "and its quaternion-cover model")
    parser.add_argument("--config", help="key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--primes", help="comma-separated primes, all = 1 mod 4")
        sp.add_argument("--seed", type=int, help="random seed (default 0)")
        sp.add_argument("--nu", help="fixed section parameters, 5 integers")
        sp.add_argument("--max-degree", dest="max_degree", type=int,
                        help="Hilbert degree budget (default 4)")
        # accepted and ignored, so that older command lines still parse
        sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        sp.add_argument("--output", help="also write the stream to this file")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock times (non-deterministic output)")

    runp = sub.add_parser("run", help="run checks or suites")
    runp.add_argument("targets", nargs="*", default=["all"],
                      help="check ids or suite names (default: all)")
    runp.add_argument("--lambda", dest="lam", help="pencil parameter, a rational")
    common(runp)
    runp.set_defaults(fn=cmd_run)

    listp = sub.add_parser("list", help="list check ids with descriptions and claims")
    listp.set_defaults(fn=cmd_list)

    dumpp = sub.add_parser("dump", help="dump an artifact in its external format")
    dumpp.add_argument("artifact", choices=("ideal", "points", "hilbert"))
    dumpp.add_argument("--ideal", default="T", choices=("X", "Y", "V", "T"),
                       help="which ideal to dump (default T)")
    common(dumpp)
    dumpp.set_defaults(fn=cmd_dump)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ScalarError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
