"""Benchmark of the `upv run` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it puts `src` on `PYTHONPATH`
for every child, so nothing needs to be installed.

With `--trace 0` it first times the set-up (import `upv`, build the
validated `RunContext`) in several fresh interpreters and reports the
median.  Then it runs `upv run ...` in fresh child processes, one after the
other (closed loop, one client, `--threads 1`), for about `--seconds`
seconds.  A fresh child per sample keeps every cache of the program (module
`lru_cache`s, the `GF` field cache, the `RunContext` caches) cold, as it is
for each user invocation.  Each sample gets its own `--seed` (see
`SEED_STRIDE`), because the work of one invocation depends on its seed
through redraws and point counts; `wall_ref_s` is the mean over the run's
seeds, `peak_rss_mb` their median.

Times are taken at a reference CPU speed.  On a shared host the speed of a
vCPU changes by up to half, and for minutes at a time, as other tenants
load the physical core under it, so plain wall times of the same run spread
by a third.  The benchmark therefore pins itself and its children to one
CPU, stops each child every PROBE_INTERVAL_S to time a fixed probe on that
CPU, and scales each slice of the child's running time by the probe's
speed (see `run_child`).  `wall_ref_s` and `setup_s` are such times; the
plain wall time, certified points per second and the fail ratio are
printed too, but are not result metrics: the wall time is too noisy, the
points rate is zero on `invariants_deg5`, and the fail ratio is zero
whenever the program is correct.

With `--trace 1` it runs one untraced child and one traced child (see
`child.py` and `tracer.py`) at `--seed` and reports the per-layer metrics.

Every child's report stream goes through the oracle gate: exit code 0 and
every record `pass`; at seed 0 the sha256 of the stream pinned below; and
in the traced run, the traced stream identical to the untraced one, which
also shows that two processes print the same stream for the same seed.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the command exits 1 if any child
missed the gate and 2 if the checkout has no `src/upv`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 9
# Sample i of a run passes `--seed <seed + i * SEED_STRIDE>` to `upv run`: the
# first sample runs the benchmark's own seed, and no two runs whose seeds
# differ by less than the stride share an input.
SEED_STRIDE = 1_000_000
CHILD_TIMEOUT_S = 80.0
# Speed probes (see `run_child`): every PROBE_INTERVAL_S of a child's run the
# child is stopped and `probe` times two fixed slices of work on its CPU, one
# bound by the interpreter (like the checks' polynomial and point loops) and
# one by memory (like the rank kernel's array passes).  REF_INTERP_S and
# REF_ARRAY_S are their times on an uncontended core of the reference
# machine (a 2-vCPU Intel Xeon VM); they only set the scale of the reference
# times, which read as seconds on that core.  ARRAY_SHARE weighs the second
# slice in the slowdown.
PROBE_INTERVAL_S = 0.1
PROBE_ROUNDS = 5_000
PROBE_ARRAY = 1 << 19
REF_INTERP_S = 0.0023
REF_ARRAY_S = 0.0027
ARRAY_SHARE = 0.3

@dataclass(frozen=True)
class Workload:
    name: str
    args: Tuple[str, ...]
    why: str
    seed0_sha256: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("catalog_default", ("all",),
             "upv run all at the default primes 13, 17, 29: what users run; many "
             "small certifications plus every other module",
             "461ae391dbfef5b7b71302a88a322ef804a00c7d3b8c61e14d8ba56b01ea431d"),
    Workload("invariants_deg5", ("invariants", "--max-degree", "5"),
             "upv run invariants --max-degree 5: Hilbert matrix build and rank_mod_p; "
             "never touches cover",
             "13e893c13462a53e4f282035c289200e00fce1fb5d4e434a387dba6b94e3c795"),
)}

# name -> unit; every one is lower-is-better and printed with --trace 0.
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHECK_SUITES = ("unproj", "grouprep", "cover", "invariants", "bicanon", "burniat")
TIMED_CHECKS = ("cover.free_action", "cover.enumeration", "grouprep.delta_set",
                "bicanon.branch_loci", "cover.branch_structure",
                "cover.group_structure", "invariants.hilbert_t")
# (span name, what to report); the metric is named `<span>.<what>`.
LAYER_FIELDS = (
    ("cover.certify_free_and_smooth", ("calls", "self_s", "points", "accept_ratio")),
    ("cover.ProjAut.act_point", ("calls",)),
    ("poly.Poly.evaluate", ("calls", "self_s")),
    ("cover.enumerate_surface", ("calls", "self_s", "points")),
    ("cover.build_lifts_and_certify", ("calls", "self_s")),
    ("cover.brute_force_count", ("self_s",)),
    ("cover.verify_branch_structure", ("self_s",)),
    ("grouprep.delta_set_report", ("self_s",)),
    ("bicanon.branch_locus_check", ("self_s",)),
    ("invariants.hilbert_function", ("calls", "self_s")),
    ("linalg.rank_mod_p", ("calls", "self_s", "cells")),
    ("unproj.build_t_ideal", ("calls", "self_s")),
    ("unproj.reduce_by_rewriting", ("self_s",)),
    ("poly.MonomialMap.apply", ("calls", "self_s")),
    ("linalg.det_poly", ("self_s",)),
    ("bicanon.derive_s3_cubic", ("self_s",)),
    ("grouprep.j_generator_stability_report", ("self_s",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "points": "count",
               "accept_ratio": "ratio", "cells": "count"}
# Artifacts cached on the RunContext, attributed to the check that built them.
SHARED_ARTIFACTS = ("cover.build_lifts_and_certify", "cover.enumerate_surface")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"checks.{s}.s": "s" for s in CHECK_SUITES}
    units.update({f"checks.{c}.s": "s" for c in TIMED_CHECKS})
    units["checks.coverage"] = "ratio"
    for span, fields in LAYER_FIELDS:
        units.update({f"{span}.{f}": FIELD_UNITS[f] for f in fields})
    units["trace.overhead_s"] = "s"
    return units


# -- oracle gate ------------------------------------------------------------------

def gate(stream: bytes, returncode: int, expected_sha256: Optional[str],
         reference: Optional[bytes]) -> Tuple[int, int, List[str]]:
    """Check one child's report stream.

    Returns (records attempted, records failed, problems).  A record that is
    not `pass` fails; a run-level miss (exit code, pinned hash, a stream
    differing from the reference stream of the same run) fails one more.
    """
    problems: List[str] = []
    lines = stream.decode("utf-8", "replace").splitlines()
    not_pass = 0
    for line in lines:
        try:
            status = json.loads(line).get("status")
        except (ValueError, AttributeError):
            status = None
        if status != "pass":
            not_pass += 1
            problems.append(f"record not pass: {line[:160]}")
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if not lines:
        problems.append("empty report stream")
    sha = hashlib.sha256(stream).hexdigest()
    if expected_sha256 is not None and sha != expected_sha256:
        problems.append(f"stream sha256 {sha} != pinned {expected_sha256}")
    if reference is not None and stream != reference:
        problems.append("stream differs from the first stream of this run")
    run_miss = 1 if len(problems) > not_pass else 0
    return max(len(lines), 1), not_pass + run_miss, problems


# -- children ---------------------------------------------------------------------

@dataclass
class ChildResult:
    wall_s: float
    ref_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env() -> Dict[str, str]:
    """The caller's environment without UPV_* settings, with `src` first on
    the import path, so each child runs the checkout's own sources at the
    workload's configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPV_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_work(rounds: int = PROBE_ROUNDS) -> int:
    """Interpreter-bound slice: integer arithmetic, tuples and a dict of a
    few thousand keys."""
    table: Dict[Tuple[int, int], int] = {}
    acc = 0
    for i in range(rounds):
        acc = (acc * 1103515245 + i) % 2147483647
        key = (acc & 1023, i & 3)
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


_PROBE_ARRAYS: List[np.ndarray] = []


def probe_array() -> int:
    """Memory-bound slice: a multiply and a reduce pass over 4 MB of int64,
    into a buffer allocated once."""
    if not _PROBE_ARRAYS:
        _PROBE_ARRAYS.extend(np.arange(PROBE_ARRAY, dtype=np.int64) for _ in range(2))
    src, buf = _PROBE_ARRAYS
    np.multiply(src, 7919, out=buf)
    np.remainder(buf, 65521, out=buf)
    return int(buf[PROBE_ARRAY // 2])


def probe() -> float:
    """Slowdown of this CPU now against the reference core (1.0 = as fast)."""
    t0 = time.perf_counter()
    probe_work()
    t1 = time.perf_counter()
    probe_array()
    t2 = time.perf_counter()
    return ((1 - ARRAY_SHARE) * (t1 - t0) / REF_INTERP_S
            + ARRAY_SHARE * (t2 - t1) / REF_ARRAY_S)


def ref_seconds(segments: Sequence[float], slowdowns: Sequence[float]) -> float:
    """Running time at the reference core speed.  Segment i ran between
    probes i and i + 1; its slowdown is taken as their mean."""
    return sum(d * 2 / (slowdowns[i] + slowdowns[i + 1])
               for i, d in enumerate(segments))


def run_child(argv: Sequence[str], tag: str, probed: bool = True) -> ChildResult:
    """Run one child to completion, with its own peak RSS from `wait4`.

    The host gives each vCPU a speed that changes by up to half within
    seconds, as other tenants load the physical core under it.  So a probed
    child is stopped every PROBE_INTERVAL_S while `probe` times the CPU it
    shares with this process (see `pin_cpu`); `ref_s` is its running time
    scaled by the probes to the reference speed, `wall_s` its running time
    without the stops.  An unprobed child just runs, and both times are its
    wall time from launch to exit."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    segments: List[float] = []
    probes = [probe()] if probed else []
    interval = PROBE_INTERVAL_S if probed else CHILD_TIMEOUT_S
    status = usage = None
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        ts = t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    budget = CHILD_TIMEOUT_S - (time.perf_counter() - t0)
                    ready, _, _ = select.select([pidfd], [], [], max(min(interval, budget), 0))
                    segments.append(time.perf_counter() - ts)
                    if ready or budget <= 0:
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, st, ru = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(st):   # it ended before the stop arrived
                        status, usage = st, ru
                        break
                    probes.append(probe())
                    ts = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
        finally:
            if status is None:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid == 0:   # timed out or interrupted: SIGKILL ends it even if stopped
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    if not probed:
        return ChildResult(wall, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                           stdout, stderr)
    probes.append(probe())
    return ChildResult(sum(segments), ref_seconds(segments, probes),
                       usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def pin_cpu() -> int:
    """Run this process, and so every child, on one CPU, which the probes
    then measure; warm the probes up."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for _ in range(3):
        probe()
    return cpu


def upv_argv(workload: Workload, seed: int) -> List[str]:
    return [*workload.args, "--threads", "1", "--seed", str(seed)]


# -- measurement ------------------------------------------------------------------

def summary(values: Sequence[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"mean": statistics.fmean(values), "median": med, "q1": q1, "q3": q3,
            "n": len(values)}


def certified_points(stream: bytes) -> int:
    """Sum of the accepted draws' `points` in the cover.free_action record."""
    total = 0
    for line in stream.decode().splitlines():
        rec = json.loads(line)
        if rec.get("check") == "cover.free_action":
            for per_prime in rec["witness"]["per_prime"].values():
                total += sum(d["points"] for d in per_prime["accepted"])
    return total


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, verdict: Tuple[int, int, List[str]], what: str) -> bool:
        attempted, failed, problems = verdict
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def measure_setup(workload: Workload, seed: int, tally: Tally) -> List[float]:
    times = []
    for k in range(SETUP_REPEATS):
        res = run_child([sys.executable, str(HERE / "child.py"), "setup",
                         *upv_argv(workload, seed)], "setup")
        problems = []
        if res.returncode != 0:
            problems.append(f"exit code {res.returncode}: "
                            f"{res.stderr.decode(errors='replace')[-300:]}")
        else:
            info = json.loads(res.stdout.decode().splitlines()[-1])
            if ROOT / "src" not in Path(info["upv"]).parents:
                problems.append(f"loaded upv from {info['upv']}, not from this checkout")
            elif k == 0:
                print(f"  upv from {info['upv']}, numpy {info['numpy']}")
        tally.add((1, 1 if problems else 0, problems), f"setup {k}")
        if problems:
            break
        times.append(res.ref_s)
    return times


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       tally: Tally) -> Dict[str, float]:
    setup = measure_setup(workload, seed, tally)
    if tally.failed:
        return {}
    refs, walls, rss, rates, lasted = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        upv_seed = seed + len(walls) * SEED_STRIDE
        started = time.perf_counter()
        res = run_child([sys.executable, "-m", "upv", "run", *upv_argv(workload, upv_seed)],
                        workload.name)
        expected = workload.seed0_sha256 if upv_seed == 0 else None
        if not tally.add(gate(res.stdout, res.returncode, expected, None),
                         f"seed {upv_seed}"):
            sys.stderr.write(res.stderr.decode(errors="replace")[-2000:])
            return {}
        lasted.append(time.perf_counter() - started)
        refs.append(res.ref_s)
        walls.append(res.wall_s)
        rss.append(res.rss_mb)
        points = certified_points(res.stdout)
        if points:
            rates.append(points / res.wall_s)
        print(f"  seed {upv_seed}: wall {res.wall_s:.3f} s, at reference speed "
              f"{res.ref_s:.3f} s, peak rss {res.rss_mb:.1f} MB, "
              f"{points} certified points, sha256 "
              f"{hashlib.sha256(res.stdout).hexdigest()[:16]}")
        # Start another sample only while it is expected to end in time.
        if time.perf_counter() + statistics.fmean(lasted) > deadline:
            break
    stats = {"wall_ref_s": summary(refs), "setup_s": summary(setup),
             "peak_rss_mb": summary(rss), "wall_s": summary(walls)}
    if rates:
        stats["points_per_s"] = summary(rates)
    units = dict(END_TO_END, wall_s="s", points_per_s="1/s")
    for name, s in stats.items():
        print(f"  {name:<13} mean {s['mean']:.4f} {units[name]}  median {s['median']:.4f}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
    values = {name: stats[name]["median"] for name in END_TO_END}
    values["wall_ref_s"] = stats["wall_ref_s"]["mean"]
    return values


def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    from tracer import aggregate

    agg = aggregate(trace)
    counters = trace["counters"]
    metrics: Dict[str, float] = {}
    check_total = sum(row["total_s"] for name, row in agg.items()
                      if name.startswith("checks."))
    for suite in CHECK_SUITES:
        metrics[f"checks.{suite}.s"] = sum(
            row["total_s"] for name, row in agg.items()
            if name.startswith(f"checks.{suite}."))
    for check in TIMED_CHECKS:
        metrics[f"checks.{check}.s"] = agg.get(f"checks.{check}", {}).get("total_s", 0.0)
    run_total = agg["run"]["total_s"]
    metrics["checks.coverage"] = check_total / run_total if run_total else 0.0
    for span, fields in LAYER_FIELDS:
        row = agg.get(span, {"calls": 0, "self_s": 0.0})
        count = counters.get(span, {})
        for f in fields:
            if f == "accept_ratio":
                value = count.get("accepted", 0) / row["calls"] if row["calls"] else 0.0
            elif f in row:
                value = row[f]
            else:
                value = count.get(f, 0)
            metrics[f"{span}.{f}"] = value
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def measure_layers(workload: Workload, seed: int, tally: Tally) -> Dict[str, float]:
    from tracer import producers

    expected = workload.seed0_sha256 if seed == 0 else None
    plain = run_child([sys.executable, "-m", "upv", "run", *upv_argv(workload, seed)],
                      workload.name, probed=False)
    if not tally.add(gate(plain.stdout, plain.returncode, expected, None), "untraced"):
        return {}
    trace_path = OUT / f"trace-{workload.name}-{seed}.json"
    traced = run_child([sys.executable, str(HERE / "child.py"), "trace", workload.name,
                        str(trace_path), *upv_argv(workload, seed)], "traced",
                       probed=False)
    if not tally.add(gate(traced.stdout, traced.returncode, expected, plain.stdout),
                     "traced"):
        sys.stderr.write(traced.stderr.decode(errors="replace")[-2000:])
        return {}
    trace = json.loads(trace_path.read_text())
    metrics = layer_metrics(trace, plain.wall_s, traced.wall_s)
    print(f"  untraced wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s, "
          f"{len(trace['spans']['name'])} spans in {trace_path.relative_to(ROOT)}")
    for artifact in SHARED_ARTIFACTS:
        for owner, row in sorted(producers(trace, artifact).items()):
            print(f"  shared {artifact}: produced under {owner}, "
                  f"{row['calls']} calls, {row['s']:.3f} s")
    return metrics


def machine() -> Dict[str, str]:
    return {"nproc": str(os.cpu_count()), "arch": platform.machine(),
            "python": platform.python_version()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "upv" / "__init__.py").is_file():
        print(f"error: no upv sources at {ROOT / 'src' / 'upv'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cpu = pin_cpu()
    print(f"machine: {machine()}, pinned to cpu {cpu}")
    print(f"workload {workload.name}: upv run {' '.join(upv_argv(workload, args.seed))}"
          f" (trace {args.trace})")
    tally = Tally()
    if args.trace:
        values = measure_layers(workload, args.seed, tally)
        units = per_layer_units()
        for name, unit in units.items():
            if name in values:
                print(f"  {name:<48} {values[name]:.6g} {unit}")
    else:
        values = measure_end_to_end(workload, args.seed, args.seconds, tally)
        units = END_TO_END
    print(f"  fail_ratio {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} records and runs)")
    for p in tally.problems:
        print(f"  FAIL {p}", file=sys.stderr)
    correct = not tally.failed and set(values) == set(units)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items() if name in values}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
