"""Outside-in span tracer for the `upv` layers.

The tracer wraps the public entry points of `src/upv` from the benchmark's
own code, so the program itself carries no instrumentation.  Each wrapped
call records one span (name, start, end, parent); the spans stay in memory
and are written once, when the traced run ends.  A few entry points also
record counts (points certified, matrix cells eliminated) at the same
boundary, so that ratios are measured where the work happens.

The tracer keeps a single call stack, so it assumes one thread, which holds
for every benchmark workload (`--threads 1`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT = -1  # parent index of a top-level span


def _points_of_first_arg(args, kwargs, result) -> Dict[str, float]:
    return {"points": args[0].count, "accepted": 1 if result.passed else 0}


def _points_of_result(args, kwargs, result) -> Dict[str, float]:
    return {"points": result.count}


def _cells_of_first_arg(args, kwargs, result) -> Dict[str, float]:
    shape = np.shape(args[0])
    return {"cells": shape[0] * shape[1] if len(shape) == 2 else 0}


# (module, qualified name, optional counter hook).  A name is wrapped in
# every `upv` module that holds it, so a by-name import (`invariants` takes
# `rank_mod_p` from `linalg`) is traced as well.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("upv.cover", "certify_free_and_smooth", _points_of_first_arg),
    ("upv.cover", "ProjAut.act_point", None),
    ("upv.cover", "enumerate_surface", _points_of_result),
    ("upv.cover", "build_lifts_and_certify", None),
    ("upv.cover", "brute_force_count", None),
    ("upv.cover", "verify_branch_structure", None),
    ("upv.poly", "Poly.evaluate", None),
    ("upv.poly", "MonomialMap.apply", None),
    ("upv.grouprep", "delta_set_report", None),
    ("upv.grouprep", "j_generator_stability_report", None),
    ("upv.bicanon", "branch_locus_check", None),
    ("upv.bicanon", "derive_s3_cubic", None),
    ("upv.invariants", "hilbert_function", None),
    ("upv.linalg", "rank_mod_p", _cells_of_first_arg),
    ("upv.linalg", "det_poly", None),
    ("upv.unproj", "build_t_ideal", None),
    ("upv.unproj", "reduce_by_rewriting", None),
)


def span_name(module: str, qualname: str) -> str:
    """`upv.cover` + `ProjAut.act_point` -> `cover.ProjAut.act_point`."""
    return module.split(".", 1)[1] + "." + qualname


class Tracer:
    """Span recorder with one call stack; spans are kept as parallel lists."""

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = [ROOT]
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block, e.g. around a check."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                counts = self.counters[name]
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, Optional[Callable]]] = TARGETS):
        """Replace every target in every loaded `upv` module that holds it."""
        modules = {m: importlib.import_module(m) for m, _, _ in targets}
        holders = _upv_modules()
        for module_name, qualname, hook in targets:
            module = modules[module_name]
            name = span_name(module_name, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(name, original, hook))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original, hook)
            for holder in holders:
                if holder.__dict__.get(qualname) is original:
                    self._patch(holder, qualname, original, wrapper)

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "names": self.names,
            "spans": {"name": self.name, "start": self.start,
                      "end": self.end, "parent": self.parent},
            "counters": {k: dict(v) for k, v in self.counters.items()},
        }


def _upv_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "upv" or k.startswith("upv."))]


# -- analysis of a recorded trace ---------------------------------------------

def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans on one stack nest, so direct children never overlap each other and
    their summed durations are exactly the part of the parent they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for sid, par in enumerate(parent):
        if par != ROOT:
            out[par] -= end[sid] - start[sid]
    return out


def aggregate(trace: dict) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    names = trace["names"]
    spans = trace["spans"]
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, idx in enumerate(spans["name"]):
        row = out[names[idx]]
        row["calls"] += 1
        row["total_s"] += spans["end"][sid] - spans["start"][sid]
        row["self_s"] += selfs[sid]
    return out


def producers(trace: dict, artifact: str, prefix: str = "checks.") -> Dict[str, Dict[str, float]]:
    """For each span named `artifact`, the nearest enclosing span whose name
    starts with `prefix` (the check that produced it), with calls and seconds."""
    names = trace["names"]
    spans = trace["spans"]
    out: Dict[str, Dict[str, float]] = {}
    for sid, idx in enumerate(spans["name"]):
        if names[idx] != artifact:
            continue
        par = spans["parent"][sid]
        while par != ROOT and not names[spans["name"][par]].startswith(prefix):
            par = spans["parent"][par]
        owner = names[spans["name"][par]] if par != ROOT else "(none)"
        row = out.setdefault(owner, {"calls": 0, "s": 0.0})
        row["calls"] += 1
        row["s"] += spans["end"][sid] - spans["start"][sid]
    return out
