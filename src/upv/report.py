"""Structured pass/fail reports: the universal output of every verification.

Reports serialize to line-delimited JSON records with a fixed key order so a
report stream is byte-identical across runs with the same configuration.
Checks build their records without timing them: the check runner
(``checks.run_checks``) measures each check and writes ``wall_ms``, which is
zeroed in serialized streams unless timings are explicitly requested, keeping
the default artifact deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

PASS = "pass"
FAIL = "fail"


def _sanitize(value: Any) -> Any:
    """Force witnesses/params into plain JSON types (math objects -> str)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_sanitize(v) for v in items]
    return str(value)


@dataclass
class CheckReport:
    check_id: str
    status: str
    witness: Any = ""
    wall_ms: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.witness = _sanitize(self.witness)
        self.params = _sanitize(self.params or {})

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_record(self, timings: bool = False) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "wall_ms": round(self.wall_ms, 3) if timings else 0.0,
            "params": self.params,
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(self.to_record(timings), sort_keys=False,
                          separators=(", ", ": "))


def verdict(check_id: str, problems: Sequence[str], witness: Dict[str, Any] | None = None,
            *, on_pass: Dict[str, Any] | None = None, on_fail: Dict[str, Any] | None = None,
            params: Dict[str, Any] | None = None) -> CheckReport:
    """The record of a check that collected ``problems``: it passes iff there
    are none.

    ``witness`` holds measured values and is reported in every outcome.  A
    passing record appends ``on_pass``, the claims that hold only on success;
    a failing one appends ``problems`` and then the diagnostics in
    ``on_fail``.
    """
    out = dict(witness or {})
    if problems:
        status = FAIL
        out["problems"] = list(problems)
        out.update(on_fail or {})
    else:
        status = PASS
        out.update(on_pass or {})
    return CheckReport(check_id, status, out, params=params or {})
