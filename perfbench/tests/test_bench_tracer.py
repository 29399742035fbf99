"""The tracer: self time, shared-artifact attribution, and clean patching."""

import importlib
import json

import pytest

import child
import tracer
from tracer import ROOT, Tracer, aggregate, producers, self_times


def _trace(spans):
    """Build a trace dict from (name, start, end, parent) tuples."""
    names = sorted({s[0] for s in spans})
    return {"names": names,
            "spans": {"name": [names.index(s[0]) for s in spans],
                      "start": [s[1] for s in spans], "end": [s[2] for s in spans],
                      "parent": [s[3] for s in spans]},
            "counters": {}}


NESTED = [
    ("run", 0.0, 10.0, ROOT),
    ("checks.a", 1.0, 4.0, 0),
    ("leaf", 2.0, 3.0, 1),
    ("checks.b", 5.0, 9.0, 0),
    ("leaf", 5.5, 6.0, 3),
    ("leaf", 6.0, 8.0, 3),
]


def test_self_time_subtracts_direct_children_only():
    start = [s[1] for s in NESTED]
    end = [s[2] for s in NESTED]
    parent = [s[3] for s in NESTED]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 1.5, 0.5, 2.0])


def test_aggregate_sums_calls_total_and_self_per_name():
    agg = aggregate(_trace(NESTED))
    assert agg["leaf"] == pytest.approx({"calls": 3, "total_s": 3.5, "self_s": 3.5})
    assert agg["checks.b"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 1.5})
    assert agg["run"]["self_s"] == pytest.approx(3.0)


def test_producers_name_the_enclosing_check():
    spans = NESTED + [("artifact", 7.0, 7.5, 5), ("artifact", 9.5, 9.75, 0)]
    owners = producers(_trace(spans), "artifact")
    assert owners == {"checks.b": {"calls": 1, "s": 0.5},
                      "(none)": {"calls": 1, "s": 0.25}}


def test_span_context_records_nesting_and_order():
    t = Tracer("w")
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    assert [t.names[i] for i in t.name] == ["outer", "inner", "inner"]
    assert t.parent == [ROOT, 0, 0]
    assert all(e >= s for s, e in zip(t.start, t.end))
    assert t.to_dict()["workload"] == "w"


def _originals():
    """Every (holder, attribute) -> object for the traced names."""
    out = {}
    for module_name, qualname, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
            continue
        original = getattr(module, qualname)
        for holder in tracer._upv_modules():
            if holder.__dict__.get(qualname) is original:
                out[(holder, qualname)] = original
    return out


def test_install_wraps_by_name_imports_and_restore_puts_originals_back():
    import upv.checks  # noqa: F401  (loads every layer module)
    import upv.invariants
    import upv.linalg

    before = _originals()
    t = Tracer()
    t.install()
    patched = {(holder, attr) for holder, attr, _ in t.patched()}
    assert patched == set(before)
    assert (upv.invariants, "rank_mod_p") in patched
    assert upv.invariants.rank_mod_p is not before[(upv.linalg, "rank_mod_p")]
    upv.invariants.rank_mod_p([[1, 2], [2, 4]], 13)
    assert t.counters["linalg.rank_mod_p"]["cells"] == 4
    t.restore()
    assert t.patched() == []
    for (holder, attr), original in before.items():
        assert holder.__dict__[attr] is original


def test_traced_run_restores_every_name(tmp_path, capsys):
    before = _originals()
    path = tmp_path / "trace.json"
    assert child.trace("unit", str(path),
                       ["invariants.hilbert_x", "cover.sigma_deck", "--threads", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in records] == ["pass", "pass"]
    trace = json.loads(path.read_text())
    agg = aggregate(trace)
    assert agg["linalg.rank_mod_p"]["calls"] > 0
    assert agg["checks.invariants.hilbert_x"]["calls"] == 1
    for (holder, attr), original in before.items():
        assert holder.__dict__[attr] is original
