"""The benchmark runner: oracle gate, metric names, and refusal without sources."""

import hashlib
import json
import sys
from pathlib import Path

import run

RECORDS = [
    {"check": "cover.free_action", "status": "pass",
     "witness": {"per_prime": {"13": {"accepted": [{"nu": [1, 2, 3, 4, 5], "points": 160},
                                                   {"nu": [2, 3, 4, 5, 6], "points": 176}],
                                      "redraws": []}}},
     "wall_ms": 0.0, "params": {}},
    {"check": "invariants.hilbert_x", "status": "pass", "witness": {}, "wall_ms": 0.0,
     "params": {}},
]
STREAM = "".join(json.dumps(r) + "\n" for r in RECORDS).encode()
SHA = hashlib.sha256(STREAM).hexdigest()


def test_gate_accepts_the_pinned_stream():
    assert run.gate(STREAM, 0, SHA, STREAM) == (2, 0, [])


def test_gate_rejects_one_altered_byte():
    pos = STREAM.index(b"176") + 2
    altered = STREAM[:pos] + b"7" + STREAM[pos + 1:]
    assert altered != STREAM and len(altered) == len(STREAM)
    attempted, failed, problems = run.gate(altered, 0, SHA, None)
    assert (attempted, failed) == (2, 1)
    assert "sha256" in problems[0]
    attempted, failed, problems = run.gate(altered, 0, None, STREAM)
    assert (attempted, failed) == (2, 1)
    assert "differs" in problems[0]


def test_gate_counts_records_not_passing_and_run_misses():
    bad = STREAM.replace(b'"status": "pass", "witness": {}', b'"status": "fail", "witness": {}')
    assert run.gate(bad, 1, None, None)[:2] == (2, 2)
    assert run.gate(bad, 0, None, None)[:2] == (2, 1)
    assert run.gate(b"", 0, None, None)[:2] == (1, 1)
    assert run.gate(STREAM, -9, None, None)[:2] == (2, 1)


def test_certified_points_sum_the_accepted_draws():
    assert run.certified_points(STREAM) == 336


def test_summary_quartiles():
    assert run.summary([3.0]) == {"mean": 3.0, "median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    s = run.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.0, 3.0, 4.0, 5)


def test_benchmark_json_matches_run_py():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in run.WORKLOADS.values()}


def test_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "invariants_deg5", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_ref_seconds_scale_each_slice_by_its_probes():
    # one slice at reference speed, one at half speed (mean slowdown 2)
    assert run.ref_seconds([1.0, 2.0], [1.0, 1.0, 3.0]) == 1.0 + 2.0 / 2
    assert run.ref_seconds([], [1.0]) == 0.0


def test_probe_reports_a_positive_slowdown():
    assert run.probe_work() == run.probe_work() and run.probe_array() == run.probe_array()
    assert 0 < run.probe() < 100


def test_run_child_probes_a_running_child(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.35: pass\n" \
           "print('done')"
    res = run.run_child([sys.executable, "-c", busy], "busy")
    assert (res.returncode, res.stdout) == (0, b"done\n")
    assert 0.35 <= res.wall_s < 5 and res.ref_s > 0 and res.rss_mb > 0


def test_run_child_kills_a_child_past_its_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.3)
    for probed in (True, False):
        res = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], "slow",
                            probed=probed)
        assert res.returncode == -9 and res.wall_s < 10
