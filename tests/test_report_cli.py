import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from upv import cover
from upv.checks import (ALIASES, CATALOG, CheckDef, RunConfig, RunContext,
                        resolve_targets, run_checks)
from upv.cli import build_config, cmd_run, main, make_parser
from upv.report import CheckReport, verdict
from upv.scalars import GF


def run_cli(args, env=None):
    e = dict(os.environ)
    e["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "upv", *args],
                          capture_output=True, text=True, env=e)


def report_from_json(line):
    rec = json.loads(line)
    return CheckReport(rec["check"], rec["status"], rec.get("witness", ""),
                       rec.get("wall_ms", 0.0), rec.get("params", {}))


def test_report_roundtrip_lossless():
    rep = CheckReport("cover.free_action", "pass",
                      {"points": 288, "free": True}, 12.5,
                      {"prime": 13, "nu": ["1", "2"]})
    back = report_from_json(rep.to_json(timings=True))
    assert back.check_id == rep.check_id
    assert back.status == rep.status
    assert back.witness == rep.witness
    assert back.params == rep.params
    assert back.wall_ms == 12.5


def test_catalog_ids_unique_and_runnable():
    ids = [c.check_id for c in CATALOG]
    assert len(ids) == len(set(ids))
    for cid in ids:
        assert resolve_targets([cid])[0].check_id == cid
    # the documented aliases resolve
    for alias, target in ALIASES.items():
        assert resolve_targets([alias])[0].check_id == target


def test_suite_resolution():
    assert len(resolve_targets(["all"])) == len(CATALOG)
    cover_only = resolve_targets(["cover"])
    assert all(c.check_id.startswith("cover.") for c in cover_only)
    with pytest.raises(KeyError):
        resolve_targets(["nonsense.check"])


def test_stream_determinism_byte_identical():
    cfg = RunConfig(primes=(13,))
    targets = ["unproj.plane_incidences", "grouprep.subgroup_census",
               "unproj.elimination_cubic"]
    lines1 = [r.to_json() for r in run_checks(resolve_targets(targets), RunContext(cfg))]
    lines2 = [r.to_json() for r in run_checks(resolve_targets(targets),
                                              RunContext(RunConfig(primes=(13,))))]
    assert lines1 == lines2


def test_cli_single_check_exit_zero():
    res = run_cli(["run", "unproj.plane_incidences"])
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    assert rec["check"] == "unproj.plane_incidences"
    assert rec["status"] == "pass"
    assert rec["wall_ms"] == 0.0


def test_cli_alias_runs_without_enumeration():
    res = run_cli(["run", "bicanon.lambda_identity"])
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip())
    assert rec["check"] == "burniat.lambda_identity"


def test_cli_bad_prime_exit_two():
    res = run_cli(["run", "cover.free_action", "--primes", "7"])
    assert res.returncode == 2
    assert "eps" in res.stderr


def test_cli_prime_five_is_accepted():
    # 5 = 1 (mod 4): eps = 2 exists, so 5 passes config validation
    res = run_cli(["run", "unproj.plane_incidences", "--primes", "5"])
    assert res.returncode == 0


def test_cli_unknown_target_exit_two():
    res = run_cli(["run", "no.such.check"])
    assert res.returncode == 2


def test_cli_list_mentions_every_check():
    res = run_cli(["list"])
    assert res.returncode == 0
    for c in CATALOG:
        assert c.check_id in res.stdout
        assert "claim:" in res.stdout


def test_cli_dump_ideal():
    res = run_cli(["dump", "ideal"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 65
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_cli_dump_points_header():
    res = run_cli(["dump", "points", "--primes", "13", "--seed", "42"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    head = lines[0].split()
    assert head[0] == "13"
    assert int(head[-1]) == len(lines) - 1


def test_cli_dump_hilbert_rows():
    res = run_cli(["dump", "hilbert", "--max-degree", "4"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and "degree" not in l]
    assert [l.split("\t") for l in data] == [
        [str(d), str(h)] for d, h in enumerate([1, 7, 32, 80, 152])]


def test_cli_dump_unknown_artifact():
    res = run_cli(["dump", "nonsense"])
    assert res.returncode == 2


def test_cli_env_override(tmp_path):
    out = tmp_path / "r.jsonl"
    res = run_cli(["run", "unproj.plane_incidences"],
                  env={"UPV_OUTPUT": str(out)})
    assert res.returncode == 0
    assert out.read_text().strip() == res.stdout.strip()


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "upv.cfg"
    cfgfile.write_text("seed=5\nprimes=13\n")
    res = run_cli(["--config", str(cfgfile), "run", "unproj.elimination_cubic",
                   "--seed", "9"])
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip())
    assert rec["status"] == "pass"


def test_config_validation():
    with pytest.raises(Exception):
        RunConfig(primes=(7,)).validate()
    with pytest.raises(ValueError):
        RunConfig(primes=()).validate()


def test_main_entry_returns_int():
    assert main(["list"]) == 0


def test_cli_nu_override():
    res = run_cli(["run", "unproj.elimination_cubic", "--nu", "1,1,1,1,3"])
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip())
    assert rec["params"]["nu"] == ["1", "1", "1", "1", "3"]


def test_cli_bad_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    res = run_cli(["--config", str(bad), "run", "unproj.plane_incidences"])
    assert res.returncode == 2


def test_cli_dump_points_deterministic():
    a = run_cli(["dump", "points", "--primes", "13", "--seed", "42"])
    b = run_cli(["dump", "points", "--primes", "13", "--seed", "42"])
    assert a.stdout == b.stdout


# sha256 of `upv run unproj grouprep burniat` at the default config (seed 0)
CHEAP_SUITES_SHA256 = "5d93a7aba91745b6b7878539023970fc59f32075d5b91ab074470bb704e3233e"


def test_cheap_suites_stream_pinned():
    reports = run_checks(resolve_targets(["unproj", "grouprep", "burniat"]),
                         RunContext(RunConfig()))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == CHEAP_SUITES_SHA256


# sha256 of `upv run all` at the default config (seed 0), the regression oracle
FULL_CATALOG_SHA256 = "461ae391dbfef5b7b71302a88a322ef804a00c7d3b8c61e14d8ba56b01ea431d"


def test_full_catalog_stream_pinned():
    reports = run_checks(resolve_targets(["all"]), RunContext(RunConfig()))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == FULL_CATALOG_SHA256


# sha256 of `upv run all --seed 100`: the benchmark's first sample seed
FULL_CATALOG_SEED_100_SHA256 = \
    "b5043d56fc81f1176fb5c1b72324141d6c2774ddbf43cfb13123f82cf886e3a0"


def test_full_catalog_stream_pinned_at_seed_100():
    reports = run_checks(resolve_targets(["all"]), RunContext(RunConfig(seed=100)))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == FULL_CATALOG_SEED_100_SHA256


# sha256 of `upv run all --seed 7`, under any PYTHONHASHSEED
FULL_CATALOG_SEED_7_SHA256 = \
    "85ed29491e18f19e00fa5f0ac1d004ad6653a62bdb8477899889451105b9294d"


def test_full_catalog_stream_does_not_depend_on_the_hash_seed():
    # str and bytes hashing is salted per process; no cache or set may let
    # it reach the order of the output
    streams = [run_cli(["run", "all", "--seed", "7"], env={"PYTHONHASHSEED": seed})
               for seed in ("0", "1")]
    assert [r.returncode for r in streams] == [0, 0]
    assert [hashlib.sha256(r.stdout.encode()).hexdigest() for r in streams] == \
        [FULL_CATALOG_SEED_7_SHA256] * 2


# sha256 of `upv run cover.enumeration cover.hplane_decomposition
# bicanon.branch_loci bicanon.nodes --seed 1000000`: the downstairs scans and
# the node Hessians at a seed whose branch-loci redraws differ from seed 0
DOWNSTAIRS_SEED_1000000_SHA256 = \
    "9595985a92ff6b0ab5bc7bec5288c4c6163c6a0ae2ca15e9a705a92920b92379"


def test_downstairs_checks_stream_pinned_at_seed_1000000():
    targets = ["cover.enumeration", "cover.hplane_decomposition",
               "bicanon.branch_loci", "bicanon.nodes"]
    reports = run_checks(resolve_targets(targets), RunContext(RunConfig(seed=1000000)))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == DOWNSTAIRS_SEED_1000000_SHA256


# sha256 of `upv run bicanon.s3_points bicanon.branch_loci grouprep.delta_set
# grouprep.fixed_loci burniat.parameter_map --seed 1000000`: the bicanonical
# point checks and the group and pencil checks around them
BICANONICAL_SEED_1000000_SHA256 = \
    "f22e684a775d967705c42ea80c229a80c835a25255d6e4cdd21d55d61073c97c"


def test_bicanonical_checks_stream_pinned_at_seed_1000000():
    targets = ["bicanon.s3_points", "bicanon.branch_loci", "grouprep.delta_set",
               "grouprep.fixed_loci", "burniat.parameter_map"]
    reports = run_checks(resolve_targets(targets), RunContext(RunConfig(seed=1000000)))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == BICANONICAL_SEED_1000000_SHA256


# sha256 of `upv run bicanon.nodes cover.group_structure --primes 17,13
# --seed 1000000`: the node check at a second prime and the group's Cayley
# table
NODES_GROUP_P17_SEED_1000000_SHA256 = \
    "de0d546a72760f84fd4c6108238d33db66f06f986229341164ba296bbf8589e0"


def test_nodes_and_group_stream_pinned_at_17_seed_1000000():
    targets = ["bicanon.nodes", "cover.group_structure"]
    reports = run_checks(resolve_targets(targets),
                         RunContext(RunConfig(primes=(17, 13), seed=1000000)))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == NODES_GROUP_P17_SEED_1000000_SHA256


def _count_certificates(monkeypatch):
    calls = []
    real = cover.certify_free_and_smooth

    def counting(points, group):
        calls.append(tuple(int(v) for v in points.nu.nu))
        return real(points, group)

    monkeypatch.setattr(cover, "certify_free_and_smooth", counting)
    return calls


def _run_records(args, capsys):
    code = main(args)
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_fixed_degenerate_nu_is_named_degenerate(monkeypatch, capsys):
    calls = _count_certificates(monkeypatch)
    code, (rec,) = _run_records(["run", "bicanon.branch_loci", "--nu", "1,1,0,1,3"], capsys)
    assert code == 1 and rec["status"] == "fail"
    assert rec["witness"]["error"] == ("RuntimeError: fixed nu=(1, 1, 0, 1, 3) is degenerate "
                                       "over GF(13) (nu1*nu2*nu3 = 0), outside the freeness claim")
    assert calls == []


def test_fixed_nu_on_a_delta_hyperplane_fails_before_certification(monkeypatch, capsys):
    # nu0-nu1-nu2-nu3 = -1 = -8*eps*nu4 mod 13 (eps = 5): the two involutions
    # other than s fix points there, but over GF(169) only, since 13 = 5 mod 8,
    # so the certificate on GF(13) points would pass
    calls = _count_certificates(monkeypatch)
    code, (rec,) = _run_records(["run", "cover.free_action", "--nu", "5,1,2,3,1",
                                 "--primes", "13"], capsys)
    assert code == 1
    assert rec == {
        "check": "cover.free_action", "status": "fail",
        "witness": {"per_prime": {"13": {"accepted": [], "redraws": []}},
                    "problems": ["fixed nu=(5, 1, 2, 3, 1) is degenerate over GF(13) "
                                 "(nu0-nu1-nu2-nu3 = -delta*nu4 for delta in {+-8*eps}), "
                                 "outside the freeness claim",
                                 "GF(13): only 0 accepted draws"]},
        "wall_ms": 0.0, "params": {"primes": [13], "seed": 0}}
    assert calls == []


def test_fixed_nu_with_vanishing_nu4_fails_before_certification(monkeypatch, capsys):
    calls = _count_certificates(monkeypatch)
    code, (rec,) = _run_records(["run", "bicanon.s3_points", "--nu", "1,2,3,4,0",
                                 "--primes", "13"], capsys)
    assert code == 1
    assert rec["witness"]["error"] == ("RuntimeError: fixed nu=(1, 2, 3, 4, 0) is degenerate "
                                       "over GF(13) (nu4 = 0), outside the freeness claim")
    assert calls == []


def test_fixed_singular_nu_is_certified_once(monkeypatch, capsys):
    calls = _count_certificates(monkeypatch)
    code, (rec,) = _run_records(["run", "cover.free_action", "--nu", "8,3,6,7,3",
                                 "--primes", "13"], capsys)
    assert code == 1 and rec["status"] == "fail"
    problems = rec["witness"]["problems"]
    assert problems[0].startswith("fixed nu=(8, 3, 6, 7, 3) has a rational singular "
                                  "point (discriminant mod 13): rank drop at ")
    assert not any("attempts" in m for m in problems)
    assert rec["witness"]["per_prime"] == {"13": {"accepted": [], "redraws": []}}
    assert calls == [(8, 3, 6, 7, 3)]


def test_fixed_smooth_nu_is_one_accepted_draw(monkeypatch, capsys):
    calls = _count_certificates(monkeypatch)
    code, records = _run_records(["run", "cover.free_action", "bicanon.s3_points",
                                  "--nu", "1,1,1,1,3", "--primes", "13"], capsys)
    assert code == 0 and [r["status"] for r in records] == ["pass", "pass"]
    assert records[0]["witness"]["per_prime"] == {
        "13": {"accepted": [{"nu": [1, 1, 1, 1, 3], "points": 432}], "redraws": []}}
    assert calls == [(1, 1, 1, 1, 3)]


def test_grid_scans_over_the_budget_fail_naming_it(monkeypatch, capsys):
    monkeypatch.setattr(cover, "GRID_BUDGET", 14 ** 4 - 1)
    cover.downstairs_image_set.cache_clear()
    code, records = _run_records(["run", "cover.enumeration", "cover.hplane_decomposition",
                                  "--primes", "13"], capsys)
    assert code == 1 and [r["status"] for r in records] == ["fail", "fail"]
    error = "ValueError: the grid scan at p = 13 needs 38416 points (budget 38415)"
    assert [r["witness"] for r in records] == [{"error": error}] * 2


def test_fixed_nu_reaches_nodes_and_q_invariance(capsys):
    code, records = _run_records(["run", "bicanon.nodes", "grouprep.q_invariance",
                                  "--nu", "1,2,3,4,5"], capsys)
    assert code == 0 and [r["status"] for r in records] == ["pass", "pass"]
    assert [r["witness"]["draws"] for r in records] == [1, 1]


def test_q_invariance_names_nu_as_integers(capsys):
    # nu4 = 0: the sampled words outside H fix q
    assert main(["run", "grouprep.q_invariance", "--nu", "1,2,3,4,0", "--primes", "13"]) == 1
    at = "outside H fixed q at nu=(1, 2, 3, 4, 0)"
    assert capsys.readouterr().out == (
        '{"check": "grouprep.q_invariance", "status": "fail", "witness": {"problems": '
        f'["a1*b1*b3 {at}", "b1*b2*b3 {at}", "a1*a2*a3*b1*b3 {at}", "a1*a2*a3 {at}", '
        f'"a1*a2*b1 {at}"]}}, "wall_ms": 0.0, "params": {{"prime": 13, "seed": 0}}}}\n')


@pytest.mark.parametrize("nu,reason", [
    ("1,0,3,4,5", "nu=(1, 0, 3, 4, 5) is outside the claim: nu1*nu2*nu3 = 0"),
    ("1,2,3,-6,5", "nu=(1, 2, 3, 7, 5) is outside the claim: nu0+nu1+nu2+nu3 = 0, "
                   "so the three nodes collapse"),
])
def test_fixed_nu_outside_the_node_claim_fails_named(nu, reason, capsys):
    code, (rec,) = _run_records(["run", "bicanon.nodes", "--nu", nu, "--primes", "13"],
                                capsys)
    assert code == 1 and rec["status"] == "fail"
    assert "error" not in rec["witness"]
    assert rec["witness"]["problems"] == [reason]
    assert rec["witness"]["draws"] == 0


def test_default_draw_counts_of_nodes_and_q_invariance(monkeypatch):
    purposes = []
    real = RunContext.draw_nu

    def counting(self, p, purpose):
        purposes.append(purpose)
        return real(self, p, purpose)

    monkeypatch.setattr(RunContext, "draw_nu", counting)
    reports = run_checks(resolve_targets(["bicanon.nodes", "grouprep.q_invariance"]),
                         RunContext(RunConfig()))
    assert all(r.passed for r in reports)
    assert {k: purposes.count(k) for k in set(purposes)} == {"nodes": 100, "qinv": 20}


def test_a_zero_draw_is_redrawn():
    # at this seed one of the 100 node draws over GF(13) is (0, 0, 0, 0, 0),
    # which is no projective point
    reports = run_checks(resolve_targets(["bicanon.nodes"]),
                         RunContext(RunConfig(seed=166000000)))
    assert [(r.status, r.witness.get("draws")) for r in reports] == [("pass", 100)]


# sha256 of `upv dump points` output: the point file format and point order
DUMP_POINTS_SHA256 = {
    ("13", "42"): "bad7db959137a6828eeb7eb72f20a51b2849ca061ea91073d51e1ea1cb8a391f",
    ("29", "0"): "12b956e0e14263d759df79e53f7fef2d3754f9f8237b5a0bc0ac17bd2ea3eaf8",
}


@pytest.mark.parametrize("prime,seed", sorted(DUMP_POINTS_SHA256))
def test_dump_points_pinned(prime, seed, capsys):
    assert main(["dump", "points", "--primes", prime, "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_POINTS_SHA256[(prime, seed)]


def test_dump_hilbert_pinned(capsys):
    # as printed when each draw's T matrix was eliminated whole
    assert main(["dump", "hilbert", "--max-degree", "5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (
        "# T  GF(13)  nu=(0, 12, 4, 6, 1)\ndegree\tdimension\n"
        "0\t1\n1\t7\n2\t32\n3\t80\n4\t152\n5\t248\n")


def test_benchmark_command_lines_parse():
    # every benchmark child runs `upv run` with these arguments (`--threads 1`
    # included, which is accepted and ignored), and the configuration they
    # build must pass validation
    from perfbench.run import WORKLOADS, upv_argv
    for workload in WORKLOADS.values():
        args = make_parser().parse_args(["run", *upv_argv(workload, 0)])
        assert args.fn is cmd_run
        build_config(args)


@pytest.mark.parametrize("args,message", [
    (["cover.free_action", "--nu", "0,0,0,0,0"],
     "nu=(0, 0, 0, 0, 0) is zero over GF(13)"),
    (["cover.free_action", "--nu", "13,26,0,0,0", "--primes", "13"],
     "nu=(13, 26, 0, 0, 0) is zero over GF(13)"),
    # zero modulo the second default prime only
    (["cover.free_action", "--nu", "17,34,0,0,0"],
     "nu=(17, 34, 0, 0, 0) is zero over GF(17)"),
    (["cover.free_action", "--nu", "1,2,3"], "nu=(1, 2, 3) must have 5 entries"),
    (["burniat.parameter_map", "--lambda", "abc"], "lambda 'abc' is not a rational"),
    (["burniat.parameter_map", "--lambda", "3/0"], "lambda '3/0' is not a rational"),
    (["burniat.parameter_map", "--lambda", "0"], "lambda = 0, 1 are excluded parameters"),
    (["burniat.parameter_map", "--lambda", "1"], "lambda = 0, 1 are excluded parameters"),
    (["invariants.hilbert_t", "--max-degree", "9"],
     "degree 9 needs 84448 monomials (budget 60000)"),
    (["burniat.parameter_map", "--lambda", "-1"],
     "lambda = -1 is excluded: the plane model gains a fourth triple point "
     "(the quaternary configuration), and nu4 = 0 there"),
])
def test_configuration_errors_exit_two(args, message, capsys):
    assert main(["run", *args]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_repeated_prime_exits_two(tmp_path, monkeypatch, capsys):
    # a repeated prime would rerun that prime's draws, continuing the same
    # random streams, and overwrite or double-count its results
    targets = ["cover.free_action", "invariants.hilbert_t"]
    config = tmp_path / "upv.conf"
    config.write_text("primes = 13,17,13\n")
    runs = [(["run", *targets, "--primes", "13,13"], None),
            (["--config", str(config), "run", *targets], None),
            (["run", *targets], "29 13 29")]
    for argv, env in runs:
        if env:
            monkeypatch.setenv("UPV_PRIMES", env)
        assert main(argv) == 2
        out = capsys.readouterr()
        prime = 29 if env else 13
        assert out.out == "" and out.err == f"error: prime {prime} is given twice\n"


def test_unreadable_config_or_unwritable_output_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    for args in (["--config", str(missing), "run", "invariants.intersection_numbers"],
                 ["run", "invariants.intersection_numbers", "--output", str(missing / "x")],
                 ["dump", "hilbert", "--output", str(missing / "x")]):
        assert main(args) == 2
        out = capsys.readouterr()
        # nothing ran: no record on stdout, one error line naming the path
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert str(missing) in out.err


@pytest.mark.parametrize("key,value,message", [
    ("seed", "abc", "seed 'abc' is not an integer"),
    ("max_degree", "4.5", "max_degree '4.5' is not an integer"),
    ("primes", "13,abc", "primes '13,abc' is not a list of integers"),
    ("nu", "1,2,x,4,5", "nu '1,2,x,4,5' is not a list of integers"),
])
def test_non_integer_configuration_value_names_its_key(key, value, message, tmp_path,
                                                       monkeypatch, capsys):
    config = tmp_path / "upv.conf"
    config.write_text(f"{key} = {value}\n")
    assert main(["--config", str(config), "run", "invariants.intersection_numbers"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"
    monkeypatch.setenv("UPV_" + key.upper(), value)
    assert main(["run", "invariants.intersection_numbers"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_output_file_holds_the_stream(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    assert main(["run", "invariants.intersection_numbers", "--output", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_max_degree_budget_is_one_rule_for_run_and_dump(capsys):
    assert main(["dump", "hilbert", "--max-degree", "9"]) == 2
    dump_err = capsys.readouterr().err
    assert main(["run", "unproj.ideal_census", "--max-degree", "9"]) == 2
    assert capsys.readouterr().err == dump_err


def test_rational_lambda_is_accepted(capsys):
    code, (rec,) = _run_records(["run", "burniat.parameter_map", "--lambda", "5/2"], capsys)
    assert code == 0 and rec["params"] == {"lambda": "5/2"}


class ScriptedStream:
    """A stand-in for a run's random stream that returns the given draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randrange(self, lo, hi):
        return next(self.draws)


def test_parameter_map_redraws_lambda_minus_one(monkeypatch):
    from upv import bicanon
    seen = []
    real = bicanon.burniat_parameter_map

    def recording(lam):
        seen.append(lam)
        return real(lam)

    monkeypatch.setattr(bicanon, "burniat_parameter_map", recording)
    ctx = RunContext(RunConfig(primes=(13,)))
    # 12 = -1 twice, then 4, where -4 = 3^2 is a square mod 13
    ctx._rngs["parmap"] = ScriptedStream([12, 12, 4])
    rep, = run_checks(resolve_targets(["burniat.parameter_map"]), ctx)
    assert rep.passed
    assert seen == [3, GF(13).from_int(4)]


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these names from outside, so a rename or
    # deletion in `upv` must fail here and not in a traced benchmark run
    # (the span name comes from the pair, so each name must be defined in
    # the module the pair names, one of the source tree's own modules)
    import importlib
    from perfbench.tracer import TARGETS
    src = os.path.dirname(os.path.abspath(cover.__file__))
    for module_name, qualname, _ in TARGETS:
        assert module_name.startswith("upv.")
        module = importlib.import_module(module_name)
        assert os.path.dirname(os.path.abspath(module.__file__)) == src
        obj = module
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{module_name}.{qualname}"
        assert (obj.__module__, obj.__qualname__) == (module_name, qualname)


# sha256 of `upv run invariants --max-degree 5` (seed 0): h_T up to P_5 = 248
INVARIANTS_DEG5_SHA256 = "13e893c13462a53e4f282035c289200e00fce1fb5d4e434a387dba6b94e3c795"


def test_invariants_deg5_stream_pinned():
    reports = run_checks(resolve_targets(["invariants"]),
                         RunContext(RunConfig(max_degree=5)))
    stream = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == INVARIANTS_DEG5_SHA256


# the modules of the package that each command loads in a fresh interpreter:
# the invariants suite needs no numpy and none of cover, bicanon or grouprep
INVARIANTS_MODULES = ["upv", "upv.ambient", "upv.checks", "upv.cli", "upv.invariants",
                      "upv.linalg", "upv.poly", "upv.report", "upv.scalars", "upv.unproj"]
ALL_MODULES = sorted(INVARIANTS_MODULES + ["numpy", "upv.bicanon", "upv.cover",
                                           "upv.grouprep"])
# sha256 of `upv dump hilbert` (seed 0, degrees <= 4)
DUMP_HILBERT_SHA256 = "0eeb6abf5afc1d285c2f46a678eb851011e7fe4e66f9b958190bceae104d3f67"

LOADED_MODULES = """
import sys
from upv.cli import main
code = main(sys.argv[1:])
top = [m for m in sys.modules if m == "numpy" or m == "upv" or m.startswith("upv.")]
print(" ".join(sorted(top)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("args,modules,sha256", [
    (["run", "invariants", "--max-degree", "5"], INVARIANTS_MODULES,
     INVARIANTS_DEG5_SHA256),
    (["dump", "hilbert"], INVARIANTS_MODULES, DUMP_HILBERT_SHA256),
    (["run", "all"], ALL_MODULES, FULL_CATALOG_SHA256),
])
def test_a_command_loads_only_the_modules_its_checks_use(args, modules, sha256):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    res = subprocess.run([sys.executable, "-c", LOADED_MODULES, *args],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stderr.split() == modules
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == sha256


def test_v_quotient_is_built_once_per_run_for_hilbert_t_and_hilbert_v(monkeypatch):
    import upv.invariants as invariants
    oracle = {p: [list(v) for v in invariants.hilbert_profile("V", p, 3).values]
              for p in (13, 17)}
    built = []
    real = invariants.v_quotient

    def counting(max_degree):
        built.append(max_degree)
        return real(max_degree)

    def no_full_matrix(*args):
        raise AssertionError("hilbert_v or hilbert_t ran a full-matrix rank")

    monkeypatch.setattr(invariants, "v_quotient", counting)
    monkeypatch.setattr(invariants, "hilbert_function", no_full_matrix)
    monkeypatch.setattr(invariants, "rank_mod_p", no_full_matrix)
    for max_degree, order in ((4, ["invariants.hilbert_v", "invariants.hilbert_t"]),
                              (1, ["invariants.hilbert_t", "invariants.hilbert_v"])):
        built.clear()
        ctx = RunContext(RunConfig(max_degree=max_degree))
        reports = {r.check_id: r for r in run_checks(resolve_targets(order), ctx)}
        assert all(r.passed for r in reports.values())
        # once for all three primes: degree 3 for hilbert_v, max(2, max_degree)
        # for hilbert_t
        assert built == [max(3, max_degree)]
        v = reports["invariants.hilbert_v"]
        assert v.witness == {"values": oracle[13], "stable_across_primes": True}
        assert oracle[13] == oracle[17]
        assert v.params == {"primes": [13, 17], "max_degree": 3}


def _sleeper(ctx):
    time.sleep(0.02)
    return verdict("stub.sleep", [])


def _crasher(ctx):
    time.sleep(0.02)
    raise ArithmeticError("stub failure")


def test_runner_times_each_check():
    ctx = RunContext(RunConfig(timings=True))
    rep, = run_checks([CheckDef("stub.sleep", "sleeps", "none", _sleeper)], ctx)
    assert rep.passed
    assert rep.wall_ms >= 20
    assert rep.to_record(timings=True)["wall_ms"] >= 20
    assert rep.to_record()["wall_ms"] == 0.0


def test_runner_times_crashed_check():
    ctx = RunContext(RunConfig(timings=True))
    rep, = run_checks([CheckDef("stub.crash", "crashes", "none", _crasher)], ctx)
    assert rep.status == "fail"
    assert rep.witness == {"error": "ArithmeticError: stub failure"}
    assert rep.wall_ms >= 20


def test_verdict_outcomes():
    ok = verdict("x", [], {"n": 1}, on_pass={"claim": True}, on_fail={"why": 0})
    assert ok.passed and ok.witness == {"n": 1, "claim": True}
    bad = verdict("x", ["broken"], {"n": 1}, on_pass={"claim": True}, on_fail={"why": 0})
    assert bad.status == "fail"
    assert bad.witness == {"n": 1, "problems": ["broken"], "why": 0}


def _count_group_builds(monkeypatch, result=None):
    calls = []
    real = cover.build_lifts_and_certify

    def counting(*args, **kwargs):
        calls.append(1)
        return result if result is not None else real(*args, **kwargs)

    monkeypatch.setattr(cover, "build_lifts_and_certify", counting)
    return calls


def test_group_built_once_per_run(monkeypatch):
    calls = _count_group_builds(monkeypatch)
    ctx = RunContext(RunConfig(primes=(13,)))
    reports = run_checks(resolve_targets(["cover.group_structure", "cover.free_action"]),
                         ctx)
    assert [r.status for r in reports] == ["pass", "pass"]
    assert len(calls) == 1


def test_failed_group_certificate_is_reported_and_blocks_consumers(monkeypatch):
    group, _ = cover.build_lifts_and_certify()
    failing = verdict("cover.group_structure", ["|closure| = 15"])
    calls = _count_group_builds(monkeypatch, (group, failing))
    ctx = RunContext(RunConfig(primes=(13,)))
    structure, free = run_checks(
        resolve_targets(["cover.group_structure", "cover.free_action"]), ctx)
    assert structure.status == "fail"
    assert structure.witness == {"problems": ["|closure| = 15"]}
    assert free.status == "fail"
    assert any("group certification failed" in m for m in free.witness["problems"])
    assert len(calls) == 1


def test_broken_orbit_closure_raises_instead_of_redrawing(monkeypatch):
    # (t0 : t1) -> (t1 : 2*t0) on factor 0 has order 2 and, 2 being a
    # non-square mod 13, no fixed point over F_13; it does not keep Z1
    f = GF(13)
    eye = ((1, 0), (0, 1))
    g = cover.ProjAut(f, (0, 1, 2, 3), (((0, 1), (2, 0)), eye, eye, eye))
    group = cover.FiniteProjGroup(f, [cover.ProjAut.identity(f), g], ["1", "g"],
                                  [[0, 1], [1, 0]])
    _count_group_builds(monkeypatch, (group, verdict("cover.group_structure", [])))
    calls = _count_certificates(monkeypatch)
    ctx = RunContext(RunConfig(primes=(13,)))
    with pytest.raises(RuntimeError) as exc:
        ctx.smooth_points(13, "closure")
    message = str(exc.value)
    assert message.startswith("free action failed for non-degenerate nu=")
    assert "leaves the surface under g" in message and "fixes" not in message
    assert len(calls) == 1


def test_cli_prime_above_int64_bound_exit_two():
    # 2^32 + 61 = 1 (mod 4) is prime, but residue products overflow int64
    res = run_cli(["run", "unproj.plane_incidences", "--primes", "4294967357"])
    assert res.returncode == 2
    assert "2^31" in res.stderr
