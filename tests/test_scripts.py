import hashlib
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_count_points_smoke():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "count_points.py"),
         "--primes", "5,13", "--draws", "1"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "group certification: pass" in res.stdout
    assert "GF(13), image downstairs 19216" in res.stdout


def test_count_points_counts_the_image_for_every_prime_the_budget_admits():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "count_points.py"),
         "--primes", "29,73", "--draws", "0"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "GF(29), image downstairs 405008" in res.stdout
    assert "GF(73), no image count (the grid scan at p = 73 needs 29986576 points" in res.stdout


def test_stream_digests_smoke():
    args = ["bicanon.s3_derivation", "--primes", "13"]
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "stream_digests.py"),
         "--base", "5", "--samples", "2", *args],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    lines = []
    for seed in (5, 1_000_005):
        stream = subprocess.run([sys.executable, "-m", "upv", "run", *args, "--seed", str(seed)],
                                capture_output=True, env=env, check=True).stdout
        lines.append(f"seed {seed}: sha256 {hashlib.sha256(stream).hexdigest()} "
                     "not_pass 0 exit 0")
    assert res.stdout.splitlines() == lines


def test_stream_digests_exit_one_on_a_failing_record():
    # nu4 = 0 is outside the q-invariance claim, so the record fails
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "stream_digests.py"),
         "--samples", "1", "grouprep.q_invariance", "--nu", "1,2,3,4,0", "--primes", "13"],
        capture_output=True, text=True)
    assert res.returncode == 1
    assert res.stdout.startswith("seed 0: sha256 ") and res.stdout.endswith(" not_pass 1 exit 1\n")


def test_rss_by_check_smoke():
    targets = ["grouprep.q_invariance", "cover.enumeration", "grouprep.j_stability"]
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "rss_by_check.py"),
         *targets, "--primes", "13", "--seed", "4"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [(check, status) for check, status, _ in lines] == [(t, "pass") for t in targets]
    rss = [float(mb) for _, _, mb in lines]
    assert rss == sorted(rss) and rss[0] > 0


def test_point_kernel_times_smoke():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "point_kernel_times.py"),
         "--primes", "13", "--repeats", "1"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lifts, line = res.stdout.splitlines()
    assert lifts.startswith("build_lifts_and_certify cold ")
    line, rows = line.split("; ")
    assert rows == "scanned rows 6 of 15 (3 involutions, 3 generators)"
    assert line.startswith("p 13: nu (") and " points, enumerate_surface cold " in line
    enum, cert = line.split(" points, ")[1].split(", certify_free_and_smooth ")
    for timing in (lifts.removeprefix("build_lifts_and_certify "),
                   enum.removeprefix("enumerate_surface "), cert):
        cold, warm = timing.split(", ")
        assert cold.startswith("cold ") and cold.endswith(" ms")
        assert warm.startswith("warm ") and warm.endswith(" ms")


def test_hilbert_times_smoke():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hilbert_times.py"),
         "--max-degree", "4", "--primes", "13,17", "--repeats", "1"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    first, *primes = res.stdout.splitlines()
    assert first.startswith("v_quotient to degree 4: ")
    assert first.endswith(" ms, h_V [1, 7, 33, 87, 185]")
    assert [line.split(":")[0] for line in primes] == ["p 13", "p 17"]
    for line in primes:
        assert ", t_profiles " in line and line.endswith(" ms, h_T [1, 7, 32, 80, 152]")


def test_algebra_times_smoke():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "algebra_times.py"),
         "--primes", "13", "--repeats", "1"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    kernels = ["build_v_ideal cold", "build_v_ideal cached", "mul", "add",
               "weighted_sum", "apply"]
    lines = res.stdout.splitlines()
    assert [line.rsplit(" ", 2)[0] for line in lines] == [
        f"{domain} {kernel}" for domain in ("QQ", "QI", "GF(13)") for kernel in kernels]
    assert all(line.endswith(" ms") for line in lines)
