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
