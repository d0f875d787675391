"""The benchmark's self-test runs in the tier-1 suite, so a change to an API
the benchmark's checks read fails here rather than in a benchmark run."""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
