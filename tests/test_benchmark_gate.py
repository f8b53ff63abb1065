"""The benchmark's correctness gate, one checked pass per in-process workload.

`perfbench/run.py --seconds 0` runs one pass and holds every solve to the
iteration and oracle-call counts in `perfbench/expected_counts.json` and to
the certificate checks, so a change that moves a count fails here.  Its
outputs go to the git-ignored `perfbench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["polytope-corrective", "stableset-sweep", "matching-sweep"])
def test_benchmark_gate_passes(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert json.loads(out.stdout.splitlines()[-1])["failed"] == 0
