"""The benchmark's smoke mode: every workload runs a few ops in both modes and
reports every metric of BENCHMARK.json with its unit."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"correct": true') == 8, proc.stdout
