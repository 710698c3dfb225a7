"""What padfd writes for the benchmark's commands is what the committed
output manifest records (see tests/output_manifest.py)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("output_manifest.py")


def test_first_case_of_each_workload_matches_the_committed_manifest():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1", "--first-case", "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout) == (0, ""), done.stdout + done.stderr
    assert done.stderr == "8 lines regenerated; all match\n"
