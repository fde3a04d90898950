"""The layer timings in ``perf/`` still run: each case once, untimed.

The suite does not collect ``perf/`` (it times, and takes minutes with
timing on), so without this a change that breaks a layer case, by
renaming what it calls or changing what it asserts, would go unseen
until the next time someone times the layers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_cases_run_once_untimed():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "perf", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
