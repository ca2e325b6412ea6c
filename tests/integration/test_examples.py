"""Runnable examples stay runnable.

``examples/visualize_replay.py`` drives the pipeline tracer through
the probe API; running it end to end catches API drift the library
tests would not see.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_visualize_replay_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / "visualize_replay.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "replay trail of the transmit divide" in proc.stdout
    assert "squashed @" in proc.stdout
