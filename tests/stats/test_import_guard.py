"""No program entry point may load ``scipy.stats``.

``repro.stats`` computes its regression and t quantiles on
``scipy.special``; importing ``scipy.stats`` costs about half a second
per process (every CLI run, serve process and pool worker).  The check
runs in a fresh interpreter so modules the test session already loaded
cannot mask an import.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro.cli
import repro.observers
import repro.data.serve
assert 'scipy.stats' not in sys.modules, sorted(
    m for m in sys.modules if m.startswith('scipy.stats')
)
"""


def test_entry_points_do_not_import_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
