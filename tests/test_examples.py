"""Every script in ``examples/`` runs to completion.

Each example runs as a user would run it: a fresh interpreter, the
package on ``PYTHONPATH``, and an empty working directory, so a script
that writes files writes them into the test's ``tmp_path``. An example
passes when it exits 0 and prints something. The examples also root
``tests/test_reachability.py``'s walk: library code only an example
reaches is kept because this test runs it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
