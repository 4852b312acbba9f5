"""Every example script runs to completion.

Each script runs in its own interpreter the way its docstring says,
``python examples/<name>.py``, which also covers the ``quel`` example
package's import path from the scripts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(script, tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
