"""Every script in ``examples/`` runs to completion.

The examples are the README's first commands, so they run here in a
fresh interpreter exactly as a reader would start them (``PYTHONPATH``
pointing at ``src``) and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script):
    result = _run(script)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    if script.name == "crash_recovery.py":
        assert "honoured its contract" in result.stdout
