"""Every script under demos/ runs to completion against the package in src/
and prints, byte for byte, the stdout recorded in tests/demo_stdout/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["binary_concatenated_family", "pyramid_and_dominance",
                                  "shorten_for_two_localities"])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run([sys.executable, str(_ROOT / "demos" / f"{demo}.py")],
                            capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == (_ROOT / "tests" / "demo_stdout" / f"{demo}.txt").read_bytes()
