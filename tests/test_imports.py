"""Every growreg module imports on its own, whatever imports it first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "growreg").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter, so no earlier import hides a cycle
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", f"import growreg.{module}"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
