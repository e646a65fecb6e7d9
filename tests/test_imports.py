"""Every growreg module imports on its own, whatever imports it first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "growreg").glob("*.py") if p.stem != "__init__")



def run_fresh(code):
    """Run ``code`` in a new interpreter that imports growreg from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter, so no earlier import hides a cycle
    result = run_fresh(f"import growreg.{module}")
    assert result.returncode == 0, result.stderr


def test_import_leaves_the_blas_thread_count_alone():
    result = run_fresh(
        "import ctypes, numpy\n"
        "lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)\n"
        "get = getattr(lib, 'scipy_openblas_get_num_threads64_', lambda: 0)\n"
        "before = get()\n"
        f"import {', '.join('growreg.' + m for m in MODULES)}\n"
        "from growreg.netcore import LayerSpec, Network, accuracy\n"
        "net = Network.initialize((LayerSpec('dense', 2, activation='none'),), (2,), 2)\n"
        "accuracy(net, numpy.ones((512, 2)), numpy.zeros(512, int))\n"
        "print(before, get())\n"
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert before == after
