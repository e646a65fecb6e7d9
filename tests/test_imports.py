"""Every growreg module imports on its own, whatever imports it first, and
scipy loads only at the first closed-form solve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "growreg").glob("*.py") if p.stem != "__init__")
IMPORT_ALL = f"import sys, {', '.join('growreg.' + m for m in MODULES)}\n"


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
        + IMPORT_ALL +
        "from growreg.netcore import LayerSpec, Network, accuracy\n"
        "net = Network.initialize((LayerSpec('dense', 2, activation='none'),), (2,), 2)\n"
        "accuracy(net, numpy.ones((512, 2)), numpy.zeros(512, int))\n"
        "print(before, get())\n"
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert before == after


def test_scipy_loads_at_the_first_solve_and_not_before():
    result = run_fresh(
        IMPORT_ALL +
        "from growreg.quadratic import QuadraticModel, perturbed_minimum\n"
        "model = QuadraticModel(hessian=[[2.0, 0.5], [0.5, 1.0]], w_star=[1.0, -1.0])\n"
        "before = 'scipy' in sys.modules\n"
        "perturbed_minimum(model, 0.01)\n"
        "print(before, 'scipy' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_oracle_command_runs_in_a_fresh_interpreter(tmp_path):
    # the in-process CLI tests run after other tests have loaded scipy
    result = run_fresh(
        "from growreg.cli import main\n"
        f"main(['oracle', '--dim', '4', '--cases', '2', '--out', {str(tmp_path)!r}])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("oracle: 2 case(s), max residual")
    assert (tmp_path / "oracle_report.csv").exists()


def test_a_singular_first_solve_raises_singular_system_error():
    result = run_fresh(
        "from growreg.errors import SingularSystemError\n"
        "from growreg.quadratic import QuadraticModel, perturbed_minimum\n"
        "model = QuadraticModel(hessian=[[1.0, 0.0], [0.0, 0.0]], w_star=[1.0, 1.0])\n"
        "try:\n"
        "    perturbed_minimum(model, 0.0)\n"
        "except SingularSystemError:\n"
        "    print('singular')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["singular"]
