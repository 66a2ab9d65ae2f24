"""Import-time BLAS thread default: one thread, set before numpy loads,
never overridden.

Each case runs a fresh interpreter, because OpenBLAS reads its environment
only once, when numpy first loads it.  ``import z2wilson`` sets the
variable but loads no numpy; the first numerical submodule loads it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
VAR = "OPENBLAS_NUM_THREADS"


def child_env(**extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(VAR, None)
    env.update(extra)
    return env


def run_child(code, **extra):
    out = subprocess.run([sys.executable, "-c", code], env=child_env(**extra),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


PRINT_VAR = f"import os; print(os.environ.get({VAR!r}, 'unset'))"


def test_import_sets_one_thread():
    assert run_child("import z2wilson; " + PRINT_VAR) == "1"


def test_preset_value_kept():
    assert run_child("import z2wilson; " + PRINT_VAR, **{VAR: "2"}) == "2"


def test_numpy_loaded_first_is_left_alone():
    assert run_child("import numpy, z2wilson; " + PRINT_VAR) == "unset"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.skipif(not _uses_openblas(), reason="numpy is not on OpenBLAS")
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS runs one thread on a 1-CPU host anyway")
def test_eigensolve_runs_on_one_thread():
    """After a 256 x 256 eigh, the size of the rect:4x2 ground state, the
    process has no thread besides the main one (OpenBLAS would have
    started its helpers when numpy loaded)."""
    code = ("import os, z2wilson.gauge, numpy as np\n"
            "a = np.random.default_rng(0).standard_normal((256, 256))\n"
            "np.linalg.eigh(a + a.T)\n"
            "print(len(os.listdir('/proc/self/task')))")
    assert run_child(code) == "1"


def test_tier1_runs_on_the_package_default():
    """``conftest`` imports the package before numpy, so this process's
    BLAS reads the package's default (or the caller's preset): an
    in-process solve rounds as a CLI process does on any host."""
    import conftest

    assert not conftest.NUMPY_BEFORE_PACKAGE
    assert VAR in os.environ
    if (os.environ[VAR] == "1" and os.path.isdir("/proc/self/task")
            and _uses_openblas()):
        a = np.arange(256.0 * 256).reshape(256, 256) % 7
        np.linalg.eigh(a + a.T)
        assert len(os.listdir("/proc/self/task")) == 1
