"""Import-time BLAS idle timeout: set before numpy loads, never overridden.

Each case runs a fresh interpreter, because OpenBLAS reads its environment
only once, when numpy first loads it.  ``import z2wilson`` sets the
variable but loads no numpy; the first numerical submodule loads it.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
VAR = "OPENBLAS_THREAD_TIMEOUT"


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
THREADS = "import os; print(len(os.listdir('/proc/self/task')))"


def test_import_sets_timeout():
    assert run_child("import z2wilson; " + PRINT_VAR) == "16"


def test_preset_value_kept():
    assert run_child("import z2wilson; " + PRINT_VAR, **{VAR: "10"}) == "10"


def test_numpy_loaded_first_is_left_alone():
    assert run_child("import numpy, z2wilson; " + PRINT_VAR) == "unset"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_thread_count_unchanged():
    with_package = run_child("import z2wilson.gauge; " + THREADS)
    numpy_alone = run_child("import numpy; " + THREADS)
    assert with_package == numpy_alone


@pytest.mark.skipif(not _uses_openblas(), reason="numpy is not on OpenBLAS")
def test_cli_process_does_not_spin_blas_threads():
    """Child CPU time may not exceed its wall time: no helper thread spins.

    The command must wake the BLAS threads: ``validate`` loads no numpy,
    and a 16 x 16 eigensolve (rect:2x2) runs on one thread.  ``sweep``'s
    products do; at a timeout of 28 they spin about 0.1 s past wall time."""
    cmd = [sys.executable, "-m", "z2wilson.cli", "sweep", "--nt", "2"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    cpu = usage.ru_utime + usage.ru_stime
    assert cpu - wall < 0.04, f"cpu {cpu:.3f} s against wall {wall:.3f} s"
