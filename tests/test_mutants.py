"""How the mutation catalogue (``tests/mutants.py``) names a mutant's killer.

A run that fails names its first failing test; a run that a signal ends
prints no summary, so the killer is read from the faulthandler dump pytest
writes to stderr (innermost frame first).  The dump below is one such
dump, from a test that reads address 0 through ``ctypes.string_at``, with
its paths shortened.
"""

import subprocess

from mutants import _killer

CRASH_DUMP = """\
Fatal Python error: Segmentation fault

Current thread 0x00007f52a323cb80 (most recent call first):
  File "/usr/lib/python3.11/ctypes/__init__.py", line 519 in string_at
  File "/tmp/z2w-mutants-x1/tests/test_crash.py", line 6 in helper
  File "/tmp/z2w-mutants-x1/tests/test_crash.py", line 9 in test_crashes
  File "/usr/lib/python3.11/site-packages/_pytest/python.py", line 166 in pytest_pyfunc_call
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "<frozen runpy>", line 198 in _run_module_as_main
"""


def run(returncode, stdout="", stderr=""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_crash_names_the_innermost_test_frame():
    assert (_killer(run(-11, stderr=CRASH_DUMP))
            == "crashed (signal 11) in tests/test_crash.py::test_crashes")


def test_crash_without_a_test_frame_names_the_signal():
    no_test = CRASH_DUMP.replace("tests/test_crash.py", "src/helper.py")
    assert _killer(run(-6, stderr=no_test)) == "crashed (signal 6)"


def test_failure_names_the_first_failing_test():
    out = ("..F\nFAILED tests/test_x.py::TestA::test_b - AssertionError\n"
           "FAILED tests/test_x.py::TestA::test_c - AssertionError\n")
    assert _killer(run(1, stdout=out)) == "by tests/test_x.py::TestA::test_b"
    assert _killer(run(1, stdout="no summary")) == "by a failing run"
