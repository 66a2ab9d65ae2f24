"""Import footprint: the package namespace is lazy, and each CLI command
loads only the layers it runs.

Each case runs a fresh interpreter, so that ``sys.modules`` shows what the
package and one command loaded.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import z2wilson

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

LOADED = """
import json, sys
loaded = sorted(m for m in sys.modules if m.startswith("z2wilson."))
print(json.dumps({"modules": loaded, "numpy": "numpy" in sys.modules}))
"""

RUN_COMMAND = """
import contextlib, io, sys
from z2wilson.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert code == 0, code
""" + LOADED


def loaded_by(code, *argv):
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    modules = {m.removeprefix("z2wilson.") for m in result["modules"]}
    return modules, result["numpy"]


ALL_LAYERS = {"cli", "lattice", "statevec", "gauge", "programs", "trotter",
              "circuits", "wilson"}


@pytest.mark.parametrize("argv, modules, numpy", [
    (["validate", "--lattice", "cross"], {"cli", "lattice"}, False),
    (["ground-state", "--lattice", "rect:2x2"],
     {"cli", "lattice", "gauge"}, True),
    (["sweep", "--nt", "2,4"],
     {"cli", "lattice", "gauge", "programs", "statevec", "trotter"}, True),
    (["measure", "--nt", "2"], ALL_LAYERS, True),
    (["export-circuit", "--nt", "2"], ALL_LAYERS, True),
], ids=["validate", "ground-state", "sweep", "measure", "export-circuit"])
def test_command_loads_only_its_layers(argv, modules, numpy):
    assert loaded_by(RUN_COMMAND, *argv) == (modules, numpy)


def test_bare_import_loads_nothing():
    assert loaded_by("import z2wilson" + LOADED) == (set(), False)


def test_submodule_attribute_loads_it():
    code = "import z2wilson; z2wilson.trotter.sweep" + LOADED
    assert loaded_by(code) == (
        {"lattice", "statevec", "gauge", "programs", "trotter"}, True)


def test_exports_are_the_defining_modules_objects():
    for name in z2wilson.__all__:
        obj = getattr(z2wilson, name)
        assert obj.__module__.startswith("z2wilson."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(z2wilson.__all__) <= set(dir(z2wilson))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        z2wilson.no_such_name
    with pytest.raises(ImportError):
        from z2wilson import no_such_name  # noqa: F401
