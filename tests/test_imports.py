"""Import footprint: the package namespace is lazy, each CLI command
loads only the layers it runs, no command loads ``statevec``, the one
module that knows the full 2**L register, and no command loads
``numpy.random`` or maps OpenSSL (``_hashlib``): headers hash with
CPython's own SHA-256 and shots come from the package's ``philox``.

Each case runs a fresh interpreter, so that ``sys.modules`` shows what the
package and one command loaded.
"""

import ast
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
print(json.dumps({"modules": loaded, "numpy": "numpy" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules,
                  "secrets": "secrets" in sys.modules,
                  "openssl": "_hashlib" in sys.modules}))
"""

RUN_COMMAND = """
import contextlib, io, sys
from z2wilson.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert code == 0, code
""" + LOADED


def run_loaded(code, *argv):
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def loaded_by(code, *argv):
    result = run_loaded(code, *argv)
    modules = {m.removeprefix("z2wilson.") for m in result["modules"]}
    return modules, result["numpy"]


@pytest.mark.parametrize("argv, modules, numpy", [
    (["validate", "--lattice", "cross"], {"cli", "lattice"}, False),
    (["ground-state", "--lattice", "rect:2x2"],
     {"cli", "lattice", "gauge"}, True),
    (["sweep", "--nt", "2,4"],
     {"cli", "lattice", "gauge", "programs", "trotter"}, True),
    (["measure", "--nt", "2", "--shots", "10"],
     {"cli", "lattice", "gauge", "programs", "trotter", "circuits", "wilson",
      "philox"}, True),
    (["export-circuit", "--nt", "2"],
     {"cli", "lattice", "gauge", "programs", "circuits", "wilson"}, True),
], ids=["validate", "ground-state", "sweep", "measure", "export-circuit"])
def test_command_loads_only_its_layers(argv, modules, numpy):
    assert loaded_by(RUN_COMMAND, *argv) == (modules, numpy)


@pytest.mark.parametrize("argv", [
    ["validate", "--lattice", "cross"],
    ["sweep", "--nt", "2,4"],
    ["ground-state", "--lattice", "rect:2x2", "--out", "OUT"],
    ["export-circuit", "--kind", "plaquette-loop", "--lattice", "rect:2x2"],
    ["export-circuit", "--kind", "link-loop", "--lattice", "rect:2x2"],
    # the measure-cross request shape; its shots come from the package's
    # Philox, not numpy.random, which maps OpenSSL through secrets
    ["measure", "--nt", "9", "--shots", "10"],
], ids=["validate", "sweep", "ground-state", "plaquette-loop", "link-loop",
        "measure"])
def test_header_hash_maps_no_openssl(argv, tmp_path):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    result = run_loaded(RUN_COMMAND, *argv)
    assert not (result["openssl"] or result["secrets"]
                or result["numpy_random"])


def test_bare_import_loads_nothing():
    assert loaded_by("import z2wilson" + LOADED) == (set(), False)


def test_submodule_attribute_loads_it():
    code = "import z2wilson; z2wilson.trotter.sweep" + LOADED
    assert loaded_by(code) == ({"lattice", "gauge", "programs", "trotter"},
                               True)


def test_only_statevec_imports_statevec():
    package = os.path.join(SRC, "z2wilson")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "statevec.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                targets = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            assert not any(t.split(".")[-1] == "statevec" for t in targets), (
                name, node.lineno)


def test_probe_imports_still_resolve():
    # the names the benchmark's kernel probe imports from the module
    code = ("from z2wilson.statevec import (PauliString, StateVector, "
            "apply_pauli_exp, apply_controlled_pauli_exp)\n"
            "import numpy as np\n"
            "sv = StateVector(3, np.eye(8, dtype=complex)[0])\n"
            "apply_pauli_exp(sv, PauliString({0: 'X'}), 0.1)\n"
            "apply_controlled_pauli_exp(sv, 2, 'z', PauliString({0: 'Z'}), "
            "0.1)\n" + LOADED)
    modules, numpy = loaded_by(code)
    assert "statevec" in modules and numpy


def test_exports_are_the_defining_modules_objects():
    for name in z2wilson.__all__:
        obj = getattr(z2wilson, name)
        assert obj.__module__.startswith("z2wilson."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(z2wilson.__all__) <= set(dir(z2wilson))


def test_full_space_names_not_exported():
    # the full-space reference routes are imported from z2wilson.statevec
    import z2wilson.statevec as statevec
    own = {name for name, obj in vars(statevec).items()
           if getattr(obj, "__module__", None) == "z2wilson.statevec"}
    assert "run_circuit" in own and "StateVector" in own
    assert not own & set(z2wilson.__all__)
    assert "ground_state" not in z2wilson.__all__
    assert z2wilson.statevec is statevec


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        z2wilson.no_such_name
    with pytest.raises(ImportError):
        from z2wilson import no_such_name  # noqa: F401
