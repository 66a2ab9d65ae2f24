"""z2wilson: space-time Wilson loops in pure Z(2) lattice gauge theory.

An exact Gauss-law-sector simulator for constructing, Trotterizing, and
measuring gauge-invariant space-time Wilson loops: plaquette-based ancilla
circuits, link-based matter-hopping circuits, exact sector oracles, and
the Trotter fidelity-scaling experiment on the 16-link cross lattice.

Layers, each importing only those before it: ``lattice`` (geometry),
``gauge`` (the Gauss-law sector basis), ``programs`` (loop programs),
``trotter`` (sector loop operators and fidelities), ``circuits`` (Pauli
strings, circuits and their sector-block executor), ``wilson`` (every gate
list) and ``statevec``, the one module that knows the full 2**L register
and the full-space reference routes.  ``cli`` runs every command in
sector coordinates and never loads ``statevec``.  ``philox``, which
imports only ``math``, draws the shots of ``measure``.

The namespace is lazy: ``z2wilson.X`` and ``from z2wilson import X`` load
the submodule that defines ``X`` on first use, so importing the package
loads no submodule and no numpy.  ``statevec``'s names are imported
from it.
"""

import importlib
import os
import sys

__version__ = "0.1.0"

# One BLAS thread unless the caller says otherwise: a second thread has to
# be woken for each of the many small BLAS calls inside LAPACK's eigensolver,
# which takes a rect:4x2 ground-state request (one real 256 x 256 eigh)
# from 0.14 s to 0.23 s of CPU, and on one thread results do not depend on
# the host's core count.  Set here, so it is in place before any submodule
# loads numpy.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# submodule -> the names the package exports from it
_EXPORTS = {
    "lattice": ("Lattice", "boundary_walk", "build_cross", "build_rect",
                "lattice_from_text", "lattice_to_text", "validate"),
    "statevec": (),     # the full-space reference routes stay in it
    "gauge": ("DegenerateGroundStateWarning", "PhysicalSector", "SectorMoves",
              "Z2Model", "build_physical_sector", "electric_diag",
              "evolve_vector", "exact_evolve_in_sector", "hamiltonian_in_sector",
              "sector_basis_dump", "sector_gauge_violation",
              "sector_ground_state", "spatial_loop_in_sector",
              "spectral_bound", "unitarity_error"),
    "programs": ("LoopProgram", "ProgramError", "Spatial", "Temporal",
                 "program_from_text", "program_to_text", "staircase_default",
                 "validate_program"),
    "trotter": ("FidelityReport", "PowerLawFit", "exact_loop_operator",
                "exact_loop_vector", "fit_power_law", "operator_fidelity",
                "report_to_csv", "state_fidelity", "sweep",
                "trotterized_loop_operator", "trotterized_loop_vector"),
    "circuits": ("Circuit", "ControlledPauliExp", "Measure", "PauliExp",
                 "PauliString", "ResetAncilla", "circuit_stats",
                 "circuit_to_text", "run_blocks", "star_commutation_report",
                 "star_operator"),
    "wilson": ("conjugated_temporal_plaquette", "controlled_loop",
               "hadamard_test", "link_loop_circuit", "link_loop_closure",
               "link_wilson_line", "plaquette_exp_via_ancilla",
               "rect_loop_link_circuit", "rect_loop_plaquette_circuit",
               "sample_p_plus", "spatial_loop_via_ancilla",
               "temporal_plaquette_exact", "trotter_strings",
               "trotterized_program_circuit"),
    "philox": ("Philox",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SOURCE.keys())
