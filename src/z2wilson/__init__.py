"""z2wilson: space-time Wilson loops in pure Z(2) lattice gauge theory.

A dense statevector simulator for constructing, Trotterizing, and
measuring gauge-invariant space-time Wilson loops: plaquette-based ancilla
circuits, link-based matter-hopping circuits, exact sector oracles, and
the Trotter fidelity-scaling experiment on the 16-link cross lattice.
"""

import os
import sys

__version__ = "0.1.0"

# Idle OpenBLAS helper threads otherwise spin ~0.1 s of CPU after every call.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

from .lattice import (Lattice, build_cross, build_rect, lattice_from_text,
                      lattice_to_text, validate)
from .statevec import (PauliString, StateVector, apply_controlled_pauli_exp,
                       apply_pauli, apply_pauli_exp, expect_pauli, init_basis,
                       inner, qubit_purity, reduced_qubit_density)
from .gauge import (DegenerateGroundStateWarning, PhysicalSector,
                    SectorOperator, Z2Model, build_physical_sector,
                    electric_diag, exact_evolve_in_sector, gauge_violation,
                    ground_state, hamiltonian_in_sector, sector_basis_dump,
                    sector_gauge_violation, sector_ground_state,
                    sector_spectrum, spatial_loop_in_sector, star_operator,
                    xor_perm)
from .programs import (FreeEvolve, LoopProgram, ProgramError, Spatial,
                       Temporal, program_from_text, program_to_text,
                       staircase_default, validate_program)
from .trotter import (FidelityReport, PowerLawFit, TrotterPlan,
                      exact_loop_operator, fit_power_law, operator_fidelity,
                      report_to_csv, state_fidelity, sweep, trotter_evolve,
                      trotter_strings, trotterized_loop_operator)
from .circuits import (Circuit, ControlledPauliExp, Measure, PauliExp,
                       ResetAncilla, circuit_stats, circuit_to_text,
                       run_circuit, star_commutation_report)
from .wilson import (conjugated_temporal_plaquette, controlled_loop,
                     hadamard_test, link_loop_circuit, link_loop_closure,
                     link_wilson_line, plaquette_exp_via_ancilla,
                     rect_loop_link_circuit, rect_loop_plaquette_circuit,
                     spatial_loop_direct, spatial_loop_via_ancilla,
                     temporal_plaquette_exact, trotterized_program_circuit)
