"""Second-order symmetric Trotter evolution and fidelity figures of merit.

One elementary evolution e^{-i tau (H + sum 2 sigma_1)} is expanded as

    [ e^{-i tau H_el'/2n}  e^{-i tau lam H_mag/n}  e^{-i tau H_el'/2n} ]^n

with the electric factor an exact product of single-link X rotations
(modified links carry net coefficient +1 instead of -1) and the magnetic
factor an exact product of four-link ZZZZ exponentials; all terms inside a
factor commute, so the only approximation is the electric/magnetic split.
Consecutive electric half-factors inside one evolution are merged.
This module runs that product as a sector operator, or on one state
(``measure``'s oracle lines, which need only W psi and W_nT psi).  Its
rows are the sector's cycle coordinates (``gauge.build_physical_sector``),
where every plaquette and spatial step is an index flip through
``gauge.flipped``.
The literal gate list (``wilson.trotterized_program_circuit``, which
``export-circuit`` writes and ``measure`` controls, from one walk of the
program) and its full-space run
(``statevec.trotterized_loop_operator_fullspace``, the same gates) live
elsewhere: this module builds no Pauli string and no 2**L register.

Fidelities follow the two figures of merit reported for the sweeps:
operator fidelity |tr(W^dag W')| with normalized trace, and state fidelity
|<psi| W^dag W' |psi>|.  Infidelity series are fit to a power law on
log-log axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gauge import (PhysicalSector, SectorMoves, Z2Model, _link_mask,
                    _plaquette_rows, _refuse_dense, electric_diag,
                    evolve_vector, exact_evolve_in_sector, flipped,
                    unitarity_error)
from .programs import LoopProgram, Spatial, _check_program

INFIDELITY_FLOOR = 1e-13


# ---------------------------------------------------------------------------
# loop operators in the physical sector
# ---------------------------------------------------------------------------

def _walk(model: Z2Model, sector: PhysicalSector, program: LoopProgram,
          temporal, w: np.ndarray | None = None) -> np.ndarray:
    """The program's product applied to the start block ``w``, whose rows
    are ``sector``'s: a spatial step is a copy of the index-flip view
    (:meth:`SectorMoves.flip`), a temporal step in the current sector
    ``sec`` is ``w = temporal(sec, step, w)``.  The start block is
    the identity by default, which gives the dense dim x dim operator and
    is refused above the dense-matrix limit; a state as one column of its
    own, (dim, 1), gives the operator applied to that state."""
    _check_program(model.lattice, program)
    if w is None:
        _refuse_dense(sector.dim)
        w = np.eye(sector.dim, dtype=np.complex128)
    moves = SectorMoves(model, sector)
    for step in program.steps:
        if isinstance(step, Spatial):
            sector, k = moves.flip(sector, _link_mask(step.links))
            w = flipped(w, k).reshape(w.shape)
        else:
            w = temporal(sector, step, w)
    return w


def _column(psi: np.ndarray) -> np.ndarray:
    """A copy of the sector state ``psi`` as a complex (dim, 1) block, the
    vector routes' start: the walk may write to its start in place."""
    return np.array(psi, dtype=np.complex128).reshape(-1, 1)


def exact_loop_operator(model: Z2Model, sector: PhysicalSector,
                        program: LoopProgram) -> np.ndarray:
    """Oracle W: exact sector product of the program's steps, each
    temporal step one ``eigh`` evolution."""
    return _walk(model, sector, program,
                 lambda sec, step, w: exact_evolve_in_sector(
                     model, sec, step.tau, step.modified_links) @ w)


def exact_loop_vector(model: Z2Model, sector: PhysicalSector,
                      program: LoopProgram, psi: np.ndarray) -> np.ndarray:
    """W psi, without W: the walk of :func:`exact_loop_operator` started
    from ``psi``, each temporal step a matrix-free Krylov exponential
    (:func:`.gauge.evolve_vector`)."""
    return _walk(model, sector, program,
                 lambda sec, step, w: evolve_vector(
                     model, sec, step.tau, step.modified_links, w[:, 0]
                 )[:, None], _column(psi))[:, 0]


def trotterized_loop_operator(model: Z2Model, sector: PhysicalSector,
                              program: LoopProgram, n_T: int
                              ) -> np.ndarray:
    """W_{n_T}: the Trotterized program restricted to the sector, exactly.

    Every Trotter factor commutes with all star operators, so restriction
    commutes with the product: the operator is assembled directly in
    sector coordinates, where the electric factor is diagonal and each
    plaquette exponential is cos(theta) I + i sin(theta) (XOR permutation).
    Every spatial step and plaquette is an index flip (:func:`_walk`,
    :func:`_trotter_band`), bit-identical to the gather
    ``w = c * w + s * w[perm, :]``.  This reproduces the matrix of the
    exported gate circuit run in the full space
    (``statevec.trotterized_loop_operator_fullspace``) at dim x dim cost.
    """
    return _walk(model, sector, program,
                 lambda sec, step, w: _trotter_band(model, sec, step, n_T, w))


def trotterized_loop_vector(model: Z2Model, sector: PhysicalSector,
                            program: LoopProgram, n_T: int, psi: np.ndarray
                            ) -> np.ndarray:
    """W_{n_T} psi, without W_{n_T}: the walk of
    :func:`trotterized_loop_operator` started from ``psi``."""
    return _walk(model, sector, program,
                 lambda sec, step, w: _trotter_band(model, sec, step, n_T, w),
                 _column(psi))[:, 0]


def _trotter_band(model: Z2Model, sec: PhysicalSector, step, n_T: int,
                  w: np.ndarray) -> np.ndarray:
    """Apply one temporal step's Trotter product to ``w`` in place.

    Plaquette p maps row i of ``sec`` to row ``i ^ k_p``
    (:func:`.gauge.flipped`), for any lattice, with k_p read from
    :func:`.gauge._plaquette_rows` as by H and H v.  Each factor copies its
    view into one scratch matrix (a copy through negative strides is
    cheaper than arithmetic through them), then runs three in-place ufunc
    calls on contiguous matrices; nothing inside the loop allocates.  Row
    permutations are exact, c = (cos, 0) and s = (0, sin) give one nonzero
    product per component, and the sum keeps its order, so every entry is
    bit-identical to the gather ``c * w + s * w[perm, :]``.
    """
    views = [flipped(w, k) for k in _plaquette_rows(model, sec)]
    g = np.empty_like(w)
    g_cube = flipped(g, 0)                      # g's cube, as a view
    half = np.exp(-1j * (step.tau / (2 * n_T)) * electric_diag(
        model, sec, step.modified_links))[:, None]
    full = half * half
    theta = model.lam * step.tau / n_T
    # the gather's scalars, as 0-d complex128 arrays: a Python complex
    # would be converted to one in every call
    c, s = (np.array(complex(v)) for v in (np.cos(theta), 1j * np.sin(theta)))
    np.multiply(half, w, w)
    for k in range(n_T):
        for view in views:
            g_cube[...] = view
            np.multiply(g, s, g)
            np.multiply(w, c, w)
            np.add(w, g, w)
        np.multiply(half if k == n_T - 1 else full, w, w)
    return w


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------

def operator_fidelity(w_exact: np.ndarray, w_trot: np.ndarray) -> float:
    """|tr(W^dag W')| / dim (normalized trace, phase insensitive)."""
    if len(w_exact) != len(w_trot):
        raise ValueError(f"dimension mismatch {len(w_exact)} vs {len(w_trot)}")
    return float(abs(np.trace(w_exact.conj().T @ w_trot)) / len(w_exact))


def state_fidelity(psi_coords: np.ndarray, w_exact: np.ndarray,
                   w_trot: np.ndarray) -> float:
    """|<psi| W^dag W' |psi>| for a normalized sector state."""
    psi = np.asarray(psi_coords, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state is not normalized in the sector")
    return float(abs(np.vdot(w_exact @ psi, w_trot @ psi)))


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    std_error: float
    prefactor: float


@dataclass(frozen=True)
class FidelityReport:
    """Rows (n_T, operator fidelity, state fidelity) plus log-log fits.

    ``unitarity_errors[i]`` is the unitarity error of the Trotterized
    operator behind ``rows[i]`` and ``exact_unitarity_error`` that of the
    exact W, both max-entry norms of W^dag W - I on a ``dim``-dimensional
    sector.  Such an error eps bounds the operator's spectral norm by
    sqrt(1 + dim * eps), so no fidelity of a row can exceed the product
    of the two norm bounds (:meth:`fidelity_bound`); a row above it is
    refused.
    """

    rows: tuple[tuple[int, float, float], ...]
    fit_op: PowerLawFit | None
    fit_gs: PowerLawFit | None
    unitarity_errors: tuple[float, ...]
    exact_unitarity_error: float
    dim: int

    def __post_init__(self):
        ns = [n for n, _, _ in self.rows]
        if ns != sorted(ns):
            raise ValueError("report rows must be sorted by n_T")
        if len(self.unitarity_errors) != len(self.rows):
            raise ValueError("need one unitarity error per report row")
        for i, (n, fop, fgs) in enumerate(self.rows):
            bound = self.fidelity_bound(i)
            if not (0 <= fop <= bound and 0 <= fgs <= bound):
                raise ValueError(f"fidelity outside [0, {bound:.17g}] at "
                                 f"n_T={n}: {fop}, {fgs}")

    def fidelity_bound(self, i: int) -> float:
        """Largest fidelity row ``i`` can reach given both unitarity errors."""
        return float(np.sqrt(1 + self.dim * self.exact_unitarity_error)
                     * np.sqrt(1 + self.dim * self.unitarity_errors[i]))


def fit_power_law(rows) -> PowerLawFit:
    """Least-squares line on (log n, log infidelity).

    Rows with infidelity at or below the 1e-13 numerical floor are excluded
    with a warning; at least three surviving rows are required.
    """
    kept = []
    for n, y in rows:
        if y <= INFIDELITY_FLOOR:
            warnings.warn(
                f"infidelity {y:.3e} at n_T={n} is below the numerical "
                f"floor {INFIDELITY_FLOOR}; row excluded from fit"
            )
        else:
            kept.append((n, y))
    if len(kept) < 3:
        raise ValueError(f"power-law fit needs >= 3 usable rows, have {len(kept)}")
    x = np.log(np.array([n for n, _ in kept], dtype=float))
    y = np.log(np.array([v for _, v in kept], dtype=float))
    m = len(kept)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid ** 2) / max(m - 2, 1))
    return PowerLawFit(exponent=slope,
                       std_error=float(np.sqrt(s2 / sxx)),
                       prefactor=float(np.exp(intercept)))


def sweep(model: Z2Model, program: LoopProgram, coords: np.ndarray,
          n_T_list, sector: PhysicalSector) -> FidelityReport:
    """Both fidelities per n_T against one exact oracle W.

    ``coords`` is a normalized state in the coordinates of the physical
    ``sector`` (typically the ground state).  Entries are independent; the
    report is ordered by n_T.
    """
    n_T_list = list(n_T_list)
    if not n_T_list:
        raise ValueError("n_T list is empty")
    if any(b <= a for a, b in zip(n_T_list, n_T_list[1:])):
        raise ValueError(f"n_T list must be strictly increasing: {n_T_list}")
    if abs(np.linalg.norm(coords) - 1.0) > 1e-10:
        raise ValueError("psi is not a normalized physical-sector state")
    w_exact = exact_loop_operator(model, sector, program)
    rows = []
    unitarity_errors = []
    for n_T in n_T_list:
        w_trot = trotterized_loop_operator(model, sector, program, n_T)
        rows.append((int(n_T),
                     operator_fidelity(w_exact, w_trot),
                     state_fidelity(coords, w_exact, w_trot)))
        unitarity_errors.append(unitarity_error(w_trot))
    fit_op = fit_gs = None
    op_rows = [(n, 1.0 - f) for n, f, _ in rows]
    gs_rows = [(n, 1.0 - f) for n, _, f in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fit_op = fit_power_law(op_rows)
        except ValueError:
            pass
        try:
            fit_gs = fit_power_law(gs_rows)
        except ValueError:
            pass
    return FidelityReport(tuple(rows), fit_op, fit_gs, tuple(unitarity_errors),
                          unitarity_error(w_exact), sector.dim)


def report_to_csv(report: FidelityReport) -> str:
    """CSV body: header row, 17-significant-digit rows, fit comment lines."""
    lines = ["n_T,op_fidelity,gs_fidelity"]
    for n, fop, fgs in report.rows:
        lines.append(f"{n},{fop:.17g},{fgs:.17g}")
    for name, fit in (("op", report.fit_op), ("gs", report.fit_gs)):
        if fit is not None:
            lines.append(f"# fit {name}: exponent={fit.exponent:.17g} "
                         f"stderr={fit.std_error:.17g} "
                         f"prefactor={fit.prefactor:.17g}")
    return "\n".join(lines) + "\n"
