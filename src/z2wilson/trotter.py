"""Second-order symmetric Trotter evolution and fidelity figures of merit.

One elementary evolution e^{-i tau (H + sum 2 sigma_1)} is expanded as

    [ e^{-i tau H_el'/2n}  e^{-i tau lam H_mag/n}  e^{-i tau H_el'/2n} ]^n

with the electric factor an exact product of single-link X rotations
(modified links carry net coefficient +1 instead of -1) and the magnetic
factor an exact product of four-link ZZZZ exponentials; all terms inside a
factor commute, so the only approximation is the electric/magnetic split.
Consecutive electric half-factors inside one evolution are merged.

Fidelities follow the two figures of merit reported for the sweeps:
operator fidelity |tr(W^dag W')| with normalized trace, and state fidelity
|<psi| W^dag W' |psi>|.  Infidelity series are fit to a power law on
log-log axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gauge import (PhysicalSector, SectorOperator, Z2Model, _link_mask,
                    build_physical_sector, electric_diag,
                    embed_sector_coords, exact_evolve_in_sector,
                    plaquette_string, project_to_sector, xor_perm)
from .lattice import _odd_links
from .programs import (LoopProgram, ProgramError, Spatial, Temporal,
                       program_errors)
from .statevec import (PauliString, StateVector, pauli_apply_inplace,
                       pauli_exp_inplace)

INFIDELITY_FLOOR = 1e-13


@dataclass(frozen=True)
class TrotterPlan:
    """Homogeneous plan: same n_T for every elementary evolution."""

    n_T: int
    tau: float

    def __post_init__(self):
        if self.n_T < 1:
            raise ValueError(f"n_T must be >= 1, got {self.n_T}")


def _spatial_string(links) -> PauliString:
    """Z product over a chain; links traversed twice cancel (Z**2 = I)."""
    return PauliString({li: "Z" for li in _odd_links(links)})


def trotter_strings(model: Z2Model, plan: TrotterPlan,
                    modified_links: frozenset[int] | set[int] = frozenset()
                    ) -> list[tuple[PauliString, float]]:
    """Gate list (string, theta) realizing one Trotterized evolution.

    Convention: each entry applies e^{i theta P}.  Electric rotations are
    ordered by link id, plaquette exponentials by plaquette id.
    """
    lat = model.lattice
    n, tau = plan.n_T, plan.tau
    half = tau / (2 * n)
    mag = model.lam * tau / n

    def electric(scale: float) -> list[tuple[PauliString, float]]:
        out = []
        for li in range(lat.n_links):
            sign = -1.0 if li in modified_links else +1.0
            out.append((PauliString({li: "X"}), sign * scale))
        return out

    def magnetic() -> list[tuple[PauliString, float]]:
        return [(plaquette_string(lat, pi), mag)
                for pi in range(lat.n_plaquettes)]

    gates: list[tuple[PauliString, float]] = []
    gates += electric(half)
    for step in range(n):
        gates += magnetic()
        gates += electric(half if step == n - 1 else 2 * half)
    return gates


def trotter_evolve(sv: StateVector, model: Z2Model, tau: float, n_T: int,
                   modified_links: frozenset[int] | set[int] = frozenset()
                   ) -> None:
    """Apply the Trotterized evolution to the state in place."""
    for string, theta in trotter_strings(model, TrotterPlan(n_T, tau),
                                         modified_links):
        pauli_exp_inplace(sv.amps, string, theta, sv.n_qubits)


# ---------------------------------------------------------------------------
# loop operators in the physical sector
# ---------------------------------------------------------------------------

def _check_program(model: Z2Model, program: LoopProgram) -> None:
    errs = program_errors(model.lattice, program)
    if errs:
        raise ProgramError("; ".join(errs))


class _SectorTracker:
    """Runs a program's steps while following the current star-charge sector.

    A spatial chain with open ends moves the state into the sector charged
    -1 at its endpoints; evolutions stay inside whatever sector is current.
    Programs that pass validation always return to the physical sector.
    """

    def __init__(self, model: Z2Model, sector: PhysicalSector):
        self.model = model
        self.cache: dict[tuple[int, ...], PhysicalSector] = {
            sector.charges: sector}
        self.current = sector

    def sector_for(self, charges: tuple[int, ...]) -> PhysicalSector:
        if charges not in self.cache:
            self.cache[charges] = build_physical_sector(self.model, charges)
        return self.cache[charges]

    def spatial_perm(self, links) -> np.ndarray:
        """Row permutation realizing prod sigma_3; updates the sector."""
        mask = _link_mask(links)
        charges = list(self.current.charges)
        for li, (a, b) in enumerate(self.model.lattice.links):
            if mask >> li & 1:
                charges[a] *= -1
                charges[b] *= -1
        old, self.current = self.current, self.sector_for(tuple(charges))
        return xor_perm(old.masks, self.current.masks, mask)


def exact_loop_operator(model: Z2Model, sector: PhysicalSector,
                        program: LoopProgram) -> SectorOperator:
    """Oracle W: exact sector product of the program's steps."""
    _check_program(model, program)
    tracker = _SectorTracker(model, sector)
    w = np.eye(sector.dim, dtype=np.complex128)
    for step in program.steps:
        if isinstance(step, Spatial):
            w = w[tracker.spatial_perm(step.links), :]
        elif isinstance(step, Temporal):
            w = exact_evolve_in_sector(model, tracker.current, step.tau,
                                       step.modified_links).matrix @ w
        else:
            w = exact_evolve_in_sector(model, tracker.current,
                                       step.tau).matrix @ w
    return SectorOperator(w)


def trotterized_loop_operator(model: Z2Model, sector: PhysicalSector,
                              program: LoopProgram, n_T: int
                              ) -> SectorOperator:
    """W_{n_T}: the Trotterized program restricted to the sector, exactly.

    Every Trotter factor commutes with all star operators, so restriction
    commutes with the product: the operator is assembled directly in
    sector coordinates, where the electric factor is diagonal and each
    plaquette exponential is cos(theta) I + i sin(theta) (XOR permutation).
    This reproduces the full-space gate circuit matrix (see
    :func:`trotterized_loop_operator_fullspace`) at dim x dim cost.
    """
    _check_program(model, program)
    tracker = _SectorTracker(model, sector)
    w = np.eye(sector.dim, dtype=np.complex128)
    for step in program.steps:
        if isinstance(step, Spatial):
            w = w[tracker.spatial_perm(step.links), :]
            continue
        sec = tracker.current
        perms = [xor_perm(sec.masks, sec.masks, _link_mask(plaq))
                 for plaq in model.lattice.plaquettes]
        mods = step.modified_links if isinstance(step, Temporal) else frozenset()
        tau = step.tau
        half = np.exp(-1j * (tau / (2 * n_T)) *
                      electric_diag(model, sec, mods))
        theta = model.lam * tau / n_T
        c, s = np.cos(theta), 1j * np.sin(theta)
        full = half * half
        w = half[:, None] * w
        for k in range(n_T):
            for perm in perms:
                w = c * w + s * w[perm, :]
            w = (half if k == n_T - 1 else full)[:, None] * w
    return SectorOperator(w)


def trotterized_loop_operator_fullspace(model: Z2Model, sector: PhysicalSector,
                                        program: LoopProgram, n_T: int
                                        ) -> SectorOperator:
    """Reference route: embed the sector basis, run the literal gate list
    in the full 2**L space, project back.  Same matrix as
    :func:`trotterized_loop_operator`; kept as a cross-check oracle."""
    _check_program(model, program)
    cols = embed_sector_coords(sector, np.eye(sector.dim, dtype=np.complex128))
    L = sector.n_links
    for step in program.steps:
        if isinstance(step, Spatial):
            pauli_apply_inplace(cols, _spatial_string(step.links), L)
        elif isinstance(step, Temporal):
            for string, theta in trotter_strings(model, TrotterPlan(n_T, step.tau),
                                                 step.modified_links):
                pauli_exp_inplace(cols, string, theta, L)
        else:
            for string, theta in trotter_strings(model, TrotterPlan(n_T, step.tau)):
                pauli_exp_inplace(cols, string, theta, L)
    return SectorOperator(project_to_sector(sector, cols))


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------

def operator_fidelity(w_exact: SectorOperator, w_trot: SectorOperator) -> float:
    """|tr(W^dag W')| / dim (normalized trace, phase insensitive)."""
    if w_exact.dim != w_trot.dim:
        raise ValueError(f"dimension mismatch {w_exact.dim} vs {w_trot.dim}")
    return float(abs(np.trace(w_exact.matrix.conj().T @ w_trot.matrix))
                 / w_exact.dim)


def state_fidelity(psi_coords: np.ndarray, w_exact: SectorOperator,
                   w_trot: SectorOperator) -> float:
    """|<psi| W^dag W' |psi>| for a normalized sector state."""
    psi = np.asarray(psi_coords, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state is not normalized in the sector")
    return float(abs(np.vdot(w_exact.matrix @ psi, w_trot.matrix @ psi)))


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    std_error: float
    prefactor: float


@dataclass(frozen=True)
class FidelityReport:
    """Rows (n_T, operator fidelity, state fidelity) plus log-log fits.

    ``unitarity_errors[i]`` is the unitarity error of the Trotterized
    operator behind ``rows[i]``.
    """

    rows: tuple[tuple[int, float, float], ...]
    fit_op: PowerLawFit | None
    fit_gs: PowerLawFit | None
    unitarity_errors: tuple[float, ...] = ()

    def __post_init__(self):
        ns = [n for n, _, _ in self.rows]
        if ns != sorted(ns):
            raise ValueError("report rows must be sorted by n_T")
        for n, fop, fgs in self.rows:
            if not (-1e-12 <= fop <= 1 + 1e-12
                    and -1e-12 <= fgs <= 1 + 1e-12):
                raise ValueError(f"fidelity outside [0,1] at n_T={n}: "
                                 f"{fop}, {fgs}")


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


def sweep(model: Z2Model, program: LoopProgram, psi: StateVector, n_T_list,
          sector: PhysicalSector | None = None) -> FidelityReport:
    """Both fidelities per n_T against one exact oracle W.

    ``psi`` is a normalized full-space state inside the physical sector
    (typically the ground state).  Entries are independent; the report is
    ordered by n_T.  The sector is enumerated on demand when not supplied.
    """
    if sector is None:
        sector = build_physical_sector(model)
    n_T_list = list(n_T_list)
    if not n_T_list:
        raise ValueError("n_T list is empty")
    if any(b <= a for a, b in zip(n_T_list, n_T_list[1:])):
        raise ValueError(f"n_T list must be strictly increasing: {n_T_list}")
    coords = project_to_sector(sector, psi.amps)
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
        unitarity_errors.append(w_trot.unitarity_error())
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
    return FidelityReport(tuple(rows), fit_op, fit_gs, tuple(unitarity_errors))


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
