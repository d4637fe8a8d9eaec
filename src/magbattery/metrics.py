"""Figures of merit: l1-coherence, stored energy, ergotropy, purity.

In the single-excitation shell the battery state always has the spectrum
{g', 2|C4|^2, 0, 0}, so every reported metric is a closed-form function of
the four populations |C_n|^2.  `metric_columns` computes all five of them for
a whole (..., 4) amplitude array; `sample_metrics`, `ergotropy_series` and
`stored_energy_series` are views on it.

The general density-matrix routes (`passive_state`, `ergotropy`, `purity`)
follow the passive-state construction: populations sorted descending against
energy levels sorted ascending give the least-energetic state reachable by
unitaries, and the work gap to it is the extractable energy.  The package
keeps them as the oracles the closed form is tested against.  In ``paper``
accounting the sub-normalized battery matrix enters these formulas as-is;
``trace_repaired`` first books the decayed weight into |gg>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .propagator import AmplitudeState
from .states import (
    AccountingMode,
    BATTERY_BASIS,
    DensityMatrix,
    InconsistentStateError,
    _NORM_SLACK,
    _coerce_mode,
)

__all__ = [
    "METRIC_NAMES",
    "BatteryHamiltonian",
    "MetricsSample",
    "passive_state",
    "ergotropy",
    "purity",
    "metric_columns",
    "sample_metrics",
    "stored_energy_series",
    "ergotropy_series",
]

# column order of `metric_columns`, as printed by the CLI after `t`
METRIC_NAMES = ("coherence", "energy", "ergotropy", "purity", "norm")

_HERMITICITY_TOL = 1e-10
_POPULATION_FLOOR = -1e-12
# reported energies/ergotropies within this of zero collapse to exactly 0.0,
# so states that analytically cannot charge print as true zeros
_ZERO_SNAP = 1e-12


def _snap(value: np.ndarray | float) -> np.ndarray:
    return np.where(np.abs(value) <= _ZERO_SNAP, 0.0, value)


@dataclass(frozen=True)
class BatteryHamiltonian:
    """Two-atom battery Hamiltonian, diagonal in (|gg>, |eg>, |ge>, |ee>).

    Each atom contributes +-omega_q/2, so the spectrum is
    (-omega_q, 0, 0, +omega_q): symmetric about zero with a degenerate
    single-excitation shell.
    """

    omega_q: float = 1.0

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([-self.omega_q, 0.0, 0.0, self.omega_q])

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.eigenvalues).astype(complex)

    @property
    def basis(self) -> tuple[str, ...]:
        return BATTERY_BASIS


@dataclass(frozen=True)
class MetricsSample:
    """One output row: all figures of merit at a single time."""

    t: float
    coherence: float
    energy: float
    ergotropy: float
    purity: float
    norm: float


def passive_state(rho: DensityMatrix, h: BatteryHamiltonian) -> DensityMatrix:
    """Least-energetic state with the spectrum of rho, diagonal in H.

    Populations are sorted descending (stable, ties by original index) and
    assigned to energy levels sorted ascending.  Assignments among degenerate
    levels all give the same energy, so the result is deterministic and
    unique in energy.
    """
    m = np.asarray(rho.matrix, dtype=complex)
    if float(np.max(np.abs(m - m.conj().T))) > _HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    pops = np.linalg.eigvalsh(m)
    if np.any(pops < _POPULATION_FLOOR):
        raise ValueError(
            f"density matrix is not positive semidefinite (eigenvalue {pops.min()})"
        )
    pops = np.where(pops < 0.0, 0.0, pops)
    pop_order = np.argsort(-pops, kind="stable")
    energies = h.eigenvalues
    level_order = np.argsort(energies, kind="stable")
    diag = np.zeros(len(energies))
    diag[level_order] = pops[pop_order]
    return DensityMatrix(matrix=np.diag(diag).astype(complex), basis=rho.basis)


def ergotropy(rho: DensityMatrix, h: BatteryHamiltonian) -> float:
    """Maximum unitarily extractable work: Tr(rho H) - Tr(eta H).

    eta is the passive state of rho; results within 1e-12 of zero report as
    0.0, absorbing the floating-point residue of the two traces.
    """
    eta = passive_state(rho, h)
    hm = h.matrix
    w = float(np.trace(rho.matrix @ hm).real) - float(np.trace(eta.matrix @ hm).real)
    return float(_snap(w)) if w > 0.0 else 0.0


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), real part (imaginary residue below 1e-12 discarded)."""
    m = np.asarray(rho.matrix, dtype=complex)
    return float(np.trace(m @ m).real)


def _shell(c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|C_n|, the field population g = |C1|^2 + |C2|^2 + |C3|^2 and s = |C4|^2."""
    a = np.abs(np.asarray(c, dtype=complex))
    p = a**2
    return a, p[..., 0] + p[..., 1] + p[..., 2], p[..., 3]


def _energy(g: np.ndarray, s: np.ndarray, omega_q: float, mode: AccountingMode) -> np.ndarray:
    """Energy gained by the battery relative to the uncharged state.

    paper:          omega_q * (1 - |C1|^2 - |C2|^2 - |C3|^2)
    trace_repaired: 2 * omega_q * |C4|^2

    The two expressions differ exactly by omega_q * (1 - N(t)): the paper form
    books decayed weight as if it had charged the battery, the repaired form
    books it back into |gg>.  Results within 1e-12 of zero report as 0.0
    (propagator roundoff would otherwise print as spurious charge).
    """
    if mode is AccountingMode.PAPER:
        return _snap(omega_q * (1.0 - g))
    return _snap(2.0 * omega_q * s)


def metric_columns(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """All five figures of merit of (..., 4) amplitudes as a (..., 5) array.

    Columns follow METRIC_NAMES.  With g = |C1|^2 + |C2|^2 + |C3|^2,
    s = |C4|^2 and the battery ground population g' (g in ``paper`` mode,
    1 - 2s in ``trace_repaired`` mode), the battery spectrum is
    {g', 2s, 0, 0}, so:

    coherence = 2 (|C1 C2| + |C1 C3| + |C2 C3|)  (charger off-diagonal l1)
    energy    = see `_energy`
    ergotropy = omega_q * max(0, 2s - g')       (passive-state gap)
    purity    = g'^2 + 4 s^2
    norm      = g + 2s

    Raises InconsistentStateError when the norm exceeds 1 + 1e-9 and
    ValueError when g' is below -1e-12 (not a density matrix); smaller
    negative g' is roundoff and clamps to 0.
    """
    mode = _coerce_mode(mode)
    a, g, s = _shell(c)
    norm = g + 2.0 * s
    if np.any(norm > 1.0 + _NORM_SLACK):
        raise InconsistentStateError(f"physical norm {norm.max()} exceeds 1")
    ground = g if mode is AccountingMode.PAPER else 1.0 - 2.0 * s
    if np.any(ground < _POPULATION_FLOOR):
        raise ValueError(
            f"density matrix is not positive semidefinite (eigenvalue {ground.min()})"
        )
    ground = np.maximum(ground, 0.0)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    return np.stack(
        (
            2.0 * (a1 * a2 + a1 * a3 + a2 * a3),
            _energy(g, s, omega_q, mode),
            _snap(omega_q * np.maximum(2.0 * s - ground, 0.0)),
            ground**2 + 4.0 * s**2,
            norm,
        ),
        axis=-1,
    )


def sample_metrics(
    a: AmplitudeState,
    p: SystemParams,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> MetricsSample:
    """All figures of merit at one time point: one row of `metric_columns`."""
    return MetricsSample(a.t, *(float(v) for v in metric_columns(a.c, p.omega_q, mode)))


def stored_energy_series(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """The energy column of `metric_columns` alone, for (..., 4) amplitudes.

    Skips the other four columns and their state checks, which makes it the
    cheap reduction for charging-time searches that need energy only.
    """
    _, g, s = _shell(c)
    return _energy(g, s, omega_q, _coerce_mode(mode))


def ergotropy_series(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """The ergotropy column of `metric_columns`, for (..., 4) amplitudes."""
    return metric_columns(c, omega_q, mode)[..., METRIC_NAMES.index("ergotropy")]
