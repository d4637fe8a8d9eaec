"""Figures of merit: l1-coherence, stored energy, ergotropy, purity.

In the single-excitation shell the battery state always has the spectrum
{g', 2|C4|^2, 0, 0}, so every reported metric is a closed-form function of
the populations, all but coherence of g = |C1|^2 + |C2|^2 + |C3|^2 and
s = |C4|^2 alone.  `_columns` computes the metrics named to it from g and s;
`metric_columns` is its all-columns view on (..., 4) amplitudes,
`sample_metrics` and the two `_series` its one-row and one-name views.  No
density matrix is formed and no eigensolver runs: the general passive-state
construction the closed form follows lives with the tests, as its oracle.
In ``paper`` accounting the sub-normalized battery populations enter as-is;
``trace_repaired``, the default, first books the decayed weight into |gg>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .propagator import _NORM_SLACK, AmplitudeState, _population_sums
from .states import _DEFAULT_MODE, AccountingMode, InconsistentStateError

__all__ = [
    "METRIC_NAMES",
    "MetricsSample",
    "metric_columns",
    "sample_metrics",
    "stored_energy_series",
    "ergotropy_series",
]

# column order of `metric_columns`, as printed by the CLI after `t`
METRIC_NAMES = ("coherence", "energy", "ergotropy", "purity", "norm")

_POPULATION_FLOOR = -1e-12
# energies/ergotropies whose population-unit value (before the factor omega_q)
# is within this of zero collapse to exactly 0.0, so states that analytically
# cannot charge print as true zeros at any energy unit
_ZERO_SNAP = 1e-12


def _snap(value: np.ndarray | float) -> np.ndarray:
    return np.where(np.abs(value) <= _ZERO_SNAP, 0.0, value)


@dataclass(frozen=True)
class MetricsSample:
    """One output row: all figures of merit at a single time."""

    t: float
    coherence: float
    energy: float
    ergotropy: float
    purity: float
    norm: float


def metric_columns(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = _DEFAULT_MODE,
) -> np.ndarray:
    """All five `_columns` of (..., 4) amplitudes as a (..., 5) array, in METRIC_NAMES order."""
    return np.stack(_columns(*_population_sums(c), omega_q, mode, METRIC_NAMES, c), axis=-1)


def _check_battery(omega_q: float, mode: AccountingMode | str) -> AccountingMode:
    """`mode` as an AccountingMode, which refuses an unknown one; ValueError for omega_q < 0."""
    mode = AccountingMode(mode)
    if not omega_q >= 0.0:  # the excited level must lie above |gg>
        raise ValueError(f"battery metrics need omega_q >= 0, got {omega_q!r}")
    return mode


def _ergotropy(gap: np.ndarray, omega_q: float) -> np.ndarray:
    """omega_q max(0, gap) of the charge gap 2s - g', snapped in population
    units: for omega_q >= 0 a non-decreasing map, so the maximum of its values
    over t is its value at the maximum gap, bit for bit."""
    return omega_q * _snap(np.maximum(gap, 0.0))


def _columns(g: np.ndarray, s: np.ndarray, norm: np.ndarray, omega_q: float, mode: AccountingMode | str,
             names: tuple[str, ...], amplitudes: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The named figures of merit, one array each in the order of `names`.

    With g = |C1|^2 + |C2|^2 + |C3|^2, s = |C4|^2, their `norm` N = g + 2s
    and the battery ground population g' (g in ``paper`` mode, 1 - 2s in
    ``trace_repaired`` mode), the battery spectrum is {g', 2s, 0, 0}, so:

    coherence = 2 (|C1 C2| + |C1 C3| + |C2 C3|)  (charger off-diagonal l1;
                the one column that reads the (..., 4) `amplitudes`)
    energy    = omega_q (1 - g) in ``paper`` mode, which books the decayed
                weight omega_q (1 - N) as charge; 2 omega_q s in ``trace_repaired``
    ergotropy = omega_q * max(0, 2s - g')       (passive-state gap)
    purity    = g'^2 + 4 s^2
    norm      = N

    and the name "gap" selects the charge gap 2s - g' itself, whose maximum
    over t `_ergotropy` turns into the maximum ergotropy.  An energy or
    ergotropy whose population-unit value (1 - g, 2s or max(0, 2s - g')) is
    within 1e-12 of zero reports as 0.0.  Whatever the selection,
    raises ValueError for omega_q < 0 (the excited level must lie above
    |gg>), InconsistentStateError when the norm exceeds 1 + 1e-9 and
    ValueError when g' is below -1e-12 (not a density matrix); smaller
    negative g' is roundoff and clamps to 0.  Each guard is one reduction
    that skips NaN, as a comparison does, and reads nothing from an empty
    array; the clamp is taken only when that reduction finds a negative g'.
    """
    mode = _check_battery(omega_q, mode)
    if np.fmax.reduce(norm, axis=None, initial=-np.inf) > 1.0 + _NORM_SLACK:
        raise InconsistentStateError(f"physical norm {norm.max()} exceeds 1")
    paper = mode is AccountingMode.PAPER
    ground = g if paper else 1.0 - 2.0 * s
    lowest = np.fmin.reduce(ground, axis=None, initial=np.inf)
    if lowest < _POPULATION_FLOOR:
        raise ValueError(f"density matrix is not positive semidefinite (eigenvalue {ground.min()})")
    if "coherence" in names:
        a1, a2, a3, _ = np.moveaxis(np.abs(amplitudes), -1, 0)  # faster than |Z1..3| alone
    if lowest < 0.0:
        ground = np.maximum(ground, 0.0)
    formulas = {
        "coherence": lambda: 2.0 * (a1 * a2 + a1 * a3 + a2 * a3),
        "energy": lambda: omega_q * _snap(1.0 - g if paper else 2.0 * s),
        "gap": lambda: 2.0 * s - ground,
        "ergotropy": lambda: _ergotropy(2.0 * s - ground, omega_q),
        "purity": lambda: ground**2 + 4.0 * s**2,
        "norm": lambda: norm,
    }
    return tuple([formulas[name]() for name in names])  # a list: tuple() of a generator leaves 1 on the collector's count per call


def sample_metrics(
    a: AmplitudeState,
    p: SystemParams,
    mode: AccountingMode | str = _DEFAULT_MODE,
) -> MetricsSample:
    """All figures of merit at one time point: one row of `metric_columns`."""
    return MetricsSample(a.t, *(float(v) for v in metric_columns(a.c, p.omega_q, mode)))


def stored_energy_series(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = _DEFAULT_MODE,
) -> np.ndarray:
    """The energy column of `metric_columns`, for (..., 4) amplitudes."""
    return _columns(*_population_sums(c), omega_q, mode, ("energy",))[0]


def ergotropy_series(
    c: np.ndarray,
    omega_q: float,
    mode: AccountingMode | str = _DEFAULT_MODE,
) -> np.ndarray:
    """The ergotropy column of `metric_columns`, for (..., 4) amplitudes."""
    return _columns(*_population_sums(c), omega_q, mode, ("ergotropy",))[0]
