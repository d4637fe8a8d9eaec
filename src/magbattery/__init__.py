"""Deterministic single-excitation simulator of a cavity-magnomechanical quantum battery.

A photon-magnon-phonon chain (the charger) feeds a pair of two-level atoms
(the battery) under conditional non-Hermitian dynamics.  The package
propagates the four closed amplitudes, computes coherence / stored energy /
ergotropy / purity in closed form from their populations (reduced density
matrices and the general ergotropy construction are kept as oracles), and
drives parameter sweeps; the `magbattery` CLI serializes everything to CSV.
"""

from .model import (
    SystemParams,
    Detunings,
    FrameShifts,
    derive_detunings,
    derive_frame_shifts,
    build_evolution_matrix,
)
from .propagator import (
    DEFAULT_INITIAL,
    AmplitudeState,
    Trajectory,
    physical_norm,
    matrix_exponential,
    propagate,
    z_to_c,
    evolve,
    oracle_integrate,
)
from .states import (
    AccountingMode,
    DensityMatrix,
    InconsistentStateError,
    battery_density,
    charger_density,
)
from .metrics import (
    METRIC_NAMES,
    BatteryHamiltonian,
    MetricsSample,
    passive_state,
    ergotropy,
    purity,
    metric_columns,
    sample_metrics,
    stored_energy_series,
    ergotropy_series,
)
from .sweeps import (
    VarySpec,
    GridResult,
    apply_parameter,
    time_grid,
    time_series,
    panel_sweep,
    max_ergotropy_grid,
    optimal_charging_time,
    optimal_time_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_INITIAL",
    "SystemParams",
    "Detunings",
    "FrameShifts",
    "derive_detunings",
    "derive_frame_shifts",
    "build_evolution_matrix",
    "AmplitudeState",
    "Trajectory",
    "physical_norm",
    "matrix_exponential",
    "propagate",
    "z_to_c",
    "evolve",
    "oracle_integrate",
    "AccountingMode",
    "DensityMatrix",
    "InconsistentStateError",
    "battery_density",
    "charger_density",
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
    "VarySpec",
    "GridResult",
    "apply_parameter",
    "time_grid",
    "time_series",
    "panel_sweep",
    "max_ergotropy_grid",
    "optimal_charging_time",
    "optimal_time_sweep",
    "__version__",
]
