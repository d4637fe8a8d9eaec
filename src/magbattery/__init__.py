"""Deterministic single-excitation simulator of a cavity-magnomechanical quantum battery.

A photon-magnon-phonon chain (the charger) feeds a pair of two-level atoms
(the battery) under conditional non-Hermitian dynamics.  The package
propagates the four closed amplitudes, computes coherence / stored energy /
ergotropy / purity in closed form from their populations, and drives
parameter sweeps; the `magbattery` CLI serializes everything to CSV.  No
density matrix is built at run time: the reduced states and the general
ergotropy construction are test oracles, in the test suite's `oracles.py`.
"""

from .model import (
    SystemParams,
    Detunings,
    derive_detunings,
)
from .propagator import (
    DEFAULT_INITIAL,
    AmplitudeState,
    Trajectory,
    physical_norm,
    evolve,
    oracle_integrate,
)
from .states import AccountingMode, InconsistentStateError
from .metrics import (
    METRIC_NAMES,
    MetricsSample,
    metric_columns,
    sample_metrics,
    stored_energy_series,
    ergotropy_series,
)
from .sweeps import (
    VarySpec,
    apply_parameters,
    time_grid,
    time_series,
    panel_sweep,
    max_ergotropy_grid,
    optimal_time_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_INITIAL",
    "SystemParams",
    "Detunings",
    "derive_detunings",
    "AmplitudeState",
    "Trajectory",
    "physical_norm",
    "evolve",
    "oracle_integrate",
    "AccountingMode",
    "InconsistentStateError",
    "METRIC_NAMES",
    "MetricsSample",
    "metric_columns",
    "sample_metrics",
    "stored_energy_series",
    "ergotropy_series",
    "VarySpec",
    "apply_parameters",
    "time_grid",
    "time_series",
    "panel_sweep",
    "max_ergotropy_grid",
    "optimal_time_sweep",
    "__version__",
]
