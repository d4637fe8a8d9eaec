"""Parameter sweeps: metric panels, max-ergotropy contour grids, charging times.

Every (parameter point, trajectory) evaluation is a pure function of immutable
inputs evaluated in order, so output never depends on scheduling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .metrics import ergotropy_series, metric_columns, stored_energy_series
from .model import SystemParams, derive_detunings
from .propagator import evolve
from .states import AccountingMode, _coerce_mode

__all__ = [
    "PARAMETER_NAMES",
    "VarySpec",
    "GridResult",
    "apply_parameters",
    "time_grid",
    "time_series",
    "panel_sweep",
    "max_ergotropy_grid",
    "optimal_charging_time",
    "optimal_time_sweep",
]

# Energy maxima are taken on the discrete grid; the 1e-9 window only absorbs
# floating-point noise between exactly repeated values, so "earliest" wins
# among true ties.
_PEAK_TIE_TOL = 1e-9

# 500 times the 2001 points of the shipped configs; the (T, 4) trajectory of
# a larger grid is refused before anything is allocated
MAX_TIME_POINTS = 10**6

# Every swept or configured parameter name and the SystemParams fields it
# sets; the detunings (None) set the omegas through `from_detunings`.
_FIELDS = {
    "lambda": ("lam",),
    "g_a": ("g_a",),
    "g_b": ("g_b",),
    "delta_1": None,
    "delta_2": None,
    "delta_3": None,
    "gamma": ("gamma",),
    "kappa_all": ("kappa_a", "kappa_b", "kappa_m"),
    "kappa_a": ("kappa_a",),
    "kappa_b": ("kappa_b",),
    "kappa_m": ("kappa_m",),
}
PARAMETER_NAMES = tuple(_FIELDS)


def apply_parameters(base: SystemParams, values: Mapping[str, float]) -> SystemParams:
    """Return a copy of `base` with the named parameters substituted at once.

    Direct fields and `kappa_all` (the three field decay rates together) go in
    one replace, where a later name wins over an earlier one that sets the
    same field.  The named detunings are substituted together, holding the
    others and omega_q fixed.
    """
    fields: dict[str, float] = {}
    deltas: dict[str, float] = {}
    for name, value in values.items():
        if name not in _FIELDS:
            raise ValueError(f"unknown sweep parameter {name!r}")
        if _FIELDS[name] is None:
            deltas[name] = value
        else:
            fields.update(dict.fromkeys(_FIELDS[name], value))
    p = dataclasses.replace(base, **fields) if fields else base
    if not deltas:
        return p
    held = {k: v for k, v in vars(p).items() if k not in ("omega_a", "omega_b", "omega_m")}
    return SystemParams.from_detunings(**{**vars(derive_detunings(p)), **deltas}, **held)


@dataclass(frozen=True)
class VarySpec:
    """One swept parameter with its explicit value list."""

    parameter_name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter_name not in PARAMETER_NAMES:
            raise ValueError(
                f"unknown sweep parameter {self.parameter_name!r}; "
                f"expected one of {', '.join(PARAMETER_NAMES)}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def linspace(
        cls, parameter_name: str, start: float, stop: float, count: int
    ) -> "VarySpec":
        if count < 2:
            raise ValueError("linear range needs count >= 2")
        return cls(parameter_name, tuple(np.linspace(start, stop, count)))


@dataclass(frozen=True)
class GridResult:
    """2D sweep output: z[i][j] belongs to (x_values[j], y_values[i])."""

    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    z: np.ndarray
    metadata: dict


def time_grid(t_max: float = 20.0, dt: float = 0.01) -> np.ndarray:
    """Uniform grid {0, dt, 2 dt, ...} up to and including floor(t_max/dt)*dt."""
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError("t_max and dt must be finite")
    if t_max <= 0 or dt <= 0 or dt > t_max:
        raise ValueError("need t_max > 0, dt > 0 and dt <= t_max")
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_max / dt = {t_max:g} / {dt:g} is not a finite number of grid points")
    n = int(math.floor(steps + 1e-9))
    if n + 1 > MAX_TIME_POINTS:
        raise ValueError(
            f"t_max / dt = {t_max:g} / {dt:g} gives {n + 1} time grid points, "
            f"more than the limit of {MAX_TIME_POINTS}"
        )
    return np.arange(n + 1) * dt


def time_series(
    p: SystemParams,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """(T, 6) table with rows (t, coherence, energy, ergotropy, purity, norm).

    Evolves once and computes all metrics of the curve in one call.
    """
    traj = evolve(p, t_grid)
    return np.column_stack((traj.times, metric_columns(traj.amplitudes, p.omega_q, mode)))


def panel_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> list[tuple[float, np.ndarray]]:
    """One independent `time_series` table per swept value, in the given order."""
    mode = _coerce_mode(mode)
    return [
        (v, time_series(apply_parameters(base, {vary.parameter_name: v}), t_grid, mode))
        for v in vary.values
    ]


def max_ergotropy_grid(
    base: SystemParams,
    vary_x: VarySpec,
    vary_y: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> GridResult:
    """Maximum ergotropy over the time grid for every (x, y) parameter pair.

    Rows are indexed by y, columns by x.
    """
    if vary_x.parameter_name == vary_y.parameter_name:
        raise ValueError("contour axes must vary two different parameters")
    mode = _coerce_mode(mode)
    t = np.asarray(t_grid, dtype=float)

    def cell(xv: float, yv: float) -> float:
        p = apply_parameters(base, {vary_y.parameter_name: yv, vary_x.parameter_name: xv})
        traj = evolve(p, t)
        return float(ergotropy_series(traj.amplitudes, p.omega_q, mode).max())

    z = np.array(
        [[cell(xv, yv) for xv in vary_x.values] for yv in vary_y.values], dtype=float
    )
    step = float(t[1] - t[0]) if t.size > 1 else 0.0
    metadata = {
        "metric": "max_ergotropy",
        "mode": mode.value,
        "x_name": vary_x.parameter_name,
        "y_name": vary_y.parameter_name,
        "time_horizon": [float(t[0]), float(t[-1])],
        "time_step": step,
        "time_points": int(t.size),
        "base_params": dataclasses.asdict(base),
    }
    return GridResult(
        x_name=vary_x.parameter_name,
        y_name=vary_y.parameter_name,
        x_values=np.asarray(vary_x.values, dtype=float),
        y_values=np.asarray(vary_y.values, dtype=float),
        z=z,
        metadata=metadata,
    )


def optimal_charging_time(
    p: SystemParams,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> tuple[float, float]:
    """Earliest grid time at which the stored energy attains its grid maximum.

    Returns (tau, e_max) with e_max = E(tau); tau is always a grid member.
    """
    mode = _coerce_mode(mode)
    traj = evolve(p, t_grid)
    e = stored_energy_series(traj.amplitudes, p.omega_q, mode)
    idx = int(np.argmax(e >= float(e.max()) - _PEAK_TIE_TOL))
    return float(traj.times[idx]), float(e[idx])


def optimal_time_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> list[tuple[float, float, float]]:
    """(value, tau, e_max) per swept value, in the given order."""
    mode = _coerce_mode(mode)
    out = []
    for v in vary.values:
        tau, e_max = optimal_charging_time(
            apply_parameters(base, {vary.parameter_name: v}), t_grid, mode
        )
        out.append((v, tau, e_max))
    return out
