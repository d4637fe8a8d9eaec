"""Parameter sweeps: metric panels, max-ergotropy contour grids, charging times.

Every (parameter point, trajectory) evaluation is a pure function of immutable
inputs evaluated in order, so output never depends on scheduling.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import METRIC_NAMES, metric_columns
from .model import SystemParams, derive_detunings
from .propagator import rotating_amplitudes
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
# Over five times the 900 x 2001 of the shipped contour; a sweep with more
# parameter points x time points is refused before its points are built
MAX_SWEEP_SAMPLES = 10**7
# Points x time points one `rotating_amplitudes` call advances together, which
# keeps its (n, T, 4) trajectories at a few hundred kB
_BLOCK_SAMPLES = 2**12

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
    try:
        p = dataclasses.replace(base, **fields) if fields else base
    except ValueError as exc:  # SystemParams names its field: name the parameter given
        given = {field: name for name in values if _FIELDS[name] for field in _FIELDS[name]}
        raise ValueError(" ".join(given.get(w, w) for w in str(exc).split(" "))) from None
    if not deltas:
        return p
    held = {k: v for k, v in vars(p).items() if k not in ("omega_a", "omega_b", "omega_m")}
    try:
        return SystemParams.from_detunings(**{**vars(derive_detunings(p)), **deltas}, **held)
    except ValueError as exc:  # the detunings set the omegas together: name them all
        raise ValueError(f"{', '.join(deltas)} out of range: {exc}") from None


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
        if count > MAX_SWEEP_SAMPLES:
            raise ValueError(f"{count} parameter points x time points is more than "
                             f"the limit of {MAX_SWEEP_SAMPLES}")
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


def _evolve_points(base: SystemParams, axes: Sequence[VarySpec], t_grid, mode, reduce) -> list:
    """`reduce(times, metric columns)` of each block of the axes' product, first axis outermost.

    A block of about _BLOCK_SAMPLES points x time points is built when it
    runs, in one `rotating_amplitudes`; the metrics read only |Z_n| = |C_n|,
    so nothing rotates back.  No swept name sets omega_q: all share the base's.
    """
    t = np.asarray(t_grid, dtype=float)
    points = math.prod(len(axis.values) for axis in axes)
    if points * t.size > MAX_SWEEP_SAMPLES:
        raise ValueError(f"{points} parameter points x {t.size} time points = "
                         f"{points * t.size}, more than the limit of {MAX_SWEEP_SAMPLES}")
    names = [axis.parameter_name for axis in axes]
    cells = itertools.product(*(axis.values for axis in axes))
    out, per_block = [], max(1, _BLOCK_SAMPLES // max(t.size, 1))
    while block := [apply_parameters(base, dict(zip(names, cell)))
                    for cell in itertools.islice(cells, per_block)]:
        z = rotating_amplitudes(block, t)
        out.extend(reduce(t, metric_columns(z, base.omega_q, mode)))
    return out


def _tables(t: np.ndarray, columns: np.ndarray) -> list[np.ndarray]:
    return [np.column_stack((t, point)) for point in columns]


def _energy_peaks(t: np.ndarray, columns: np.ndarray) -> Iterable[tuple[float, float]]:
    """(tau, e_max) per point: the earliest grid time of the grid-maximal energy."""
    e = columns[..., METRIC_NAMES.index("energy")]
    idx = np.argmax(e >= e.max(axis=-1, keepdims=True) - _PEAK_TIE_TOL, axis=-1)
    return zip(t[idx].tolist(), e[np.arange(idx.size), idx].tolist())


def time_series(
    p: SystemParams,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """(T, 6) table with rows (t, coherence, energy, ergotropy, purity, norm)."""
    return _evolve_points(p, (), t_grid, mode, _tables)[0]


def panel_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> list[tuple[float, np.ndarray]]:
    """One `time_series` table per swept value, in the given order."""
    return list(zip(vary.values, _evolve_points(base, (vary,), t_grid, mode, _tables)))


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
    erg = METRIC_NAMES.index("ergotropy")
    z = _evolve_points(base, (vary_y, vary_x), t, mode, lambda _, m: m[..., erg].max(axis=-1))
    z = np.reshape(z, (len(vary_y.values), len(vary_x.values)))
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
    return _evolve_points(p, (), t_grid, mode, _energy_peaks)[0]


def optimal_time_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> list[tuple[float, float, float]]:
    """(value, tau, e_max) per swept value, in the given order."""
    peaks = _evolve_points(base, (vary,), t_grid, mode, _energy_peaks)
    return [(v, tau, e_max) for v, (tau, e_max) in zip(vary.values, peaks)]
