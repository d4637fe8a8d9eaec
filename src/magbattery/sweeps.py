"""Parameter sweeps: metric panels, max-ergotropy contour grids, charging times.

Every (parameter point, trajectory) evaluation is a pure function of immutable
inputs evaluated in order, so output never depends on scheduling.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .metrics import METRIC_NAMES, _check_battery, _columns, _ergotropy
from .model import _FIELD_NAMES, SystemParams, _detunings, _field_array, _omegas
from .propagator import rotating_amplitudes
from .states import AccountingMode

__all__ = [
    "VarySpec",
    "apply_parameters",
    "time_grid",
    "time_series",
    "panel_sweep",
    "max_ergotropy_grid",
    "optimal_time_sweep",
]

# Energy maxima are taken on the discrete grid; the window of 1e-9 of each
# point's maximum only absorbs floating-point noise between exactly repeated
# values, so "earliest" wins among true ties at any energy unit.
_PEAK_TIE_TOL = 1e-9

# 500 times the 2001 points of the shipped configs; the (T, 4) trajectory of
# a larger grid is refused before anything is allocated
MAX_TIME_POINTS = 10**6
# Over five times the 900 x 2001 of the shipped contour; a sweep with more
# parameter points x time points is refused before its points are built
MAX_SWEEP_SAMPLES = 10**7

# Every swept or configured parameter name and the SystemParams fields it
# sets; the detunings (none) set the omegas as `from_detunings` does.
_FIELDS = {
    "lambda": ("lam",),
    "g_a": ("g_a",),
    "g_b": ("g_b",),
    "delta_1": (),
    "delta_2": (),
    "delta_3": (),
    "gamma": ("gamma",),
    "kappa_all": ("kappa_a", "kappa_b", "kappa_m"),
    "kappa_a": ("kappa_a",),
    "kappa_b": ("kappa_b",),
    "kappa_m": ("kappa_m",),
}
PARAMETER_NAMES = tuple(_FIELDS)


def _substitute(base: SystemParams, names: Sequence[str], cells: np.ndarray) -> np.ndarray:
    """(n, 11) `model._field_array` of `base` with `names` set to each row of the
    (n, len(names)) `cells`, a later name over an earlier one that sets the same
    field; the named detunings go in together, the others and omega_q held."""
    fields = np.repeat(_field_array([base]), len(cells), axis=0)
    for name, column in zip(names, cells.T):
        fields[:, [_FIELD_NAMES.index(field) for field in _FIELDS[name]]] = column[:, None]
    if deltas := {name: column for name, column in zip(names, cells.T) if not _FIELDS[name]}:
        deltas = {**_detunings(base), **deltas}  # set as `from_detunings` sets them
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as not finite
            fields[:, :3] = np.column_stack(_omegas(**deltas, omega_q=fields[:, 3]))
    return fields


def apply_parameters(base: SystemParams, values: Mapping[str, float]) -> SystemParams:
    """Return a copy of `base` with the named parameters substituted at once: the
    one-point view of a sweep block's substitution.  Direct fields and
    `kappa_all` (the three field decay rates together) are checked before the
    omegas the named detunings set, and errors name the parameter as given."""
    if unknown := [name for name in values if name not in _FIELDS]:
        raise ValueError(f"unknown sweep parameter {unknown[0]!r}")
    list(map(math.isfinite, values.values()))  # a non-number raises TypeError, as in SystemParams
    row = _substitute(base, list(values), np.array([list(values.values())], dtype=float))[0].tolist()
    try:
        dataclasses.replace(base, **dict(zip(_FIELD_NAMES[4:], row[4:])))
    except ValueError as exc:  # SystemParams names its field: name the parameter given
        given = {field: name for name in values for field in _FIELDS[name]}
        raise ValueError(" ".join(given.get(w, w) for w in str(exc).split(" "))) from None
    try:
        return SystemParams(*row)
    except ValueError as exc:  # the detunings set the omegas together: name them all
        raise ValueError(f"{', '.join(n for n in values if not _FIELDS[n])} out of range: {exc}") from None


def _check_size(points: int, time_points: int | None = None) -> None:
    """Refuse more than MAX_SWEEP_SAMPLES parameter points x time points (without a grid, points)."""
    samples = points * (1 if time_points is None else time_points)
    if samples > MAX_SWEEP_SAMPLES:
        size = "time points is" if time_points is None else f"{time_points} time points = {samples},"
        raise ValueError(f"{points} parameter points x {size} more than the limit of {MAX_SWEEP_SAMPLES}")


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
        if isinstance(self.values, (str, bytes)):  # would sweep its characters
            raise TypeError(f"sweep values must be a sequence of numbers, not a {type(self.values).__name__}")
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
        _check_size(count)
        return cls(parameter_name, tuple(np.linspace(start, stop, count)))


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


def _evolve_points(base: SystemParams, axes: Sequence[VarySpec], t_grid, mode, metrics, reduce) -> list:
    """`reduce(times, *columns)` of each slice of the axes' product, first axis
    outermost, with one (n, T) column per name in `metrics`.

    The points go to `rotating_amplitudes` as chunks of the size it asks for,
    each one (n, 11) field array built and checked when it is asked for; the
    metrics read only the kernel's population sums and, for coherence,
    |Z_n| = |C_n|.  No swept name sets omega_q: all share the base's, so it
    and the mode are refused before any point is built.
    """
    mode, t = _check_battery(base.omega_q, mode), np.asarray(t_grid, dtype=float)
    _check_size(math.prod(len(axis.values) for axis in axes), t.size)
    names, cells = [axis.parameter_name for axis in axes], itertools.product(*(axis.values for axis in axes))

    def chunks(size):
        while block := list(itertools.islice(cells, size)):
            fields = _substitute(base, names, np.array(block))
            bad = ~np.isfinite(fields).all(axis=1) | (fields[:, 4:] < 0).any(axis=1)
            if bad.any():  # the cells before the first bad one go first, then it raises
                if first := int(bad.argmax()):
                    yield fields[:first]
                apply_parameters(base, dict(zip(names, block[first])))  # as the one-point view does
            yield fields

    return [out for z, g, s, norm in rotating_amplitudes(chunks, t)
            for out in reduce(t, *_columns(g, s, norm, base.omega_q, mode, metrics, z))]


def _tables(t: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    return [np.column_stack((t, point)) for point in np.stack(columns, axis=-1)]


def _energy_peaks(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(n, 2) rows (tau, e_max), one per point: the earliest grid time of the grid-maximal energy."""
    peak = e.max(axis=-1, keepdims=True)
    idx = np.argmax(e >= peak - _PEAK_TIE_TOL * peak, axis=-1)
    return np.column_stack((t[idx], e[np.arange(idx.size), idx]))


def time_series(
    p: SystemParams,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """(T, 6) table with rows (t, coherence, energy, ergotropy, purity, norm)."""
    return _evolve_points(p, (), t_grid, mode, METRIC_NAMES, _tables)[0]


def panel_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> list[tuple[float, np.ndarray]]:
    """One `time_series` table per swept value, in the given order."""
    return list(zip(vary.values, _evolve_points(base, (vary,), t_grid, mode, METRIC_NAMES, _tables)))


def max_ergotropy_grid(
    base: SystemParams,
    vary_x: VarySpec,
    vary_y: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """Maximum ergotropy over the time grid for every (x, y) parameter pair:
    a (len(vary_y.values), len(vary_x.values)) array with z[i, j] at (x_j, y_i)."""
    x, y = vary_x.parameter_name, vary_y.parameter_name
    if x == y:
        raise ValueError("contour axes must vary two different parameters")
    if shared := sorted(set(_FIELDS[x]) & set(_FIELDS[y])):  # one axis would overwrite the other
        raise ValueError(f"contour axes {x} and {y} both set {', '.join(shared)}")
    # the maximum charge gap of each point, then its ergotropy: the same bits as the maximum ergotropy
    z = _evolve_points(base, (vary_y, vary_x), t_grid, mode, ("gap",),
                       lambda _, gap: _ergotropy(gap.max(axis=-1), base.omega_q))
    return np.reshape(z, (len(vary_y.values), len(vary_x.values)))


def optimal_time_sweep(
    base: SystemParams,
    vary: VarySpec,
    t_grid: Sequence[float] | np.ndarray,
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> np.ndarray:
    """(n, 3) float array of (value, tau, e_max) rows, one per swept value, in the given order."""
    peaks = _evolve_points(base, (vary,), t_grid, mode, ("energy",), _energy_peaks)
    return np.column_stack((vary.values, peaks))
