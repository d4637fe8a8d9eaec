"""Time evolution of the single-excitation amplitudes.

Two independent routes are provided:

* the production path `evolve`: rotate to the autonomous frame, apply the
  matrix exponential of the constant evolution matrix, rotate back;
* the verification path `oracle_integrate`: classical RK4 directly on the
  amplitude equations with their explicit oscillating phase factors.

Both return C-frame amplitudes, so any disagreement exposes an error in the
frame algebra or in either integrator.
"""

from __future__ import annotations

import math
from cmath import exp as _cexp
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import (
    SystemParams,
    derive_detunings,
    derive_frame_shifts,
    build_evolution_matrix,
    FrameShifts,
)

__all__ = [
    "AmplitudeState",
    "Trajectory",
    "physical_norm",
    "matrix_exponential",
    "propagate",
    "z_to_c",
    "evolve",
    "oracle_integrate",
    "DEFAULT_INITIAL",
]

# Initial state: one photon, both atoms in the ground state.
DEFAULT_INITIAL = (1.0 + 0.0j, 0.0j, 0.0j, 0.0j)


def physical_norm(c: Sequence[complex] | np.ndarray) -> float:
    """Survival probability |C1|^2 + |C2|^2 + |C3|^2 + 2|C4|^2.

    C4 is counted twice because it stands for both degenerate single-atom
    excitations.  Conserved without decay, non-increasing with decay.
    """
    c = np.asarray(c)
    return float(
        abs(c[0]) ** 2 + abs(c[1]) ** 2 + abs(c[2]) ** 2 + 2.0 * abs(c[3]) ** 2
    )


@dataclass(frozen=True)
class AmplitudeState:
    """C-frame amplitudes (C1, C2, C3, C4) at one instant; C5 is identically C4."""

    t: float
    c: np.ndarray

    @property
    def norm(self) -> float:
        return physical_norm(self.c)


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes sampled on a strictly increasing time grid.

    `times` has shape (T,), `amplitudes` has shape (T, 4) with rows
    (C1, C2, C3, C4).  Iteration yields AmplitudeState views.
    """

    times: np.ndarray
    amplitudes: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, i: int) -> AmplitudeState:
        return AmplitudeState(t=float(self.times[i]), c=self.amplitudes[i])

    def __iter__(self) -> Iterator[AmplitudeState]:
        for i in range(len(self)):
            yield self[i]

    def norms(self) -> np.ndarray:
        c = self.amplitudes
        return (
            np.abs(c[:, 0]) ** 2
            + np.abs(c[:, 1]) ** 2
            + np.abs(c[:, 2]) ** 2
            + 2.0 * np.abs(c[:, 3]) ** 2
        )


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling-and-squaring with a diagonal [6/6] Pade approximant.

    The argument is halved until its infinity norm is <= 0.5, the Pade
    quotient is formed, and the result squared back.  At that norm the [6/6]
    truncation error sits below double-precision roundoff, so the relative
    error against direct series summation is ~1e-15 for well conditioned
    input.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential argument has non-finite entries")

    norm = float(np.linalg.norm(m, np.inf))
    if not norm < 2.0**1022:  # the scaling 2**squarings below must stay finite
        raise ValueError(f"matrix exponential argument is too large (infinity norm {norm:g})")
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm) + 1.0))
        m = m / (2.0**squarings)

    # [6/6] Pade coefficients c_k = c_{k-1} * (6-k+1) / (k * (12-k+1))
    c = [1.0]
    for k in range(1, 7):
        c.append(c[-1] * (7 - k) / (k * (13 - k)))

    eye = np.eye(m.shape[0], dtype=complex)
    m2 = m @ m
    m4 = m2 @ m2
    odd = m @ (c[1] * eye + c[3] * m2 + c[5] * m4)
    even = c[0] * eye + c[2] * m2 + c[4] * m4 + c[6] * (m2 @ m4)
    f = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        f = f @ f
    return f


def propagate(a: np.ndarray, z0: Sequence[complex], t: float) -> np.ndarray:
    """Rotated-frame solution z(t) = exp(-i A t) z0 for the constant matrix A."""
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    a = np.asarray(a, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    return matrix_exponential(-1j * t * a) @ z0


def z_to_c(z: Sequence[complex], f: FrameShifts, t: float) -> np.ndarray:
    """Undo the frame rotation: C_n = Z_n * exp(-i Delta_n t)."""
    z = np.asarray(z, dtype=complex)
    return z * np.exp(-1j * f.as_array() * t)


def _validated_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("time grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid must be finite")
    if t[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {t[0]}")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _initial_vector(initial) -> np.ndarray:
    z0 = np.array(DEFAULT_INITIAL if initial is None else initial, dtype=complex)
    if z0.shape != (4,):
        raise ValueError("initial amplitudes must have exactly 4 components")
    return z0


def evolve(
    p: SystemParams,
    t_grid,
    *,
    initial: Sequence[complex] | None = None,
) -> Trajectory:
    """Propagate the amplitudes over the grid via the constant-matrix route.

    The evolution matrix is built once.  On a uniform grid the single-step
    exponential is reused by repeated application, which keeps the accumulated
    error around T*eps, far below the 1e-9 norm-conservation budget; otherwise
    each grid point gets its own exponential.  `initial` (amplitudes at t=0)
    is an override hook for testing only.
    """
    t = _validated_grid(t_grid)
    a = build_evolution_matrix(p)
    shifts = derive_frame_shifts(derive_detunings(p)).as_array()
    z0 = _initial_vector(initial)

    z = np.empty((t.size, 4), dtype=complex)
    steps = np.diff(t)
    uniform = t.size > 1 and np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15)
    # overflow in the exponential's squaring phase is reported below, at its
    # cause, instead of as numpy warnings followed by NaN output
    with np.errstate(over="ignore", invalid="ignore"):
        if uniform:
            z[0] = z0 if t[0] == 0.0 else matrix_exponential(-1j * t[0] * a) @ z0
            step = matrix_exponential(-1j * steps[0] * a)
            if not np.all(np.isfinite(step)):
                raise ValueError(
                    f"one-step exponential exp(-i A dt) is not finite for time step "
                    f"dt = {steps[0]:g}: the evolution matrix is too large"
                )
            for k in range(1, t.size):
                z[k] = step @ z[k - 1]
        else:
            for k in range(t.size):
                z[k] = z0 if t[k] == 0.0 else matrix_exponential(-1j * t[k] * a) @ z0
        c = z * np.exp(-1j * t[:, None] * shifts[None, :])
    finite = np.all(np.isfinite(c), axis=1)
    if not np.all(finite):
        raise ValueError(
            f"amplitudes are not finite from t = {t[np.argmin(finite)]:g}: "
            "the evolution matrix or the time grid is too large"
        )
    return Trajectory(times=t, amplitudes=c)


def oracle_integrate(
    p: SystemParams,
    t_grid,
    *,
    initial: Sequence[complex] | None = None,
    max_step: float = 1e-3,
) -> Trajectory:
    """Independent verification path: classical RK4 on the C-frame equations.

    Integrates the amplitude ODEs with their explicit oscillating factors
    exp(+-i delta t) left in place (no frame rotation), fixed substep
    <= max_step, landing exactly on every grid point.  Deliberately shares no
    code with `evolve` beyond the parameter container.
    """
    t = _validated_grid(t_grid)
    if not 0.0 < max_step <= 1e-3:
        raise ValueError("max_step must lie in (0, 1e-3]")
    z0 = _initial_vector(initial)

    d = derive_detunings(p)
    d1, d2, d3 = d.delta_1, d.delta_2, d.delta_3
    ga, gb, lam = p.g_a, p.g_b, p.lam
    ka2, kb2, km2, gq2 = 0.5 * p.kappa_a, 0.5 * p.kappa_b, 0.5 * p.kappa_m, 0.5 * p.gamma

    def deriv(tt: float, x1: complex, x2: complex, x3: complex, x4: complex):
        pa = _cexp(-1j * d2 * tt)  # photon-magnon mismatch
        pb = _cexp(-1j * d1 * tt)  # magnon-phonon mismatch
        pq = _cexp(-1j * d3 * tt)  # photon-atom mismatch
        dx1 = -1j * (ga * pa * x2 + 2.0 * lam * pq * x4) - ka2 * x1
        dx2 = -1j * (ga * pa.conjugate() * x1 + gb * pb * x3) - kb2 * x2
        dx3 = -1j * gb * pb.conjugate() * x2 - km2 * x3
        dx4 = -1j * lam * pq.conjugate() * x1 - gq2 * x4
        return dx1, dx2, dx3, dx4

    out = np.empty((t.size, 4), dtype=complex)
    c1, c2, c3, c4 = (complex(z0[0]), complex(z0[1]), complex(z0[2]), complex(z0[3]))
    t_prev = 0.0
    for k in range(t.size):
        span = float(t[k]) - t_prev
        if span > 0.0:
            n = int(math.ceil(span / max_step))
            h = span / n
            h2 = 0.5 * h
            h6 = h / 6.0
            for j in range(n):
                tj = t_prev + j * h
                a1, a2, a3, a4 = deriv(tj, c1, c2, c3, c4)
                b1, b2, b3, b4 = deriv(
                    tj + h2, c1 + h2 * a1, c2 + h2 * a2, c3 + h2 * a3, c4 + h2 * a4
                )
                f1, f2, f3, f4 = deriv(
                    tj + h2, c1 + h2 * b1, c2 + h2 * b2, c3 + h2 * b3, c4 + h2 * b4
                )
                g1, g2, g3, g4 = deriv(
                    tj + h, c1 + h * f1, c2 + h * f2, c3 + h * f3, c4 + h * f4
                )
                c1 = c1 + h6 * (a1 + 2.0 * (b1 + f1) + g1)
                c2 = c2 + h6 * (a2 + 2.0 * (b2 + f2) + g2)
                c3 = c3 + h6 * (a3 + 2.0 * (b3 + f3) + g3)
                c4 = c4 + h6 * (a4 + 2.0 * (b4 + f4) + g4)
        out[k] = (c1, c2, c3, c4)
        t_prev = float(t[k])

    return Trajectory(times=t, amplitudes=out)

