"""Reduced density matrices of the battery (atoms) and charger (field chain).

Under decay the conditional amplitudes lose norm, so the literal partial-trace
matrices are sub-normalized.  Two accounting modes are exposed:

* ``paper``: the matrices are used exactly as the amplitude formulas give
  them, trace = N(t) <= 1;
* ``trace_repaired``: the missing weight 1 - N(t) is booked into the joint
  ground level (|gg> for the battery, |000> for the charger), where every
  zero-temperature decay channel terminates, restoring unit trace.

Without dissipation the two modes coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .propagator import _NORM_SLACK, AmplitudeState, physical_norm

__all__ = [
    "AccountingMode",
    "DensityMatrix",
    "InconsistentStateError",
    "BATTERY_BASIS",
    "CHARGER_BASIS",
    "battery_density",
    "charger_density",
]

BATTERY_BASIS = ("gg", "eg", "ge", "ee")
CHARGER_BASIS = ("100", "010", "001", "000")


class AccountingMode(str, Enum):
    """How the weight 1 - N(t) lost to decay enters the reduced states.

    ``trace_repaired`` is the Lindblad answer: with the jump operators
    sqrt(kappa_a) a, sqrt(kappa_b) b, sqrt(kappa_m) m and sqrt(gamma) sigma_-
    per atom, every jump ends in |gg, 000>, and the zero-temperature master
    equation gives exactly these repaired matrices (checked against a 36x36
    Liouvillian in the tests).  ``paper`` keeps the sub-normalized no-jump
    matrices, so its stored energy omega_q (1 - g) books the decayed weight
    as battery charge.  The default stays ``paper``.
    """

    PAPER = "paper"
    TRACE_REPAIRED = "trace_repaired"


class InconsistentStateError(ValueError):
    """Amplitudes carry more than one excitation worth of probability."""


@dataclass(frozen=True)
class DensityMatrix:
    """Square complex matrix with its basis labels."""

    matrix: np.ndarray
    basis: tuple[str, ...]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _coerce_mode(mode: AccountingMode | str) -> AccountingMode:
    if isinstance(mode, AccountingMode):
        return mode
    try:
        return AccountingMode(mode)
    except ValueError:
        raise ValueError(
            f"unknown accounting mode {mode!r}; expected 'paper' or 'trace_repaired'"
        ) from None


def _amplitudes(a: AmplitudeState | Sequence[complex] | np.ndarray) -> np.ndarray:
    c = np.asarray(a.c if isinstance(a, AmplitudeState) else a, dtype=complex)
    if c.shape != (4,):
        raise ValueError("expected 4 amplitudes (C1, C2, C3, C4)")
    return c


def _checked_norm(c: np.ndarray) -> float:
    n = physical_norm(c)
    if n > 1.0 + _NORM_SLACK:
        raise InconsistentStateError(f"physical norm {n} exceeds 1")
    return n


def battery_density(
    a: AmplitudeState | Sequence[complex],
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> DensityMatrix:
    """Atomic reduced state in the basis (|gg>, |eg>, |ge>, |ee>).

    The |ee> level never populates (single excitation), but the matrix is kept
    4x4 so the full battery Hamiltonian spectrum applies uniformly.  Both
    single-excited populations and their mutual coherence equal |C4|^2 since
    the two atomic excitations share one amplitude.
    """
    mode = _coerce_mode(mode)
    c = _amplitudes(a)
    n = _checked_norm(c)
    ground = abs(c[0]) ** 2 + abs(c[1]) ** 2 + abs(c[2]) ** 2
    shared = abs(c[3]) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = ground
    rho[1, 1] = rho[2, 2] = shared
    rho[1, 2] = rho[2, 1] = shared
    if mode is AccountingMode.TRACE_REPAIRED:
        rho[0, 0] += 1.0 - n
    return DensityMatrix(matrix=rho, basis=BATTERY_BASIS)


def charger_density(
    a: AmplitudeState | Sequence[complex],
    mode: AccountingMode | str = AccountingMode.PAPER,
) -> DensityMatrix:
    """Field reduced state in the basis (|100>, |010>, |001>, |000>).

    The one-excitation block is the rank-1 projector onto (C1, C2, C3); the
    vacuum level holds 2|C4|^2 (both atomic excitations leave the field empty)
    and carries no coherence to the one-excitation kets.
    """
    mode = _coerce_mode(mode)
    c = _amplitudes(a)
    n = _checked_norm(c)
    v = c[:3]
    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = np.outer(v, v.conj())
    rho[3, 3] = 2.0 * abs(c[3]) ** 2
    if mode is AccountingMode.TRACE_REPAIRED:
        rho[3, 3] += 1.0 - n
    return DensityMatrix(matrix=rho, basis=CHARGER_BASIS)

