"""Parameter containers and the real generator of the constant evolution matrix.

The simulated device is a chain of three bosonic modes — cavity photon (a),
magnon (b), phonon (m) — acting as the charger, with the photon mode also
coupled to a pair of identical two-level atoms that form the battery.  In the
single-excitation sector, with both atoms sharing one degenerate excited
amplitude, the conditional (no-jump) dynamics closes on four complex
amplitudes:

    C1  photon excited      |gg> (x) |100>
    C2  magnon excited      |gg> (x) |010>
    C3  phonon excited      |gg> (x) |001>
    C4  one atom excited    (|eg> and |ge> share this amplitude) (x) |000>

Rotating every amplitude at the atomic frequency omega_q removes the explicit
time dependence and leaves z'(t) = -i A z(t) with a constant 4x4 matrix A,
whose diagonal holds each mode's frequency relative to omega_q.
Decay enters as -i*kappa/2 on the diagonal (conditional non-Hermitian
evolution), so A is not Hermitian; it is also not symmetric:
the photon->battery entry is 2*lam while battery->photon is lam, because C4
stands for two degenerate atomic excitations at once.  A is built here only
as the real 8x8 form of -i A that the kernel runs on (`real_generators`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = [
    "SystemParams",
]

_COUPLING_FIELDS = ("g_a", "g_b", "lam")
_DECAY_FIELDS = ("kappa_a", "kappa_b", "kappa_m", "gamma")
# every field in declaration order: the columns `real_generators` slices
_FIELD_NAMES = ("omega_a", "omega_b", "omega_m", "omega_q") + _COUPLING_FIELDS + _DECAY_FIELDS


@dataclass(frozen=True)
class SystemParams:
    """All rates of the model, dimensionless (units of the reference coupling).

    omega_a/b/m/q are the photon, magnon, phonon and atomic transition
    frequencies; g_a couples photon-magnon, g_b magnon-phonon, lam couples the
    photon to each atom; kappa_a/b/m and gamma are the respective decay rates.
    """

    omega_a: float = 1.0
    omega_b: float = 1.0
    omega_m: float = 1.0
    omega_q: float = 1.0
    g_a: float = 1.0
    g_b: float = 1.0
    lam: float = 1.0
    kappa_a: float = 0.0
    kappa_b: float = 0.0
    kappa_m: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in _COUPLING_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"coupling {name} must be >= 0")
        for name in _DECAY_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"decay rate {name} must be >= 0")

    @classmethod
    def from_detunings(
        cls,
        delta_1: float = 0.0,
        delta_2: float = 0.0,
        delta_3: float = 0.0,
        *,
        omega_q: float = 1.0,
        **rates: float,
    ) -> "SystemParams":
        """Build params from the three detunings instead of the four omegas.

        Only frequency differences enter the dynamics, so the absolute scale
        is gauged by omega_q (which also sets the energy unit of the battery).
        `rates` are the coupling and decay fields, defaulting as in the class.
        """
        return cls(*_omegas(delta_1, delta_2, delta_3, omega_q), omega_q, **rates)


def _omegas(delta_1, delta_2, delta_3, omega_q):
    """(omega_a, omega_b, omega_m) the detunings set below omega_q, of floats or arrays alike."""
    omega_a = omega_q - delta_3
    omega_b = omega_a - delta_2
    return omega_a, omega_b, omega_b - delta_1


def _detunings(p: SystemParams) -> dict[str, float]:
    """The keyword detunings of `SystemParams.from_detunings` that give `p`'s
    omegas, each positive when the mode nearer the atoms is the higher one:
    delta_1 = omega_b - omega_m (magnon above phonon), delta_2 = omega_a -
    omega_b (photon above magnon), delta_3 = omega_q - omega_a (atom above photon)."""
    return {"delta_1": p.omega_b - p.omega_m, "delta_2": p.omega_a - p.omega_b, "delta_3": p.omega_q - p.omega_a}


def _field_array(points: list[SystemParams]) -> np.ndarray:
    """(n, 11) fields of n points, one column per `_FIELD_NAMES` entry."""
    return np.array(list(map(attrgetter(*_FIELD_NAMES), points)), dtype=float)


def _frame_frequencies(fields: np.ndarray) -> np.ndarray:
    """(n, 4) frame frequencies (omega_a, omega_b, omega_m, omega_q) - omega_q of an (n, 11) `_field_array`."""
    return fields[:, :4] - fields[:, 3:4]


def real_generators(fields: np.ndarray) -> np.ndarray:
    """(n, 8, 8) real generators W of the n points of an (n, 11) `_field_array`:
    x @ W is the float view of z @ (-i A).T for rows z with float view x, A the
    matrix of z' = -i A z.  In the frame that turns at omega_q, C_n = Z_n
    exp(+i f_n t) with f the `_frame_frequencies`; basis order (Z1, Z2, Z3, Z4).
    A's diagonal is f - i*kappa/2 with kappa = (kappa_a, kappa_b, kappa_m, gamma),
    its couplings photon-magnon g_a, magnon-phonon g_b and photon-battery 2*lam
    (forward) / lam (backward), the 2 counting both atomic targets.  An entry
    A_ij = a + ib is the block [[b, -a], [a, b]] at rows 2j.. and columns 2i..
    """
    (g_a, g_b, lam), f, decay = fields[:, 4:7].T, _frame_frequencies(fields), 0.0 - 0.5 * fields[:, 7:]
    w, d = np.zeros((len(fields), 4, 2, 4, 2)), np.arange(4)  # W[2j + p, 2i + q] is w[:, j, p, i, q]
    w[:, d, 0, d, 0] = w[:, d, 1, d, 1] = decay
    w[:, d, 1, d, 0], w[:, d, 0, d, 1] = f, -f
    for (i, j), c in {(0, 1): g_a, (1, 0): g_a, (1, 2): g_b, (2, 1): g_b, (0, 3): 2.0 * lam, (3, 0): lam}.items():
        w[:, j, 1, i, 0], w[:, j, 0, i, 1] = c, -c
    return w.reshape(-1, 8, 8)
