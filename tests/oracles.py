"""General density-matrix routes: the oracles the closed-form metrics are tested against.

The package reports every metric in closed form from the four populations
|C_n|^2 (`magbattery.metric_columns`).  This module builds the same numbers
the long way, so the tests can compare the two:

* the battery and charger reduced density matrices of the amplitudes, in
  either accounting mode (`battery_density`, `charger_density`);
* the passive-state construction of A. E. Allahverdyan, R. Balian and
  Th. M. Nieuwenhuizen, Europhys. Lett. 67 (2004) 565: populations sorted
  descending against energy levels sorted ascending give the
  least-energetic state reachable by unitaries, and the work gap to it is
  the ergotropy (`passive_state`, `ergotropy`, with `purity` beside them);
* `oracle_metrics`, the five CLI columns through those matrices;
* `lindblad_metrics`, the five columns from the zero-temperature master
  equation, which uses no no-jump amplitudes at all;
* `shell_amplitudes`, the no-jump amplitudes from scipy's expm of the
  five-level shell Hamiltonian, with one amplitude per atom;
* `bright_chain` and `spectral_amplitudes`, the lossless chain in the
  bright-state basis, diagonalized once, with amplitudes in closed form at
  any t;
* `shell_norm`, the survival probability of the amplitudes;
* `rows_by_row`, the CSV text of a table rendered one row at a time, against
  which the CLI's row-block renderer is tested.

Under decay the conditional amplitudes lose norm, so the literal
partial-trace matrices are sub-normalized.  In ``paper`` accounting they
enter the formulas as-is (trace = N(t) <= 1); ``trace_repaired`` first books
the missing weight 1 - N(t) into the joint ground level (|gg> for the
battery, |000> for the charger), where every zero-temperature decay channel
terminates.  Without dissipation the two modes coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from magbattery import (
    DEFAULT_INITIAL,
    AccountingMode,
    AmplitudeState,
    InconsistentStateError,
    SystemParams,
)
from magbattery.metrics import _POPULATION_FLOOR, _snap
from magbattery.propagator import _NORM_SLACK

BATTERY_BASIS = ("gg", "eg", "ge", "ee")
CHARGER_BASIS = ("100", "010", "001", "000")

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Square complex matrix with its basis labels."""

    matrix: np.ndarray
    basis: tuple[str, ...]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _amplitudes(a: AmplitudeState | Sequence[complex] | np.ndarray) -> np.ndarray:
    c = np.asarray(a.c if isinstance(a, AmplitudeState) else a, dtype=complex)
    if c.shape != (4,):
        raise ValueError("expected 4 amplitudes (C1, C2, C3, C4)")
    return c


def shell_norm(c) -> np.ndarray:
    """Survival probability |C1|^2 + |C2|^2 + |C3|^2 + 2|C4|^2 of (..., 4)
    amplitudes: C4 is counted twice because it stands for both degenerate
    single-atom excitations.  Conserved without decay, non-increasing with decay."""
    c = np.asarray(c, dtype=complex)
    p = c.real * c.real + c.imag * c.imag
    return p[..., 0] + p[..., 1] + p[..., 2] + 2.0 * p[..., 3]


def _checked_norm(c: np.ndarray) -> float:
    n = shell_norm(c)
    if n > 1.0 + _NORM_SLACK:
        raise InconsistentStateError(f"physical norm {n} exceeds 1")
    return n


def battery_density(
    a: AmplitudeState | Sequence[complex],
    mode: AccountingMode | str,
) -> DensityMatrix:
    """Atomic reduced state in the basis (|gg>, |eg>, |ge>, |ee>).

    The |ee> level never populates (single excitation), but the matrix is kept
    4x4 so the full battery Hamiltonian spectrum applies uniformly.  Both
    single-excited populations and their mutual coherence equal |C4|^2 since
    the two atomic excitations share one amplitude.
    """
    mode = AccountingMode(mode)
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
    mode: AccountingMode | str,
) -> DensityMatrix:
    """Field reduced state in the basis (|100>, |010>, |001>, |000>).

    The one-excitation block is the rank-1 projector onto (C1, C2, C3); the
    vacuum level holds 2|C4|^2 (both atomic excitations leave the field empty)
    and carries no coherence to the one-excitation kets.
    """
    mode = AccountingMode(mode)
    c = _amplitudes(a)
    n = _checked_norm(c)
    v = c[:3]
    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = np.outer(v, v.conj())
    rho[3, 3] = 2.0 * abs(c[3]) ** 2
    if mode is AccountingMode.TRACE_REPAIRED:
        rho[3, 3] += 1.0 - n
    return DensityMatrix(matrix=rho, basis=CHARGER_BASIS)


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


def oracle_metrics(c, omega_q, mode):
    """(coherence, energy, ergotropy, purity, norm) through the density matrices.

    Coherence is the off-diagonal l1 of the charger state; energy is
    Tr(rho H) above the uncharged |gg> level; ergotropy and purity use the
    general passive-state and Tr(rho^2) routes; the norm is the paper-mode
    battery trace.  None of it uses the package's closed-form columns.
    """
    h = BatteryHamiltonian(omega_q)
    rho = battery_density(c, mode)
    field = charger_density(c, mode).matrix
    return (
        float(np.sum(np.abs(field - np.diag(np.diag(field))))),
        float(np.trace(rho.matrix @ h.matrix).real) + omega_q,
        ergotropy(rho, h),
        purity(rho),
        battery_density(c, "paper").trace,
    )


def lindblad_metrics(p, t, initial=DEFAULT_INITIAL):
    """The five metric columns from the zero-temperature Lindblad master equation.

    Within at most one excitation the state space is the five-level shell
    plus the ground state |gg, 000> (index 0), where every jump ends.  The
    jump operators are sqrt(kappa_a) a, sqrt(kappa_b) b, sqrt(kappa_m) m and
    sqrt(gamma) sigma_- once per atom; the 36x36 Liouvillian is propagated
    with scipy's expm and the battery and charger states taken by partial
    trace.  Nothing here uses the no-jump amplitudes.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    omegas = np.array([0.0, p.omega_a, p.omega_b, p.omega_m, p.omega_q, p.omega_q])
    h = np.diag(omegas).astype(complex)
    h[1, 2] = h[2, 1] = p.g_a
    h[2, 3] = h[3, 2] = p.g_b
    h[1, 4] = h[4, 1] = h[1, 5] = h[5, 1] = p.lam
    eye = np.eye(6)
    # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for level, rate in enumerate((p.kappa_a, p.kappa_b, p.kappa_m, p.gamma, p.gamma), 1):
        jump = np.zeros((6, 6))
        jump[0, level] = math.sqrt(rate)
        loss = jump.T @ jump
        liouvillian += np.kron(jump, jump.conj()) - 0.5 * (np.kron(loss, eye) + np.kron(eye, loss.T))
    c0 = np.asarray(initial, dtype=complex)
    psi0 = np.concatenate(([0.0], c0, c0[3:]))
    rho0 = np.outer(psi0, psi0.conj()).ravel()
    energies = np.array([-p.omega_q, 0.0, 0.0, p.omega_q])  # |gg>, |eg>, |ge>, |ee>
    rows = []
    for tt in t:
        rho = (expm(tt * liouvillian) @ rho0).reshape(6, 6)
        battery = np.zeros((4, 4), dtype=complex)
        battery[0, 0] = np.trace(rho[:4, :4])  # atoms in |gg>, charger traced out
        battery[1:3, 1:3] = rho[4:, 4:]
        battery[0, 1:3], battery[1:3, 0] = rho[0, 4:], rho[4:, 0]
        charger = np.zeros((4, 4), dtype=complex)  # |100>, |010>, |001>, |000>
        charger[:3, :3] = rho[1:4, 1:4]
        charger[3, 3] = rho[0, 0] + rho[4, 4] + rho[5, 5]
        charger[:3, 3], charger[3, :3] = rho[1:4, 0], rho[0, 1:4]
        energy = np.diag(battery).real @ energies
        passive = np.sort(np.linalg.eigvalsh(battery))[::-1] @ np.sort(energies)
        rows.append((
            np.abs(charger - np.diag(np.diag(charger))).sum(),
            energy + p.omega_q,
            energy - passive,
            np.real(np.trace(battery @ battery)),
            1.0 - rho[0, 0].real,  # the weight that has not decayed
        ))
    return np.array(rows)


def shell_amplitudes(p, t, initial=DEFAULT_INITIAL):
    """(T, 4) amplitudes C1..C4 from scipy's expm of the five-level shell Hamiltonian.

    Basis: photon, magnon, phonon, atom 1 excited, atom 2 excited.  The
    diagonal is omega_n - i kappa_n / 2 and the couplings are g_a, g_b and lam
    to each atom, all read straight from the omegas and rates of `p`: no
    detunings, no frame shifts, no factor-2 bookkeeping for the two atoms.
    The amplitudes are in the lab frame: their moduli are the package's.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    omegas = np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q, p.omega_q])
    rates = np.array([p.kappa_a, p.kappa_b, p.kappa_m, p.gamma, p.gamma])
    h = np.diag(omegas - 0.5j * rates)
    h[0, 1] = h[1, 0] = p.g_a
    h[1, 2] = h[2, 1] = p.g_b
    h[0, 3] = h[3, 0] = h[0, 4] = h[4, 0] = p.lam
    c0 = np.asarray(initial, dtype=complex)
    psi = np.array([expm(-1j * tt * h) @ np.append(c0, c0[3]) for tt in t])
    np.testing.assert_allclose(psi[:, 3], psi[:, 4], atol=1e-12)  # atoms stay alike
    return psi[:, :4]


def bright_chain(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues E (ascending) and orthonormal eigenvectors u_k (the columns
    of U) of the lossless chain as the real symmetric 4x4 H in the basis
    (photon a, magnon b, phonon m, bright state B = (|eg> + |ge>) / sqrt 2).

    The diagonal holds the frame frequencies omega_n - omega_q (0 for B); the
    couplings are g_a (a-b), g_b (b-m) and sqrt(2) lambda (a-B), since the
    photon feeds both atoms alike.  A lossy point is refused: its H is not
    Hermitian, and no orthonormal expansion holds.
    """
    if any((p.kappa_a, p.kappa_b, p.kappa_m, p.gamma)):
        raise ValueError("the spectral oracle takes lossless points only")
    h = np.diag([p.omega_a - p.omega_q, p.omega_b - p.omega_q, p.omega_m - p.omega_q, 0.0])
    h[0, 1] = h[1, 0] = p.g_a
    h[1, 2] = h[2, 1] = p.g_b
    h[0, 3] = h[3, 0] = math.sqrt(2.0) * p.lam
    return np.linalg.eigh(h)


def spectral_amplitudes(p: SystemParams, t) -> np.ndarray:
    """(T, 4) amplitudes (a, b, m, B) at the times t from one photon, in the
    frame that turns at omega_q: sum_k u_k u_k(a) exp(-i E_k t) of
    `bright_chain`.  Their moduli are |C1|, |C2|, |C3| and sqrt(2) |C4|, so
    the bright population P(t) = |sum_k u_k(B) u_k(a) exp(-i E_k t)|^2 is the
    battery's excitation, and its ergotropy is omega_q max(0, 2P - 1)."""
    e, u = bright_chain(p)
    return (np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), e)) * u[0]) @ u.T


def rows_by_row(template, table):
    """`template` % row and a newline per row of `table`, one `%` per row, with
    -0.0 turned into 0.0: the reference for `cli._rows`, which renders a block
    of rows per `%`."""
    line = template + "\n"
    return "".join([line % tuple(row) for row in (np.asarray(table, dtype=float) + 0.0).tolist()])
