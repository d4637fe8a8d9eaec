"""Reduced density matrices of battery and charger (the `oracles` module), both accounting modes."""

import math

import numpy as np
import pytest
from hypothesis import given

from magbattery import (
    AccountingMode,
    InconsistentStateError,
    SystemParams,
    evolve,
)

from conftest import shell_amplitudes
from oracles import battery_density, charger_density, shell_norm

BELL_PEAK = (0.0, 0.0, 0.0, -1j / math.sqrt(2))  # full-transfer amplitudes
MODES = (AccountingMode.PAPER, AccountingMode.TRACE_REPAIRED)


def random_trajectory(rng, draw_params, n_t=40):
    p = draw_params(rng)
    return evolve(p, np.linspace(0, 10, n_t))


class TestBatteryDensity:
    def test_initial_state(self):
        for mode in MODES:
            rho = battery_density((1, 0, 0, 0), mode)
            want = np.zeros((4, 4))
            want[0, 0] = 1.0
            np.testing.assert_allclose(rho.matrix, want, atol=0)
            assert rho.basis == ("gg", "eg", "ge", "ee")

    def test_bell_peak(self):
        rho = battery_density(BELL_PEAK, "paper").matrix
        want = np.zeros((4, 4))
        want[1, 1] = want[2, 2] = want[1, 2] = want[2, 1] = 0.5
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_damped_trace_bookkeeping(self):
        c = (math.sqrt(0.5), 0, 0, 0)  # N = 0.5, battery empty
        assert battery_density(c, "paper").trace == pytest.approx(0.5)
        rep = battery_density(c, "trace_repaired")
        assert rep.trace == pytest.approx(1.0)
        assert rep.matrix[0, 0] == pytest.approx(1.0)

    def test_overfull_norm_rejected(self):
        with pytest.raises(InconsistentStateError):
            battery_density((1.1, 0, 0, 0), "paper")

    def test_mode_accepts_strings(self):
        a = battery_density(BELL_PEAK, "paper").matrix
        b = battery_density(BELL_PEAK, AccountingMode.PAPER).matrix
        np.testing.assert_array_equal(a, b)


class TestChargerDensity:
    def test_initial_state(self):
        rho = charger_density((1, 0, 0, 0), "paper")
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, want, atol=0)
        assert rho.basis == ("100", "010", "001", "000")

    def test_coherent_superposition_rank_one(self):
        s = 1 / math.sqrt(2)
        rho = charger_density((s, s, 0, 0), "paper").matrix
        v = np.array([s, s, 0, 0], dtype=complex)
        np.testing.assert_allclose(rho, np.outer(v, v.conj()), atol=1e-15)

    def test_bell_peak_discharged(self):
        rho = charger_density(BELL_PEAK, "paper").matrix
        np.testing.assert_allclose(np.diag(rho), [0, 0, 0, 1], atol=1e-15)

    def test_no_coherence_to_vacuum(self, rng, draw_params):
        traj = random_trajectory(rng, draw_params)
        for s in traj.amplitudes:
            rho = charger_density(s, "paper").matrix
            np.testing.assert_allclose(rho[3, :3], 0.0, atol=0)
            np.testing.assert_allclose(rho[:3, 3], 0.0, atol=0)


class TestInvariants:
    def test_hermitian_psd_and_traces(self, rng, draw_params):
        for _ in range(10):
            traj = random_trajectory(rng, draw_params)
            for s in traj.amplitudes:
                n = shell_norm(s)
                for build in (battery_density, charger_density):
                    pap = build(s, "paper").matrix
                    rep = build(s, "trace_repaired").matrix
                    for rho in (pap, rep):
                        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
                        assert np.linalg.eigvalsh(rho).min() >= -1e-12
                    assert np.trace(pap).real == pytest.approx(n, abs=1e-10)
                    assert np.trace(rep).real == pytest.approx(1.0, abs=1e-10)

    def test_modes_coincide_without_dissipation(self, rng):
        p = SystemParams.from_detunings(1, 1, 1)
        for s in evolve(p, np.linspace(0, 10, 50)).amplitudes:
            for build in (battery_density, charger_density):
                np.testing.assert_allclose(
                    build(s, "paper").matrix,
                    build(s, "trace_repaired").matrix, atol=1e-9)

    def test_one_excitation_block_rank_one(self, rng, draw_params):
        traj = random_trajectory(rng, draw_params)
        for s in traj.amplitudes:
            block = charger_density(s, "paper").matrix[:3, :3]
            w = np.linalg.eigvalsh(block)
            assert w[:2].max() <= 1e-12  # only the top eigenvalue may be nonzero


class TestBatterySpectrum:
    @given(c=shell_amplitudes())
    def test_is_ground_shared_and_two_zeros(self, c):
        # the premise of the closed-form metrics: spectrum {g', 2|C4|^2, 0, 0}
        p = np.abs(c) ** 2
        shared = 2.0 * p[3]
        for mode, ground in (("paper", p[:3].sum()), ("trace_repaired", 1.0 - shared)):
            got = np.linalg.eigvalsh(battery_density(c, mode).matrix)
            np.testing.assert_allclose(got, np.sort([ground, shared, 0.0, 0.0]),
                                       rtol=0, atol=1e-12)
