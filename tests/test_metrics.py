"""Coherence, stored energy, ergotropy (with brute-force oracle), purity.

The permutation oracle: ergotropy = <H> - min over all 4! assignments of
populations to energy levels.  Written independently of the package's
sorted-spectrum construction.  The closed-form columns are checked against
the density-matrix routes (see `oracle_metrics` in conftest).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbattery import (
    METRIC_NAMES,
    AccountingMode,
    BatteryHamiltonian,
    DensityMatrix,
    InconsistentStateError,
    SystemParams,
    battery_density,
    charger_density,
    ergotropy,
    ergotropy_series,
    evolve,
    metric_columns,
    passive_state,
    purity,
    sample_metrics,
    stored_energy_series,
)

from conftest import oracle_metrics, shell_amplitudes

BELL_PEAK = (0.0, 0.0, 0.0, -1j / math.sqrt(2))
MODES = (AccountingMode.PAPER, AccountingMode.TRACE_REPAIRED)
H = BatteryHamiltonian(1.0)


def brute_force_ergotropy(rho, h):
    """Min over all 24 population-to-level assignments; independent oracle."""
    pops = np.linalg.eigvalsh(rho)
    energies = np.asarray(h.eigenvalues)
    passive = min(
        float(np.dot(pops[list(perm)], energies))
        for perm in itertools.permutations(range(4))
    )
    mean = float(np.real(np.trace(rho @ h.matrix)))
    return mean - passive


def random_psd_unit_trace(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def coherence(c):
    return float(metric_columns(c, 1.0)[METRIC_NAMES.index("coherence")])


class TestCoherence:
    def test_initial(self):
        assert coherence((1, 0, 0, 0)) == 0.0

    def test_two_mode_superposition(self):
        s = 1 / math.sqrt(2)
        assert coherence((s, s, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_three_mode_superposition(self):
        s = 1 / math.sqrt(3)
        assert coherence((s, s, s, 0)) == pytest.approx(2.0, abs=1e-12)

    def test_equals_charger_offdiagonal_l1(self, rng, draw_params):
        # the amplitude formula must reproduce the density-matrix definition
        for _ in range(5):
            traj = evolve(draw_params(rng), np.linspace(0, 10, 30))
            column = metric_columns(traj.amplitudes, 1.0)[:, METRIC_NAMES.index("coherence")]
            for k, s in enumerate(traj):
                rho = charger_density(s).matrix
                l1 = np.sum(np.abs(rho - np.diag(np.diag(rho))))
                assert column[k] == pytest.approx(l1, abs=1e-12)


class TestStoredEnergy:
    def test_uncharged(self):
        for mode in MODES:
            assert stored_energy_series((1, 0, 0, 0), 1.0, mode) == 0.0

    def test_bell_peak(self):
        for mode in MODES:
            assert stored_energy_series(BELL_PEAK, 1.0, mode) == pytest.approx(1.0)

    def test_accounting_divergence(self):
        c = (0.5, 0, 0, 0)  # N = 0.25, battery empty
        assert stored_energy_series(c, 1.0, "paper") == pytest.approx(0.75)
        assert stored_energy_series(c, 1.0, "trace_repaired") == pytest.approx(0.0)

    def test_scales_with_omega_q(self):
        assert stored_energy_series(BELL_PEAK, 2.5, "paper") == pytest.approx(2.5)


class TestPassiveState:
    def test_ground_projector_fixed(self):
        rho = battery_density((1, 0, 0, 0))
        np.testing.assert_allclose(passive_state(rho, H).matrix, rho.matrix, atol=1e-14)

    def test_bell_state_drops_to_ground(self):
        eta = passive_state(battery_density(BELL_PEAK), H).matrix
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        np.testing.assert_allclose(eta, want, atol=1e-12)

    def test_diagonal_reordering(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex),
                            ("gg", "eg", "ge", "ee"))
        eta = passive_state(rho, H).matrix
        np.testing.assert_allclose(np.diag(eta).real, [0.4, 0.3, 0.2, 0.1], atol=1e-14)

    def test_same_spectrum_and_commutes(self, rng):
        for _ in range(50):
            rho = DensityMatrix(random_psd_unit_trace(rng), ("gg", "eg", "ge", "ee"))
            eta = passive_state(rho, H).matrix
            np.testing.assert_allclose(np.linalg.eigvalsh(eta),
                                       np.linalg.eigvalsh(rho.matrix), atol=1e-12)
            comm = eta @ H.matrix - H.matrix @ eta
            assert np.abs(comm).max() <= 1e-12

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            passive_state(DensityMatrix(m, ("gg", "eg", "ge", "ee")), H)


class TestErgotropy:
    def test_ground_state(self):
        assert ergotropy(battery_density((1, 0, 0, 0)), H) == 0.0

    def test_bell_peak(self):
        assert ergotropy(battery_density(BELL_PEAK), H) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex),
                            ("gg", "eg", "ge", "ee"))
        assert ergotropy(rho, H) == pytest.approx(0.6, abs=1e-12)

    def test_against_permutation_oracle(self, rng):
        for _ in range(200):
            m = random_psd_unit_trace(rng)
            rho = DensityMatrix(m, ("gg", "eg", "ge", "ee"))
            assert ergotropy(rho, H) == pytest.approx(
                brute_force_ergotropy(m, H), abs=1e-12)

    def test_unitary_invariance_of_passive_energy(self, rng):
        # rotating rho changes <H> but not the passive energy
        for _ in range(50):
            pops = rng.dirichlet(np.ones(4))
            rho0 = np.diag(pops).astype(complex)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            rho1 = q @ rho0 @ q.conj().T
            for m in (rho0, rho1):
                dm = DensityMatrix(m, ("gg", "eg", "ge", "ee"))
                mean = float(np.real(np.trace(m @ H.matrix)))
                passive = mean - ergotropy(dm, H)
                want = float(np.sort(pops)[::-1] @ np.sort(H.eigenvalues))
                assert passive == pytest.approx(want, abs=1e-10)


class TestPurity:
    def test_pure_projector(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()), ("gg", "eg", "ge", "ee"))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, ("gg", "eg", "ge", "ee"))
        assert purity(rho) == pytest.approx(0.25, abs=1e-15)

    def test_bell_peak_pure(self):
        assert purity(battery_density(BELL_PEAK)) == pytest.approx(1.0, abs=1e-12)

    def test_range_for_unit_trace(self, rng):
        for _ in range(100):
            rho = DensityMatrix(random_psd_unit_trace(rng), ("gg", "eg", "ge", "ee"))
            assert 0.25 - 1e-12 <= purity(rho) <= 1 + 1e-12


class TestSampleMetrics:
    def test_initial_point(self):
        traj = evolve(SystemParams(), [0.0, 1.0])
        m = sample_metrics(traj[0], SystemParams())
        assert (m.coherence, m.energy, m.ergotropy) == (0.0, 0.0, 0.0)
        assert m.purity == pytest.approx(1.0, abs=1e-12)
        assert m.norm == pytest.approx(1.0, abs=1e-15)

    def test_bell_peak_point(self):
        from magbattery import AmplitudeState
        a = AmplitudeState(1.0, np.array(BELL_PEAK))
        m = sample_metrics(a, SystemParams())
        assert m.coherence == pytest.approx(0.0, abs=1e-15)
        assert m.energy == pytest.approx(1.0, abs=1e-12)
        assert m.ergotropy == pytest.approx(1.0, abs=1e-12)
        assert m.purity == pytest.approx(1.0, abs=1e-12)

    def test_bound_along_trajectories(self, rng, draw_params):
        for _ in range(5):
            traj = evolve(draw_params(rng), np.linspace(0, 10, 40))
            p = draw_params(rng)
            for mode in MODES:
                for s in traj:
                    m = sample_metrics(s, p, mode)
                    assert 0.0 <= m.ergotropy <= m.energy + 1e-10
                    assert 0.0 <= m.purity <= 1 + 1e-12

    def test_rank_one_peak_extracts_everything(self):
        # lossless run: at the global energy max the battery state is pure,
        # so ergotropy must equal stored energy there
        p = SystemParams.from_detunings(1, 1, 1)
        traj = evolve(p, np.arange(0, 20.0 + 1e-9, 0.01))
        e = stored_energy_series(traj.amplitudes, p.omega_q)
        k = int(np.argmax(e))
        rho = battery_density(traj[k]).matrix
        w = np.linalg.eigvalsh(rho)
        if w[:3].max() <= 1e-8:  # rank-1 within tolerance
            m = sample_metrics(traj[k], p)
            assert m.ergotropy == pytest.approx(m.energy, abs=1e-8)


class TestSeriesRoutes:
    @settings(max_examples=300)
    @given(c=shell_amplitudes(), omega_q=st.floats(0.5, 2.0), mode=st.sampled_from(MODES))
    def test_match_scalar_routes(self, c, omega_q, mode):
        # closed-form columns against the density-matrix oracles, per column
        got = metric_columns(c, omega_q, mode)
        np.testing.assert_allclose(got, oracle_metrics(c, omega_q, mode), rtol=0, atol=1e-12)
        assert stored_energy_series(c, omega_q, mode) == got[METRIC_NAMES.index("energy")]
        assert ergotropy_series(c, omega_q, mode) == got[METRIC_NAMES.index("ergotropy")]

    def test_state_checks(self):
        with pytest.raises(InconsistentStateError):
            metric_columns(np.array([[1.0, 0, 0, 0], [1.1, 0, 0, 0]]), 1.0)
        # N = 1 + 8e-10 passes the norm slack, but g' = 1 - 2s = -8e-10
        overfull_battery = (0, 0, 0, math.sqrt(0.5 + 4e-10))
        with pytest.raises(ValueError, match="positive semidefinite"):
            metric_columns(overfull_battery, 1.0, "trace_repaired")


class TestBatteryHamiltonian:
    def test_spectrum(self):
        h = BatteryHamiltonian(2.0)
        np.testing.assert_array_equal(h.eigenvalues, [-2.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(h.matrix, np.diag([-2.0, 0.0, 0.0, 2.0]))

    def test_diagonal_and_symmetric_about_zero(self):
        h = BatteryHamiltonian(1.7)
        assert np.all(h.matrix == np.diag(np.diag(h.matrix)))
        assert sum(h.eigenvalues) == 0.0
