"""Coherence, stored energy, ergotropy (with brute-force oracle), purity.

The permutation oracle: ergotropy = <H> - min over all 4! assignments of
populations to energy levels.  Written independently of the package's
sorted-spectrum construction.  The closed-form columns are checked against
the density-matrix routes (see `oracle_metrics` in oracles).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbattery import (
    METRIC_NAMES,
    AccountingMode,
    AmplitudeState,
    InconsistentStateError,
    SystemParams,
    ergotropy_series,
    evolve,
    metric_columns,
    sample_metrics,
    stored_energy_series,
)

from magbattery.metrics import _POPULATION_FLOOR, _columns
from magbattery.propagator import _NORM_SLACK, _population_sums

from conftest import shell_amplitudes
from oracles import (
    BatteryHamiltonian,
    DensityMatrix,
    battery_density,
    charger_density,
    ergotropy,
    oracle_metrics,
    passive_state,
    purity,
)

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
            for k, s in enumerate(traj.amplitudes):
                rho = charger_density(s, "trace_repaired").matrix  # the default of `metric_columns`
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
        rho = battery_density((1, 0, 0, 0), "paper")
        np.testing.assert_allclose(passive_state(rho, H).matrix, rho.matrix, atol=1e-14)

    def test_bell_state_drops_to_ground(self):
        eta = passive_state(battery_density(BELL_PEAK, "paper"), H).matrix
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
        assert ergotropy(battery_density((1, 0, 0, 0), "paper"), H) == 0.0

    def test_bell_peak(self):
        assert ergotropy(battery_density(BELL_PEAK, "paper"), H) == pytest.approx(1.0, abs=1e-12)

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
        assert purity(battery_density(BELL_PEAK, "paper")) == pytest.approx(1.0, abs=1e-12)

    def test_range_for_unit_trace(self, rng):
        for _ in range(100):
            rho = DensityMatrix(random_psd_unit_trace(rng), ("gg", "eg", "ge", "ee"))
            assert 0.25 - 1e-12 <= purity(rho) <= 1 + 1e-12


class TestSampleMetrics:
    def test_initial_point(self):
        traj = evolve(SystemParams(), [0.0, 1.0])
        m = sample_metrics(AmplitudeState(0.0, traj.amplitudes[0]), SystemParams())
        assert (m.coherence, m.energy, m.ergotropy) == (0.0, 0.0, 0.0)
        assert m.purity == pytest.approx(1.0, abs=1e-12)
        assert m.norm == pytest.approx(1.0, abs=1e-15)

    def test_bell_peak_point(self):
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
                for t, c in zip(traj.times, traj.amplitudes):
                    m = sample_metrics(AmplitudeState(t, c), p, mode)
                    assert 0.0 <= m.ergotropy <= m.energy + 1e-10
                    assert 0.0 <= m.purity <= 1 + 1e-12

    def test_rank_one_peak_extracts_everything(self):
        # lossless run: at the global energy max the battery state is pure,
        # so ergotropy must equal stored energy there
        p = SystemParams.from_detunings(1, 1, 1)
        traj = evolve(p, np.arange(0, 20.0 + 1e-9, 0.01))
        e = stored_energy_series(traj.amplitudes, p.omega_q)
        k = int(np.argmax(e))
        rho = battery_density(traj.amplitudes[k], "paper").matrix
        w = np.linalg.eigvalsh(rho)
        if w[:3].max() <= 1e-8:  # rank-1 within tolerance
            m = sample_metrics(AmplitudeState(traj.times[k], traj.amplitudes[k]), p)
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
        # the energy view checks the state too: N = 1 + 2e-9
        with pytest.raises(InconsistentStateError):
            stored_energy_series((1.0, 0, 0, math.sqrt(1e-9)), 1.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_omega_q_sign(self, mode):
        c = (0.5, 0.1, 0.1j, 0.6)
        # below zero the closed form would contradict the passive-state oracle
        assert ergotropy(battery_density(c, mode), BatteryHamiltonian(-1.0)) > 0.0
        for route in (metric_columns, stored_energy_series, ergotropy_series):
            with pytest.raises(ValueError, match="omega_q >= 0"):
                route(c, -1.0, mode)
        zero = metric_columns(c, 0.0, mode)
        assert zero[METRIC_NAMES.index("energy")] == zero[METRIC_NAMES.index("ergotropy")] == 0.0
        assert ergotropy(battery_density(c, mode), BatteryHamiltonian(0.0)) == 0.0


def selected(c, omega_q, mode, names):
    c = np.asarray(c, dtype=complex)
    return dict(zip(names, _columns(*_population_sums(c), omega_q, mode, names, c)))


# the selections the sweeps make: opt-time, contour, and panel/time_series
SELECTIONS = (("energy",), ("ergotropy",), METRIC_NAMES)


class TestColumnSelection:
    @settings(max_examples=100)
    @given(c=st.lists(shell_amplitudes(), min_size=1, max_size=4).map(np.array),
           omega_q=st.floats(0.0, 2.0), mode=st.sampled_from(MODES))
    def test_equals_the_all_columns_view(self, c, omega_q, mode):
        want = metric_columns(c, omega_q, mode)
        for names in SELECTIONS:
            got = selected(c, omega_q, mode, names)
            assert list(got) == list(names)
            for name, column in got.items():
                np.testing.assert_array_equal(column, want[..., METRIC_NAMES.index(name)])

    @pytest.mark.parametrize("names", SELECTIONS, ids=lambda names: "+".join(names))
    @pytest.mark.parametrize("c, omega_q, mode, error, message", [
        ((0.5, 0.1, 0.1j, 0.6), -1.0, "paper", ValueError, "omega_q >= 0"),
        ((0.5, 0.1, 0.1j, 0.6), -1e-300, "trace_repaired", ValueError, "omega_q >= 0"),
        ([(1.0, 0, 0, 0), (1.1, 0, 0, 0)], 1.0, "paper", InconsistentStateError, "exceeds 1"),
        ((1.0, 0, 0, math.sqrt(1e-9)), 1.0, "trace_repaired", InconsistentStateError, "exceeds 1"),
        # N = 1 + 8e-10 passes the norm slack, but g' = 1 - 2s = -8e-10
        ((0, 0, 0, math.sqrt(0.5 + 4e-10)), 1.0, "trace_repaired", ValueError, "positive semidefinite"),
    ], ids=["omega_q", "omega_q_tiny", "norm", "norm_slack", "ground"])
    def test_guards_act_on_every_selection(self, names, c, omega_q, mode, error, message):
        with pytest.raises(error, match=message):
            selected(c, omega_q, mode, names)

    @pytest.mark.parametrize("names", SELECTIONS, ids=lambda names: "+".join(names))
    def test_snap_and_clamp_on_every_selection(self, names):
        tiny, over = math.sqrt(2.5e-13), math.sqrt(0.5 + 2e-13)
        s_over = float(_population_sums(np.array([0, 0, 0, over]))[1])
        cases = [
            # paper energy 1 - g = 5e-13 snaps to 0
            ((math.sqrt(1.0 - 5e-13), 0, 0, 0), "paper", {"energy": 0.0, "ergotropy": 0.0}),
            # paper ergotropy 2s - g = 5e-13 snaps to 0
            ((0, 0, 0, tiny), "paper", {"energy": 1.0, "ergotropy": 0.0}),
            # trace_repaired energy 2s = 5e-13 snaps to 0
            ((0, 0, 0, tiny), "trace_repaired", {"energy": 0.0, "ergotropy": 0.0}),
            # g' = 1 - 2s = -4e-13 is roundoff: it clamps to 0, so the ergotropy is 2s
            ((0, 0, 0, over), "trace_repaired", {"energy": 2.0 * s_over, "ergotropy": 2.0 * s_over,
                                                 "purity": 4.0 * s_over**2}),
        ]
        for c, mode, want in cases:
            got = selected(c, 1.0, mode, names)
            for name in set(want) & set(got):
                assert got[name] == want[name], (c, mode, name)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("omega_q", [1e-3, 1.0, 7.0])
    def test_energy_snap_is_1e_12_in_population_units(self, mode, omega_q):
        # 1 - g and 2s both equal x for these amplitudes: 5e-12 prints non-zero
        # at every energy unit, 5e-13 prints 0
        for x, kept in ((5e-12, True), (5e-13, False)):
            c = np.array([math.sqrt(1.0 - x), 0, 0, math.sqrt(x / 2.0)])
            energy = selected(c, omega_q, mode, ("energy",))["energy"]
            if kept:
                assert energy == pytest.approx(omega_q * x, rel=1e-4, abs=0)
            else:
                assert energy == 0.0


def any_form_refusal(g, s, mode):
    """The error the norm and positivity guards raise on (g, s), or None, as
    first written: a comparison array and `np.any` each."""
    if np.any(g + 2.0 * s > 1.0 + _NORM_SLACK):
        return InconsistentStateError
    if np.any((g if AccountingMode(mode) is AccountingMode.PAPER else 1.0 - 2.0 * s) < _POPULATION_FLOOR):
        return ValueError
    return None


def guard_cases():
    """(g, s) arrays at and around both guards' thresholds, with NaN, +-inf and empty."""
    def around(x, ulps=2):
        out = [x]
        for _ in range(ulps):
            out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
        return out

    norm_edge, floor = 1.0 + _NORM_SLACK, _POPULATION_FLOOR
    # trace_repaired reads g' = 1 - 2s: the s that put it at the floor, and their neighbours
    s_floor = around((1.0 - floor) / 2.0, 3)
    g_values = [*around(norm_edge), *around(floor), 0.0, 0.25, 1.0, np.nan, np.inf, -np.inf]
    s_values = [0.0, 0.25, *s_floor, *around(norm_edge / 2.0), np.nan, np.inf, -np.inf]
    cases = [(np.array([g]), np.array([s])) for g in g_values for s in s_values]
    # NaN beside a value that trips a guard, in either order, and 2-D and empty arrays
    cases += [(np.array([np.nan, edge]), np.zeros(2)) for edge in around(norm_edge) + around(floor)]
    cases += [(np.array([edge, np.nan]), np.zeros(2)) for edge in around(norm_edge) + around(floor)]
    cases += [(np.zeros(2), np.array([np.nan, s])) for s in s_floor]
    cases += [(np.full((2, 3), 0.5), np.full((2, 3), s)) for s in s_floor]
    cases += [(np.empty(0), np.empty(0)), (np.empty((3, 0)), np.empty((3, 0)))]
    return cases


class TestGuards:
    """Each guard is one reduction; it refuses exactly what a comparison array
    and `np.any` refuse, NaN (which compares false) and empty arrays included."""

    @pytest.mark.parametrize("names", (*SELECTIONS, ("gap",)), ids=lambda names: "+".join(names))
    @pytest.mark.parametrize("mode", MODES)
    def test_refuse_as_the_any_form(self, mode, names):
        for g, s in guard_cases():
            with np.errstate(invalid="ignore"):  # inf - inf in a column the guards let through
                want = any_form_refusal(g, s, mode)
                try:
                    _columns(g, s, g + 2.0 * s, 1.0, mode, names, np.zeros((*g.shape, 4), dtype=complex))
                    got = None
                except ValueError as exc:  # InconsistentStateError is a ValueError
                    got = type(exc)
            assert got is want, (g, s)

    def test_clamp_reaches_every_column_that_reads_the_ground_population(self):
        # paper g' = g in [-1e-12, 0) is roundoff, down to the smallest
        # subnormal: purity and the charge gap read it as 0
        for g in (-5e-13, -1e-14, -5e-324):
            g, s = np.array([g]), np.zeros(1)
            for name in ("gap", "purity", "ergotropy"):
                assert _columns(g, s, g + 2.0 * s, 1.0, "paper", (name,))[0].tolist() == [0.0], (name, g)

    @pytest.mark.parametrize("mode", MODES)
    def test_ground_population_floor_is_minus_1e_12(self, mode):
        # g' = -5e-12 is refused, g' = -5e-13 is roundoff and clamps to 0, in both
        # modes: paper reads g' = g, trace_repaired g' = 1 - 2s
        for ground, refused in ((-5e-12, True), (-5e-13, False)):
            if mode == "paper":
                g, s = np.array([ground]), np.zeros(1)
            else:
                g, s = np.zeros(1), np.array([(1.0 - ground) / 2.0])
            assert (g if mode == "paper" else 1.0 - 2.0 * s)[0] == pytest.approx(ground, rel=1e-3, abs=0)
            if refused:
                with pytest.raises(ValueError, match="not positive semidefinite"):
                    _columns(g, s, g + 2.0 * s, 1.0, mode, ("gap",))
            else:
                assert _columns(g, s, g + 2.0 * s, 1.0, mode, ("gap",))[0].tolist() == (2.0 * s).tolist()

    @pytest.mark.parametrize("g", [[-5e-13, 0.25, 0.0], [-0.0, 0.25, 0.0], [np.nan, 0.25, -0.0], [0.1, 0.25, 0.0]])
    def test_columns_equal_an_eagerly_clamped_ground_population(self, g):
        # the clamp is skipped when no g' is negative; -0.0 and NaN read the same either way
        g, s = np.array(g), np.array([0.05, 0.1, 0.2])
        clamped = np.maximum(g, 0.0)
        want = {"gap": 2.0 * s - clamped, "purity": clamped**2 + 4.0 * s**2,
                "ergotropy": np.where(np.maximum(2.0 * s - clamped, 0.0) <= 1e-12, 0.0, np.maximum(2.0 * s - clamped, 0.0))}
        for name, column in want.items():
            np.testing.assert_array_equal(_columns(g, s, g + 2.0 * s, 1.0, "paper", (name,))[0], column)


class TestBatteryHamiltonian:
    def test_spectrum(self):
        h = BatteryHamiltonian(2.0)
        np.testing.assert_array_equal(h.eigenvalues, [-2.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(h.matrix, np.diag([-2.0, 0.0, 0.0, 2.0]))

    def test_diagonal_and_symmetric_about_zero(self):
        h = BatteryHamiltonian(1.7)
        assert np.all(h.matrix == np.diag(np.diag(h.matrix)))
        assert sum(h.eigenvalues) == 0.0
