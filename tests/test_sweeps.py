"""Parameter substitution, panel sweeps, ergotropy grids, charging time.

Horizon notes for the tau anchors: the lossless stored energy has exactly
periodic maxima of equal height, so on a sampled grid the "earliest time
within 1e-9 of the grid max" rule is only well-posed when the horizon
contains a single principal peak (grid samples near different peaks differ
at the 1e-4 level and silently reorder).  Anchor tests pick such horizons
and say so inline.
"""

import math

import numpy as np
import pytest

from magbattery import (
    METRIC_NAMES,
    SystemParams,
    VarySpec,
    apply_parameter,
    derive_detunings,
    evolve,
    max_ergotropy_grid,
    optimal_charging_time,
    optimal_time_sweep,
    panel_sweep,
    stored_energy_series,
    time_grid,
    time_series,
)

from conftest import oracle_metrics

RABI = SystemParams(g_a=0.0, g_b=0.0, lam=1.0)
BASE = SystemParams.from_detunings(1.0, 1.0, 1.0)
# time_series column of each name
COLUMN = {name: i for i, name in enumerate(("t",) + METRIC_NAMES)}


class TestApplyParameter:
    def test_direct_fields(self):
        p = apply_parameter(BASE, "g_a", 2.5)
        assert p.g_a == 2.5 and p.g_b == BASE.g_b

    def test_lambda_alias(self):
        assert apply_parameter(BASE, "lambda", 0.25).lam == 0.25

    def test_kappa_all(self):
        p = apply_parameter(BASE, "kappa_all", 0.3)
        assert p.kappa_a == p.kappa_b == p.kappa_m == 0.3
        assert p.gamma == BASE.gamma

    @pytest.mark.parametrize("name,idx", [("delta_1", 0), ("delta_2", 1), ("delta_3", 2)])
    def test_detuning_substitution(self, name, idx):
        p = apply_parameter(BASE, name, 4.0)
        d = derive_detunings(p)
        got = (d.delta_1, d.delta_2, d.delta_3)
        want = [1.0, 1.0, 1.0]
        want[idx] = 4.0
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert p.omega_q == BASE.omega_q

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            apply_parameter(BASE, "g_c", 1.0)


class TestVarySpec:
    def test_values_coerced(self):
        v = VarySpec("g_a", [1, 2])
        assert v.values == (1.0, 2.0)

    def test_linspace(self):
        v = VarySpec.linspace("g_b", 0.1, 3.0, 30)
        assert len(v.values) == 30
        assert v.values[0] == 0.1 and v.values[-1] == 3.0

    @pytest.mark.parametrize("bad", [(), (np.nan,), (np.inf,)])
    def test_bad_values(self, bad):
        with pytest.raises(ValueError):
            VarySpec("g_a", bad)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            VarySpec("not_a_knob", (1.0,))


class TestTimeGrid:
    def test_default_window(self):
        t = time_grid()
        assert len(t) == 2001
        assert t[0] == 0.0 and t[-1] == pytest.approx(20.0, abs=1e-9)

    def test_uniform_step(self):
        t = time_grid(2.0, 0.25)
        np.testing.assert_allclose(np.diff(t), 0.25, atol=1e-12)

    def test_non_finite_point_count_rejected(self):
        with pytest.raises(ValueError, match="not a finite number of grid points"):
            time_grid(1e300, 1e-300)


class TestPanelSweep:
    def test_zero_lambda_never_charges(self):
        out = panel_sweep(BASE, VarySpec("lambda", (0.0,)), time_grid(5, 0.05))
        assert len(out) == 1
        value, series = out[0]
        assert value == 0.0
        assert np.all(series[:, COLUMN["energy"]] == 0.0)

    def test_gamma_drains_norm(self):
        t = time_grid(10, 0.05)
        out = dict(panel_sweep(BASE, VarySpec("gamma", (0.0, 10.0)), t))
        n0 = out[0.0][:, COLUMN["norm"]]
        n10 = out[10.0][:, COLUMN["norm"]]
        c4 = np.abs(evolve(BASE, t).amplitudes[:, 3])
        charged = np.nonzero(c4 > 1e-12)[0]
        assert charged.size > 0
        k0 = charged[0]
        assert np.all(n10[k0 + 1:] < n0[k0 + 1:])

    def test_resonance_beats_detuned_middle(self):
        base = SystemParams()  # all resonant
        t = time_grid(20, 0.01)
        out = dict(panel_sweep(base, VarySpec("delta_2", (0.0, 2.0)), t))
        peak = {v: series[:, COLUMN["energy"]].max() for v, series in out.items()}
        assert peak[0.0] >= peak[2.0]

    def test_singleton_equals_time_series(self):
        t = time_grid(3, 0.1)
        (_, series), = panel_sweep(BASE, VarySpec("g_b", (1.7,)), t)
        direct = time_series(apply_parameter(BASE, "g_b", 1.7), t)
        np.testing.assert_array_equal(series, direct)

    def test_order_follows_vary(self):
        out = panel_sweep(BASE, VarySpec("g_a", (2.0, 0.5, 1.0)), time_grid(1, 0.5))
        assert [v for v, _ in out] == [2.0, 0.5, 1.0]


class TestMaxErgotropyGrid:
    def test_no_charging_column(self):
        g = max_ergotropy_grid(BASE, VarySpec("lambda", (0.0,)),
                               VarySpec("g_a", (0.5, 1.0, 2.0)), time_grid(5, 0.05))
        np.testing.assert_array_equal(g.z, np.zeros((3, 1)))

    def test_rabi_point_reaches_omega_q(self):
        # dt=0.001 so a sample lands within 3e-4 of the analytic peak;
        # the quadratic peak shape then costs < 1e-6 of ergotropy
        g = max_ergotropy_grid(RABI, VarySpec("lambda", (1.0,)),
                               VarySpec("g_a", (0.0,)), time_grid(2, 0.001))
        assert g.z.shape == (1, 1)
        assert g.z[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_shape_and_axes(self):
        g = max_ergotropy_grid(BASE, VarySpec("g_a", (0.5, 1.0)),
                               VarySpec("g_b", (0.5, 1.0, 1.5)), time_grid(2, 0.1))
        assert g.z.shape == (3, 2)  # rows over y, columns over x
        assert g.x_name == "g_a" and g.y_name == "g_b"
        np.testing.assert_array_equal(g.x_values, [0.5, 1.0])
        np.testing.assert_array_equal(g.y_values, [0.5, 1.0, 1.5])

    def test_cell_independence(self):
        # each z entry equals a standalone single-point computation
        t = time_grid(3, 0.05)
        g = max_ergotropy_grid(BASE, VarySpec("g_a", (0.5, 2.0)),
                               VarySpec("g_b", (0.7, 1.3)), t)
        for i, gb in enumerate((0.7, 1.3)):
            for j, ga in enumerate((0.5, 2.0)):
                p = apply_parameter(apply_parameter(BASE, "g_a", ga), "g_b", gb)
                single = max_ergotropy_grid(p, VarySpec("g_a", (ga,)),
                                            VarySpec("g_b", (gb,)), t)
                assert g.z[i, j] == single.z[0, 0]

    def test_bounds(self):
        g = max_ergotropy_grid(BASE, VarySpec.linspace("g_a", 0.1, 3.0, 4),
                               VarySpec.linspace("g_b", 0.1, 3.0, 4), time_grid(5, 0.05))
        assert np.all(g.z >= 0.0) and np.all(g.z <= BASE.omega_q + 1e-12)

    def test_same_parameter_rejected(self):
        with pytest.raises(ValueError):
            max_ergotropy_grid(BASE, VarySpec("g_a", (1.0,)),
                               VarySpec("g_a", (2.0,)), time_grid(1, 0.5))

    def test_metadata_records_run(self):
        g = max_ergotropy_grid(BASE, VarySpec("g_a", (1.0,)),
                               VarySpec("g_b", (1.0,)), time_grid(2, 0.1))
        md = g.metadata
        assert md["time_horizon"] == [0.0, 2.0] and md["time_step"] == 0.1
        assert md["mode"] == "paper"
        assert md["base_params"]["omega_q"] == BASE.omega_q


class TestOptimalChargingTime:
    def test_rabi_quarter_period(self):
        # horizon [0,2]: exactly one Rabi peak, so the grid max is unique
        tau, emax = optimal_charging_time(RABI, time_grid(2, 0.01))
        assert abs(tau - math.pi / (2 * math.sqrt(2))) <= 0.01
        assert emax == pytest.approx(1.0, abs=1e-4)

    def test_flat_energy_returns_grid_start(self):
        p = SystemParams(g_a=0.0, g_b=0.0, lam=0.0)
        tau, emax = optimal_charging_time(p, time_grid(2, 0.01))
        assert tau == 0.0 and emax == 0.0

    def test_doubling_lambda_halves_tau(self):
        # horizons sized per lambda so each contains one principal peak
        tau1, _ = optimal_charging_time(RABI, time_grid(2.0, 0.01))
        p2 = apply_parameter(RABI, "lambda", 2.0)
        tau2, _ = optimal_charging_time(p2, time_grid(1.0, 0.01))
        assert abs(tau1 - 2 * tau2) <= 2 * 0.01

    def test_tau_on_grid_with_matching_energy(self, rng, draw_params):
        for _ in range(10):
            p = draw_params(rng)
            t = time_grid(5, 0.05)
            tau, emax = optimal_charging_time(p, t)
            k = np.nonzero(np.isclose(t, tau, rtol=0, atol=1e-15))[0]
            assert k.size == 1
            e = stored_energy_series(evolve(p, t).amplitudes, p.omega_q)
            assert e[k[0]] == emax

    def test_earliest_tie_wins(self):
        # lossless Rabi over two full periods: peaks at tau and 3*tau are
        # analytically equal; sampling must still pick the first one when the
        # grid hits both symmetrically (dt chosen so samples align)
        t = np.linspace(0, 2 * math.pi / math.sqrt(2), 401)  # two periods
        tau, _ = optimal_charging_time(RABI, t)
        assert tau <= t[-1] / 2


class TestOptimalTimeSweep:
    def test_pure_rabi_lambda_sweep(self):
        # horizon [0,2.4], dt=0.005: first peak of each lambda is the unique
        # grid max (checked: the lambda=2 second peak samples lower)
        out = optimal_time_sweep(RABI, VarySpec("lambda", (0.5, 1.0, 2.0)),
                                 time_grid(2.4, 0.005))
        taus = [tau for _, tau, _ in out]
        for tau, lam in zip(taus, (0.5, 1.0, 2.0)):
            assert abs(tau - math.pi / (2 * math.sqrt(2) * lam)) <= 0.005
        assert taus[0] > taus[1] > taus[2]

    def test_gb_saturation(self):
        # horizon [0,2] keeps the principal charging peak only; later
        # recurrences are near-degenerate in height and would make tau hop
        out = optimal_time_sweep(BASE, VarySpec("g_b", (4.0, 5.0)),
                                 time_grid(2.0, 0.01))
        taus = [tau for _, tau, _ in out]
        assert abs(taus[0] - taus[1]) <= 5 * 0.01

    def test_single_value_reduces(self):
        t = time_grid(3, 0.05)
        (_, tau, emax), = optimal_time_sweep(BASE, VarySpec("g_b", (1.0,)), t)
        assert (tau, emax) == optimal_charging_time(BASE, t)


class TestTimeSeries:
    def test_rows_match_density_matrix_oracles(self, rng, draw_params):
        p = draw_params(rng)
        t = time_grid(2, 0.1)
        traj = evolve(p, t)
        for mode in ("paper", "trace_repaired"):
            table = time_series(p, t, mode)
            assert table.shape == (len(t), 6)
            np.testing.assert_array_equal(table[:, COLUMN["t"]], t)
            want = [oracle_metrics(s.c, p.omega_q, mode) for s in traj]
            np.testing.assert_allclose(table[:, 1:], want, rtol=0, atol=1e-12)
