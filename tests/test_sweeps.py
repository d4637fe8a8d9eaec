"""Parameter substitution, panel sweeps, ergotropy grids, charging time.

Horizon notes for the tau anchors: the lossless stored energy has exactly
periodic maxima of equal height, so on a sampled grid the "earliest time
within 1e-9 (relative) of the grid max" rule is only well-posed when the horizon
contains a single principal peak (grid samples near different peaks differ
at the 1e-4 level and silently reorder).  Anchor tests pick such horizons
and say so inline.
"""

import dataclasses
import math
import re
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbattery import (
    METRIC_NAMES,
    SystemParams,
    VarySpec,
    apply_parameters,
    evolve,
    max_ergotropy_grid,
    metric_columns,
    optimal_time_sweep,
    panel_sweep,
    stored_energy_series,
    time_grid,
    time_series,
)
from magbattery import metrics, propagator, sweeps
from magbattery.cli import _DEFAULTS, _resolve
from magbattery.model import _FIELD_NAMES, _detunings
from magbattery.propagator import _BLOCK_SAMPLES
from magbattery.sweeps import MAX_SWEEP_SAMPLES, PARAMETER_NAMES, _energy_peaks

from conftest import optimal_charging_time
from oracles import oracle_metrics, spectral_amplitudes

RABI = SystemParams(g_a=0.0, g_b=0.0, lam=1.0)
BASE = SystemParams.from_detunings(1.0, 1.0, 1.0)
# time_series column of each name
COLUMN = {name: i for i, name in enumerate(("t",) + METRIC_NAMES)}
# 201 time points: sweeps over it take 20 parameter points a slice
T_BLOCKS = time_grid(2, 0.01)


def record_blocks(monkeypatch, handed=None) -> list:
    """Collects the (n, 11) field rows of each slice the kernel yields to a sweep,
    in order; `handed`, if given, collects each field array the sweep hands it."""
    seen, handed, kernel = [], [] if handed is None else handed, sweeps.rotating_amplitudes

    def recorded(chunks, t, **kw):
        for z, *sums in kernel(lambda size: (handed.append(f) or f for f in chunks(size)), t, **kw):
            done = sum(map(len, seen))
            seen.append(np.concatenate(handed)[done:done + len(z)])
            yield z, *sums

    monkeypatch.setattr(sweeps, "rotating_amplitudes", recorded)
    return seen


class TestApplyParameter:
    def test_direct_fields(self):
        p = apply_parameters(BASE, {"g_a": 2.5})
        assert p.g_a == 2.5 and p.g_b == BASE.g_b

    def test_lambda_alias(self):
        assert apply_parameters(BASE, {"lambda": 0.25}).lam == 0.25

    def test_kappa_all(self):
        p = apply_parameters(BASE, {"kappa_all": 0.3})
        assert p.kappa_a == p.kappa_b == p.kappa_m == 0.3
        assert p.gamma == BASE.gamma

    @pytest.mark.parametrize("name,idx", [("delta_1", 0), ("delta_2", 1), ("delta_3", 2)])
    def test_detuning_substitution(self, name, idx):
        p = apply_parameters(BASE, {name: 4.0})
        got = list(_detunings(p).values())
        want = [1.0, 1.0, 1.0]
        want[idx] = 4.0
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert p.omega_q == BASE.omega_q

    def test_later_name_wins(self):
        p = apply_parameters(BASE, {"kappa_a": 0.1, "kappa_all": 0.3})
        assert (p.kappa_a, p.kappa_b, p.kappa_m) == (0.3, 0.3, 0.3)
        p = apply_parameters(BASE, {"kappa_all": 0.3, "kappa_a": 0.1})
        assert (p.kappa_a, p.kappa_b, p.kappa_m) == (0.1, 0.3, 0.3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            apply_parameters(BASE, {"g_c": 1.0})

    @pytest.mark.parametrize("name", ["g_a", "kappa_all", "delta_1"])
    @pytest.mark.parametrize("value", ["1", None, 1j])
    def test_non_number_rejected(self, name, value):
        with pytest.raises(TypeError):
            apply_parameters(BASE, {name: value})


def written_out(base: SystemParams, cell: dict) -> SystemParams:
    """`cell` substituted without the block path: the direct fields by one
    `dataclasses.replace`, then the named detunings together by `from_detunings`."""
    fields = {"lambda": ("lam",), "kappa_all": ("kappa_a", "kappa_b", "kappa_m")}
    direct, deltas = {}, {}
    for name, value in cell.items():
        if name.startswith("delta_"):
            deltas[name] = value
        else:
            direct.update(dict.fromkeys(fields.get(name, (name,)), value))
    p = dataclasses.replace(base, **direct)
    if not deltas:
        return p
    held = {k: v for k, v in vars(p).items() if k not in ("omega_a", "omega_b", "omega_m")}
    return SystemParams.from_detunings(**{**_detunings(p), **deltas}, **held)


class TestBlockFields:
    """A sweep block's (n, 11) field array is the one-point substitution of each cell, bit for bit."""

    T = T_BLOCKS

    @staticmethod
    def lossy_base(rng) -> SystemParams:
        return SystemParams.from_detunings(*rng.uniform(-2, 2, 3), omega_q=rng.uniform(0.3, 3),
                                           g_a=rng.uniform(0, 2), g_b=rng.uniform(0, 2),
                                           lam=rng.uniform(0, 2), kappa_a=rng.uniform(0, 2),
                                           kappa_b=rng.uniform(0, 2), kappa_m=rng.uniform(0, 2),
                                           gamma=rng.uniform(0, 2))

    @staticmethod
    def values(rng, name: str, count: int) -> VarySpec:
        low, high = (-3.0, 3.0) if name.startswith("delta_") else (0.0, 2.0)
        return VarySpec(name, tuple(rng.uniform(low, high, count)))

    def assert_blocks_substitute(self, base, seen, cells):
        assert len(seen) >= 3
        got = np.concatenate(seen)
        want = np.array([attrgetter(*_FIELD_NAMES)(apply_parameters(base, cell)) for cell in cells])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        want = np.array([attrgetter(*_FIELD_NAMES)(written_out(base, cell)) for cell in cells])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", PARAMETER_NAMES)
    def test_one_axis(self, monkeypatch, rng, name):
        base, vary = self.lossy_base(rng), self.values(rng, name, 50)
        assert base.omega_q != 1.0 and min(base.kappa_a, base.gamma) > 0
        seen = record_blocks(monkeypatch)
        optimal_time_sweep(base, vary, self.T)
        self.assert_blocks_substitute(base, seen, [{name: v} for v in vary.values])

    @pytest.mark.parametrize("x, y", [
        ("delta_1", "delta_2"), ("delta_3", "delta_1"), ("delta_2", "g_b"), ("lambda", "delta_3"),
        ("kappa_all", "gamma"),
    ])
    def test_two_axes(self, monkeypatch, rng, x, y):
        # cells run over y outermost; two detunings set the omegas together
        base, xs, ys = self.lossy_base(rng), self.values(rng, x, 8), self.values(rng, y, 7)
        seen = record_blocks(monkeypatch)
        max_ergotropy_grid(base, xs, ys, self.T)
        self.assert_blocks_substitute(base, seen, [{y: vy, x: vx} for vy in ys.values
                                                   for vx in xs.values])


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

    def test_one_string_refused(self):
        # a str or bytes would sweep its characters; a tuple of numeric strings is coerced
        for text in ("12", "0.5", b"12"):
            with pytest.raises(TypeError, match="sequence of numbers, not a (str|bytes)"):
                VarySpec("g_a", text)
        assert VarySpec("g_a", ("1", "2.5")).values == (1.0, 2.5)

    def test_count_bounded_before_allocating(self):
        with pytest.raises(ValueError, match="parameter points x time points"):
            VarySpec.linspace("g_b", 0.0, 1.0, 10**12)

    @pytest.mark.parametrize("start, stop, shown", [
        (0.0, math.inf, "0 to inf"),
        (-1e308, 1e308, "-1e+308 to 1e+308"),
        (math.nan, 1.0, "nan to 1"),
    ], ids=["infinite_bound", "overflowing_span", "nan_bound"])
    def test_linspace_needs_a_finite_span(self, start, stop, shown):
        # refused before np.linspace, which would warn (an error here) and fill NaN
        message = f"linear range {shown} needs finite bounds and a finite span"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VarySpec.linspace("g_a", start, stop, 3)
        half = np.finfo(float).max / 2  # the widest finite span is kept
        assert VarySpec.linspace("g_a", -half, half, 3).values == (-half, 0.0, half)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            VarySpec("not_a_knob", (1.0,))


class TestTimeGrid:
    def test_default_window(self):
        # the one default horizon is the CLI's
        t, *_ = _resolve(dict(_DEFAULTS))
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
        direct = time_series(apply_parameters(BASE, {"g_b": 1.7}), t)
        np.testing.assert_array_equal(series, direct)

    def test_order_follows_vary(self):
        out = panel_sweep(BASE, VarySpec("g_a", (2.0, 0.5, 1.0)), time_grid(1, 0.5))
        assert [v for v, _ in out] == [2.0, 0.5, 1.0]


class TestMaxErgotropyGrid:
    def test_no_charging_column(self):
        z = max_ergotropy_grid(BASE, VarySpec("lambda", (0.0,)),
                               VarySpec("g_a", (0.5, 1.0, 2.0)), time_grid(5, 0.05))
        np.testing.assert_array_equal(z, np.zeros((3, 1)))

    def test_rabi_point_reaches_omega_q(self):
        # dt=0.001 so a sample lands within 3e-4 of the analytic peak;
        # the quadratic peak shape then costs < 1e-6 of ergotropy
        z = max_ergotropy_grid(RABI, VarySpec("lambda", (1.0,)),
                               VarySpec("g_a", (0.0,)), time_grid(2, 0.001))
        assert z.shape == (1, 1)
        assert z[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_shape_and_axes(self):
        z = max_ergotropy_grid(BASE, VarySpec("g_a", (0.5, 1.0)),
                               VarySpec("g_b", (0.5, 1.0, 1.5)), time_grid(2, 0.1))
        assert isinstance(z, np.ndarray) and z.shape == (3, 2)  # rows over y, columns over x

    def test_cell_independence(self):
        # each z entry equals a standalone single-point computation
        t = time_grid(3, 0.05)
        z = max_ergotropy_grid(BASE, VarySpec("g_a", (0.5, 2.0)),
                               VarySpec("g_b", (0.7, 1.3)), t)
        for i, gb in enumerate((0.7, 1.3)):
            for j, ga in enumerate((0.5, 2.0)):
                p = apply_parameters(BASE, {"g_a": ga, "g_b": gb})
                single = max_ergotropy_grid(p, VarySpec("g_a", (ga,)),
                                            VarySpec("g_b", (gb,)), t)
                assert z[i, j] == single[0, 0]

    def test_bounds(self):
        z = max_ergotropy_grid(BASE, VarySpec.linspace("g_a", 0.1, 3.0, 4),
                               VarySpec.linspace("g_b", 0.1, 3.0, 4), time_grid(5, 0.05))
        assert np.all(z >= 0.0) and np.all(z <= BASE.omega_q + 1e-12)

    @settings(max_examples=40)
    @given(rates=st.lists(st.floats(0.0, 2.0), min_size=10, max_size=10),
           omega_q=st.sampled_from([0.0, 1e-13, 0.6, 1.0]),
           lams=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=3),
           gbs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2),
           mode=st.sampled_from(["paper", "trace_repaired"]))
    def test_equals_the_maximum_of_the_time_series(self, rates, omega_q, lams, gbs, mode):
        # the grid takes the maximum charge gap over t and maps it to an
        # ergotropy once: bit for bit the maximum of the ergotropy column.
        # lambda = 0 cells never charge, and omega_q = 1e-13 snaps every
        # positive gap to 0
        d1, d2, d3, ga, gb, lam, ka, kb, km, gam = rates
        base = SystemParams.from_detunings(d1, d2, d3, omega_q=omega_q, g_a=ga, g_b=gb, lam=lam,
                                           kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam)
        t = time_grid(3, 0.05)
        z = max_ergotropy_grid(base, VarySpec("lambda", lams), VarySpec("g_b", gbs), t, mode)
        for i, y in enumerate(gbs):
            for j, x in enumerate(lams):
                column = time_series(apply_parameters(base, {"lambda": x, "g_b": y}), t, mode)[:, COLUMN["ergotropy"]]
                assert z[i, j].tobytes() == column.max().tobytes()

    @pytest.mark.parametrize("mode", ["paper", "trace_repaired"])
    def test_matches_the_spectral_oracle_without_loss(self, mode):
        # a lossless 6x6 plane over the shipped axes and horizon against the
        # bright population P(t) of the eigen-expansion on the same grid: the
        # ergotropy is omega_q max(0, 2P - 1).  Worst gap measured: 1.1e-13
        # (paper) and 2.5e-13 (trace_repaired)
        t, values = time_grid(20, 0.01), tuple(np.linspace(0.1, 3.0, 6))
        z = max_ergotropy_grid(BASE, VarySpec("g_a", values), VarySpec("g_b", values), t, mode)
        for i, y in enumerate(values):
            for j, x in enumerate(values):
                bright = np.abs(spectral_amplitudes(apply_parameters(BASE, {"g_a": x, "g_b": y}), t)[:, 3]) ** 2
                assert abs(z[i, j] - BASE.omega_q * max(0.0, 2.0 * bright.max() - 1.0)) <= 5e-13, (x, y)

    def test_spectral_oracle_refuses_a_lossy_point(self):
        for rate in ("kappa_a", "kappa_b", "kappa_m", "gamma"):
            with pytest.raises(ValueError, match="lossless points only"):
                spectral_amplitudes(apply_parameters(BASE, {rate: 0.01}), time_grid(1, 0.5))

    def test_same_parameter_rejected(self):
        # kappa_all sets kappa_a too: one axis would overwrite the other
        for x, y, cause in [("g_a", "g_a", "two different parameters"),
                            ("kappa_all", "kappa_a", "kappa_all and kappa_a both set kappa_a$"),
                            ("kappa_a", "kappa_all", "kappa_a and kappa_all both set kappa_a$")]:
            with pytest.raises(ValueError, match=cause):
                max_ergotropy_grid(BASE, VarySpec(x, (1.0,)), VarySpec(y, (2.0,)), time_grid(1, 0.5))


class TestOptimalChargingTime:
    def test_rabi_quarter_period(self):
        # horizon [0,2]: exactly one Rabi peak, so the grid max is unique
        tau, emax = optimal_charging_time(RABI, time_grid(2, 0.01), "paper")
        assert abs(tau - math.pi / (2 * math.sqrt(2))) <= 0.01
        assert emax == pytest.approx(1.0, abs=1e-4)

    def test_flat_energy_returns_grid_start(self):
        p = SystemParams(g_a=0.0, g_b=0.0, lam=0.0)
        tau, emax = optimal_charging_time(p, time_grid(2, 0.01), "paper")
        assert tau == 0.0 and emax == 0.0

    def test_doubling_lambda_halves_tau(self):
        # horizons sized per lambda so each contains one principal peak
        tau1, _ = optimal_charging_time(RABI, time_grid(2.0, 0.01), "paper")
        p2 = apply_parameters(RABI, {"lambda": 2.0})
        tau2, _ = optimal_charging_time(p2, time_grid(1.0, 0.01), "paper")
        assert abs(tau1 - 2 * tau2) <= 2 * 0.01

    def test_tau_on_grid_with_matching_energy(self, rng, draw_params):
        for _ in range(10):
            p = draw_params(rng)
            t = time_grid(5, 0.05)
            tau, emax = optimal_charging_time(p, t, "paper")
            k = np.nonzero(np.isclose(t, tau, rtol=0, atol=1e-15))[0]
            assert k.size == 1
            e = stored_energy_series(evolve(p, t).amplitudes, p.omega_q, "paper")  # the helper's mode
            assert e[k[0]] == emax

    @pytest.mark.parametrize("lam", [1e-5, 1e-4])
    def test_weak_charging_peaks_at_the_grid_maximum(self, lam):
        # the energy still rises at t = 2 and peaks at 3e-10 and 3e-8: a tie
        # window of 1e-9 absolute took in the whole curve (tau 0, e_max 0) and
        # its last 7 points (tau 1.94); one relative to the peak takes neither
        p, t = apply_parameters(BASE, {"lambda": lam}), time_grid(2, 0.01)
        energy = time_series(p, t, "paper")[:, COLUMN["energy"]]  # the helper's mode
        assert energy.argmax() == len(t) - 1
        assert optimal_charging_time(p, t, "paper") == (2.0, energy.max())

    def test_earliest_tie_wins(self):
        # lossless Rabi over two full periods: peaks at tau and 3*tau are
        # analytically equal; sampling must still pick the first one when the
        # grid hits both symmetrically (dt chosen so samples align)
        t = np.linspace(0, 2 * math.pi / math.sqrt(2), 401)  # two periods
        tau, _ = optimal_charging_time(RABI, t, "paper")
        assert tau <= t[-1] / 2

    @pytest.mark.parametrize("rise, later", [(1e-8, True), (1e-10, False)])
    def test_tie_window_is_1e_9_of_the_peak(self, rise, later):
        # a later peak 1e-8 (relative) above an earlier one is taken; one within
        # 1e-10 is noise, and the earlier time and its energy are reported, at any unit
        t = np.arange(4.0)
        for unit in (1e-3, 1.0, 7.0):
            e = unit * np.array([[0.0, 1.0, 0.5, 1.0 + rise]])
            k = 3 if later else 1
            np.testing.assert_array_equal(_energy_peaks(t, e), [[t[k], e[0, k]]], strict=True)


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


class TestTimeSeries:
    def test_rows_match_density_matrix_oracles(self, rng, draw_params):
        p = draw_params(rng)
        t = time_grid(2, 0.1)
        traj = evolve(p, t)
        for mode in ("paper", "trace_repaired"):
            table = time_series(p, t, mode)
            assert table.shape == (len(t), 6)
            np.testing.assert_array_equal(table[:, COLUMN["t"]], t)
            want = [oracle_metrics(c, p.omega_q, mode) for c in traj.amplitudes]
            np.testing.assert_allclose(table[:, 1:], want, rtol=0, atol=1e-12)


EVERY_SWEEP = pytest.mark.parametrize("sweep", [
    lambda p, t, mode: time_series(p, t, mode),
    lambda p, t, mode: panel_sweep(p, VarySpec("g_a", (0.5, 1.0)), t, mode),
    lambda p, t, mode: max_ergotropy_grid(p, VarySpec("g_a", (0.5, 1.0)), VarySpec("g_b", (1.0,)), t, mode),
    lambda p, t, mode: optimal_time_sweep(p, VarySpec("g_b", (0.5, 1.0)), t, mode),
], ids=["time_series", "panel_sweep", "max_ergotropy_grid", "optimal_time_sweep"])


@EVERY_SWEEP
def test_unknown_mode_rejected(monkeypatch, sweep):
    # refused before the kernel is handed a single point
    handed = []
    record_blocks(monkeypatch, handed)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'; expected one of paper, repaired, trace_repaired$"):
        sweep(BASE, time_grid(1, 0.5), "bogus")
    assert handed == []


@EVERY_SWEEP
def test_negative_omega_q_rejected(monkeypatch, sweep):
    # refused before the kernel is handed a single point, so the coupling too
    # large for any step exponential does not hide the cause
    handed = []
    record_blocks(monkeypatch, handed)
    with pytest.raises(ValueError, match=re.escape("need omega_q >= 0, got -1.0")):
        sweep(dataclasses.replace(BASE, omega_q=-1.0, lam=1e12), time_grid(1, 0.5), "paper")
    assert handed == []


class TestBlocks:
    """Sweeps run their points through `evolve` in blocks; each result equals its one-point run."""

    T = time_grid(2, 0.01)

    def test_blocks_are_spanned(self):
        # the 45- and 50-point sweeps below take three blocks or more
        assert 45 > 2 * (_BLOCK_SAMPLES // len(self.T))

    def test_opt_time_equals_per_point(self):
        vary = VarySpec.linspace("g_b", 0.1, 5.0, 50)
        rows = optimal_time_sweep(BASE, vary, self.T, "trace_repaired")
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape == (50, 3)
        np.testing.assert_array_equal(rows[:, 0].view(np.uint64), np.array(vary.values).view(np.uint64))
        for row in rows:
            one = optimal_time_sweep(BASE, VarySpec("g_b", (row[0],)), self.T, "trace_repaired")
            np.testing.assert_array_equal(row.view(np.uint64), one[0].view(np.uint64))
            p = apply_parameters(BASE, {"g_b": row[0]})
            assert tuple(row[1:]) == optimal_charging_time(p, self.T, "trace_repaired")

    def test_contour_equals_single_cells(self):
        xs, ys = VarySpec.linspace("g_a", 0.1, 3.0, 10), VarySpec.linspace("g_b", 0.1, 3.0, 5)
        z = max_ergotropy_grid(BASE, xs, ys, self.T)
        for i, gb in enumerate(ys.values):
            for j, ga in enumerate(xs.values):
                single = max_ergotropy_grid(BASE, VarySpec("g_a", (ga,)), VarySpec("g_b", (gb,)),
                                            self.T)
                assert z[i, j] == single[0, 0]

    def test_panel_equals_time_series(self):
        vary = VarySpec.linspace("gamma", 0.0, 1.0, 45)
        for v, table in panel_sweep(BASE, vary, self.T):
            np.testing.assert_array_equal(table, time_series(apply_parameters(BASE, {"gamma": v}),
                                                             self.T))

    @pytest.mark.parametrize("mode", ["paper", "trace_repaired"])
    @pytest.mark.parametrize("name, low, high", [("delta_1", -2.0, 2.0), ("g_b", 0.0, 3.0)])
    def test_panel_equals_the_c_frame_route(self, rng, draw_params, name, low, high, mode):
        # sweeps reduce the rotating-frame amplitudes; a delta_1 block holds
        # points with different frame frequencies
        base = draw_params(rng)
        vary = VarySpec(name, tuple(rng.uniform(low, high, 25)))
        assert len(vary.values) > _BLOCK_SAMPLES // len(self.T)
        for v, table in panel_sweep(base, vary, self.T, mode):
            p = apply_parameters(base, {name: v})
            want = metric_columns(evolve(p, self.T).amplitudes, p.omega_q, mode)
            np.testing.assert_array_equal(table[:, 0], self.T)
            np.testing.assert_allclose(table[:, 1:], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g_a, t, cause", [
        (1e12, time_grid(2, 0.01), re.escape(
            "one-step exponential exp(-i A dt) has no precision left for time step dt = 0.01: "
            "dt times the evolution matrix norm exceeds 2**21")),
        (1e7, time_grid(20, 0.01), re.escape(
            "one-step exponential exp(-i A dt) lost precision over 2000 steps of dt = 0.01: "
            "the physical norm rose to ") + r"\S+, more than 1e-9 \(relative\) above its value at t = 0"),
    ], ids=["step_norm", "norm_rise"])
    def test_refusals_reach_the_sweep(self, g_a, t, cause):
        with pytest.raises(ValueError, match=f"^{cause}$"):
            panel_sweep(BASE, VarySpec("g_a", (1.0, g_a, 2.0)), t)

    @pytest.mark.parametrize("sweep, cells, message", [
        (lambda: panel_sweep(BASE, VarySpec("lambda", (1.0,) * 47 + (-1.0, 2.0)), T_BLOCKS),
         47, "coupling lambda must be >= 0"),
        (lambda: optimal_time_sweep(BASE, VarySpec("kappa_all", (0.1,) * 47 + (-1.0,)), T_BLOCKS),
         47, "decay rate kappa_all must be >= 0"),
        # a step of 1e-306 keeps dt |A| near 100 at the finite 1e308 cells, so
        # the cells before the last one pass the kernel: 9000 cells, the last
        # one overflows
        (lambda: max_ergotropy_grid(BASE, VarySpec("delta_1", tuple(range(99)) + (1e308,)),
                                    VarySpec("delta_2", tuple(range(89)) + (1e308,)), [0.0, 1e-306]),
         8999, "delta_2, delta_1 out of range: omega_m must be finite, got -inf"),
        # on a real grid the first slice, whose row holds delta_1 = 1e308, is
        # refused by the kernel before the overflowing cell is reached
        (lambda: max_ergotropy_grid(BASE, VarySpec("delta_1", tuple(range(9)) + (1e308,)),
                                    VarySpec("delta_2", tuple(range(5)) + (1e308,)), T_BLOCKS),
         59, "one-step exponential exp(-i A dt) has no precision left for time step dt = 0.01: "
             "dt times the evolution matrix norm exceeds 2**21"),
    ], ids=["lambda", "kappa_all", "detunings", "detunings_after_a_refusal"])
    def test_bad_cell_of_a_later_block(self, monkeypatch, sweep, cells, message):
        # the error is what the parameters of the first bad point alone raise,
        # after the cells before it were handed to the kernel
        handed = []
        record_blocks(monkeypatch, handed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep()
        assert sum(map(len, handed)) == cells

    STEP_NORM = re.escape("one-step exponential exp(-i A dt) has no precision left for time step "
                          "dt = 0.01: dt times the evolution matrix norm exceeds 2**21")
    OVERFLOW = re.escape("delta_2, delta_1 out of range: omega_m must be finite, got -inf")
    NORM_RISE = re.escape("one-step exponential exp(-i A dt) lost precision over 2000 steps of "
                          "dt = 0.01: the physical norm rose to ")

    @pytest.mark.parametrize("ys, xs, cells, message", [
        # cell 1 (delta_1 = 1e308) fails the step norm in the first slice;
        # the last cell, both 1e308, overflows
        ((0.0,) * 20 + (1e308,), (0.0, 1e308), 41, STEP_NORM),
        # the overflowing cell comes first, the step-norm failures after it
        ((1e308, 0.0), (1e308, 0.0), 0, OVERFLOW),
    ], ids=["step_norm_first", "overflow_first"])
    def test_first_failing_cell_of_a_chunk_decides(self, monkeypatch, ys, xs, cells, message):
        handed = []
        record_blocks(monkeypatch, handed)
        with pytest.raises(ValueError, match=f"^{message}"):
            max_ergotropy_grid(BASE, VarySpec("delta_1", xs), VarySpec("delta_2", ys), T_BLOCKS)
        assert len(handed) <= 1 and sum(map(len, handed)) == cells

    @pytest.mark.parametrize("values, message", [
        ((1.0, 1e7, 2.0, 1e12), NORM_RISE),  # the first slice of two points rises
        ((1e12, 1.0, 1e6, 2.0), STEP_NORM),  # the first slice holds the step-norm failure
    ], ids=["norm_rise_first", "step_norm_first"])
    def test_first_failing_slice_of_a_chunk_decides(self, monkeypatch, values, message):
        # 2001 time points: two points a slice, all four in one chunk
        handed = []
        seen = record_blocks(monkeypatch, handed)
        with pytest.raises(ValueError, match=f"^{message}"):
            panel_sweep(BASE, VarySpec("g_a", values), time_grid(20, 0.01))
        assert len(handed) == 1 and not seen

    def test_fields_built_without_params_and_grid_checked_once(self, monkeypatch):
        built, grids = [], []
        post_init, check = SystemParams.__post_init__, propagator._validated_grid
        monkeypatch.setattr(SystemParams, "__post_init__", lambda p: built.append(p) or post_init(p))
        monkeypatch.setattr(propagator, "_validated_grid", lambda t: grids.append(t) or check(t))
        seen = record_blocks(monkeypatch)
        rows = optimal_time_sweep(BASE, VarySpec.linspace("g_b", 0.1, 5.0, 50), self.T)
        assert len(rows) == 50 and len(seen) >= 3
        assert len(built) <= 1 and len(grids) == 1

    @pytest.mark.parametrize("sweep", [
        lambda t: optimal_time_sweep(BASE, VarySpec.linspace("g_b", 0.1, 5.0, 50), t),
        lambda t: max_ergotropy_grid(BASE, VarySpec.linspace("g_a", 0.1, 3.0, 10),
                                     VarySpec.linspace("g_b", 0.1, 3.0, 5), t),
        lambda t: panel_sweep(BASE, VarySpec.linspace("gamma", 0.0, 1.0, 45), t),
    ], ids=["opt_time", "contour", "panel"])
    def test_population_sums_taken_once_per_block(self, monkeypatch, sweep):
        # the kernel's norm check and the metrics share one g, s per block
        calls, sums = [], propagator._population_sums
        for module in (propagator, metrics):
            monkeypatch.setattr(module, "_population_sums", lambda z: calls.append(z) or sums(z))
        seen = record_blocks(monkeypatch)
        sweep(self.T)
        per_block = [z for z in calls if np.ndim(z) == 3]
        assert len(seen) >= 3 and [len(z) for z in per_block] == [len(fields) for fields in seen]
        assert len(calls) == len(per_block) + 1  # and the norm of the initial amplitudes, once

    # a grid from 0 whose points after t_1 = h sit up to 3 ulps off k h, so
    # that its steps differ in floats: one run to the kernel, as `arange * dt` is
    GRID = 0.0175 * np.arange(182)
    GRID[2:] += np.random.default_rng(7).integers(-3, 4, 180) * np.spacing(GRID[2:])

    def test_jittered_grid_opt_time_equals_per_point(self, monkeypatch):
        vary = VarySpec.linspace("g_b", 0.1, 5.0, 50)
        seen = record_blocks(monkeypatch)
        rows = optimal_time_sweep(BASE, vary, self.GRID, "trace_repaired")
        assert len(seen) >= 3
        for v, tau, emax in rows:
            p = apply_parameters(BASE, {"g_b": v})
            assert (tau, emax) == optimal_charging_time(p, self.GRID, "trace_repaired")

    def test_jittered_grid_contour_equals_single_cells(self):
        xs, ys = VarySpec.linspace("g_a", 0.1, 3.0, 10), VarySpec.linspace("delta_1", -2.0, 2.0, 5)
        z = max_ergotropy_grid(BASE, xs, ys, self.GRID)
        for i, d1 in enumerate(ys.values):
            for j, ga in enumerate(xs.values):
                single = max_ergotropy_grid(BASE, VarySpec("g_a", (ga,)), VarySpec("delta_1", (d1,)),
                                            self.GRID)
                assert z[i, j] == single[0, 0]

    def test_jittered_grid_panel_equals_time_series(self):
        vary = VarySpec.linspace("gamma", 0.0, 1.0, 45)
        for v, table in panel_sweep(BASE, vary, self.GRID):
            np.testing.assert_array_equal(table, time_series(apply_parameters(BASE, {"gamma": v}),
                                                             self.GRID))

    @pytest.mark.parametrize("samples", [2**6, 2**9])
    @pytest.mark.parametrize("grid", [T_BLOCKS, GRID], ids=["uniform", "jittered"])
    @pytest.mark.parametrize("sweep", [
        lambda t: np.array(optimal_time_sweep(BASE, VarySpec.linspace("g_b", 0.1, 100.0, 50), t,
                                              "trace_repaired")),
        lambda t: max_ergotropy_grid(BASE, VarySpec.linspace("g_a", 0.1, 60.0, 10),
                                     VarySpec.linspace("delta_1", -2.0, 2.0, 5), t),
        lambda t: np.array([table for _, table in
                            panel_sweep(BASE, VarySpec.linspace("lambda", 0.0, 80.0, 45), t)]),
    ], ids=["opt_time", "contour", "panel"])
    def test_outputs_independent_of_chunk_and_slice_sizes(self, monkeypatch, sweep, grid, samples):
        # one chunk of up to 240 (uniform, T = 201) or 242 points (jittered,
        # the GRID, T = 182) at 2**12; at 2**6 one point a slice and 4
        # a chunk, at 2**9 two points a slice and 32 a chunk.  The step
        # exponentials of one chunk take different squaring counts.
        want = sweep(grid)
        monkeypatch.setattr(propagator, "_BLOCK_SAMPLES", samples)
        seen = record_blocks(monkeypatch)
        got = sweep(grid)
        assert len(seen) >= 20
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_opt_time_memory_bounded_in_points_x_time_points(self):
        # a chunk of 240 points, 12 slices of 20 within 4096 // 16 = 256, takes
        # its real step exponentials as one 120 KiB stack, of which the Taylor
        # core holds at most 7, 0.86 MB (0.91 MB peak measured); a slice of 20
        # points x 201 time points holds 0.26 MB of trajectory.  All 300 points
        # at once would take 1.08 MB in the core and 3.9 MB of trajectory
        t = T_BLOCKS
        vary = VarySpec.linspace("g_b", 0.1, 5.0, 300)
        optimal_time_sweep(BASE, vary, t)
        tracemalloc.start()
        try:
            optimal_time_sweep(BASE, vary, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("sweep", [
        lambda vary, t: panel_sweep(BASE, vary, t),
        lambda vary, t: optimal_time_sweep(BASE, vary, t),
        lambda vary, t: max_ergotropy_grid(BASE, vary, VarySpec.linspace("g_b", 0, 1, 10**4), t),
    ], ids=["panel", "opt_time", "contour"])
    def test_size_bounded_before_points_are_built(self, sweep):
        vary = VarySpec.linspace("g_a", 0.0, 1.0, 10**4)
        t = time_grid(MAX_SWEEP_SAMPLES // 10**4, 1.0)  # one time point too many
        with pytest.raises(ValueError, match="parameter points x 1001 time points"):
            sweep(vary, t)


@pytest.mark.parametrize("call, message", [
    (lambda: VarySpec.linspace("g_a", 0.0, 1.0, 1), "linear range needs count >= 2"),
    (lambda: time_grid(math.inf, 0.01), "t_max and dt must be finite"),
    (lambda: evolve(BASE, [0.0, math.nan]), "time grid must be finite"),
    (lambda: evolve(BASE, [0.0, 1.0], initial=(1.0, 0.0, 0.0)),
     "initial amplitudes must have exactly 4 components"),
    (lambda: optimal_time_sweep(BASE, VarySpec("g_b", (1.0,)), np.r_[0.0, np.geomspace(0.01, 2.0, 41)]),
     "time grid must be t_k = k h from t_0 = 0, each point within 4 ulps: "
     "t[2] = 0.011416309914166938 is off the step h = 0.01"),
], ids=["linspace_count", "grid_bound", "evolve_grid", "evolve_initial", "geometric_grid"])
def test_library_input_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("grid, got", [
    (0.01 * np.arange(1, 201), "200 point(s) from t[0] = 0.01"),
    ([0.0], "1 point(s) from t[0] = 0.0"),
], ids=["from_h", "t0_alone"])
@pytest.mark.parametrize("call", [
    lambda t: evolve(BASE, t),
    lambda t: time_series(BASE, t),
    lambda t: panel_sweep(BASE, VarySpec("g_a", (1.0, 2.0)), t),
    lambda t: max_ergotropy_grid(BASE, VarySpec("g_a", (1.0, 2.0)), VarySpec("g_b", (1.0,)), t),
    lambda t: optimal_time_sweep(BASE, VarySpec("g_b", (1.0, 2.0)), t),
], ids=["evolve", "time_series", "panel", "contour", "opt_time"])
def test_grid_starts_at_0_and_takes_a_step(call, grid, got):
    # the kernel takes one grid shape (`oracle_integrate` still takes both of these)
    message = f"time grid must start at 0 and take a step, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(grid)
