"""The model's symmetries, end to end through the sweep path and the CLI.

The oracles check numbers at sampled points; these properties check what the
form of A implies for whole outputs, on seeded lossy draws (detunings in
[-2, 2], couplings in [0, 2], decay rates in [0, 0.5], omega_q in [0.5, 3])
over the shipped configs' grid of 2001 points:

* detuning flip: negating the three detunings at fixed omega_q and rates
  turns A into -A*, up to the gauge diag(-1, 1, -1, 1) on the chain
  Z4-Z1-Z2-Z3, so every |Z_n|, and with them all five columns, stay the same
  in both modes;
* time-rate scaling: every rate (the omegas, omega_q included, the couplings
  and the decay rates) times c and every time over c leave the populations
  the same, so energy and ergotropy scale by c and the other columns stay;
* energy unit: omega_q times s at fixed detunings leaves A and the
  populations the same up to the rounding of the omegas, so the charging time
  stays and the peak energy scales by s;
* contour axis swap: each point's result depends only on its own A, so
  swapping `vary` and `vary2` gives exactly the transposed grid.

Each tolerance is about ten times the largest difference measured over the
draws; the library runs are compared unrendered, the CLI runs at their 12
printed digits.
"""

import io

import numpy as np
import pytest

from magbattery import SystemParams, VarySpec, max_ergotropy_grid, optimal_time_sweep, panel_sweep, time_grid
from magbattery.cli import main

GRID = time_grid(20.0, 0.01)
MODES = pytest.mark.parametrize("mode", ["paper", "trace_repaired"])
# largest |difference| over 80 seeded draws, unrendered: 1.7e-14 (flip) and
# 3.2e-14 (scaling, c in [0.25, 4]); rendered: 1.6e-11, the t column of the
# scaled run, 20 / c at 12 digits times c
FLIP_TOL = 2e-13
SCALE_TOL = 3e-13
# largest relative |difference| of e_max / s over 40 seeded draws, s in
# {1e-7, 1e-3, 1e3}: 2.9e-13, from the rounding of the omegas
UNIT_TOL = 3e-12
PRINTED_TOL = 2e-10
ENERGY_COLUMNS = [2, 3]  # energy and ergotropy in a dynamics table (t first)


def lossy_draw(rng):
    """(delta_1, delta_2, delta_3, omega_q) and the couplings and decay rates of one draw."""
    deltas = tuple(rng.uniform(-2.0, 2.0, 3))
    rates = dict(zip(("g_a", "g_b", "lam"), rng.uniform(0.0, 2.0, 3)))
    rates.update(zip(("kappa_a", "kappa_b", "kappa_m", "gamma"), rng.uniform(0.0, 0.5, 4)))
    return deltas, float(rng.uniform(0.5, 3.0)), rates


def scaled(p: SystemParams, c: float) -> SystemParams:
    return SystemParams(*(c * value for value in vars(p).values()))


def flags(**keys):
    """`--key=value` of each config key, numbers at full precision."""
    return [f"--{key}={value if isinstance(value, str) else repr(float(value))}" for key, value in keys.items()]


def cli_table(capsys, command, **keys):
    """The CSV `main` prints for `command` with the given config keys, as numbers."""
    assert main([command, *flags(**keys)]) == 0
    return np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)


def cli_keys(deltas, omega_q, rates):
    names = {"lam": "lambda"}
    return {"delta_1": deltas[0], "delta_2": deltas[1], "delta_3": deltas[2], "omega_q": omega_q,
            **{names.get(key, key): value for key, value in rates.items()}}


class TestDetuningFlip:
    @MODES
    def test_panel_sweep(self, rng, mode):
        # swept along delta_3, whose values flip with the base's detunings
        for _ in range(6):
            deltas, omega_q, rates = lossy_draw(rng)
            values = tuple(rng.uniform(-2.0, 2.0, 3))
            runs = [panel_sweep(SystemParams.from_detunings(*(sign * d for d in deltas), omega_q=omega_q, **rates),
                                VarySpec("delta_3", tuple(sign * v for v in values)), GRID, mode)
                    for sign in (1.0, -1.0)]
            for (_, table), (_, flipped) in zip(*runs):
                np.testing.assert_allclose(flipped, table, rtol=0, atol=FLIP_TOL)

    @MODES
    def test_max_ergotropy_grid(self, rng, mode):
        deltas, omega_q, rates = lossy_draw(rng)
        gs, d1 = VarySpec.linspace("g_a", 0.1, 2.0, 4), np.linspace(-2.0, 2.0, 3)
        z, flipped = (max_ergotropy_grid(SystemParams.from_detunings(*(sign * d for d in deltas),
                                                                     omega_q=omega_q, **rates),
                                         gs, VarySpec("delta_1", tuple(sign * d1)), GRID, mode)
                      for sign in (1.0, -1.0))
        np.testing.assert_allclose(flipped, z, rtol=0, atol=FLIP_TOL)

    def test_cli_dynamics(self, rng, capsys):
        deltas, omega_q, rates = lossy_draw(rng)
        for mode in ("paper", "repaired"):
            table, flipped = (cli_table(capsys, "dynamics", mode=mode,
                                        **cli_keys([sign * d for d in deltas], omega_q, rates))
                              for sign in (1.0, -1.0))
            np.testing.assert_allclose(flipped, table, rtol=0, atol=PRINTED_TOL)


class TestTimeRateScaling:
    @MODES
    def test_panel_sweep(self, rng, mode):
        # swept along gamma, a rate that scales with the rest
        for c in (0.25, 0.7, 1.9, 4.0):
            deltas, omega_q, rates = lossy_draw(rng)
            base, values = SystemParams.from_detunings(*deltas, omega_q=omega_q, **rates), (0.0, 0.1, 0.5)
            runs = panel_sweep(base, VarySpec("gamma", values), GRID, mode)
            fast = panel_sweep(scaled(base, c), VarySpec("gamma", tuple(c * v for v in values)), GRID / c, mode)
            for (_, table), (_, other) in zip(runs, fast):
                np.testing.assert_array_equal(other[:, 0], GRID / c)
                other[:, ENERGY_COLUMNS] /= c
                np.testing.assert_allclose(other[:, 1:], table[:, 1:], rtol=0, atol=SCALE_TOL)

    @MODES
    def test_max_ergotropy_grid(self, rng, mode):
        deltas, omega_q, rates = lossy_draw(rng)
        base, c = SystemParams.from_detunings(*deltas, omega_q=omega_q, **rates), 2.7
        gs, kappas = (0.5, 1.0, 2.0), (0.0, 0.2)
        z = max_ergotropy_grid(base, VarySpec("g_b", gs), VarySpec("kappa_all", kappas), GRID, mode)
        fast = max_ergotropy_grid(scaled(base, c), VarySpec("g_b", tuple(c * g for g in gs)),
                                  VarySpec("kappa_all", tuple(c * k for k in kappas)), GRID / c, mode)
        np.testing.assert_allclose(fast / c, z, rtol=0, atol=SCALE_TOL)

    def test_cli_dynamics(self, rng, capsys):
        # the CLI's own grid of t_max / c and dt / c: the same points within ulps
        deltas, omega_q, rates = lossy_draw(rng)
        c = 3.3
        for mode in ("paper", "repaired"):
            table = cli_table(capsys, "dynamics", mode=mode, **cli_keys(deltas, omega_q, rates))
            fast = cli_table(capsys, "dynamics", mode=mode, t_max=20.0 / c, dt=0.01 / c,
                             **cli_keys([c * d for d in deltas], c * omega_q, {k: c * v for k, v in rates.items()}))
            fast[:, 0] *= c
            fast[:, ENERGY_COLUMNS] /= c
            np.testing.assert_allclose(fast, table, rtol=0, atol=PRINTED_TOL)


class TestEnergyUnit:
    @MODES
    def test_optimal_time_sweep(self, rng, mode):
        # the earliest-peak rule's window is relative to each point's peak, so
        # tau does not depend on the unit omega_q sets
        deltas, omega_q, rates = lossy_draw(rng)
        gs = VarySpec("g_b", (0.5, 1.0, 2.0, 4.0))
        want = optimal_time_sweep(SystemParams.from_detunings(*deltas, omega_q=omega_q, **rates), gs, GRID, mode)
        for s in (1e-7, 1e-3, 1e3):
            got = optimal_time_sweep(SystemParams.from_detunings(*deltas, omega_q=s * omega_q, **rates),
                                     gs, GRID, mode)
            assert [tau for _, tau, _ in got] == [tau for _, tau, _ in want]
            np.testing.assert_allclose([e / s for *_, e in got], [e for *_, e in want], rtol=UNIT_TOL, atol=0)


class TestContourAxisSwap:
    @MODES
    def test_max_ergotropy_grid(self, rng, mode):
        deltas, omega_q, rates = lossy_draw(rng)
        base = SystemParams.from_detunings(*deltas, omega_q=omega_q, **rates)
        x, y = VarySpec.linspace("g_a", 0.1, 3.0, 13), VarySpec.linspace("delta_3", -2.0, 2.0, 11)
        np.testing.assert_array_equal(max_ergotropy_grid(base, y, x, GRID, mode),
                                      max_ergotropy_grid(base, x, y, GRID, mode).T)

    def test_cli_contour(self, rng, tmp_path, capsys):
        deltas, omega_q, rates = lossy_draw(rng)
        axes = {"": ("g_b", "0.1,0.8,1.5,2.2"), "2": ("kappa_a", "0,0.3,0.6")}
        rows = []
        for name, order in (("xy.csv", ("", "2")), ("yx.csv", ("2", ""))):
            keys = {f"vary{slot}{suffix}": value for slot, axis in zip(("", "2"), order)
                    for suffix, value in zip(("", "_values"), axes[axis])}
            out = tmp_path / name
            assert main(["contour", "--out", str(out), *flags(**keys, **cli_keys(deltas, omega_q, rates))]) == 0
            rows.append(out.read_text().splitlines()[1:])
        xy, yx = ({tuple(row.split(",")) for row in table} for table in rows)
        assert len(xy) == 12
        assert {(yn, y, xn, x, z) for xn, x, yn, y, z in yx} == xy
