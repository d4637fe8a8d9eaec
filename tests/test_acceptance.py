"""Acceptance suite: eleven numbered criteria, one verdict line each.

Verdict lines are buffered and replayed in the pytest terminal summary (see
conftest) so they survive output capture and land in piped logs.  Criterion
8 looks for the interior optimum along the g_b axis at fixed g_a: the
excitation starts in the cavity and the atoms are fed only through it, so
along the g_b = 1 row g_a mostly drains the charger and that row peaks at
the g_a = 0.1 edge (with local bumps further in); its verdict line reports
where.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from magbattery import (
    METRIC_NAMES,
    AccountingMode,
    SystemParams,
    VarySpec,
    ergotropy_series,
    evolve,
    max_ergotropy_grid,
    metric_columns,
    optimal_time_sweep,
    oracle_integrate,
    stored_energy_series,
    time_grid,
)
from magbattery.cli import main as cli_main

from conftest import _draw_params, optimal_charging_time, record_verdict
from oracles import BatteryHamiltonian, DensityMatrix, charger_density, ergotropy, shell_norm

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MODES = (AccountingMode.PAPER, AccountingMode.TRACE_REPAIRED)
INTERIOR_MARGIN = 1e-2  # criterion 8: ergotropy gain of an interior optimum


def report(number, ok, detail):
    line = f"acceptance criterion {number:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_verdict(line)
    assert ok, line


def test_01_frame_equivalence():
    # constant-matrix propagator vs explicit-phase RK oracle, 100 draws
    rng = np.random.default_rng(101)
    t = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for _ in range(100):
        p = _draw_params(rng)
        diff = np.abs(evolve(p, t).amplitudes - oracle_integrate(p, t).amplitudes)
        worst = max(worst, float(diff.max()))
    report(1, worst <= 1e-6, f"max componentwise |dC| = {worst:.3e} over 100 draws")


def test_02_closed_form_rabi_anchor():
    p = SystemParams(g_a=0.0, g_b=0.0, lam=1.0)
    # dt pinned at 0.01; horizon [0,2] holds exactly one Rabi peak so the
    # earliest-grid-max rule is unambiguous (recurrence peaks are equal in
    # the continuum and reorder under sampling)
    t = time_grid(2.0, 0.01)
    traj = evolve(p, t)
    c1_err = float(np.abs(traj.amplitudes[:, 0] - np.cos(math.sqrt(2) * t)).max())
    e = stored_energy_series(traj.amplitudes, p.omega_q, AccountingMode.PAPER)  # as `optimal_charging_time`
    e_err = float(np.abs(e - np.sin(math.sqrt(2) * t) ** 2).max())
    tau, _ = optimal_charging_time(p, t, AccountingMode.PAPER)
    tau_err = abs(tau - math.pi / (2 * math.sqrt(2)))
    ok = c1_err <= 1e-8 and e_err <= 1e-8 and tau_err <= 0.01
    report(2, ok,
           f"|dC1| = {c1_err:.2e}, |dE| = {e_err:.2e}, |dtau| = {tau_err:.4f}")


def test_03_norm_laws():
    # each draw is run twice: decay zeroed (conservation) and as drawn
    # (monotone decrease; draws have strictly positive rates a.s.)
    rng = np.random.default_rng(103)
    t = time_grid(10.0, 0.01)
    worst_drift = 0.0
    worst_rise = -np.inf
    for _ in range(50):
        d1, d2, d3 = rng.uniform(0.0, 2.0, 3)
        ga, gb, lam = rng.uniform(0.0, 2.0, 3)
        ka, kb, km, gam = rng.uniform(0.0, 2.0, 4)
        closed = SystemParams.from_detunings(d1, d2, d3, g_a=ga, g_b=gb, lam=lam)
        lossy = SystemParams.from_detunings(
            d1, d2, d3, g_a=ga, g_b=gb, lam=lam,
            kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam)
        worst_drift = max(
            worst_drift, float(np.abs(shell_norm(evolve(closed, t).amplitudes) - 1.0).max()))
        worst_rise = max(
            worst_rise, float(np.diff(shell_norm(evolve(lossy, t).amplitudes)).max()))
    ok = worst_drift <= 1e-9 and worst_rise <= 1e-12
    report(3, ok,
           f"lossless |N-1| <= {worst_drift:.2e}, max dN step = {worst_rise:.2e}")


def test_04_ergotropy_permutation_oracle():
    rng = np.random.default_rng(104)
    h = BatteryHamiltonian(1.0)
    energies = np.asarray(h.eigenvalues)
    basis = ("gg", "eg", "ge", "ee")
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        m /= np.trace(m).real
        pops = np.linalg.eigvalsh(m)
        passive = min(float(pops[list(perm)] @ energies)
                      for perm in itertools.permutations(range(4)))
        want = float(np.trace(m @ h.matrix).real) - passive
        got = ergotropy(DensityMatrix(m, basis), h)
        worst = max(worst, abs(got - want))
    report(4, worst <= 1e-12, f"max |ergotropy - brute force| = {worst:.2e}")


def test_05_thermodynamic_bound():
    rng = np.random.default_rng(105)
    t = np.linspace(0.0, 10.0, 201)
    worst = -np.inf
    for _ in range(50):
        p = _draw_params(rng)
        traj = evolve(p, t)
        for mode in MODES:
            e = stored_energy_series(traj.amplitudes, p.omega_q, mode)
            w = ergotropy_series(traj.amplitudes, p.omega_q, mode)
            worst = max(worst, float((w - e).max()))
            assert float(w.min()) >= 0.0
    report(5, worst <= 1e-10, f"max (ergotropy - energy) = {worst:.2e}")


def test_06_coherence_consistency():
    rng = np.random.default_rng(106)
    t = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    for _ in range(10):
        p = _draw_params(rng)
        traj = evolve(p, t)
        columns = metric_columns(traj.amplitudes, p.omega_q)
        coherence = columns[:, METRIC_NAMES.index("coherence")]
        for k, s in enumerate(traj.amplitudes):
            rho = charger_density(s, AccountingMode.TRACE_REPAIRED).matrix  # the default of `metric_columns`
            l1 = float(np.sum(np.abs(rho - np.diag(np.diag(rho)))))
            worst = max(worst, abs(coherence[k] - l1))
    report(6, worst <= 1e-12, f"max |amplitude formula - matrix l1| = {worst:.2e}")


def test_07_resonance_dominance():
    t = time_grid(20.0, 0.01)
    peaks = {}
    for deltas in ((0, 0, 0), (0, 2, 0), (0, 0, 2)):
        p = SystemParams.from_detunings(*deltas)
        peaks[deltas] = float(
            stored_energy_series(evolve(p, t).amplitudes, p.omega_q).max())
    ok = (peaks[(0, 0, 0)] >= peaks[(0, 2, 0)]
          and peaks[(0, 0, 0)] >= peaks[(0, 0, 2)])
    report(7, ok,
           "peak E resonant = {:.4f} vs {:.4f} (d2=2) and {:.4f} (d3=2)".format(
               peaks[(0, 0, 0)], peaks[(0, 2, 0)], peaks[(0, 0, 2)]))


def test_08_interior_optimum():
    # The plane of configs/contour_coupling_plane.cfg, paper mode.  "An interior
    # optimum exists" is read along g_b at fixed g_a (README, Tests): some column's
    # maximum over g_b must sit strictly inside the range and beat both edges
    # by INTERIOR_MARGIN.  Halving dt moves no cell of this plane by more
    # than 1.4e-4, so the margin is far above the time-sampling error.
    base = SystemParams.from_detunings(1.0, 1.0, 1.0, lam=1.0)
    g_a = VarySpec.linspace("g_a", 0.1, 3.0, 30)
    g_b = VarySpec.linspace("g_b", 0.1, 3.0, 30)
    z = max_ergotropy_grid(base, g_a, g_b, time_grid(20.0, 0.01), AccountingMode.PAPER)
    margins = z.max(axis=0) - np.maximum(z[0], z[-1])
    jx = int(np.argmax(margins))
    iy = int(np.argmax(z[:, jx]))
    # the g_b = 1 row, for the record: g_a only drains the charger there
    j_row = int(np.argmax(z[int(np.argmin(np.abs(np.subtract(g_b.values, 1.0))))]))
    ok = margins[jx] > INTERIOR_MARGIN  # so the column maximum is interior
    report(8, ok,
           f"max over g_b at g_a = {g_a.values[jx]:.3f} sits at "
           f"g_b = {g_b.values[iy]:.3f} (index {iy} of 0..29), "
           f"{margins[jx]:.3f} above both edges; "
           f"{int(np.sum(margins > INTERIOR_MARGIN))} of 30 columns interior "
           f"by > {INTERIOR_MARGIN:g}; argmax over g_a at g_b=1 sits at "
           f"g_a = {g_a.values[j_row]:.3f}")


def test_09_tau_saturation():
    # dt pinned at 0.01; horizon [0,2] keeps the principal charging peak only
    # (on longer windows near-degenerate recurrence peaks make the
    # earliest-global-max time hop between peak families as g_b varies)
    base = SystemParams.from_detunings(1.0, 1.0, 1.0)
    out = optimal_time_sweep(
        base, VarySpec("g_b", (4.0, 5.0)), time_grid(2.0, 0.01))
    taus = [tau for _, tau, _ in out]
    gap = abs(taus[0] - taus[1])
    report(9, gap <= 5 * 0.01,
           f"tau(g_b=4) = {taus[0]:.2f}, tau(g_b=5) = {taus[1]:.2f}, gap {gap:.2f}")


def test_10_thread_determinism(tmp_path):
    cfg = str(CONFIG_DIR / "contour_coupling_plane.cfg")
    a = tmp_path / "t1.csv"
    b = tmp_path / "t8.csv"
    code_a = cli_main(["contour", "--config", cfg, "--threads", "1", "--out", str(a)])
    code_b = cli_main(["contour", "--config", cfg, "--threads", "8", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "t1.csv.meta.json").read_text())
    ok = code_a == 0 and code_b == 0 and identical
    report(10, ok,
           f"30x30 contour, threads 1 vs 8 byte-identical = {identical}, "
           f"mode = {meta['mode']} (default)")  # the shipped config sets no mode


def test_11_initial_row_fixed_point(tmp_path, capsys):
    variants = [
        ["dynamics", "--config", str(CONFIG_DIR / "dynamics_detuned.cfg"),
         "--t_max", "1", "--dt", "0.5"],
        ["dynamics", "--t_max", "1", "--dt", "0.25"],  # resonant defaults
        ["dynamics", "--gamma", "0.8", "--kappa_a", "0.3", "--t_max", "1",
         "--dt", "0.5"],
        ["dynamics", "--gamma", "0.8", "--mode", "repaired", "--t_max", "1",
         "--dt", "0.5"],
    ]
    rows = []
    for argv in variants:
        assert cli_main(argv) == 0
        rows.append(capsys.readouterr().out.splitlines()[1])
    ok = all(row == "0,0,0,0,1,1" for row in rows)
    report(11, ok, f"first data row of {len(rows)} dynamics runs = '0,0,0,0,1,1'")
