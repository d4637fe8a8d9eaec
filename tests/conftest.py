"""Shared fixtures: seeded RNG, random-parameter draws, verdict reporting.

All randomness is seeded, hypothesis included, so failures reproduce exactly.  The acceptance
tests record one verdict line each; printing them from inside a test would
be swallowed by capture, so they are replayed in the terminal summary.
"""

import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from magbattery import (
    BatteryHamiltonian,
    SystemParams,
    battery_density,
    charger_density,
    ergotropy,
    evolve,
    purity,
)

# property tests replay the same examples on every run, like the seeded rng
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line):
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def _draw_params(rng, rate_high=2.0):
    # couplings, detunings, decay rates each uniform in [0, 2]
    d1, d2, d3 = rng.uniform(0.0, rate_high, 3)
    ga, gb, lam = rng.uniform(0.0, rate_high, 3)
    ka, kb, km, gam = rng.uniform(0.0, rate_high, 4)
    return SystemParams.from_detunings(
        d1, d2, d3,
        g_a=ga, g_b=gb, lam=lam,
        kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam,
    )


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


_rates = st.floats(0.0, 2.0)
_phases = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _evolved_amplitudes(draw):
    """Amplitudes of a lossy trajectory at a drawn time."""
    d1, d2, d3, ga, gb, lam, ka, kb, km, gam = (draw(_rates) for _ in range(10))
    p = SystemParams.from_detunings(d1, d2, d3, g_a=ga, g_b=gb, lam=lam,
                                    kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam)
    return evolve(p, [draw(st.floats(0.0, 10.0))]).amplitudes[0]


@st.composite
def _charge_threshold_amplitudes(draw):
    """Amplitudes with 2|C4|^2 within 1e-9 of g' in one of the two modes.

    paper: g' = g, so g = 2s + eps with g + 2s <= 1;
    trace_repaired: g' = 1 - 2s, so s = 1/4 + eps and any g <= 1 - 2s.
    """
    eps = draw(st.floats(-1e-9, 1e-9))
    if draw(st.booleans()):
        s = draw(st.floats(1e-9, 0.25 - 1e-9))
        g = 2.0 * s + eps
    else:
        s = 0.25 + eps
        g = draw(st.floats(0.0, 1.0)) * (1.0 - 2.0 * s)
    w = np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)]) + 1e-3
    field = np.sqrt(g * w / w.sum())
    mods = np.append(field, math.sqrt(s))
    return mods * np.exp(1j * np.array([draw(_phases) for _ in range(4)]))


def shell_amplitudes():
    """Single-excitation amplitudes (C1..C4) with N <= 1: lossy trajectory
    samples, plus states at the charging threshold 2|C4|^2 = g'."""
    return st.one_of(_evolved_amplitudes(), _charge_threshold_amplitudes())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def draw_params():
    return _draw_params
