"""Shared fixtures: seeded RNG, random-parameter draws, verdict reporting,
and the one-point views of the package's batched functions that tests use.

All randomness is seeded, hypothesis included, so failures reproduce exactly.  The acceptance
tests record one verdict line each; printing them from inside a test would
be swallowed by capture, so they are replayed in the terminal summary.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st

from magbattery import SystemParams, VarySpec, evolve, optimal_time_sweep
from magbattery.model import _field_array, _frame_frequencies, real_generators
from magbattery.propagator import _expm_stack

# property tests replay the same examples on every run, like the seeded rng
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
# the same examples with no shrinking (`tests/mutants.py`): a killed mutant needs a failure, not a minimal one
settings.register_profile("seeded_no_shrink", settings.get_profile("seeded"),
                          phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)])
settings.load_profile("seeded")

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line):
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def evolution_matrix(p):
    """Constant matrix A of z' = -i A z at one point, read back from row 0 of the
    batched build of its real generator W: B_ij = W[2j, 2i] + i W[2j, 2i + 1] is
    -i A, so A = i B."""
    w = real_generators(_field_array([p]))[0]
    return 1j * (w[::2, ::2] + 1j * w[::2, 1::2]).T


def frame_frequencies(p):
    """(omega_a, omega_b, omega_m, omega_q) - omega_q at one point: row 0 of the batched build."""
    return _frame_frequencies(_field_array([p]))[0]


def expm(m):
    """exp(m) of one square matrix: the kernel's stacked exponential of a stack of one."""
    return _expm_stack(m[None])[0]


def optimal_charging_time(p, t_grid, mode):
    """(tau, e_max) at one point: a one-value `optimal_time_sweep` that sets g_a to its own value."""
    ((_, tau, e_max),) = optimal_time_sweep(p, VarySpec("g_a", (p.g_a,)), t_grid, mode)
    return tau, e_max


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


_rates = st.floats(0.0, 2.0)
_phases = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _evolved_amplitudes(draw):
    """Amplitudes of a lossy trajectory at a drawn time."""
    d1, d2, d3, ga, gb, lam, ka, kb, km, gam = (draw(_rates) for _ in range(10))
    p = SystemParams.from_detunings(d1, d2, d3, g_a=ga, g_b=gb, lam=lam,
                                    kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam)
    t = draw(st.floats(0.0, 10.0))
    return evolve(p, [0.0, t or 1.0]).amplitudes[int(t > 0)]  # row 0 is the state at t = 0


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
