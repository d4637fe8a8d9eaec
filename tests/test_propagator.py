"""Matrix exponential, frame transforms, trajectory generation, RK oracle.

The series-summation exponential oracle lives here, in the tests, so the
production Pade route and the verification route stay independent.
"""

import math

import numpy as np
import pytest

from magbattery import (
    DEFAULT_INITIAL,
    FrameShifts,
    SystemParams,
    build_evolution_matrix,
    derive_detunings,
    derive_frame_shifts,
    evolve,
    matrix_exponential,
    oracle_integrate,
    physical_norm,
    propagate,
    z_to_c,
)

RABI = SystemParams(g_a=0.0, g_b=0.0, lam=1.0)  # resonant two-level reduction


def expm_series(m, terms=80):
    """Plain Taylor summation; independent oracle for matrix_exponential."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_scalar_phase(self):
        m = np.diag([-1j, 0, 0, 0]).astype(complex) * math.pi
        np.testing.assert_allclose(
            matrix_exponential(m), np.diag([-1, 1, 1, 1]), atol=1e-12)

    def test_rotation_block(self):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = -1.0, 1.0
        r = matrix_exponential(g * (math.pi / 2))
        want = np.eye(4)
        want[:2, :2] = [[0, -1], [1, 0]]
        np.testing.assert_allclose(r, want, atol=1e-12)

    def test_against_series_oracle(self, rng):
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m *= rng.uniform(0.1, 2.0) / np.linalg.norm(m, np.inf)
            got = matrix_exponential(m)
            want = expm_series(m)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-12

    def test_large_norm_scaling(self, rng):
        # scaling-and-squaring must also hold far above the Pade radius
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 40.0 / np.linalg.norm(m, np.inf)
        got = matrix_exponential(m)
        half = matrix_exponential(m / 2)
        np.testing.assert_allclose(got, half @ half, atol=1e-9 * np.linalg.norm(got))

    def test_nonfinite_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            matrix_exponential(m)

    def test_overflowing_norm_rejected(self):
        # the infinity norm overflows although every entry is finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="too large"):
            matrix_exponential(np.full((4, 4), 1e308))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((3, 4)))


class TestPropagate:
    def test_t_zero_identity(self, rng, draw_params):
        for _ in range(20):
            a = build_evolution_matrix(draw_params(rng))
            z0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            np.testing.assert_allclose(propagate(a, z0, 0.0), z0, atol=1e-15)

    def test_rabi_quarter_period(self):
        a = build_evolution_matrix(RABI)
        z = propagate(a, DEFAULT_INITIAL, math.pi / (2 * math.sqrt(2)))
        assert abs(z[0]) < 1e-8
        assert abs(z[3] - (-1j / math.sqrt(2))) < 1e-8

    def test_negative_time_rejected(self):
        a = build_evolution_matrix(RABI)
        with pytest.raises(ValueError):
            propagate(a, DEFAULT_INITIAL, -0.1)

    def test_linearity(self, rng, draw_params):
        for _ in range(50):
            a = build_evolution_matrix(draw_params(rng))
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            al, be = rng.normal(size=2)
            t = rng.uniform(0, 5)
            lhs = propagate(a, al * u + be * v, t)
            rhs = al * propagate(a, u, t) + be * propagate(a, v, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_semigroup(self, rng, draw_params):
        for _ in range(50):
            a = build_evolution_matrix(draw_params(rng))
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            s, t = rng.uniform(0, 3, 2)
            lhs = propagate(a, z, s + t)
            rhs = propagate(a, propagate(a, z, s), t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestZToC:
    def test_t_zero(self, rng):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = FrameShifts(1.0, -0.5, 2.0, 0.0)
        np.testing.assert_array_equal(z_to_c(z, f, 0.0), z)

    def test_unit_phase_rotation(self):
        f = FrameShifts(1.0, 0.0, -1.0, 0.0)
        c = z_to_c(np.ones(4, dtype=complex), f, math.pi)
        np.testing.assert_allclose(c, [-1, 1, -1, 1], atol=1e-12)

    def test_modulus_preserved(self, rng):
        for _ in range(100):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            f = FrameShifts(*rng.uniform(-4, 4, 4))
            t = rng.uniform(0, 10)
            np.testing.assert_allclose(np.abs(z_to_c(z, f, t)), np.abs(z), atol=1e-12)


class TestEvolve:
    def test_decoupled_system(self):
        p = SystemParams.from_detunings(1.0, 0.5, -0.3, g_a=0, g_b=0, lam=0)
        traj = evolve(p, np.linspace(0, 10, 101))
        np.testing.assert_allclose(np.abs(traj.amplitudes[:, 0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.amplitudes[:, 1:], 0.0, atol=1e-15)

    def test_no_battery_channel(self):
        p = SystemParams(lam=0.0)  # g_a = g_b = 1
        traj = evolve(p, np.linspace(0, 10, 201))
        np.testing.assert_allclose(traj.amplitudes[:, 3], 0.0, atol=1e-15)

    def test_baseline_norm_conserved(self):
        p = SystemParams.from_detunings(1.0, 1.0, 1.0)
        t = np.arange(0, 20.0 + 1e-9, 0.01)
        norms = evolve(p, t).norms()
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_initial_sample_is_initial_condition(self):
        traj = evolve(SystemParams(), [0.0, 1.0])
        np.testing.assert_array_equal(traj[0].c, DEFAULT_INITIAL)
        assert traj[0].t == 0.0

    def test_uniform_fast_path_matches_pointwise(self, rng, draw_params):
        # repeated-multiplication reuse on uniform grids vs the contract path
        p = draw_params(rng)
        a = build_evolution_matrix(p)
        f = derive_frame_shifts(derive_detunings(p))
        t = np.arange(0, 5.0 + 1e-12, 0.05)
        traj = evolve(p, t)
        for k in (1, 37, 60, len(t) - 1):
            want = z_to_c(propagate(a, DEFAULT_INITIAL, t[k]), f, t[k])
            np.testing.assert_allclose(traj.amplitudes[k], want, atol=1e-11)

    def test_nonuniform_grid(self, rng, draw_params):
        p = draw_params(rng)
        a = build_evolution_matrix(p)
        f = derive_frame_shifts(derive_detunings(p))
        t = np.array([0.0, 0.3, 1.0, 2.5, 2.6])
        traj = evolve(p, t)
        for k, tk in enumerate(t):
            want = z_to_c(propagate(a, DEFAULT_INITIAL, tk), f, tk)
            np.testing.assert_allclose(traj.amplitudes[k], want, atol=1e-12)

    def test_initial_override(self):
        traj = evolve(SystemParams(), [0.0, 0.5], initial=(0, 1, 0, 0))
        np.testing.assert_array_equal(traj[0].c, [0, 1, 0, 0])

    @pytest.mark.parametrize("grid", [[], [1.0, 0.5], [0.0, 0.0, 1.0], [-1.0, 0.0]])
    def test_bad_grids_rejected(self, grid):
        with pytest.raises(ValueError):
            evolve(SystemParams(), grid)

    def test_trajectory_container(self):
        t = np.linspace(0, 1, 11)
        traj = evolve(SystemParams(), t)
        assert len(traj) == 11
        assert [s.t for s in traj] == list(t)
        assert traj[3].norm == pytest.approx(physical_norm(traj.amplitudes[3]))


class TestOracleIntegrate:
    def test_t_zero_exact(self):
        traj = oracle_integrate(SystemParams(), [0.0, 0.1])
        np.testing.assert_array_equal(traj[0].c, DEFAULT_INITIAL)

    def test_rabi_closed_form(self):
        t = np.linspace(0, 3, 31)
        traj = oracle_integrate(RABI, t)
        c1 = np.cos(math.sqrt(2) * t)
        c4 = -1j * np.sin(math.sqrt(2) * t) / math.sqrt(2)
        np.testing.assert_allclose(traj.amplitudes[:, 0], c1, atol=1e-6)
        np.testing.assert_allclose(traj.amplitudes[:, 3], c4, atol=1e-6)

    def test_matches_evolve(self, rng, draw_params):
        t = np.linspace(0, 10, 21)
        for _ in range(3):
            p = draw_params(rng)
            diff = np.abs(evolve(p, t).amplitudes - oracle_integrate(p, t).amplitudes)
            assert diff.max() <= 1e-6

    def test_max_step_validated(self):
        with pytest.raises(ValueError):
            oracle_integrate(SystemParams(), [0.0, 1.0], max_step=0.1)
        with pytest.raises(ValueError):
            oracle_integrate(SystemParams(), [0.0, 1.0], max_step=0.0)
