"""Matrix exponential, real form, trajectory generation, RK oracle,
shell-Hamiltonian oracle, 40-digit reference.

The series-summation exponential oracle lives here, in the tests; scipy's
Pade `expm` checks the production Taylor core by a different method.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magbattery import (
    DEFAULT_INITIAL,
    SystemParams,
    evolve,
    metric_columns,
    oracle_integrate,
    physical_norm,
)

from magbattery import propagator
from magbattery.model import _field_array
from magbattery.propagator import _expm_stack, _population_sums, _real_form, _runs, rotating_amplitudes
from magbattery.sweeps import time_grid

from conftest import evolution_matrix, expm, frame_frequencies
from oracles import lindblad_metrics, runs_by_loop

RABI = SystemParams(g_a=0.0, g_b=0.0, lam=1.0)  # resonant two-level reduction


def expm_series(m, terms=80):
    """Plain Taylor summation of 80 terms, unscaled: an oracle for the kernel's
    degree-15 Taylor core with scaling and squaring, which shares its series but
    not its truncation, scaling or evaluation order."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def rotated(a, z0, t):
    """exp(-i A t) z0: the rotated-frame solution for the constant matrix A."""
    return expm(-1j * t * a) @ np.asarray(z0, dtype=complex)


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_scalar_phase(self):
        m = np.diag([-1j, 0, 0, 0]).astype(complex) * math.pi
        np.testing.assert_allclose(
            expm(m), np.diag([-1, 1, 1, 1]), atol=1e-12)

    def test_rotation_block(self):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = -1.0, 1.0
        r = expm(g * (math.pi / 2))
        want = np.eye(4)
        want[:2, :2] = [[0, -1], [1, 0]]
        np.testing.assert_allclose(r, want, atol=1e-12)

    def test_against_series_oracle(self, rng):
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m *= rng.uniform(0.1, 2.0) / np.linalg.norm(m, np.inf)
            got = expm(m)
            want = expm_series(m)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-12

    def test_large_norm_scaling(self, rng):
        # scaling-and-squaring must also hold far above the Pade radius
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 40.0 / np.linalg.norm(m, np.inf)
        got = expm(m)
        half = expm(m / 2)
        np.testing.assert_allclose(got, half @ half, atol=1e-9 * np.linalg.norm(got))

    @settings(max_examples=300)
    @given(
        kappas=st.tuples(*[st.floats(0.0, 4.0)] * 4),
        shift=st.sampled_from((0.0, 1e-8, -1e-8, 1e-4)),
        g_b=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        d1=st.floats(-2.0, 2.0),
        d3=st.floats(-2.0, 2.0),
        dt=st.floats(1e-3, 30.0),
    )
    def test_against_scipy_near_exceptional_points(self, kappas, shift, g_b, lam, d1, d3, dt):
        # at delta_2 = 0 and g_a = |kappa_a - kappa_b| / 4 the photon-magnon
        # block of A is defective (one eigenvalue, one eigenvector)
        scipy_expm = pytest.importorskip("scipy.linalg").expm
        ka, kb, km, gam = kappas
        p = SystemParams.from_detunings(
            d1, 0.0, d3, g_a=max(abs(ka - kb) / 4.0 + shift, 0.0), g_b=g_b, lam=lam,
            kappa_a=ka, kappa_b=kb, kappa_m=km, gamma=gam)
        m = -1j * dt * evolution_matrix(p)
        want = scipy_expm(m)
        err = np.linalg.norm(expm(m) - want, 1) / np.linalg.norm(want, 1)
        assert err <= 1e-12

    def test_nonfinite_rejected(self):
        # a NaN or inf entry has no squaring count: no exponential comes back
        for bad in (np.nan, np.inf):
            m = np.zeros((4, 4), dtype=complex)
            m[2, 2] = bad
            assert np.isnan(expm(m)).all()

    def test_overflowing_norm_rejected(self):
        # the infinity norm overflows although every entry is finite
        with np.errstate(over="ignore"):
            assert np.isnan(expm(np.full((4, 4), 1e308))).all()

    def test_budget_ends_at_22_squarings(self):
        # a phase of infinity norm exactly 2**21 takes 22 squarings and keeps
        # its modulus to 2**22 eps; the next float above would take 23
        edge = np.diag([-1j * 2.0**21, 0.5j, 0, 0])
        np.testing.assert_allclose(np.abs(expm(edge)), np.eye(4), rtol=0, atol=1e-8)
        edge[0, 0] = -1j * np.nextafter(2.0**21, np.inf)
        assert np.isnan(expm(edge)).all()

    @staticmethod
    def graded_stacks(rng):
        """Stacks of 200 matrices of infinity norms 0.1-40 (0 to 7 squarings),
        shuffled: complex 4x4 ones and the real 8x8 ones the kernel exponentiates."""
        for m in (rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4)),
                  rng.normal(size=(200, 8, 8))):
            m *= (np.geomspace(0.1, 40.0, 200) / np.abs(m).sum(axis=-1).max(axis=-1))[:, None, None]
            rng.shuffle(m)
            yield m

    def test_stack_equals_each_matrix_alone(self, rng):
        # each matrix of one stack takes its own count, so its stack-mates
        # change none of its bits
        for m in self.graded_stacks(rng):
            alone = np.array([expm(x) for x in m])
            np.testing.assert_array_equal(_expm_stack(m).view(np.uint64), alone.view(np.uint64))

    def test_refused_matrix_leaves_its_stack_mates_alone(self, rng):
        # one NaN matrix comes back NaN; the others keep the bits they have alone
        for m in self.graded_stacks(rng):
            alone = np.array([expm(x) for x in m])
            m[57, 1, 2] = np.nan
            got = _expm_stack(m)
            assert np.isnan(got[57]).all()
            got, alone = np.delete(got, 57, axis=0), np.delete(alone, 57, axis=0)
            np.testing.assert_array_equal(got.view(np.uint64), alone.view(np.uint64))


def real_form(s):
    """`_real_form` of a complex stack."""
    return _real_form(s.real, s.imag)


def unit_stack(rng, *shape):
    """Complex entries with parts uniform in [-0.5, 0.5], so products stay O(1)."""
    return rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)


class TestRealForm:
    """The kernel's real 8x8 maps: x @ M(s) is the float view of z @ s.T.

    Every CLI column reads only |Z|, and from a real initial state a
    conjugated form yields conj(Z), so it would leave every shipped output
    unchanged: these tests pin the form at the amplitude level.
    """

    def test_acts_as_the_complex_map(self, rng):
        s, z = unit_stack(rng, 300, 4, 4), unit_stack(rng, 300, 7, 4)
        want = (z @ s.swapaxes(-1, -2)).view(float)
        np.testing.assert_allclose(z.view(float) @ real_form(s), want, rtol=0, atol=1e-15)

    def test_products_reverse_order(self, rng):
        s1, s2 = unit_stack(rng, 300, 4, 4), unit_stack(rng, 300, 4, 4)
        np.testing.assert_allclose(real_form(s1 @ s2), real_form(s2) @ real_form(s1),
                                   rtol=0, atol=1e-15)

    def test_exponential_commutes_with_the_form(self, rng):
        # the real form's infinity norm differs from the complex one's, so the two
        # routes take their own squaring counts; scipy's Pade is a third method
        scipy_expm = pytest.importorskip("scipy.linalg").expm
        m = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
        m *= (np.geomspace(0.1, 40.0, 200) / np.abs(m).sum(axis=-1).max(axis=-1))[:, None, None]
        got = _expm_stack(real_form(m))
        scale = np.abs(got).max(axis=(-1, -2))
        for want in (real_form(_expm_stack(m)), real_form(np.array([scipy_expm(x) for x in m]))):
            assert (np.abs(got - want).max(axis=(-1, -2)) / scale).max() <= 1e-13


class TestPropagate:
    """Propagation in the rotated frame: z(t) = exp(-i A t) z0."""

    def test_t_zero_identity(self, rng, draw_params):
        for _ in range(20):
            a = evolution_matrix(draw_params(rng))
            z0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            np.testing.assert_allclose(rotated(a, z0, 0.0), z0, atol=1e-15)

    def test_rabi_quarter_period(self):
        a = evolution_matrix(RABI)
        z = rotated(a, DEFAULT_INITIAL, math.pi / (2 * math.sqrt(2)))
        assert abs(z[0]) < 1e-8
        assert abs(z[3] - (-1j / math.sqrt(2))) < 1e-8

    def test_negative_time_rejected(self):
        # the production propagator never runs backwards in time
        with pytest.raises(ValueError, match="t >= 0"):
            evolve(RABI, [-0.1])

    def test_linearity(self, rng, draw_params):
        for _ in range(50):
            a = evolution_matrix(draw_params(rng))
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            al, be = rng.normal(size=2)
            t = rng.uniform(0, 5)
            lhs = rotated(a, al * u + be * v, t)
            rhs = al * rotated(a, u, t) + be * rotated(a, v, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_semigroup(self, rng, draw_params):
        for _ in range(50):
            a = evolution_matrix(draw_params(rng))
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            s, t = rng.uniform(0, 3, 2)
            lhs = rotated(a, z, s + t)
            rhs = rotated(a, rotated(a, z, s), t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestZToC:
    """`evolve` turns rotated-frame Z into C-frame C_n = Z_n exp(+i f_n t)."""

    def test_t_zero(self, rng, draw_params):
        # no rotation at t = 0, whatever the frame frequencies
        for _ in range(20):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            traj = evolve(draw_params(rng), [0.0], initial=z)
            np.testing.assert_array_equal(traj.amplitudes[0], z)

    def test_unit_phase_rotation(self):
        # uncoupled and lossless with f = (1, 0, -1, 0): Z(pi/2) = (-i, 1, i, 1),
        # and the rotation back by exp(+i f pi/2) returns every C_n to 1
        p = SystemParams(omega_a=5, omega_b=4, omega_m=3, omega_q=4, g_a=0, g_b=0, lam=0)
        np.testing.assert_array_equal(frame_frequencies(p), [1.0, 0.0, -1.0, 0.0])
        z = rotated(evolution_matrix(p), np.ones(4), math.pi / 2)
        np.testing.assert_allclose(z, [-1j, 1, 1j, 1], atol=1e-12)
        traj = evolve(p, [0.0, math.pi / 2], initial=np.ones(4))
        np.testing.assert_allclose(traj.amplitudes[1], np.ones(4), atol=1e-12)

    def test_modulus_preserved(self, rng, draw_params):
        for _ in range(100):
            p = draw_params(rng)
            z0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            t = rng.uniform(0, 10)
            c = evolve(p, [0.0, t], initial=z0).amplitudes[1]
            z = rotated(evolution_matrix(p), z0, t)
            np.testing.assert_allclose(np.abs(c), np.abs(z), atol=1e-12)


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
        norms = physical_norm(evolve(p, t).amplitudes)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_initial_sample_is_initial_condition(self):
        traj = evolve(SystemParams(), [0.0, 1.0])
        np.testing.assert_array_equal(traj.amplitudes[0], DEFAULT_INITIAL)
        assert traj.times[0] == 0.0

    @staticmethod
    def pointwise(p, tk):
        # one exponential straight from t = 0, rotated back at the frame frequencies
        a = evolution_matrix(p)
        return rotated(a, DEFAULT_INITIAL, tk) * np.exp(1j * tk * frame_frequencies(p))

    def test_uniform_fast_path_matches_pointwise(self, rng, draw_params):
        # one reused step exponential on a uniform grid vs one exponential per point
        p = draw_params(rng)
        t = np.arange(0, 5.0 + 1e-12, 0.05)
        traj = evolve(p, t)
        for k in (1, 37, 60, len(t) - 1):
            np.testing.assert_allclose(traj.amplitudes[k], self.pointwise(p, t[k]), atol=1e-11)

    def test_nonuniform_grid(self, rng, draw_params):
        p = draw_params(rng)
        t = np.array([0.0, 0.3, 1.0, 2.5, 2.6])
        traj = evolve(p, t)
        for k, tk in enumerate(t):
            np.testing.assert_allclose(traj.amplitudes[k], self.pointwise(p, tk), atol=1e-12)

    def test_initial_override(self):
        traj = evolve(SystemParams(), [0.0, 0.5], initial=(0, 1, 0, 0))
        np.testing.assert_array_equal(traj.amplitudes[0], [0, 1, 0, 0])

    @pytest.mark.parametrize("grid", [[], [1.0, 0.5], [0.0, 0.0, 1.0], [-1.0, 0.0]])
    def test_bad_grids_rejected(self, grid):
        with pytest.raises(ValueError):
            evolve(SystemParams(), grid)

    def test_trajectory_container(self):
        t = np.linspace(0, 1, 11)
        traj = evolve(SystemParams(), t)
        np.testing.assert_array_equal(traj.times, t)
        assert traj.amplitudes.shape == (11, 4)

    @pytest.mark.parametrize("points, names", [
        (SystemParams(omega_a=-1.7e308, omega_q=1.7e308), "omega_a - omega_q"),
        ([SystemParams(), SystemParams(omega_b=-1.7e308, omega_m=-1.7e308, omega_a=0.0, omega_q=1.7e308)],
         "omega_b - omega_q and omega_m - omega_q"),
    ], ids=["one", "sequence"])
    def test_overflowing_frame_frequency_refused(self, points, names):
        # t = 0 alone takes no step, so only the rotation back meets the
        # overflow; a grid with a step keeps the kernel's refusal
        with pytest.raises(ValueError, match=f"^frame frequencies must be finite, got an overflow in {names}$"):
            evolve(points, [0.0])
        with pytest.raises(ValueError, match=r"^one-step exponential .* dt = 0\.1:"):
            evolve(points, [0.0, 0.1])

    def test_step_exponential_needs_at_most_22_squarings(self):
        # |A|_inf = g_a + 2 lam here, so dt |A|_inf is 2**21 (22 squarings),
        # then 2**21 + 2 (23 squarings)
        evolve(SystemParams(g_a=2.0**21 - 2.0), [0.0, 1.0])
        with pytest.raises(ValueError, match=r"one-step exponential .* dt = 1:"):
            evolve(SystemParams(g_a=2.0**21), [0.0, 1.0])


def run_grid(t0, lengths=(3, 1, 65, 2, 7, 64)):
    """t0, then runs of equal steps of the given lengths, each run its own step."""
    steps = np.repeat(0.01 * (1.0 + 0.37 * np.arange(len(lengths))), lengths)
    return t0 + np.concatenate(([0.0], np.cumsum(steps)))


class TestBatchedEvolve:
    """A sequence of points advances together; row i is `evolve` of point i."""

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 5.0, 101),
        np.array([0.0, 0.3, 1.0, 2.5, 2.6]),
        np.array([0.7, 1.2, 1.7, 4.0]),
        run_grid(0.0),
        np.arange(300) * 0.01,
    ], ids=["uniform", "nonuniform", "from_t0", "runs", "arange"])
    @pytest.mark.parametrize("initial", [None, (0.6, 0.0, 0.8j, 0.0)])
    def test_rows_match_single_points(self, rng, draw_params, grid, initial):
        points = [draw_params(rng) for _ in range(6)]
        batch = evolve(points, grid, initial=initial)
        np.testing.assert_array_equal(batch.times, grid)
        assert batch.amplitudes.shape == (6, len(grid), 4)
        for row, p in zip(batch.amplitudes, points):
            single = evolve(p, grid, initial=initial).amplitudes
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bad, grid, cause", [
        (SystemParams(g_a=2.0**21), [0.0, 1.0], r"no precision left .* dt = 1:"),
        (SystemParams(g_a=1e6), np.arange(2001) * 0.01, "lost precision over 2000 steps"),
    ], ids=["step_norm", "norm_rise"])
    def test_one_bad_point_refuses_the_sequence(self, bad, grid, cause):
        # the largest point's norm is what counts, not a sum over the points
        evolve([SystemParams(), SystemParams(g_a=2.0**21 - 2.0)], [0.0, 1.0])
        with pytest.raises(ValueError, match=cause):
            evolve([SystemParams(), bad, SystemParams()], grid)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one parameter point"):
            evolve([], [0.0, 1.0])

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 20.0, 2001),
        np.arange(2001) * 0.01,  # steps that differ by ulps
        run_grid(0.0),
        run_grid(0.25),
    ], ids=["uniform2001", "arange2001", "runs", "runs_from_t0"])
    def test_runs_match_a_sequential_loop_and_scipy(self, rng, draw_params, grid):
        # each run of equal steps is filled by doubling; the reference takes
        # one exponential per step and one matvec at a time
        scipy_expm = pytest.importorskip("scipy.linalg").expm
        points = [draw_params(rng) for _ in range(2)]
        batch = evolve(points, grid).amplitudes
        for row, p in zip(batch, points):
            a, f = evolution_matrix(p), frame_frequencies(p)
            z, loop = np.array(DEFAULT_INITIAL, dtype=complex), []
            for tk, h in zip(grid, np.diff(grid, prepend=0.0)):
                z = expm(-1j * h * a) @ z
                loop.append(z * np.exp(1j * tk * f))
            np.testing.assert_allclose(row, loop, rtol=0, atol=1e-12)
            for k in (1, 2, 3, 4, 6, 7, 70, 71, 80, 142, len(grid) - 1):
                want = scipy_expm(-1j * grid[k] * a) @ DEFAULT_INITIAL * np.exp(1j * grid[k] * f)
                np.testing.assert_allclose(row[k], want, rtol=0, atol=1e-12)

    def test_each_point_keeps_its_squaring_count(self):
        # dt |A|_inf is 0.15 (no squaring) and 2**18 + 1 (20 squarings)
        small, large = SystemParams(g_a=0.1, g_b=0.1, lam=0.1), SystemParams(g_a=2.0**19)
        grid = [0.0, 0.5, 1.0, 1.5]
        batch = evolve([small, large, small], grid).amplitudes
        for row, p in zip(batch, (small, large, small)):
            np.testing.assert_array_equal(row, evolve(p, grid).amplitudes)


def test_norm_rise_refuses_its_slice_after_the_earlier_ones(monkeypatch):
    # a step exponential 1e-10 too large makes the norm rise by construction,
    # by about 4e-7 over 2000 steps, far past the 1e-9 slack; at T = 2001 a
    # slice holds two points, so the fifth point's slice is the third
    t, fields = time_grid(20.0, 0.01), _field_array([SystemParams()] * 7)
    want = [z for z, *_ in rotating_amplitudes(lambda size: [fields], t)]
    exact = propagator._expm_stack

    def too_large(m):
        f = exact(m)
        f[4] *= 1.0 + 1e-10
        return f

    monkeypatch.setattr(propagator, "_expm_stack", too_large)
    got = []
    with pytest.raises(ValueError, match=r"lost precision over 2000 steps of dt = 0\.01: "
                                         r"the physical norm rose to "):
        for z, *_ in rotating_amplitudes(lambda size: [fields], t):
            got.append(z)
    assert [len(z) for z in got] == [2, 2]
    for z, w in zip(got, want):
        np.testing.assert_array_equal(z, w)


def test_step_norm_refuses_its_slice_after_the_earlier_ones(rng, draw_params):
    # dt |W|_inf is about 0.01 * 2**30, past 2**21, at the fifth point; at
    # T = 2001 a slice holds two points, so that point's slice is the third
    t, points = time_grid(20.0, 0.01), [draw_params(rng) for _ in range(6)]
    fields = _field_array(points[:4] + [SystemParams(g_a=2.0**30)] + points[4:])
    want = [z for z, *_ in rotating_amplitudes(lambda size: [np.delete(fields, 4, axis=0)], t)]
    got = []
    with pytest.raises(ValueError, match=r"has no precision left for time step dt = 0\.01: "):
        for z, *_ in rotating_amplitudes(lambda size: [fields], t):
            got.append(z)
    assert [len(z) for z in got] == [2, 2]
    for z, w in zip(got, want):
        np.testing.assert_array_equal(z, w)


@pytest.mark.parametrize("grid, runs", [
    (time_grid(200.0, 0.01), 1),
    (time_grid(9999.99, 0.01), 1),
    (0.05 + np.concatenate(([0.0], np.cumsum(np.r_[np.full(60, 0.01), np.linspace(0.011, 0.03, 40),
                                                   np.full(80, 0.02)]))), 43),
    (np.geomspace(0.01, 2.0, 41), 41),
    (np.concatenate(([0.0], np.cumsum(np.full(2000, 0.01)))), 4),
], ids=["arange20001", "arange_limit", "sweeps_grid", "geomspace", "cumsum"])
def test_runs_are_found_by_position(monkeypatch, grid, runs):
    # a run holds every point within 4 ulps of its origin plus whole steps, so
    # the rounding of `arange * dt` cannot split it, up to the 1e6-point limit
    # of `time_grid`; a change of step (the grid of tests/test_sweeps.py, a
    # geometric grid) and the drift of a running sum still do.  A chunk takes
    # one stacked exponential of runs x points; the first slice is enough
    stacks, exact = [], propagator._expm_stack
    monkeypatch.setattr(propagator, "_expm_stack", lambda m: stacks.append(len(m)) or exact(m))
    fields = _field_array([SystemParams()] * 3)
    next(rotating_amplitudes(lambda size: [fields], grid))
    assert stacks == [3 * runs]


@st.composite
def run_grids(draw):
    """Checked time grids of every shape the run planner meets: `arange * dt`,
    `linspace` and `geomspace` grids, running sums, two such grids joined, and
    uniform grids with each point moved by a few ulps."""
    kind = draw(st.sampled_from(["arange", "linspace", "geomspace", "cumsum", "joined", "perturbed"]))
    n = draw(st.integers(1, 2500))
    dt = draw(st.floats(1e-4, 10.0))
    t0 = draw(st.sampled_from([0.0, 0.05, 1.0]))
    if kind == "arange":
        t = t0 + np.arange(n) * dt
    elif kind == "linspace":
        t = np.linspace(t0, t0 + n * dt, n)
    elif kind == "geomspace":
        t = np.geomspace(dt, dt * draw(st.floats(1.5, 1e6)), n)
    elif kind == "cumsum":
        t = t0 + np.cumsum(np.full(n, dt))
    elif kind == "joined":
        head = np.arange(n) * dt
        tail = head[-1] + draw(st.floats(0.1, 3.0)) * dt + np.arange(1, draw(st.integers(1, 2000))) * 2.0 * dt
        t = np.concatenate((head, tail))
    else:
        spread, seed = draw(st.integers(1, 30)), draw(st.integers(0, 2**32 - 1))
        t = np.arange(1, n + 1) * dt
        t = t + np.random.default_rng(seed).integers(-spread, spread + 1, n) * np.spacing(t)
    assume(np.all(np.diff(t) > 0) and t[0] >= 0.0)
    return t


def check_position_rule(t, starts, steps):
    """Asserts the position rule of `_runs` on its output for the grid `t`: the
    first run starts at 1 if t[0] = 0, else at 0; the run from t_s takes the
    step t_s - t_{s-1} (t_{-1} = 0) and holds every point up to the next start
    within 4 ulps of t_{s-1} plus whole steps; each later start lies off the
    line of the run before it."""
    tl = [float(x) for x in t]
    first = int(tl[0] == 0.0)
    assert starts[:1] == ([first] if first < len(tl) else [])
    assert starts == sorted(set(starts)) and len(steps) == len(starts)

    def off(k, s, h):  # t_k against the line of the run from t_s with step h
        return abs(tl[k] - ((tl[s - 1] if s else 0.0) + (k - s + 1) * h)) > 4.0 * math.ulp(tl[k])

    for j, (s, h) in enumerate(zip(starts, steps)):
        assert h == tl[s] - (tl[s - 1] if s else 0.0)
        end = starts[j + 1] if j + 1 < len(starts) else len(tl)
        assert not any(off(k, s, h) for k in range(s, end))
        if end < len(tl):
            assert off(end, s, h)


class TestRunPlanner:
    """`_runs` splits a grid by the position rule, into exactly the runs the
    point-by-point loop finds."""

    @settings(max_examples=300)
    @given(t=run_grids())
    def test_equals_the_loop(self, t):
        starts, steps = _runs(t)
        check_position_rule(t, starts, steps)
        assert (starts, steps) == runs_by_loop(t)
        assert all(type(k) is int for k in starts)

    @pytest.mark.parametrize("grid", [
        [0.0], [5e-324], [0.0, 5e-324, 1e-323, 2e-323, 3e-323, 5e-323],
        [1e307, 5e307, 9e307, 1.3e308, 1.7e308, np.finfo(float).max],
        np.finfo(float).max * np.linspace(0.5, 1.0, 33),
        np.arange(1, 4001) * 0.01 + np.where(np.arange(4000) % 3, 0.0, 1e-13),
    ], ids=["origin", "subnormal", "subnormals", "largest", "top_binade", "every_third_moved"])
    def test_equals_the_loop_at_the_ends_of_the_floats(self, grid):
        t = np.asarray(grid, dtype=float)
        with np.errstate(over="raise"):
            starts, steps = _runs(t)
        check_position_rule(t, starts, steps)
        assert (starts, steps) == runs_by_loop(t)


def test_amplitudes_match_a_40_digit_reference(rng, draw_params):
    # Z_ref = expm(-i A t) z0 at 40 digits on the T = 2001, dt = 0.01 grid.  Its
    # times 1, 2, ..., 20 are whole numbers in floats, so Z_ref(n) = E^n z0 with
    # one E = expm(-i A) per point.  Resonant, (1, 1, 1), a lossy point and two
    # lossy draws; the doubling fill's error grows with the index
    mp = pytest.importorskip("mpmath").mp
    t, times = time_grid(20.0, 0.01), (1, 2, 3, 5, 7, 10, 12, 15, 18, 20)
    assert t[[100 * n for n in times]].tolist() == list(map(float, times))
    points = [SystemParams(), SystemParams.from_detunings(1.0, 1.0, 1.0),
              SystemParams.from_detunings(1.0, 1.0, 1.0, kappa_a=0.5, kappa_b=0.2,
                                          kappa_m=0.1, gamma=0.3),
              draw_params(rng), draw_params(rng)]
    fields = _field_array(points)
    z = np.concatenate([z for z, *_ in rotating_amplitudes(lambda size: [fields], t)])
    errors = []
    with mp.workdps(40):
        for row, p in zip(z, points):
            e = mp.expm(mp.matrix((-1j * evolution_matrix(p)).tolist()))
            ref, k = mp.matrix(list(DEFAULT_INITIAL)), 0
            for n in times:
                while k < n:
                    ref, k = e * ref, k + 1
                errors.append(max(float(abs(ref[j] - mp.mpc(row[100 * n, j]))) for j in range(4)))
    assert max(errors) <= 1e-13


def test_amplitudes_match_a_40_digit_reference_on_a_long_grid():
    # the 200 001 points of dt = 0.01 up to t = 2000 are one run, filled by
    # doubling, so the error grows with the index; Z_ref = expm(-i A t) z0 at
    # 40 digits.  Detunings (1, 1, 1), without loss and with a weak loss that
    # leaves the amplitudes well above roundoff at t = 2000
    mp = pytest.importorskip("mpmath").mp
    t, ks = time_grid(2000.0, 0.01), (20000, 100000, 200000)
    points = [SystemParams.from_detunings(1.0, 1.0, 1.0),
              SystemParams.from_detunings(1.0, 1.0, 1.0, kappa_a=5e-4, kappa_b=2e-4, kappa_m=1e-4, gamma=3e-4)]
    fields = _field_array(points)
    rows = [z[0, ks] for z, *_ in rotating_amplitudes(lambda size: [fields], t)]  # a slice per point
    errors = []
    with mp.workdps(40):
        for row, p in zip(rows, points):
            a = mp.matrix((-1j * evolution_matrix(p)).tolist())
            for zk, k in zip(row, ks):
                ref = mp.expm(a * mp.mpf(t[k])) * mp.matrix(list(DEFAULT_INITIAL))
                errors.append(max(float(abs(ref[j] - mp.mpc(zk[j]))) for j in range(4)))
    assert max(errors) <= 3e-11


class TestPopulationSums:
    """g = |Z1|^2 + |Z2|^2 + |Z3|^2 and s = |Z4|^2, taken once per block by the kernel."""

    def test_match_the_abs_squares(self, rng, draw_params):
        z = evolve([draw_params(rng) for _ in range(5)], np.linspace(0.0, 10.0, 41)).amplitudes
        parts = rng.normal(size=(2, 3, 7, 4)) * 10.0 ** rng.uniform(-8, 2, (2, 3, 7, 4))
        scaled = parts[0] + 1j * parts[1]  # components many decades apart
        every_other = np.empty((3, 7, 8), dtype=complex)
        every_other[..., ::2] = scaled
        strided = every_other[..., ::2]  # the components of a point are not adjacent
        assert not strided.flags.c_contiguous and not np.asfortranarray(z).flags.c_contiguous
        for c in (z, z[:, ::3], np.asfortranarray(z), z.swapaxes(0, 1), strided,
                  scaled, scaled[0, 0], scaled[0, 0].tolist()):
            p = np.abs(np.asarray(c)) ** 2
            g, s, norm = _population_sums(c)
            np.testing.assert_allclose(g, p[..., 0] + p[..., 1] + p[..., 2], rtol=1e-15, atol=0)
            np.testing.assert_allclose(s, p[..., 3], rtol=1e-15, atol=0)
            np.testing.assert_array_equal(norm, g + 2.0 * s)
            np.testing.assert_array_equal(physical_norm(c), norm)

    def test_atom_sum_has_the_bits_of_the_einsum(self, rng):
        # s is taken as two products and a sum: the same bits as the einsum
        # the field sum keeps, over magnitudes from underflow to overflow
        v = rng.normal(size=(7, 301, 8)) * 10.0 ** rng.uniform(-170, 160, (7, 301, 8))
        with np.errstate(over="ignore", under="ignore"):
            s = _population_sums(v.view(complex))[1]
            np.testing.assert_array_equal(s, np.einsum("...i,...i->...", v[..., 6:], v[..., 6:]))

    def test_wrong_component_count_rejected(self):
        for c in ((1.0, 0.0, 0.0), np.zeros((2, 5), dtype=complex)):
            with pytest.raises(ValueError, match="4 components in their last axis"):
                _population_sums(c)

    def test_kernel_yields_each_blocks_own_sums(self, rng, draw_params):
        blocks = [_field_array([draw_params(rng) for _ in range(n)]) for n in (3, 1, 4)]
        out = list(rotating_amplitudes(lambda size: blocks, np.linspace(0.0, 5.0, 51)))
        assert [z.shape[0] for z, *_ in out] == [3, 1, 4]
        for z, *sums in out:
            for got, want in zip(sums, _population_sums(z), strict=True):
                np.testing.assert_array_equal(got, want)


class TestOracleIntegrate:
    def test_t_zero_exact(self):
        traj = oracle_integrate(SystemParams(), [0.0, 0.1])
        np.testing.assert_array_equal(traj.amplitudes[0], DEFAULT_INITIAL)

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

    @staticmethod
    def rk4_spans(p, z0, t):
        """Textbook RK4 on one amplitude vector, C' = M(t) C, one substep at a
        time: each span t_prev -> t_k in n = ceil(span / 1e-3) equal substeps of
        t_prev + j h, h = span / n; the amplitudes at every grid point."""
        omegas = np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q])
        coupling = np.zeros((4, 4))
        coupling[0, 1] = coupling[1, 0] = p.g_a
        coupling[1, 2] = coupling[2, 1] = p.g_b
        coupling[0, 3], coupling[3, 0] = 2.0 * p.lam, p.lam
        half_rates = 0.5 * np.array([p.kappa_a, p.kappa_b, p.kappa_m, p.gamma])

        def m(tt):  # M at every time of tt, (len(tt), 4, 4)
            phase = np.exp(1j * (omegas[:, None] - omegas[None, :]) * np.asarray(tt)[:, None, None])
            return -1j * coupling * phase - np.diag(half_rates)

        z, t_prev, out = np.asarray(z0, dtype=complex), 0.0, []
        for tk in t:
            if tk > t_prev:
                n = math.ceil((tk - t_prev) / 1e-3)
                h = (tk - t_prev) / n
                tj = t_prev + np.arange(n) * h
                for m0, mh, m1 in zip(m(tj), m(tj + h / 2), m(tj + h)):
                    k1 = m0 @ z
                    k2 = mh @ (z + h / 2 * k1)
                    k3 = mh @ (z + h / 2 * k2)
                    k4 = m1 @ (z + h * k3)
                    z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            out.append(z)
            t_prev = tk
        return np.array(out)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_one_and_two_substeps_are_plain_rk4(self, rng, draw_params, steps):
        # pins the scheme, and with two substeps the order of the product
        for _ in range(5):
            p = draw_params(rng)
            z0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            got = oracle_integrate(p, [0.0, steps * 1e-3], initial=z0).amplitudes[-1]
            want = self.rk4_spans(p, z0, [steps * 1e-3])[-1]
            # a few ulp of rounding apart; a wrong stage or product order is >1e-10
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @staticmethod
    def mixed_span_grid(rng):
        """A grid whose spans take 1, 2, 3, 7, 511, 512, 513 and 1025 substeps,
        shuffled, each repeated 1-3 times in a row, from t = 0 or a t0 > 0: so
        batches of several pieces, padded substeps and spans cut into pieces."""
        counts = np.repeat(rng.permutation([1, 2, 3, 7, 511, 512, 513, 1025]), rng.integers(1, 4, 8))
        spans = (counts - rng.uniform(0.0, 0.5, counts.size)) * 1e-3  # ceil(span / 1e-3) is the count
        return np.cumsum(np.concatenate(([rng.choice([0.0, 0.0137])], spans)))

    # both take the same substeps: over 96 such draws with these unnormalized
    # initial states the worst |dC| measured is 1.1e-13
    SPAN_TOL = 1e-12

    @pytest.mark.parametrize("piece", [propagator._ORACLE_PIECE, 128, 64])
    def test_spans_are_plain_rk4_span_by_span(self, rng, draw_params, monkeypatch, piece):
        # smaller pieces cut the spans more often and put fewer substeps in a batch
        monkeypatch.setattr(propagator, "_ORACLE_PIECE", piece)
        for _ in range(2):
            p = draw_params(rng)
            z0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            t = self.mixed_span_grid(rng)
            got = oracle_integrate(p, t, initial=z0).amplitudes
            np.testing.assert_allclose(got, self.rk4_spans(p, z0, t), rtol=0, atol=self.SPAN_TOL)

    def test_long_and_mixed_spans(self):
        # a one-substep span, a span of several full pieces plus a partial
        # one, then spans of 50, 250 and 200 substeps
        p = TestShellHamiltonianOracle.CASES["lossy_mixed"]
        t = np.array([0.0, 0.0005, 3.7, 3.75, 4.0, 4.2])
        got = np.abs(oracle_integrate(p, t).amplitudes) ** 2
        assert np.abs(got - shell_populations(p, t)).max() <= 1e-10

    def test_memory_bounded_by_the_piece(self):
        # 50 000 substeps in one span: a few pieces of maps at a time
        tracemalloc.start()
        try:
            oracle_integrate(SystemParams(), [0.0, 50.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_shares_no_code_with_evolve(self):
        names, codes = set(), [oracle_integrate.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        assert "exp" in names  # the walk reached the nested derivative
        shared = {"evolve", "rotating_amplitudes", "_expm_stack", "evolution_matrices",
                  "_population_sums", "_real_form"}
        assert not names & shared


def shell_populations(p, t, initial=DEFAULT_INITIAL):
    """|C1|^2..|C4|^2 from scipy's expm of the five-level shell Hamiltonian.

    Basis: photon, magnon, phonon, atom 1 excited, atom 2 excited.  The
    diagonal is omega_n - i kappa_n / 2 and the couplings are g_a, g_b and lam
    to each atom, all read straight from the omegas and rates of `p`: no
    detunings, no frame shifts, no factor-2 bookkeeping for the two atoms.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    omegas = np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q, p.omega_q])
    rates = np.array([p.kappa_a, p.kappa_b, p.kappa_m, p.gamma, p.gamma])
    h = np.diag(omegas - 0.5j * rates)
    h[0, 1] = h[1, 0] = p.g_a
    h[1, 2] = h[2, 1] = p.g_b
    h[0, 3] = h[3, 0] = h[0, 4] = h[4, 0] = p.lam
    c0 = np.asarray(initial, dtype=complex)
    psi = np.array([expm(-1j * tt * h) @ np.append(c0, c0[3]) for tt in t])
    np.testing.assert_allclose(psi[:, 3], psi[:, 4], atol=1e-12)  # atoms stay alike
    return np.abs(psi[:, :4]) ** 2


class TestShellHamiltonianOracle:
    """Both integrators against the Hamiltonian the parameters describe.

    Acceptance criterion 1 compares `evolve` with `oracle_integrate`, so a sign
    error both share passes it; this oracle fixes the sign of every detuning.
    """

    CASES = {
        # omega_m < omega_b < omega_a < omega_q: detunings (1, 1, 1)
        "unit_ladder": SystemParams(omega_m=1, omega_b=2, omega_a=3, omega_q=4),
        "mixed_signs": SystemParams.from_detunings(0.3, -0.7, 1.2, g_a=0.8, g_b=1.3),
        "lossy_ladder": SystemParams(omega_m=1, omega_b=2, omega_a=3, omega_q=4,
                                     kappa_a=0.5, kappa_b=0.2, kappa_m=0.1, gamma=0.3),
        "lossy_mixed": SystemParams.from_detunings(
            -1.5, 0.8, -0.4, omega_q=2.0, g_a=1.7, g_b=0.4, lam=0.6,
            kappa_a=0.3, kappa_b=0.1, kappa_m=0.2, gamma=0.4),
    }

    @staticmethod
    def check_both_routes(p, t):
        want = shell_populations(p, t)
        for route in (evolve, oracle_integrate):
            got = np.abs(route(p, t).amplitudes) ** 2
            assert np.abs(got - want).max() <= 1e-10, route.__name__

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_both_routes(self, name):
        self.check_both_routes(self.CASES[name], np.linspace(0.0, 5.0, 11))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_both_routes_from_t0(self, name):
        # a first step from t = 0 to t0 > 0, then steps that repeat (one
        # reused exponential) and change (a fresh one)
        t = np.array([0.7, 1.2, 1.7, 2.2, 2.5, 2.8, 3.1, 4.0])
        self.check_both_routes(self.CASES[name], t)

    def test_random_draws(self, rng):
        # detunings of both signs, half the draws lossy, random initial shell state
        t = np.linspace(0.0, 5.0, 11)
        for k in range(40):
            rates = rng.uniform(0.0, 1.0, 4) if k % 2 else np.zeros(4)
            p = SystemParams.from_detunings(
                *rng.uniform(-2.0, 2.0, 3), omega_q=rng.uniform(0.5, 2.0),
                g_a=rng.uniform(0.0, 2.0), g_b=rng.uniform(0.0, 2.0),
                lam=rng.uniform(0.0, 2.0), kappa_a=rates[0], kappa_b=rates[1],
                kappa_m=rates[2], gamma=rates[3])
            c0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            c0 /= math.sqrt(physical_norm(c0))
            want = shell_populations(p, t, c0)
            routes = (evolve, oracle_integrate) if k < 4 else (evolve,)
            for route in routes:
                got = np.abs(route(p, t, initial=c0).amplitudes) ** 2
                assert np.abs(got - want).max() <= 1e-10, (k, route.__name__)


class TestLindbladOracle:
    """`trace_repaired` is the Lindblad answer; `paper` is not, once anything decays."""

    T = np.linspace(0.0, 5.0, 11)

    @staticmethod
    def draw(rng, rates):
        return SystemParams.from_detunings(
            *rng.uniform(-2.0, 2.0, 3), omega_q=rng.uniform(0.5, 2.0),
            g_a=rng.uniform(0.0, 2.0), g_b=rng.uniform(0.0, 2.0), lam=rng.uniform(0.0, 2.0),
            kappa_a=rates[0], kappa_b=rates[1], kappa_m=rates[2], gamma=rates[3])

    def test_trace_repaired_on_lossy_draws(self, rng):
        for k in range(20):
            p = self.draw(rng, rng.uniform(0.0, 1.0, 4))
            c0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            c0 /= math.sqrt(physical_norm(c0))
            want = lindblad_metrics(p, self.T, c0)
            got = metric_columns(evolve(p, self.T, initial=c0).amplitudes, p.omega_q,
                                 "trace_repaired")
            assert np.abs(got - want).max() <= 1e-12, k

    def test_both_modes_without_decay(self, rng):
        for k in range(10):
            p = self.draw(rng, np.zeros(4))
            want = lindblad_metrics(p, self.T)
            amplitudes = evolve(p, self.T).amplitudes
            for mode in ("paper", "trace_repaired"):
                got = metric_columns(amplitudes, p.omega_q, mode)
                assert np.abs(got - want).max() <= 1e-12, (k, mode)
