"""Parameter container, detuning arithmetic, frame frequencies, evolution matrix and its real generator."""

import dataclasses

import numpy as np
import pytest

from magbattery import SystemParams
from magbattery.model import _FIELD_NAMES, _detunings, _field_array, _frame_frequencies, real_generators

from conftest import evolution_matrix, frame_frequencies


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams()
        assert p.omega_a == p.omega_b == p.omega_m == p.omega_q == 1.0
        assert p.g_a == p.g_b == p.lam == 1.0
        assert p.kappa_a == p.kappa_b == p.kappa_m == p.gamma == 0.0

    def test_frozen(self):
        p = SystemParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.g_a = 2.0

    @pytest.mark.parametrize("field", ["g_a", "g_b", "lam"])
    def test_negative_coupling_rejected(self, field):
        with pytest.raises(ValueError):
            SystemParams(**{field: -0.5})

    @pytest.mark.parametrize("field", ["kappa_a", "kappa_b", "kappa_m", "gamma"])
    def test_negative_decay_rejected(self, field):
        with pytest.raises(ValueError):
            SystemParams(**{field: -1e-3})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^omega_a must be finite, got {bad!r}$"):
            SystemParams(omega_a=bad)

    def test_numpy_scalars_stored_as_floats(self):
        p = SystemParams(omega_a=np.float64(0.5), g_a=np.int64(2))
        assert type(p.omega_a) is float and type(p.g_a) is float
        assert (p.omega_a, p.g_a) == (0.5, 2.0)

    def test_non_number_rejected(self):
        with pytest.raises(TypeError):
            SystemParams(g_a="1")

    def test_from_detunings_round_trip(self, rng):
        for _ in range(100):
            d = rng.uniform(-3, 3, 3)
            got = _detunings(SystemParams.from_detunings(*d))
            np.testing.assert_allclose([got["delta_1"], got["delta_2"], got["delta_3"]], d, rtol=0, atol=1e-12)

    def test_from_detunings_keeps_omega_q_and_rates(self):
        p = SystemParams.from_detunings(1.0, -2.0, 0.5, omega_q=3.0, gamma=0.1)
        assert p.omega_q == 3.0
        assert p.gamma == 0.1


class TestDeriveDetunings:
    def test_resonant(self):
        p = SystemParams(omega_a=1, omega_b=1, omega_m=1, omega_q=1)
        assert _detunings(p) == {"delta_1": 0.0, "delta_2": 0.0, "delta_3": 0.0}

    def test_unit_ladder(self):
        p = SystemParams(omega_m=1, omega_b=2, omega_a=3, omega_q=4)
        assert _detunings(p) == {"delta_1": 1.0, "delta_2": 1.0, "delta_3": 1.0}

    def test_sign(self):
        p = SystemParams(omega_m=2, omega_b=1, omega_a=1, omega_q=1)
        assert _detunings(p) == {"delta_1": -1.0, "delta_2": 0.0, "delta_3": 0.0}


class TestDeriveFrameShifts:
    # The frame shifts are `frame_frequencies`: every amplitude rotates at
    # omega_q, so f = (omega_a, omega_b, omega_m, omega_q) - omega_q, i.e.
    # f_a = -d3, f_b = f_a - d2, f_m = f_b - d1, f_q = 0 for parameters built
    # from detunings.  Their sign is fixed independently of the frame algebra
    # by test_propagator.py::TestShellHamiltonianOracle, which checks the
    # populations against expm of the Hamiltonian built from the omegas.

    def test_resonant(self):
        for omega_q in (0.0, 1.0, -2.5):
            p = SystemParams.from_detunings(0, 0, 0, omega_q=omega_q)
            np.testing.assert_array_equal(frame_frequencies(p), [0.0, 0.0, 0.0, 0.0])

    def test_unit_detunings(self):
        f = frame_frequencies(SystemParams.from_detunings(1, 1, 1))
        np.testing.assert_array_equal(f, [-1.0, -2.0, -3.0, 0.0])

    def test_middle_detuning_only(self):
        f = frame_frequencies(SystemParams.from_detunings(0, 2, 0))
        np.testing.assert_array_equal(f, [0.0, -2.0, -2.0, 0.0])

    def test_phase_matching_identities(self, rng):
        # f_b = f_a - d2, f_m = f_b - d1, f_q = f_a + d3 = 0 for 1000 random
        # draws (sign checked by TestShellHamiltonianOracle)
        for _ in range(1000):
            d1, d2, d3 = rng.uniform(-5, 5, 3)
            p = SystemParams.from_detunings(d1, d2, d3, omega_q=rng.uniform(-5, 5))
            f_a, f_b, f_m, f_q = frame_frequencies(p)
            assert f_q == 0.0
            assert abs(f_b - (f_a - d2)) < 1e-12
            assert abs(f_m - (f_b - d1)) < 1e-12
            assert abs(f_q - (f_a + d3)) < 1e-12


def random_point(rng):
    """Detunings of both signs, omega_q, couplings and rates drawn uniformly."""
    return SystemParams.from_detunings(*rng.uniform(-3, 3, 3), omega_q=rng.uniform(0, 3),
                                       g_a=rng.uniform(0, 2), g_b=rng.uniform(0, 2),
                                       lam=rng.uniform(0, 2), kappa_a=rng.uniform(0, 2),
                                       kappa_b=rng.uniform(0, 2), kappa_m=rng.uniform(0, 2),
                                       gamma=rng.uniform(0, 2))


def written_out(p):
    """A at one point, the formulas written out."""
    f = np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q]) - p.omega_q
    a = np.diag(f - 0.5j * np.array([p.kappa_a, p.kappa_b, p.kappa_m, p.gamma]))
    a[0, 1] = a[1, 0] = p.g_a
    a[1, 2] = a[2, 1] = p.g_b
    a[0, 3], a[3, 0] = 2.0 * p.lam, p.lam
    return a


class TestEvolutionMatrix:
    """A, read back from the kernel's real generator W (`conftest.evolution_matrix`), and W itself."""

    def test_all_zero(self):
        p = SystemParams(omega_a=0, omega_b=0, omega_m=0, omega_q=0,
                         g_a=0, g_b=0, lam=0)
        assert np.all(evolution_matrix(p) == 0)

    def test_resonant_coupling_pattern(self):
        p = SystemParams()  # unit couplings, all omegas equal, no decay
        a = evolution_matrix(p)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 1] = expect[1, 0] = 1.0
        expect[1, 2] = expect[2, 1] = 1.0
        expect[0, 3] = 2.0
        expect[3, 0] = 1.0
        np.testing.assert_allclose(a, expect, atol=0)

    def test_diagonal_is_frame_frequencies(self):
        # omegas 3, 2, 1 for photon, magnon, phonon and 4 for the atoms
        p = SystemParams(omega_m=1, omega_b=2, omega_a=3, omega_q=4)
        np.testing.assert_array_equal(frame_frequencies(p), [-1.0, -2.0, -3.0, 0.0])
        np.testing.assert_array_equal(np.diag(evolution_matrix(p)), frame_frequencies(p))

    def test_decay_enters_diagonal(self):
        p = SystemParams.from_detunings(1, 1, 1, g_a=0, g_b=0, lam=0, kappa_a=2.0)
        a = evolution_matrix(p)
        assert a[0, 0] == pytest.approx(-1.0 - 1.0j, abs=1e-15)

    def test_asymmetric_battery_coupling(self, rng):
        for _ in range(50):
            lam = rng.uniform(0, 3)
            p = SystemParams(lam=lam)
            a = evolution_matrix(p)
            assert a[0, 3] == pytest.approx(2 * a[3, 0], abs=1e-15)
            assert a[3, 0] == pytest.approx(lam, abs=1e-15)

    def test_offdiagonal_part_real(self, rng, draw_params):
        for _ in range(200):
            a = evolution_matrix(draw_params(rng))
            off = a - np.diag(np.diag(a))
            assert np.all(off.imag == 0)

    def test_stacked_build_equals_each_point(self, rng):
        # detunings of both signs and a different omega_q per point: a row
        # must take only its own point's fields
        points = [random_point(rng) for _ in range(7)]
        assert _FIELD_NAMES == tuple(field.name for field in dataclasses.fields(SystemParams))
        w, f = real_generators(_field_array(points)), _frame_frequencies(_field_array(points))
        assert w.shape == (7, 8, 8) and f.shape == (7, 4)
        for p, w_p, f_p in zip(points, w, f):
            np.testing.assert_array_equal(w_p, real_generators(_field_array([p]))[0])
            np.testing.assert_array_equal(f_p, frame_frequencies(p))
            np.testing.assert_array_equal(f_p, np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q]) - p.omega_q)
            np.testing.assert_array_equal(evolution_matrix(p), written_out(p))

    def test_real_generator_is_minus_i_a_on_rows(self, rng):
        # x @ W is the float view of z @ (-i A).T: a conjugated W (the signs of
        # f swapped) keeps every |Z| and so every CLI column, so only the
        # amplitudes see it
        points = [random_point(rng) for _ in range(50)]
        for p, w in zip(points, real_generators(_field_array(points))):
            z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
            want = (z @ (-1j * written_out(p)).T).view(float)
            np.testing.assert_allclose(z.view(float) @ w, want, rtol=0, atol=1e-13)

    def test_trace(self, rng, draw_params):
        for _ in range(200):
            p = draw_params(rng)
            a = evolution_matrix(p)
            rates = p.kappa_a + p.kappa_b + p.kappa_m + p.gamma
            want = np.sum(frame_frequencies(p)) - 0.5j * rates
            assert abs(np.trace(a) - want) < 1e-10
