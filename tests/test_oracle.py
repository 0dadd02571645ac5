"""All-order resolvent solver against the truncated closed forms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from abring import RingParams, energy_resolved_transmission, exact_amplitude, truncation_residual
from abring.oracle import ResolventModel, second_order_amplitude
from abring.ring import amplitude_t0, amplitude_t1
from test_ring import random_valid_ring

# Frozen with this model's wide-band lead propagators at the reference point.
RESIDUAL_REF = 0.11163486573305498


class TestCalibration:
    def test_dot_decoupled_channel_matches_direct_amplitude(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = RingParams.from_x(rng.uniform(0.05, 3.0), 0.0, 1.0)
            phi = rng.uniform(-np.pi, np.pi)
            worst = max(worst, abs(exact_amplitude(p, phi) - amplitude_t0(p, phi)))
        assert worst < 1e-12

    def test_normalization_constant(self, ref_ring):
        model = ResolventModel(ref_ring, 0.3)
        assert_allclose(model.norm_const, 2j / (np.pi * ref_ring.rho), rtol=1e-15)

    def test_inverse_propagator_entries(self, ref_ring):
        # g^{-1} - H at E = 0: lead entries 1/g_lead, dot entry -eps_d,
        # and a Hermitian hop part off the diagonal.
        a = ResolventModel(ref_ring, 1.234)._inverse_propagator(0.0)
        hops = a - np.diag(np.diag(a))
        assert_allclose(hops, hops.conj().T, atol=1e-15)
        assert_allclose(np.diag(a)[:2], 1.0 / (-1j * np.pi * ref_ring.rho), rtol=1e-15)
        assert a[2, 2] == -ref_ring.eps_d


class TestSecondOrder:
    def test_matches_single_visit_amplitude(self, rng):
        worst = 0.0
        for _ in range(100):
            p = random_valid_ring(rng)
            phi = rng.uniform(-np.pi, np.pi)
            target = complex(amplitude_t1(p, phi))
            worst = max(worst, abs(second_order_amplitude(p, phi) - target) / abs(target))
        assert worst < 1e-8

    def test_two_point_extraction_consistent(self, ref_ring):
        # Estimate the quadratic coefficient from full-solver evaluations at
        # two small dot couplings; Richardson removes the quartic term.
        v_probe = 0.01
        for phi in (0.0, 1.0, 2.5):
            t0 = complex(amplitude_t0(ref_ring, phi))
            small = RingParams.from_x(0.4, v_probe, 1.25)
            halved = RingParams.from_x(0.4, v_probe / 2.0, 1.25)
            e_full = exact_amplitude(small, phi) - t0
            e_half = exact_amplitude(halved, phi) - t0
            estimate = (16.0 * e_half - e_full) / 3.0
            target = complex(amplitude_t1(small, phi))
            assert abs(estimate - target) / abs(target) < 1e-6


class TestTruncation:
    def test_zero_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25)
        assert truncation_residual(p, 0.9) < 1e-15

    def test_reference_residual(self, ref_ring):
        assert_allclose(truncation_residual(ref_ring, 0.0), RESIDUAL_REF, rtol=1e-9)

    def test_quadratic_scaling_in_dot_level(self, ref_ring):
        r1 = truncation_residual(ref_ring, 0.0)
        r2 = truncation_residual(RingParams.from_x(0.4, 0.75, 2.5), 0.0)
        r4 = truncation_residual(RingParams.from_x(0.4, 0.75, 5.0), 0.0)
        assert 3.4 <= r1 / r2 <= 4.6
        assert 12.0 <= r1 / r4 <= 20.0

    def test_residual_bounded_by_squared_expansion_parameter(self, ref_ring):
        scale = (ref_ring.gamma / ref_ring.eps_d) ** 2
        ratios = [
            truncation_residual(ref_ring, phi) / scale
            for phi in np.arange(720) * (2.0 * np.pi / 720)
        ]
        assert max(ratios) < 10.0


class TestExactAmplitude:
    def test_unitarity_bound(self, rng):
        worst = 0.0
        for _ in range(2000):
            x = rng.uniform(0.05, 3.0)
            v = rng.uniform(0.0, 1.5)
            eps_d = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.3, 5.0)
            p = RingParams(v_mag=v, eps_d=eps_d, rho=x / np.pi, validate_off_resonance=False)
            phi = rng.uniform(-np.pi, np.pi)
            energy = rng.uniform(-0.5, 0.5)
            worst = max(worst, abs(exact_amplitude(p, phi, energy)) ** 2)
        assert worst <= 1.0 + 1e-12

    def test_singular_energy_rejected(self):
        p = RingParams(v_mag=0.0, eps_d=1.25)
        with pytest.raises(ValueError):
            exact_amplitude(p, 0.0, energy=1.25)

    def test_vectorized_energies_match_scalars(self, ref_ring):
        energies = np.linspace(-0.5, 0.5, 9)
        batch = ResolventModel(ref_ring, 0.8).amplitude(energies)
        for e, b in zip(energies, batch):
            assert_allclose(b, exact_amplitude(ref_ring, 0.8, float(e)), rtol=1e-14)

    @pytest.mark.parametrize("shape", [(256,), (4, 3)])
    def test_energy_stack_is_bit_identical_to_scalar_solves(self, rng, shape):
        for _ in range(20):
            p, phi = random_valid_ring(rng), rng.uniform(-np.pi, np.pi)
            energies = rng.uniform(-0.5, 0.5, shape)
            stacked = exact_amplitude(p, phi, energies)
            scalars = np.array([exact_amplitude(p, phi, float(e)) for e in energies.flat])
            assert stacked.shape == shape
            assert np.array_equal(stacked.ravel(), scalars)

    @pytest.mark.parametrize("energy", [0.1, np.linspace(-0.3, 0.3, 5), np.zeros((2, 3))])
    def test_source_has_the_ndim_of_its_matrix_stack(self, monkeypatch, ref_ring, energy):
        # numpy < 2 solves a source with one dimension fewer than the stack
        # as a stack of vectors; equal ndim takes the matrix path everywhere.
        solve, seen = np.linalg.solve, []

        def checked_solve(a, b):
            seen.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        ResolventModel(ref_ring, 0.8).amplitude(energy)
        (a_shape, b_shape), = seen
        assert a_shape == np.shape(energy) + (3, 3)
        assert b_shape == np.shape(energy) + (3, 1)

    def test_model_block_is_never_written(self, rng):
        # One model solved at two energy stacks in turn equals fresh models.
        for _ in range(20):
            p, phi = random_valid_ring(rng), rng.uniform(-np.pi, np.pi)
            first, second = rng.uniform(-0.5, 0.5, 64), rng.uniform(-0.5, 0.5, 7)
            model = ResolventModel(p, phi)
            assert np.array_equal(model.amplitude(first), ResolventModel(p, phi).amplitude(first))
            assert np.array_equal(model.amplitude(second), ResolventModel(p, phi).amplitude(second))
            assert model.amplitude(0.0) == ResolventModel(p, phi).amplitude(0.0)
        with pytest.raises(ValueError):
            model._block[2, 2] = 0.0

    def test_model_compares_by_ring_and_phase(self, ref_ring):
        assert ResolventModel(ref_ring, 0.8) == ResolventModel(ref_ring, 0.8)
        assert repr(ResolventModel(ref_ring, 0.8)).endswith("phi=0.8)")


class TestEnergyResolved:
    def test_consistent_at_fermi_energy(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.8)
        assert_allclose(tfun(0.0), abs(exact_amplitude(ref_ring, 0.8, 0.0)) ** 2, rtol=1e-15)

    def test_flat_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25)
        tfun = energy_resolved_transmission(p, 0.4)
        values = tfun(np.linspace(-0.5, 0.5, 11))
        assert_allclose(values, values[0], rtol=1e-14)

    def test_bounded_over_window(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.8)
        values = tfun(np.linspace(-0.5, 0.5, 101))
        assert np.all(np.isfinite(values))
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all(values >= 0.0)
