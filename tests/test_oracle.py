"""All-order resolvent solver against the truncated closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from abring import (
    RingParams,
    ValidityError,
    energy_resolved_transmission,
    exact_amplitude,
    truncation_residual,
)
from abring.oracle import (
    ResolventModel,
    _inverse_propagator,
    second_order_amplitude,
)
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

    def test_normalization_constant(self, ref_ring, rng):
        # The builder's N is 2i / (pi rho) bit for bit: a complex for one ring,
        # an array of each ring's own for a stack.
        n, _ = _inverse_propagator(ref_ring, 1.234)
        assert type(n) is complex
        assert n == 2j / (np.pi * ref_ring.rho)
        rings, phis = _rings_and_phases(rng, 50)
        n, _ = _inverse_propagator(rings, phis)
        rho = np.array([p.rho for p in rings])
        assert n.tobytes() == (2j / (np.pi * rho)).tobytes()

    def test_inverse_propagator_entries(self, ref_ring):
        # g^{-1} - H at E = 0: lead entries 1/g_lead, dot entry -eps_d,
        # and a Hermitian hop part off the diagonal.
        _, a = _inverse_propagator(ref_ring, 1.234)
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

    def test_shifted_dot_level_carries_the_energy(self, rng):
        # g^-1 - H of the ring with dot level eps_d - E is the ring's own
        # at energy E, bit for bit, so the order-V^2 amplitude needs no
        # energy argument.
        for _ in range(100):
            p, phi = random_valid_ring(rng), rng.uniform(-np.pi, np.pi)
            energy = rng.uniform(-0.2, 0.2)
            _, a = _inverse_propagator(p, phi)
            a[2, 2] = energy - p.eps_d
            shifted = replace(p, eps_d=p.eps_d - energy, validate_off_resonance=False)
            assert _inverse_propagator(shifted, phi)[1].tobytes() == a.tobytes()
        # At E = eps_d, the pole, the shifted level is 0, which RingParams names.
        with pytest.raises(ValidityError, match=r"^eps_d must be finite and nonzero"):
            replace(p, eps_d=p.eps_d - p.eps_d, validate_off_resonance=False)

    # A ring accepted with the guard off whose product chain overflows in
    # the unread dot-dot entry: its amplitude, about 3e203, is finite and
    # agrees with a 60-digit evaluation of the same chain to one ulp.
    WIDE = RingParams(
        v_mag=2.7484864792745055e74,
        eps_d=5.051769587375355e-97,
        rho=3.155829034156498e41,
        validate_off_resonance=False,
    )
    WIDE_PHI = -3.134054819303767
    WIDE_AMPLITUDE = complex(-4.5474764803053281e201, -3.0162058438250991e203)
    # Gamma/eps_d = 1.125e308 at x = 1: |t1| = 4.5e308 at phi = -pi/2.
    HOT = RingParams(v_mag=1.5e4, eps_d=1e-300, rho=1 / np.pi, validate_off_resonance=False)
    HOT_MESSAGE = (
        r"^the order-V\^2 amplitude leaves the float range for RingParams\(v_mag=15000\.0, "
        r"eps_d=1e-300, rho=0\.3183098861837907, validate_off_resonance=False\) "
        r"at phi = -1\.5707963267948966$"
    )

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_an_unread_entry_is_silent(self, ref_ring):
        value = second_order_amplitude(self.WIDE, self.WIDE_PHI)
        assert value == pytest.approx(self.WIDE_AMPLITUDE, rel=1e-15)
        stack = second_order_amplitude(
            [ref_ring, self.WIDE, ref_ring], np.array([0.1, self.WIDE_PHI, 0.2])
        )
        assert stack[1].tobytes() == np.complex128(value).tobytes()
        assert stack[0].tobytes() == np.complex128(second_order_amplitude(ref_ring, 0.1)).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_names_its_ring_and_phase(self, ref_ring):
        with pytest.raises(ValidityError, match=self.HOT_MESSAGE):
            second_order_amplitude(self.HOT, -np.pi / 2)
        # In a stack, the first ring that overflows is named (phi = -3 overflows too).
        rings = [ref_ring, self.WIDE, self.HOT, self.HOT]
        with pytest.raises(ValidityError, match=self.HOT_MESSAGE):
            second_order_amplitude(rings, np.array([0.1, self.WIDE_PHI, -np.pi / 2, -3.0]))
        with pytest.raises(ValidityError, match=r"phi = -3\.0$"):
            second_order_amplitude(self.HOT, -3.0)


def _rings_and_phases(rng, n):
    """Drawn rings, dot-decoupled ones among them, and a phase each."""
    rings = [
        random_valid_ring(rng) if k % 3 else RingParams.from_x(rng.uniform(0.05, 3.0), 0.0, 1.0)
        for k in range(n)
    ]
    return rings, rng.uniform(-np.pi, np.pi, n)


class TestStacks:
    """A sequence of rings is solved as one stack, each ring with its own bits."""

    def test_builder_equals_the_entrywise_matrix(self, rng):
        # g^-1 - H written entry by entry, as a negated hop matrix plus the
        # leads' 1/g_lead and the dot entry; tobytes() also tells signed zeros apart.
        rings, phis = _rings_and_phases(rng, 300)
        for p, phi in zip(rings, phis.tolist()):
            w, v = np.exp(1j * phi), p.v_mag
            a = -np.array([[0.0, w, v], [np.conj(w), 0.0, v], [v, v, 0.0]], dtype=complex)
            g_lead = -1j * (np.pi * p.rho)
            a[0, 0] += 1.0 / g_lead
            a[1, 1] += 1.0 / g_lead
            a[2, 2] = -p.eps_d
            assert _inverse_propagator(p, phi)[1].tobytes() == a.tobytes()
        n, stack = _inverse_propagator(rings, phis)
        singles = [_inverse_propagator(p, phi) for p, phi in zip(rings, phis.tolist())]
        assert stack.tobytes() == np.array([a for _, a in singles]).tobytes()
        assert n.tobytes() == np.array([n for n, _ in singles]).tobytes()

    def test_solve_takes_b_of_its_stacks_ndim(self, ref_ring, monkeypatch):
        # numpy < 2 takes b as a vector only if b.ndim == a.ndim - 1, so a
        # 1-d b against a stack raises there; a b of a's ndim is a matrix everywhere.
        solve, seen = np.linalg.solve, []

        def checked_solve(a, b):
            seen.append((a.ndim, np.ndim(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        exact_amplitude(ref_ring, 0.1)
        exact_amplitude([ref_ring, RingParams.from_x(2.0, 0.5, -1.5)], [0.1, 0.2])
        ResolventModel(ref_ring, 0.1)
        assert seen == [(2, 1), (3, 3), (2, 1)]

    def test_stacked_amplitudes_equal_each_rings_own(self, rng):
        rings, phis = _rings_and_phases(rng, 300)
        exact = exact_amplitude(rings, phis)
        second = second_order_amplitude(rings, phis)
        assert exact.shape == second.shape == (300,)
        for k, (p, phi) in enumerate(zip(rings, phis.tolist())):
            assert exact[k].tobytes() == np.complex128(exact_amplitude(p, phi)).tobytes()
            assert second[k].tobytes() == np.complex128(second_order_amplitude(p, phi)).tobytes()


class TestTruncation:
    def test_zero_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
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
            worst = max(worst, abs(ResolventModel(p, phi).amplitude(energy)) ** 2)
        assert worst <= 1.0 + 1e-12

    # One check, in the builder of g^-1 - H, for every route.
    ROUTES = (
        exact_amplitude,
        second_order_amplitude,
        ResolventModel,
        truncation_residual,
        energy_resolved_transmission,
    )

    @pytest.mark.parametrize(
        "phi", [np.nan, np.inf, np.array([0.1, 0.2]), [0.1], np.array([[0.1]]), 0.1j, "0.1", True]
    )
    def test_phase_other_than_a_finite_real_scalar_rejected(self, ref_ring, phi):
        # A value that is no phase gets the shared phase message, phases of another shape the
        # shape rule.
        if np.ndim(phi):
            match = r"^a ring needs a phase of shape \(\), got shape "
        else:
            match = r"^phase must be a finite real number or an array of them, got "
        for route in self.ROUTES:
            with pytest.raises(ValidityError, match=match):
                route(ref_ring, phi)

    @pytest.mark.parametrize(
        "phis, match",
        [
            (np.array([0.1, np.nan, np.inf]), r"^phase must be a finite real number or an array of them, got "),
            ([0.1, 0.2, -np.inf], r"^phase must be a finite real number or an array of them, got "),
            (np.array([0.1, 0.2]), r"^3 rings need phases of shape \(3,\), got shape \(2,\)$"),
            (np.zeros((3, 1)), r"^3 rings need phases of shape \(3,\), got shape \(3, 1\)$"),
            (np.zeros((1, 3)), r"^3 rings need phases of shape \(3,\), got shape \(1, 3\)$"),
            (0.1, r"^3 rings need phases of shape \(3,\), got shape \(\)$"),
            ([0.1, 0.2, 0.3, 0.4], r"^3 rings need phases of shape \(3,\), got shape \(4,\)$"),
            (np.zeros(0), r"^3 rings need phases of shape \(3,\), got shape \(0,\)$"),
            ([[0.1], [0.2], [0.3]], r"^3 rings need phases of shape \(3,\), got shape \(3, 1\)$"),
        ],
    )
    def test_stack_needs_one_finite_real_phase_per_ring(self, ref_ring, phis, match):
        rings = [ref_ring, RingParams.from_x(2.0, 0.5, -1.5), ref_ring]
        for route in (exact_amplitude, second_order_amplitude):
            with pytest.raises(ValidityError, match=match):
                route(rings, phis)

    @pytest.mark.parametrize(
        "phis",
        [
            [True, 0.5, 0.2],
            (0.1, np.True_, 0.3),
            [1, True, 2],
            np.full(3, 0.1j),
            np.ones(3, dtype=bool),
            ["0.1", "0.2", "0.3"],
        ],
    )
    def test_stack_phase_entries_checked_before_numpy_coerces_them(self, ref_ring, phis):
        # numpy would read each list as an int or float array, True as 1.
        rings = [ref_ring, RingParams.from_x(2.0, 0.5, -1.5), ref_ring]
        match = r"^phase must be a finite real number or an array of them, got "
        for route in (exact_amplitude, second_order_amplitude):
            with pytest.raises(ValidityError, match=match):
                route(rings, phis)

    @pytest.mark.parametrize("rings", [None, 3, "ring", np.array([0.1])])
    def test_rings_that_are_neither_a_ring_nor_a_sequence_rejected(self, rings):
        match = r"^rings must be a RingParams or a list or tuple of them, got "
        for route in (exact_amplitude, second_order_amplitude):
            with pytest.raises(ValidityError, match=match):
                route(rings, [0.1])

    @pytest.mark.parametrize("entry", [None, "ring", 0.4])
    def test_stack_entry_that_is_not_a_ring_rejected(self, ref_ring, entry):
        for route in (exact_amplitude, second_order_amplitude):
            with pytest.raises(ValidityError, match=r"^ring 1 is not a RingParams, got "):
                route([ref_ring, entry], np.array([0.1, 0.2]))

    @pytest.mark.parametrize("params", [None, "ring", lambda r: [r, r], lambda r: (r,)])
    def test_model_takes_one_ring(self, ref_ring, params):
        params = params(ref_ring) if callable(params) else params
        with pytest.raises(ValidityError, match=r"^a ResolventModel takes one RingParams, got "):
            ResolventModel(params, np.array([0.1, 0.2]))

    def test_stack_takes_any_real_1d_phases(self, ref_ring):
        rings = [ref_ring, RingParams.from_x(2.0, 0.5, -1.5)]
        expected = exact_amplitude(rings, np.array([0.0, 1.0]))
        for phis in ([0.0, 1.0], (0, 1), np.array([0, 1], dtype=np.int32)):
            assert np.array_equal(exact_amplitude(rings, phis), expected)
        assert exact_amplitude(rings[1:], np.array([1.0]))[0] == exact_amplitude(rings[1], 1.0)
        assert exact_amplitude([], np.array([])).shape == (0,)

    def test_real_scalar_phases_keep_their_bits(self, ref_ring):
        a = exact_amplitude(ref_ring, 0.3)
        for phi in (np.array(0.3), np.float64(0.3)):
            assert np.complex128(exact_amplitude(ref_ring, phi)).tobytes() == np.complex128(a).tobytes()
        assert exact_amplitude(ref_ring, 2) == exact_amplitude(ref_ring, 2.0)

    @pytest.mark.parametrize("energy", [True, "0.1", None, 0.1j, [0.1, True], np.array(["0.1"])])
    def test_energy_that_is_not_real_rejected(self, ref_ring, energy):
        match = r"^energy must be a real number or an array of them, got "
        with pytest.raises(ValidityError, match=match):
            ResolventModel(ref_ring, 0.1).amplitude(energy)
        with pytest.raises(ValidityError, match=match):
            energy_resolved_transmission(ref_ring, 0.1)(energy)

    @pytest.mark.filterwarnings("error")
    def test_singular_energy_rejected(self):
        # S(E) = 0 only without dot coupling at E = eps_d; no RuntimeWarning
        # comes first.
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        with pytest.raises(ValueError, match=r"^resolvent singular at energy 1\.25$"):
            ResolventModel(p, 0.0).amplitude(1.25)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("energy", [[0.5, 1.25, 0.7, 1.25], np.full((2, 3), 1.25)])
    def test_singular_energy_in_a_stack_rejected(self, energy):
        # A stack names its first singular energy alone.
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        with pytest.raises(ValueError, match=r"^resolvent singular at energy 1\.25$"):
            ResolventModel(p, 0.0).amplitude(energy)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "energy, named",
        [
            (np.nan, "nan"),
            (np.inf, "inf"),
            (-np.inf, "-inf"),
            ([0.1, 0.2, np.nan, np.inf], "nan"),
            ([[0.1, -np.inf], [np.nan, 0.0]], "-inf"),
        ],
    )
    def test_non_finite_energy_rejected(self, ref_ring, energy, named):
        with pytest.raises(ValidityError, match=f"^energy must be finite, got {named}$"):
            ResolventModel(ref_ring, 0.3).amplitude(energy)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("energy", [1.25, [0.5, 1.25, 1.25]])
    def test_overflowing_energy_term_rejected(self, energy):
        # At |V| = 1e-160 Sigma is subnormal (about 7e-321), so E / S(E)
        # overflows at E = eps_d; no RuntimeWarning comes first.
        p = RingParams(v_mag=1e-160, eps_d=1.25, rho=0.4 / np.pi, validate_off_resonance=False)
        with pytest.raises(ValidityError, match=r"^E / S\(E\) overflows at energy 1\.25$"):
            ResolventModel(p, 0.3).amplitude(energy)

    @pytest.mark.filterwarnings("error")
    def test_amplitude_at_a_small_sigma_keeps_its_bits(self):
        # At |V| = 1e-150, E / S(E) is large but finite.
        p = RingParams(v_mag=1e-150, eps_d=1.25, rho=0.4 / np.pi, validate_off_resonance=False)
        expected = complex(-0.8725799057014842, -0.3334429694377634)
        assert ResolventModel(p, 0.3).amplitude(1.25) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("energy", [1.7e308, [0.1, 1.7e308, 1.7e308]])
    def test_overflowing_detuning_rejected(self, energy):
        # E - eps_d is inf though E and eps_d are finite, on both routes.
        p = RingParams(v_mag=0.75, eps_d=-1e308, rho=0.4 / np.pi, validate_off_resonance=False)
        match = r"^the detuning E - eps_d overflows at energy 1\.7e\+308$"
        with pytest.raises(ValidityError, match=match):
            ResolventModel(p, 0.3).amplitude(energy)
        # The order-V^2 amplitude takes the energy as the dot level eps_d - E.
        with pytest.raises(ValidityError, match=r"^eps_d must be finite"):
            replace(p, eps_d=p.eps_d - 1.7e308)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_detuning_rejected_at_a_numpy_dot_level(self):
        p = RingParams(
            v_mag=0.75, eps_d=np.float64(-1e308), rho=0.4 / np.pi, validate_off_resonance=False
        )
        match = r"^the detuning E - eps_d overflows at energy 1\.7e\+308$"
        with pytest.raises(ValidityError, match=match):
            ResolventModel(p, 0.3).amplitude(1.7e308)

    def test_vectorized_energies_match_scalars(self, ref_ring):
        energies = np.linspace(-0.5, 0.5, 9)
        batch = ResolventModel(ref_ring, 0.8).amplitude(energies)
        for e, b in zip(energies, batch):
            assert_allclose(b, ResolventModel(ref_ring, 0.8).amplitude(float(e)), rtol=1e-14)

    @pytest.mark.parametrize("shape", [(256,), (4, 3)])
    def test_energy_stack_is_bit_identical_to_scalar_solves(self, rng, shape):
        for _ in range(20):
            p, phi = random_valid_ring(rng), rng.uniform(-np.pi, np.pi)
            energies = rng.uniform(-0.5, 0.5, shape)
            stacked = ResolventModel(p, phi).amplitude(energies)
            scalars = [ResolventModel(p, phi).amplitude(float(e)) for e in energies.flat]
            assert stacked.shape == shape
            assert np.array_equal(stacked.ravel(), scalars)

    @pytest.mark.parametrize("energy", [0.1, np.linspace(-0.3, 0.3, 5), np.zeros((2, 3))])
    def test_one_solve_per_model(self, monkeypatch, ref_ring, energy):
        # Every energy goes through the Schur complement, so a model makes
        # one LAPACK call, on one matrix and one vector, however many
        # stacks follow.
        solve, seen = np.linalg.solve, []

        def checked_solve(a, b):
            seen.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        model = ResolventModel(ref_ring, 0.8)
        for stack in (energy, 0.0, np.ones(256), energy):
            model.amplitude(stack)
        assert seen == [((3, 3), (3,))]

    def test_model_block_is_never_written(self, rng):
        # One model solved at two energy stacks in turn equals fresh models,
        # and each g^-1 - H the builder hands out is a fresh array.
        for _ in range(20):
            p, phi = random_valid_ring(rng), rng.uniform(-np.pi, np.pi)
            first, second = rng.uniform(-0.5, 0.5, 64), rng.uniform(-0.5, 0.5, 7)
            model = ResolventModel(p, phi)
            assert np.array_equal(model.amplitude(first), ResolventModel(p, phi).amplitude(first))
            assert np.array_equal(model.amplitude(second), ResolventModel(p, phi).amplitude(second))
            assert model.amplitude(0.0) == ResolventModel(p, phi).amplitude(0.0)
        _, a = _inverse_propagator(p, phi)
        a[2, 2] = 0.0
        assert _inverse_propagator(p, phi)[1][2, 2] == -p.eps_d

    def test_model_compares_by_ring_and_phase(self, ref_ring):
        assert ResolventModel(ref_ring, 0.8) == ResolventModel(ref_ring, 0.8)
        assert repr(ResolventModel(ref_ring, 0.8)).endswith("phi=0.8)")


@pytest.mark.filterwarnings("error")
class TestSchurComplement:
    """The energy route against one LAPACK solve per energy."""

    SOURCE = np.array([[1.0], [0.0], [0.0]], dtype=complex)

    def per_energy(self, model, energies):
        # The dot entry of g^-1 - H is E - eps_d; a shifted dot level cannot
        # reach E = eps_d, so the reference sets the entry itself.
        out = []
        for e in energies:
            n, a = _inverse_propagator(model.params, model.phi)
            a[2, 2] = e - model.params.eps_d
            out.append(n * np.linalg.solve(a, self.SOURCE)[1, 0])
        return np.array(out)

    @staticmethod
    def weakly_coupled_ring(rng):
        """Ring with |V| log-uniform in [1e-5, 1], off-resonance guard waived."""
        eps_d = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.3, 5.0)
        v, rho = 10.0 ** rng.uniform(-5.0, 0.0), rng.uniform(0.05, 3.0) / np.pi
        return RingParams(v_mag=v, eps_d=eps_d, rho=rho, validate_off_resonance=False)

    def test_matches_per_energy_solve(self, rng):
        worst = 0.0
        for k in range(200):
            p = random_valid_ring(rng) if k % 2 else self.weakly_coupled_ring(rng)
            model = ResolventModel(p, rng.uniform(-np.pi, np.pi))
            energies = np.concatenate([rng.uniform(-0.5, 0.5, 16), [p.eps_d, 0.0, 1e300, -1e300]])
            got, direct = model.amplitude(energies), self.per_energy(model, energies)
            worst = max(worst, np.max(np.abs(got - direct) / np.abs(direct)))
        assert worst < 1e-13

    def test_largest_energies_decouple_the_dot(self, rng):
        # At |E| = 1.7e308 the amplitude is the dot-decoupled t0 up to
        # O(|V|^2 / |E|).  The per-energy solve is not a reference there: it
        # loses the whole amplitude (returns 0) for some rings.
        for k in range(200):
            p = random_valid_ring(rng) if k % 2 else self.weakly_coupled_ring(rng)
            phi = rng.uniform(-np.pi, np.pi)
            got = ResolventModel(p, phi).amplitude(np.array([1.7e308, -1.7e308]))
            assert_allclose(got, complex(amplitude_t0(p, phi)), rtol=1e-13)

    def test_fermi_energy_amplitude_is_the_direct_solve(self, rng):
        # Alone, as a 0-d array, as -0.0 or in a stack, and exact_amplitude
        # with no model.  Signed zeros count: without the dot, some
        # quarter-turn phases give a real part of -0.0.
        decoupled = [
            (RingParams(v_mag=0.0, eps_d=1.25, rho=rho), phi)
            for rho in (0.1, 0.7)
            for phi in np.pi * np.arange(-1.0, 1.25, 0.25)
        ]
        draw = self.weakly_coupled_ring
        rings = (random_valid_ring(rng) if k % 2 else draw(rng) for k in range(2000))
        drawn = [(p, rng.uniform(-np.pi, np.pi)) for p in rings]
        for p, phi in decoupled + drawn:
            model = ResolventModel(p, phi)
            _, a = _inverse_propagator(p, phi)
            direct = complex(2j / (np.pi * p.rho) * np.linalg.solve(a, self.SOURCE)[..., 1, 0])
            for got in (
                exact_amplitude(p, phi),
                model.amplitude(0.0),
                model.amplitude(np.array(0.0)),
                model.amplitude(-0.0),
                model.amplitude(np.array([0.3, 0.0]))[1],
                model.amplitude(np.array([-0.0, 0.3]))[0],
            ):
                assert np.complex128(got).tobytes() == np.complex128(direct).tobytes()


class TestEnergyResolved:
    def test_consistent_at_fermi_energy(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.8)
        assert_allclose(tfun(0.0), abs(exact_amplitude(ref_ring, 0.8)) ** 2, rtol=1e-15)

    def test_flat_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        tfun = energy_resolved_transmission(p, 0.4)
        values = tfun(np.linspace(-0.5, 0.5, 11))
        assert_allclose(values, values[0], rtol=1e-14)

    def test_bounded_over_window(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.8)
        values = tfun(np.linspace(-0.5, 0.5, 101))
        assert np.all(np.isfinite(values))
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all(values >= 0.0)
