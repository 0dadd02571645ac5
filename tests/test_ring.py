"""Closed-form ring amplitudes and the path-class decomposition.

Expected numbers are frozen from exact fractions (x = 2/5 makes every
reference quantity rational or a square root of a rational).
"""

import inspect
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from abring import OffResonanceWarning, RingParams, ValidityError
from abring.ring import amplitude_t0, amplitude_t1, diagram_components
from abring.oracle import ResolventModel, exact_amplitude
from abring.smatrix import generic_family
from abring.transport import (
    ThermalConfig,
    double_slit_visibility,
    phase_grid,
    sweep_lambda,
    sweep_phase,
    transmission,
)


def random_valid_ring(rng):
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    eps_d = (1.0 if rng.random() < 0.5 else -1.0) * gamma / rng.uniform(0.02, 0.24)
    return RingParams.from_x(x, v, eps_d)


class TestRingParams:
    def test_reference_coupling(self, ref_ring):
        assert_allclose(ref_ring.x, 0.4, rtol=1e-14)

    def test_coupling_proportional_to_rho(self):
        p = RingParams(v_mag=0.0, eps_d=1.0, rho=1e-9)
        assert_allclose(p.x, np.pi * 1e-9, rtol=1e-15)

    def test_unit_coupling_gives_full_direct_transmission(self):
        p = RingParams(v_mag=0.0, eps_d=1.0, rho=1.0 / np.pi)
        assert_allclose(p.x, 1.0, rtol=1e-15)
        assert_allclose(abs(amplitude_t0(p, 0.0)), 1.0, rtol=1e-15)

    def test_reference_width_and_ratio(self, ref_ring):
        assert_allclose(ref_ring.gamma, 45.0 / 232.0, rtol=1e-14)
        assert_allclose(ref_ring.gamma / ref_ring.eps_d, 9.0 / 58.0, rtol=1e-14)

    def test_width_vanishes_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        assert p.gamma == 0.0

    def test_width_quadratic_in_dot_coupling(self, ref_ring):
        doubled = RingParams.from_x(0.4, 0.75 * np.sqrt(2.0), 2.5)
        assert_allclose(doubled.gamma, 2.0 * ref_ring.gamma, rtol=1e-14)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidityError):
            RingParams(v_mag=-0.1, eps_d=1.25, rho=0.4 / np.pi)
        with pytest.raises(ValidityError):
            RingParams(v_mag=0.75, eps_d=1.25, rho=0.0)
        with pytest.raises(ValidityError):
            RingParams(v_mag=0.75, eps_d=0.0, rho=0.4 / np.pi)
        with pytest.raises(ValidityError):
            RingParams.from_x(-0.4, 0.75, 1.25)

    @pytest.mark.parametrize("value", ["1", True, np.True_, None, 1 + 0j])
    def test_field_that_is_not_a_number_rejected(self, value):
        # A str or a bool is not a number; the field is named.
        fields_ = {"v_mag": 0.75, "eps_d": 1.25, "rho": 0.1}
        for name in fields_:
            with pytest.raises(ValidityError, match=rf"^{name} must be a real number, got "):
                RingParams(**{**fields_, name: value})
        with pytest.raises(ValidityError, match=r"^x must be a real number, got "):
            RingParams.from_x(value, 0.75, 1.25)

    @pytest.mark.parametrize("value", [np.float32(0.75), np.int64(1), np.array(0.75)])
    def test_numpy_fields_accepted(self, value):
        # Each field is stored as the Python float of its value.
        ring = RingParams(v_mag=value, eps_d=value, rho=value, validate_off_resonance=False)
        for field_value in (ring.v_mag, ring.eps_d, ring.rho):
            assert type(field_value) is float and field_value == float(value)
        assert_allclose(RingParams.from_x(value, 0.5, 1.25).x, float(value), rtol=1e-15)

    @pytest.mark.parametrize("value", [np.array([0.75]), [0.75], (0.75,), np.zeros((1, 1))])
    def test_array_field_rejected(self, value):
        fields_ = {"v_mag": 0.75, "eps_d": 1.25, "rho": 0.1}
        for name in fields_:
            with pytest.raises(ValidityError, match=rf"^{name} must be a real number, got "):
                RingParams(**{**fields_, name: value})
        with pytest.raises(ValidityError, match=r"^x must be a real number, got "):
            RingParams.from_x(value, 0.75, 1.25)

    def test_float32_ring_is_the_float64_ring(self):
        # 1.25 is exact in float32, so both rings are the same ring, bit for bit.
        single = RingParams(v_mag=0.75, eps_d=np.float32(1.25), rho=0.4 / np.pi)
        double = RingParams(v_mag=0.75, eps_d=1.25, rho=0.4 / np.pi)
        assert single == double
        phis = phase_grid(720)
        assert amplitude_t1(single, phis).tobytes() == amplitude_t1(double, phis).tobytes()
        lambdas = [0.0, 0.5, 1.0]
        assert sweep_phase(single, lambdas, 720).tobytes() == sweep_phase(double, lambdas, 720).tobytes()

    def test_fields_are_keyword_only(self):
        # Positional fields would silently shift meaning if one were removed.
        with pytest.raises(TypeError):
            RingParams(1.0, 0.75, 1.25)

    def test_physical_fields_are_required(self):
        # The reference point lives in config.DEFAULTS, not in field defaults.
        with pytest.raises(TypeError, match="rho"):
            RingParams(v_mag=0.75, eps_d=1.25)
        defaults = {f.name: f.default for f in fields(RingParams) if f.default is not MISSING}
        assert defaults == {"validate_off_resonance": True}

    def test_off_resonance_guard(self):
        # x = 0.4, v = 2: Gamma = 1.379..., ratio > 1
        with pytest.raises(ValidityError):
            RingParams.from_x(0.4, 2.0, 1.25)
        with pytest.warns(OffResonanceWarning):
            RingParams.from_x(0.4, 1.2, 1.25)  # ratio ~ 0.40
        # guard can be explicitly disabled
        p = RingParams(v_mag=2.0, eps_d=1.25, rho=0.4 / np.pi, validate_off_resonance=False)
        assert p.gamma / abs(p.eps_d) > 0.5

    def test_off_resonance_warning_names_the_calling_line(self):
        # Under the default filter a warning shows once per location, so each
        # constructor must report its caller's line, not a shared internal one.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            line = inspect.currentframe().f_lineno
            RingParams(v_mag=1.2, eps_d=1.25, rho=0.4 / np.pi)
            RingParams.from_x(0.4, 1.2, 1.25)
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (OffResonanceWarning, __file__, line + 1),
            (OffResonanceWarning, __file__, line + 2),
        ]

    def test_from_x_roundtrip(self, rng):
        for _ in range(100):
            x = rng.uniform(0.05, 3.0)
            p = RingParams.from_x(x, 0.0, 1.0)
            assert_allclose(p.x, x, rtol=1e-14)


class TestAmplitudeT0:
    def test_reference_value(self, ref_ring):
        assert_allclose(complex(amplitude_t0(ref_ring, 0.0)), -20.0 / 29.0 * 1j, atol=1e-15)

    def test_unit_coupling_value(self):
        p = RingParams(v_mag=0.0, eps_d=1.0, rho=1.0 / np.pi)
        assert_allclose(complex(amplitude_t0(p, 0.0)), -1j, atol=1e-15)

    def test_pure_phase_factor(self, ref_ring):
        expected = complex(amplitude_t0(ref_ring, 0.0)) * np.exp(-1j * np.pi / 2)
        assert_allclose(complex(amplitude_t0(ref_ring, np.pi / 2)), expected, atol=1e-15)
        assert_allclose(complex(amplitude_t0(ref_ring, np.pi / 2)), -20.0 / 29.0, atol=1e-15)

    def test_magnitude_at_most_one(self, rng):
        for _ in range(10_000):
            x = rng.uniform(1e-3, 50.0)
            p = RingParams(v_mag=0.0, eps_d=1.0, rho=x / np.pi)
            phi = rng.uniform(-10.0, 10.0)
            assert abs(amplitude_t0(p, phi)) <= 1.0 + 1e-12

    def test_periodicity(self, ref_ring, rng):
        phis = rng.uniform(-np.pi, np.pi, size=100)
        assert_allclose(
            amplitude_t0(ref_ring, phis + 2.0 * np.pi),
            amplitude_t0(ref_ring, phis),
            rtol=0,
            atol=1e-14,
        )


class TestAmplitudeT1:
    def test_reference_value(self, ref_ring):
        assert_allclose(
            complex(amplitude_t1(ref_ring, 0.0)), (180.0 + 189.0j) / 841.0, atol=1e-15
        )

    def test_vanishes_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        for phi in (0.0, 1.0, -2.5):
            assert complex(amplitude_t1(p, phi)) == 0.0

    def test_magnitude_extremes_over_phase(self, ref_ring):
        # |t1|^2 = p * f(sin phi) with f decreasing on [-1, 1], so the
        # extremes sit exactly at sin phi = -1 and +1.
        phis = np.arange(100_000) * (2.0 * np.pi / 100_000)
        t1sq = np.abs(amplitude_t1(ref_ring, phis)) ** 2
        assert_allclose(t1sq.max(), 194481.0 / 707281.0, rtol=1e-12)
        assert_allclose(t1sq.min(), 6561.0 / 707281.0, rtol=1e-12)
        assert_allclose(phis[t1sq.argmax()], 3.0 * np.pi / 2.0, atol=1e-4)
        assert_allclose(phis[t1sq.argmin()], np.pi / 2.0, atol=1e-4)

    def test_linear_in_inverse_dot_level(self, ref_ring, rng):
        # Only eps_d varies: |t1| scales exactly like Gamma/|eps_d|.
        for _ in range(100):
            phi = rng.uniform(-np.pi, np.pi)
            scale = rng.uniform(1.5, 8.0)
            moved = RingParams.from_x(0.4, 0.75, scale * ref_ring.eps_d)
            assert_allclose(
                complex(amplitude_t1(moved, phi)) * scale,
                complex(amplitude_t1(ref_ring, phi)),
                rtol=1e-12,
            )

    def test_periodicity(self, ref_ring, rng):
        phis = rng.uniform(-np.pi, np.pi, size=100)
        assert_allclose(
            amplitude_t1(ref_ring, phis + 2.0 * np.pi),
            amplitude_t1(ref_ring, phis),
            rtol=0,
            atol=1e-14,
        )


class TestDiagramComponents:
    def test_sum_matches_reference_amplitude(self, ref_ring):
        comps = diagram_components(ref_ring, 0.0)
        target = complex(amplitude_t1(ref_ring, 0.0))
        assert abs(comps.total - target) <= 1e-12 * abs(target)
        assert_allclose(comps.total, (180.0 + 189.0j) / 841.0, rtol=1e-13)

    def test_sum_matches_over_random_draws(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = random_valid_ring(rng)
            phi = rng.uniform(-np.pi, np.pi)
            target = complex(amplitude_t1(p, phi))
            worst = max(worst, abs(diagram_components(p, phi).total - target) / abs(target))
        assert worst < 1e-12

    def test_all_zero_without_dot_coupling(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        comps = diagram_components(p, 1.3)
        assert comps.c_lr == comps.c_ll == comps.c_rr == comps.c_rl == 0.0

    def test_same_lead_classes_equal(self, rng):
        for _ in range(200):
            p = random_valid_ring(rng)
            comps = diagram_components(p, rng.uniform(-np.pi, np.pi))
            assert comps.c_ll == comps.c_rr

    def test_array_evaluation_matches_scalars(self, ref_ring):
        phis = np.linspace(0.0, 2.0 * np.pi, 7)
        vec = diagram_components(ref_ring, phis)
        for i, phi in enumerate(phis):
            one = diagram_components(ref_ring, float(phi))
            assert vec.c_lr[i] == one.c_lr
            # vectorized and scalar exp may differ in the last ulp
            assert_allclose(vec.c_rl[i], one.c_rl, rtol=1e-14)
            assert_allclose(vec.c_ll[i], one.c_ll, rtol=1e-14)


# An int beyond the float range, and a ragged list: numpy cannot make either a float array.
BIG, RAGGED = 10**400, [[0.1], [0.2, 0.3]]
BEYOND, NOT_AN_ARRAY = "holds an int beyond the float range$", "is a ragged list, not an array$"


class TestNumberConversion:
    """Every number the API converts to a float goes through ``ring.real`` or
    ``ring.real_array``, or the energy conversion of ``ResolventModel.amplitude``."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda ring: RingParams(v_mag=BIG, eps_d=1.25, rho=0.1), "^v_mag " + BEYOND),
            (lambda ring: RingParams.from_x(BIG, 0.75, 1.25), "^x " + BEYOND),
            (lambda ring: ThermalConfig(BIG), "^temperature " + BEYOND),
            (lambda ring: double_slit_visibility(BIG, 1.0, 0.5), "^arm amplitude a " + BEYOND),
            (lambda ring: sweep_lambda(ring, [BIG], 64), "^overlap sweep value " + BEYOND),
            (lambda ring: transmission(ring, 0.5, [BIG]), "^phase " + BEYOND),
            (lambda ring: exact_amplitude(ring, BIG), "^phase " + BEYOND),
            (lambda ring: ResolventModel(ring, BIG), "^phase " + BEYOND),
            (lambda ring: ResolventModel(ring, 0.3).amplitude(BIG), "^energy " + BEYOND),
            (lambda ring: transmission(ring, 0.5, RAGGED), "^phase " + NOT_AN_ARRAY),
            (lambda ring: generic_family(3).at(RAGGED), "^phase " + NOT_AN_ARRAY),
            (lambda ring: ResolventModel(ring, 0.3).amplitude(RAGGED), "^energy " + NOT_AN_ARRAY),
        ],
        ids=[
            "RingParams",
            "from_x",
            "ThermalConfig",
            "double_slit_visibility",
            "sweep_lambda",
            "transmission",
            "exact_amplitude",
            "ResolventModel",
            "amplitude",
            "transmission-ragged",
            "at-ragged",
            "amplitude-ragged",
        ],
    )
    def test_unconvertible_number_is_validity_error_naming_its_input(self, ref_ring, call, match):
        with pytest.raises(ValidityError, match=match):
            call(ref_ring)

    def test_rectangular_nested_list_keeps_its_bits(self, ref_ring):
        nested = [[0.1], [0.2]]
        for convert in (
            lambda phi: transmission(ref_ring, 0.5, phi),
            generic_family(3).at,
            ResolventModel(ref_ring, 0.3).amplitude,
        ):
            got, want = convert(nested), convert(np.array(nested))
            assert got.shape == want.shape == (2, 1) + want.shape[2:]
            assert got.tobytes() == want.tobytes()
