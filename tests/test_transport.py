"""Transmission, sweeps, visibility, the two-path reference, and thermal averaging."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from abring import (
    RingParams,
    ThermalConfig,
    ValidityError,
    energy_resolved_transmission,
    sweep_phase,
    symmetric_phi_grid,
    thermal_transmission,
    transmission,
    visibility,
)
from abring import transport
from abring.oracle import ResolventModel
from abring.ring import amplitude_t0, amplitude_t1
from abring.transport import (
    dot_arm_rms,
    double_slit_visibility,
    out_of_range,
    phase_grid,
    rigidity_asymmetry,
    sweep_lambda,
)
from test_ring import random_valid_ring

# Frozen reference values at x = 0.4, |V| = 0.75, eps_d = 1.25 (exact fractions).
T_AT_ZERO = 481.0 / 841.0
SWEEP_MIN = 342961.0 / 707281.0
SWEEP_MAX = 530881.0 / 707281.0
VIS_AT_ZERO = 187920.0 / 873842.0
ASYMMETRY = 187920.0 / 707281.0
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(
            lambda: RingParams(v_mag=NAN, eps_d=1.25, rho=0.4 / np.pi), "v_mag", id="v_mag=nan"
        ),
        pytest.param(
            lambda: RingParams(v_mag=0.75, eps_d=INF, rho=0.4 / np.pi), "eps_d", id="eps_d=inf"
        ),
        pytest.param(
            lambda: RingParams(v_mag=0.75, eps_d=-INF, rho=0.4 / np.pi), "eps_d", id="eps_d=-inf"
        ),
        pytest.param(lambda: RingParams(v_mag=0.75, eps_d=1.25, rho=NAN), "rho", id="rho=nan"),
        pytest.param(lambda: RingParams.from_x(INF, 0.75, 1.25), "x", id="from_x-x=inf"),
        pytest.param(lambda: RingParams.from_x(NAN, 0.75, 1.25), "x", id="from_x-x=nan"),
        pytest.param(
            lambda: RingParams(v_mag=1e200, eps_d=1.25, rho=0.4 / np.pi),
            "parameters leave the float range",
            id="gamma-overflow",
        ),
        pytest.param(
            lambda: RingParams(v_mag=0.75, eps_d=1.25, rho=1e-160),
            "parameters leave the float range",
            id="x-subnormal",
        ),
        pytest.param(
            lambda: RingParams.from_x(1e154, 0.75, 1.25),
            "parameters leave the float range",
            id="inverse-x-squared-subnormal",
        ),
        pytest.param(
            lambda: RingParams(
                v_mag=np.float64(1e200), eps_d=1e-300, rho=0.1, validate_off_resonance=False
            ),
            "parameters leave the float range",
            id="gamma-overflow-numpy-v_mag",
        ),
        pytest.param(
            lambda: RingParams(
                v_mag=1e100, eps_d=np.float64(1e-300), rho=0.1, validate_off_resonance=False
            ),
            "parameters leave the float range",
            id="ratio-overflow-numpy-eps_d",
        ),
        pytest.param(lambda: ThermalConfig(NAN), "temperature", id="temperature=nan"),
        pytest.param(lambda: ThermalConfig(INF), "temperature", id="temperature=inf"),
        pytest.param(lambda: ThermalConfig(0.01, 128, INF), "energy window", id="energy_window=inf"),
    ],
)
def test_non_finite_parameters_rejected(build, field):
    with pytest.raises(ValidityError, match=f"^{field}"):
        build()


class TestTransmission:
    def test_reference_value_at_zero_overlap(self, ref_ring):
        assert_allclose(transmission(ref_ring, 0.0, 0.0), T_AT_ZERO, rtol=1e-14)

    def test_no_dot_gives_direct_term_only(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.7 / np.pi)
        x = p.x
        expected = 4.0 * x * x / (1.0 + x * x) ** 2
        for lam in (0.0, 0.5, 1.0, 0.3 + 0.4j):
            for phi in (0.0, 1.1, -2.0):
                assert_allclose(transmission(p, lam, phi), expected, rtol=1e-14)

    def test_unit_overlap_collapses_to_coherent_sum(self, rng):
        for _ in range(300):
            p = random_valid_ring(rng)
            phi = rng.uniform(-np.pi, np.pi)
            coherent = abs(amplitude_t0(p, phi) + amplitude_t1(p, phi)) ** 2
            assert_allclose(transmission(p, 1.0, phi), coherent, rtol=0, atol=1e-14)

    def test_rejects_overlarge_overlap(self, ref_ring):
        with pytest.raises(ValidityError):
            transmission(ref_ring, 1.01, 0.0)
        with pytest.raises(ValidityError):
            transmission(ref_ring, 1j * 1.001, 0.0)
        with pytest.raises(ValidityError):
            transmission(ref_ring, NAN, 0.0)
        transmission(ref_ring, 1.0 + 5e-11, 0.0)  # inside the tolerance

    @pytest.mark.parametrize("lam", ["0.5", True, np.True_, None, [0.5], np.array([0.5])])
    def test_overlap_that_is_not_a_number_rejected(self, ref_ring, lam):
        match = r"^detector overlap must be a real or complex number, got "
        with pytest.raises(ValidityError, match=match):
            transmission(ref_ring, lam, 0.1)
        with pytest.raises(ValidityError, match=match):
            sweep_phase(ref_ring, [0.2, lam], 8)

    @pytest.mark.parametrize(
        "lam", [np.float64(0.5), np.float32(0.5), np.int64(1), np.complex128(0.3j), np.array(0.5)]
    )
    def test_numpy_overlaps_accepted(self, ref_ring, lam):
        row = sweep_phase(ref_ring, [lam], 8)[0]
        assert np.array_equal(row, transmission(ref_ring, complex(lam), phase_grid(8)))

    def test_complex_overlap_supported(self, ref_ring):
        lam = 0.3 * np.exp(1j * 0.8)
        t0 = complex(amplitude_t0(ref_ring, 0.4))
        t1 = complex(amplitude_t1(ref_ring, 0.4))
        expected = abs(t0) ** 2 + abs(t1) ** 2 + 2.0 * (lam * np.conj(t0) * t1).real
        assert_allclose(transmission(ref_ring, lam, 0.4), expected, rtol=1e-15)


class TestPhaseSweep:
    def test_grid_properties(self, ref_ring):
        phis = phase_grid(720)
        assert phis[0] == 0.0
        assert phis.size == 720
        assert phis[-1] < 2.0 * np.pi
        assert np.all(np.diff(phis) > 0)
        assert sweep_phase(ref_ring, [0.0], 720).shape == (1, 720)

    def test_reference_extremes(self, ref_ring):
        (values,) = sweep_phase(ref_ring, [0.0], 720)
        assert_allclose(values.min(), SWEEP_MIN, rtol=1e-12)
        assert_allclose(values.max(), SWEEP_MAX, rtol=1e-12)
        assert values.argmin() == 180  # phi = pi/2
        assert values.argmax() == 540  # phi = 3 pi/2

    def test_constant_without_dot(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        values = sweep_phase(p, [0.7], 4)
        assert_allclose(values, values[0, 0], rtol=1e-14)

    def test_period_is_one_flux_quantum(self, ref_ring):
        phis = np.arange(256) * (4.0 * np.pi / 256)
        values = transmission(ref_ring, 0.25, phis)
        assert_allclose(values[:128], values[128:], rtol=0, atol=1e-14)

    def test_rejects_tiny_grid(self, ref_ring):
        with pytest.raises(ValidityError):
            sweep_phase(ref_ring, [0.0], 3)

    @pytest.mark.parametrize("n_points", [10.5, 4096.5, 720.0, "8", True, None])
    def test_non_integer_grid_size_rejected(self, ref_ring, n_points):
        # 10.5 points would be spaced 2 pi / 10.5, not over one flux period.
        match = r"^phase grid size must be an integer, got "
        with pytest.raises(ValidityError, match=match):
            phase_grid(n_points)
        with pytest.raises(ValidityError, match=match):
            sweep_phase(ref_ring, [0.0], n_points)
        with pytest.raises(ValidityError, match=match):
            sweep_lambda(ref_ring, [0.5], n_points)

    def test_numpy_integer_grid_size_accepted(self, ref_ring):
        n = np.int64(720)
        assert np.array_equal(phase_grid(n), phase_grid(720))
        assert np.array_equal(sweep_phase(ref_ring, [0.3], n), sweep_phase(ref_ring, [0.3], 720))
        assert sweep_lambda(ref_ring, [0.5], n) == sweep_lambda(ref_ring, [0.5], 720)

    def test_out_of_range_diagnostics(self, ref_ring):
        assert list(out_of_range(sweep_phase(ref_ring, [0.0, 1.0], 720))) == [0, 0]
        forced = [[0.5, 1.2, -0.1, 0.3], [0.5, 0.5, 1.0, 0.0]]
        assert list(out_of_range(forced)) == [2, 0]

    def test_in_unit_interval_for_all_overlaps(self, ref_ring):
        values = sweep_phase(ref_ring, np.linspace(0.0, 1.0, 11), 720)
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_rows_equal_transmission(self, rng):
        lambdas = (0.0, 0.25, 1.0, 0.3 + 0.4j)
        for _ in range(20):
            p = random_valid_ring(rng)
            values = sweep_phase(p, lambdas, 64)
            assert values.shape == (4, 64)
            phis = phase_grid(64)
            t0, t1 = amplitude_t0(p, phis), amplitude_t1(p, phis)
            for lam, row in zip(lambdas, values):
                assert np.array_equal(row, transmission(p, lam, phis))
                # The written formula, in this order, fixes the printed digits.
                formula = np.abs(t0) ** 2 + np.abs(t1) ** 2 + 2.0 * np.real(lam * np.conj(t0) * t1)
                assert np.array_equal(row, formula)

    def test_every_overlap_is_checked(self, ref_ring):
        with pytest.raises(ValidityError):
            sweep_phase(ref_ring, [0.0, 1.01], 16)
        with pytest.raises(ValidityError):
            sweep_phase(ref_ring, [0.5, NAN], 16)

    def test_amplitudes_evaluated_once_per_sweep(self, ref_ring, monkeypatch):
        calls = []

        def counted(params, phi):
            calls.append(np.shape(phi))
            return amplitude_t1(params, phi)

        monkeypatch.setattr(transport, "amplitude_t1", counted)
        sweep_phase(ref_ring, np.linspace(0.0, 1.0, 11), 64)
        sweep_lambda(ref_ring, np.linspace(0.0, 1.0, 11), 64)
        assert calls == [(64,), (64,)]


class TestPhaseGrid:
    @pytest.mark.parametrize("n_points", [10**30, 2**62])
    def test_oversized_grid_is_validity_error(self, n_points):
        with pytest.raises(ValidityError, match=f"phase grid of {n_points} points"):
            phase_grid(n_points)

    def test_memory_error_is_validity_error(self, monkeypatch):
        def no_memory(n):
            raise MemoryError(f"Unable to allocate an array of {n} points")

        monkeypatch.setattr(transport.np, "arange", no_memory)
        with pytest.raises(ValidityError, match="phase grid of 4096 points"):
            phase_grid(4096)


class TestVisibility:
    def test_reference_value(self, ref_ring):
        assert_allclose(
            visibility(sweep_phase(ref_ring, [0.0], 720)[0]), VIS_AT_ZERO, rtol=1e-12
        )

    def test_constant_sweep_has_zero_visibility(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        # |exp(-i phi)| rounds in the last ulp, so "constant" means to 1e-15
        assert visibility(sweep_phase(p, [0.0], 16)[0]) < 1e-15
        assert visibility(np.full(4, 0.4)) == 0.0

    def test_all_zero_sweep_rejected(self):
        with pytest.raises(ValidityError):
            visibility(np.zeros(4))

    def test_negative_values_rejected(self):
        with pytest.raises(ValidityError):
            visibility(np.array([0.5, -0.1, 0.5, 0.5]))

    def test_takes_exactly_one_row(self):
        with pytest.raises(ValidityError):
            visibility(np.full((2, 4), 0.4))
        with pytest.raises(ValidityError):
            visibility(np.array([]))

    def test_perfect_detection_reduces_but_keeps_contrast(self, ref_ring):
        vis_full, vis_dead = map(visibility, sweep_phase(ref_ring, [1.0, 0.0], 720))
        assert vis_full > vis_dead > 0.19
        assert vis_dead < 0.24


class TestSweepLambda:
    def test_nondecreasing_in_overlap(self, ref_ring):
        pairs = sweep_lambda(ref_ring, [0.0, 0.25, 0.5, 0.75, 1.0], 720)
        values = [v for v, _ in pairs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_endpoints_match_direct_sweeps(self, ref_ring):
        pairs = sweep_lambda(ref_ring, [0.0, 1.0], 720)
        assert_allclose(
            pairs[0][0], visibility(sweep_phase(ref_ring, [0.0], 720)[0]), rtol=1e-15
        )
        coherent = np.abs(
            amplitude_t0(ref_ring, phase_grid(720)) + amplitude_t1(ref_ring, phase_grid(720))
        ) ** 2
        vis_coherent = (coherent.max() - coherent.min()) / (coherent.max() + coherent.min())
        assert_allclose(pairs[1][0], vis_coherent, rtol=1e-13)

    def test_rejects_out_of_range_overlap(self, ref_ring):
        with pytest.raises(ValidityError):
            sweep_lambda(ref_ring, [0.0, 1.2], 720)
        with pytest.raises(ValidityError):
            sweep_lambda(ref_ring, [-0.1], 720)

    @pytest.mark.parametrize("lam", ["0.5", True, np.True_, None, 0.5j, np.complex128(0.5), [0.5]])
    def test_overlap_that_is_not_a_real_number_rejected(self, ref_ring, lam):
        match = r"^overlap sweep value must be a real number, got "
        with pytest.raises(ValidityError, match=match):
            sweep_lambda(ref_ring, [0.1, lam], 64)

    def test_numpy_real_overlaps_accepted(self, ref_ring):
        got = sweep_lambda(ref_ring, [np.float64(0.5), np.float32(0.25), np.int64(1)], 64)
        assert got == sweep_lambda(ref_ring, [0.5, 0.25, 1.0], 64)

    def test_equals_visibility_of_each_transmission(self, rng):
        lambdas = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
        # rho = 0.2 pushes about half of each row above 1.
        rings = [random_valid_ring(rng) for _ in range(20)]
        for p in rings + [RingParams(v_mag=0.75, eps_d=1.25, rho=0.2)]:
            phis = phase_grid(128)
            old_route = []
            for lam in lambdas:
                t = transmission(p, lam, phis)
                old_route.append((visibility(t), int(np.sum((t < 0.0) | (t > 1.0)))))
            assert sweep_lambda(p, lambdas, 128) == old_route

    def test_memory_does_not_grow_with_overlaps(self, ref_ring):
        def peak(n_lambdas):
            lambdas = np.linspace(0.0, 1.0, n_lambdas)
            tracemalloc.start()
            try:
                sweep_lambda(ref_ring, lambdas, 8192)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One (overlaps, phases) complex temporary would add about 8 MB at 64 overlaps.
        assert peak(64) <= 1.25 * peak(4)


def waived_ring(rng):
    """A random ring with the guard waived and Gamma/|eps_d| up to 0.49."""
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    eps_d = (1.0 if rng.random() < 0.5 else -1.0) * gamma / rng.uniform(0.02, 0.49)
    return RingParams(v_mag=v, eps_d=eps_d, rho=x / np.pi, validate_off_resonance=False)


def rho_ring():
    """The reference ring at rho = 0.2, which puts part of every row above 1."""
    return RingParams(v_mag=0.75, eps_d=1.25, rho=0.2)


def per_row_route(p, lambdas, n_points):
    """Whole rows, each reduced by ``visibility`` and the out-of-range count.

    The rows come from ``sweep_phase``, 16 overlaps at a time; they equal
    ``transmission`` bit for bit (``test_rows_equal_transmission``).  The
    result is an error message or a list of (visibility bits, count).
    """
    out = []
    try:
        for i in range(0, len(lambdas), 16):
            for t in sweep_phase(p, lambdas[i : i + 16], n_points):
                bad = int(np.count_nonzero((t < 0.0) | (t > 1.0)))
                out.append((float(visibility(t)).hex(), bad))
    except ValidityError as exc:
        return str(exc)
    return out


def sampled_route(p, lambdas, n_points):
    """``sweep_lambda`` in the form of ``per_row_route``."""
    try:
        return [(float(v).hex(), bad) for v, bad in sweep_lambda(p, lambdas, n_points)]
    except ValidityError as exc:
        return str(exc)


class TestSweepLambdaIsTheGrids:
    """sweep_lambda evaluates only where its bounds say a row can decide the
    result, and still returns the whole grid's extrema and count, bit for bit."""

    LAMBDAS = [i / 100 for i in range(101)]

    @pytest.mark.parametrize("n_points, n_random", [(8192, 50), (65536, 3), (65537, 3)])
    def test_equals_the_per_row_route(self, ref_ring, rng, n_points, n_random):
        rings = [ref_ring, rho_ring()] + [waived_ring(rng) for _ in range(n_random)]
        for p in rings:
            expected = per_row_route(p, self.LAMBDAS, n_points)
            assert sampled_route(p, self.LAMBDAS, n_points) == expected

    @pytest.mark.parametrize("cells", [8, 32])
    def test_equals_the_per_row_route_with_wide_cells(self, rng, monkeypatch, cells):
        # Wide cells put the extrema and the crossings of 1 deep inside cells,
        # and leave a long run of samples past the last cell.
        monkeypatch.setattr(transport, "COARSE_CELLS", cells)
        for p in [rho_ring()] + [waived_ring(rng) for _ in range(30)]:
            expected = per_row_route(p, self.LAMBDAS, 4096)
            assert sampled_route(p, self.LAMBDAS, 4096) == expected

    def test_the_rho_ring_is_partly_out_of_range(self):
        assert all(0 < bad < 65537 for _, bad in sweep_lambda(rho_ring(), self.LAMBDAS, 65537))

    @pytest.mark.parametrize("n_points", [8192, 65537])
    def test_overflowing_ring_behaves_the_same(self, n_points):
        # |t1| is about 1e200, so |t1|^2 and every T are inf.
        p = RingParams(v_mag=1e100, eps_d=1.0, rho=0.1, validate_off_resonance=False)
        with np.errstate(over="ignore"):
            expected = per_row_route(p, self.LAMBDAS, n_points)
            assert sampled_route(p, self.LAMBDAS, n_points) == expected
        assert expected[0] == (float("nan").hex(), n_points)
        for route in (per_row_route, sampled_route):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                route(p, self.LAMBDAS, n_points)

    @pytest.mark.parametrize("step", [64, 512])
    def test_chord_margin_bounds_every_row(self, rng, step):
        phis = phase_grid(4096)
        ends = np.append(phis[::step], 2.0 * np.pi)
        # At Gamma/|eps_d| = 0.0008 the interference term dominates |T''|.
        weak = RingParams.from_x(2.0, 0.05, 1.25)
        for p in [rho_ring(), weak] + [waived_ring(rng) for _ in range(20)]:
            for lam in (0.0, 0.5, 1.0):
                t = transmission(p, lam, phis)
                chord = np.interp(phis, ends, np.append(t[::step], t[0]))
                margin = transport._chord_margin(p, lam, step * 2.0 * np.pi / 4096)
                assert np.max(np.abs(t - chord)) <= margin

    @pytest.mark.parametrize(
        "ends, hi, lo, wide, narrow",
        [
            pytest.param([0.69, 0.6], 0.7, 0.3, (True, False), (False, False), id="maximum"),
            pytest.param([0.31, 0.4], 2.0, 0.3, (True, False), (False, False), id="minimum"),
            pytest.param([0.01, 0.02], 2.0, -0.5, (True, False), (False, False), id="negative"),
            pytest.param([0.99, 0.98], 2.0, 0.3, (True, False), (False, False), id="crosses-1"),
            pytest.param([1.05, 1.03], 2.0, 0.3, (False, True), (False, True), id="above-1"),
            pytest.param([1.03, 1.01], 2.0, 0.3, (True, False), (False, True), id="near-1"),
        ],
    )
    def test_a_cell_is_undecided_within_the_margin(self, ends, hi, lo, wide, narrow):
        """(need, above) of one cell with margins 0.02 and 0.005."""
        for margin, expected in ((0.02, wide), (0.005, narrow)):
            need, above = transport._undecided(np.array(ends), hi, lo, margin)
            assert (bool(need[0]), bool(above[0])) == expected

    @pytest.mark.parametrize("ring", [RingParams.from_x(0.4, 0.75, 1.25), rho_ring()])
    def test_amplitudes_see_each_phase_at_most_once(self, monkeypatch, ring):
        seen = []

        def counted(params, phi):
            seen.append(np.ravel(phi).copy())
            return amplitude_t1(params, phi)

        monkeypatch.setattr(transport, "amplitude_t1", counted)
        sweep_lambda(ring, self.LAMBDAS, 65536)
        phis = np.concatenate(seen)
        assert phis.size <= 65536
        assert np.unique(phis).size == phis.size
        assert np.isin(phis, phase_grid(65536)).all()


NEEDS = r": need a, b >= 0, 0 < a\^2 \+ b\^2 < inf"


class TestDoubleSlit:
    def test_zero_overlap_kills_contrast(self):
        assert double_slit_visibility(0.7, 0.3, 0.0) == 0.0

    def test_balanced_arms_full_coherence(self):
        assert double_slit_visibility(0.4, 0.4, 1.0) == 1.0

    def test_exactly_linear(self):
        slope = double_slit_visibility(0.69, 0.31, 1.0)
        for lam in np.linspace(0.0, 1.0, 101):
            assert abs(double_slit_visibility(0.69, 0.31, lam) - lam * slope) < 1e-15

    def test_reference_arm_values(self, ref_ring):
        a = abs(complex(amplitude_t0(ref_ring, 0.0)))
        b = dot_arm_rms(ref_ring)
        # RMS of |t1| over a period: mean of f(sin phi) = 4/2 + 8.41 = 10.41
        assert_allclose(b, np.sqrt(8100.0 / 707281.0 * 10.41), rtol=1e-13)
        assert_allclose(
            double_slit_visibility(a, b, 1.0), 2.0 * a * b / (a * a + b * b), rtol=1e-15
        )

    def test_arm_rms_equals_mean_over_any_uniform_grid(self, rng):
        for _ in range(200):
            p = random_valid_ring(rng)
            for n_points in (3, 4, 64, 720):
                t1 = amplitude_t1(p, 2.0 * np.pi * np.arange(n_points) / n_points)
                grid_rms = np.sqrt(np.mean(np.abs(t1) ** 2))
                assert_allclose(dot_arm_rms(p), grid_rms, rtol=1e-13)

    def test_rejects_degenerate_arms(self):
        with pytest.raises(ValidityError):
            double_slit_visibility(0.0, 0.0, 0.5)
        with pytest.raises(ValidityError):
            double_slit_visibility(-0.1, 0.5, 0.5)
        with pytest.raises(ValidityError):
            double_slit_visibility(0.5, 0.5, 1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (NAN, 0.5, r"arm amplitudes nan and 0\.5" + NEEDS),
            (0.5, INF, r"arm amplitudes 0\.5 and inf" + NEEDS),
            (-INF, 0.5, r"arm amplitudes -inf and 0\.5" + NEEDS),
            (-0.1, 0.5, r"arm amplitudes -0\.1 and 0\.5" + NEEDS),
            # a^2 + b^2 overflows, or is 0, though each arm is finite.
            (1e200, 1e200, r"arm amplitudes 1e\+200 and 1e\+200" + NEEDS),
            (np.float64(1e200), 0.5, r"arm amplitudes 1e\+200 and 0\.5" + NEEDS),
            (1e-200, 0.0, r"arm amplitudes 1e-200 and 0\.0" + NEEDS),
            (0.0, 0.0, r"arm amplitudes 0\.0 and 0\.0" + NEEDS),
            ("0.5", 0.5, r"arm amplitude a must be a real number, got '0\.5'"),
            (0.5, None, r"arm amplitude b must be a real number, got None"),
        ],
    )
    def test_rejects_arms_off_the_float_range(self, a, b, message):
        with pytest.raises(ValidityError, match=f"^{message}$"):
            double_slit_visibility(a, b, 0.5)

    @pytest.mark.parametrize("lam", ["0.5", True, None, 0.5j, [0.5]])
    def test_rejects_overlap_that_is_not_a_real_number(self, lam):
        with pytest.raises(ValidityError, match=r"^overlap must be a real number, got "):
            double_slit_visibility(0.7, 0.3, lam)

    def test_numpy_inputs_keep_their_bits(self):
        # 2 lam a b / (a^2 + b^2) on Python floats, whatever number type comes in.
        got = double_slit_visibility(np.float64(0.69), np.float64(0.31), np.float64(0.4))
        expected = 0.4 * (2.0 * 0.69 * 0.31 / (0.69 * 0.69 + 0.31 * 0.31))
        assert got == double_slit_visibility(0.69, 0.31, 0.4) == expected


class TestRigidityAsymmetry:
    def test_reference_asymmetry(self, ref_ring):
        assert_allclose(rigidity_asymmetry(ref_ring, 0.0, 720), ASYMMETRY, rtol=1e-12)

    def test_point_asymmetry_at_quarter_period(self, ref_ring):
        delta = transmission(ref_ring, 0.0, np.pi / 2) - transmission(ref_ring, 0.0, -np.pi / 2)
        assert_allclose(delta, -ASYMMETRY, rtol=1e-12)

    def test_no_dot_is_rigid(self):
        p = RingParams(v_mag=0.0, eps_d=1.25, rho=0.4 / np.pi)
        assert rigidity_asymmetry(p, 0.0, 64) < 1e-15

    def test_independent_of_real_overlap(self, ref_ring):
        # The interference term is even in phi for real overlap, so the
        # asymmetry comes from |t1|^2 alone.
        asyms = [rigidity_asymmetry(ref_ring, lam, 720) for lam in (0.0, 0.4, 1.0)]
        assert_allclose(asyms[1], asyms[0], rtol=0, atol=1e-13)
        assert_allclose(asyms[2], asyms[0], rtol=0, atol=1e-13)

    def test_all_order_coherent_transmission_is_rigid(self, ref_ring, rng):
        # Two-terminal Onsager symmetry: the all-order |A(E)|^2 is even in phi at
        # every energy, so the single-visit asymmetry, which survives at
        # lam = 1 where the detector records nothing, is a truncation artifact.
        phis = symmetric_phi_grid()
        assert np.array_equal(phis[::-1], -phis)
        energies = np.array([0.0, 0.2])
        worst = 0.0
        for _ in range(200):
            p = random_valid_ring(rng)
            t = np.abs([ResolventModel(p, phi).amplitude(energies) for phi in phis]) ** 2
            worst = max(worst, float(np.max(np.abs(t - t[::-1]))))
        assert worst < 1e-12
        assert round(rigidity_asymmetry(ref_ring, 1.0, 720), 4) == 0.2657


class TestThermal:
    def test_zero_temperature_rejected(self):
        # The Fermi-energy value is tfun(0.0) itself; a config has a window.
        match = r"^temperature must be finite and positive, got 0\.0$"
        with pytest.raises(ValidityError, match=match):
            ThermalConfig(0.0)

    def test_constant_reproduced(self):
        cfg = ThermalConfig(temperature=0.05, quadrature_points=64)
        assert_allclose(thermal_transmission(lambda e: 0.0 * e + 0.37, cfg), 0.37, rtol=1e-14)

    def test_linear_integrates_to_center(self):
        cfg = ThermalConfig(temperature=0.05, quadrature_points=256)
        assert_allclose(thermal_transmission(lambda e: 3.0 + 2.0 * e, cfg), 3.0, rtol=1e-12)

    def test_doubling_converges(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.7)
        results = [
            thermal_transmission(
                tfun, ThermalConfig(temperature=0.01, quadrature_points=n)
            )
            for n in (128, 256, 512)
        ]
        assert abs(results[1] - results[0]) < 1e-8 * abs(results[1])
        assert abs(results[2] - results[1]) < 1e-8 * abs(results[2])

    def test_narrow_window_fails_mass_check(self):
        # The window is checked when the config is built.
        with pytest.raises(ValidityError, match="mass"):
            ThermalConfig(temperature=0.01, energy_window=8.0)
        # A finite k_B T whose window overflows is named before any array is built.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidityError, match="overflows the float range"):
                ThermalConfig(temperature=1e308)

    def test_wide_window_builds_without_overflow_warning(self):
        # cosh^2 overflows in the far tails; those weights round to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ThermalConfig(temperature=1e5, energy_window=1000.0, quadrature_points=4096)
        assert cfg._mass.hex() == "0x1.ffffffffffffcp-1"
        assert np.count_nonzero(cfg._weights == 0.0) == 1236

    @pytest.mark.parametrize("points", [100.5, 128.0, True, "128", None])
    def test_non_integer_point_count_rejected(self, points):
        # 100.5 points would sum 101 midpoints over a window sized for 100.5.
        with pytest.raises(ValidityError, match="^quadrature_points must be an integer"):
            ThermalConfig(0.1, points)
        with pytest.raises(ValidityError, match="^quadrature_points must be an integer"):
            ThermalConfig(1e-3, points, 64.0)

    def test_numpy_integer_point_count_accepted(self, ref_ring):
        tfun = energy_resolved_transmission(ref_ring, 0.7)
        assert thermal_transmission(tfun, ThermalConfig(0.1, np.int64(128))) == (
            thermal_transmission(tfun, ThermalConfig(0.1, 128))
        )

    def test_window_is_read_only_and_not_compared(self):
        cfg = ThermalConfig(0.1, 64)
        with pytest.raises(ValueError):
            cfg._mids[0] = 0.0
        assert cfg == ThermalConfig(0.1, 64)
        assert repr(cfg) == (
            "ThermalConfig(temperature=0.1, quadrature_points=64, energy_window=16.0)"
        )

    # float.hex of thermal_transmission at the reference ring with 256 points;
    # a faster quadrature must reproduce these bits.
    THERMAL_PINS = {
        0.0: ("0x1.54f04306df3e9p-3", "0x1.4e059c11a2af9p-3", "0x1.75c684ef98359p-3"),
        0.7: ("0x1.11795bcfc905ep-2", "0x1.104c48ef740b2p-2", "0x1.2911f7ba73005p-2"),
        2.5: ("0x1.66f9381a08f95p-1", "0x1.6889aadf9f69bp-1", "0x1.6f49fab31cfb1p-1"),
    }

    @pytest.mark.parametrize("phi", sorted(THERMAL_PINS))
    def test_reference_values_are_bit_exact(self, ref_ring, phi):
        tfun = energy_resolved_transmission(ref_ring, phi)
        got = tuple(
            thermal_transmission(tfun, ThermalConfig(kt, 256)).hex() for kt in (0.02, 0.1, 0.3)
        )
        assert got == self.THERMAL_PINS[phi]

    def test_config_invariants(self):
        with pytest.raises(ValidityError):
            ThermalConfig(temperature=-0.1)
        with pytest.raises(ValidityError):
            ThermalConfig(temperature=0.1, quadrature_points=8)
        with pytest.raises(ValidityError):
            ThermalConfig(temperature=0.1, energy_window=4.0)
        with pytest.raises(ValidityError, match="^need at least 16 quadrature points"):
            ThermalConfig(temperature=1e-3, quadrature_points=8, energy_window=64.0)
