"""The bundled cross-validation suites."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from abring import smatrix, verify
from abring.errors import OffResonanceWarning
from abring.ring import (
    DiagramComponents,
    RingParams,
    amplitude_t0,
    amplitude_t1,
    diagram_components,
)
from abring.oracle import second_order_amplitude
from abring.verify import (
    calibration_suite,
    diagram_sum_suite,
    rigidity_suite,
    run_all,
    second_order_suite,
    truncation_suite,
)


def test_all_suites_pass_at_reference_point(ref_ring):
    results = run_all(ref_ring, seed=12345)
    assert [r.name for r in results] == [
        "oracle-calibration",
        "oracle-second-order",
        "truncation-scaling",
        "diagram-sum",
        "rigidity-theorem",
    ]
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"


def test_suites_are_deterministic(ref_ring):
    first = run_all(ref_ring, seed=9)
    second = run_all(ref_ring, seed=9)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]


def test_individual_suites_pass_at_other_seeds(ref_ring):
    assert calibration_suite(3).passed
    assert second_order_suite(4).passed
    assert truncation_suite(ref_ring).passed
    assert diagram_sum_suite(5).passed
    assert rigidity_suite(6).passed


def test_truncation_is_unresolved_without_error_when_dot_is_decoupled():
    # At |V| = 0 the predicted residual t1 q / (1 - q) is exactly 0.
    params = RingParams.from_x(0.06973244147157191, 0.0, 1.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = truncation_suite(params)
    assert (result.passed, result.resolved) == (False, False)
    assert result.detail == (
        "|t1 q/(1-q)| <= 0 eps S at all 12 points, below the rounding floor 512 eps S: "
        "truncation cannot be resolved here"
    )


@pytest.mark.parametrize("eps_d, n_valid", [(1e308, 4), (-1e308, 4), (5e307, 8)])
def test_truncation_skips_scaled_rings_that_overflow(eps_d, n_valid):
    # 2 eps_d or 4 eps_d is inf here; those points count as unresolved.
    result = truncation_suite(RingParams.from_x(0.4, 0.75, eps_d))
    assert (result.passed, result.resolved) == (False, False)
    assert result.detail == (
        f"|t1 q/(1-q)| <= 0 eps S at {n_valid} of 12 points, below the rounding floor 512 eps S, "
        f"and the scaled eps_d overflows at the other {12 - n_valid}: "
        "truncation cannot be resolved here"
    )


def test_truncation_reruns_no_off_resonance_warning():
    # Gamma/|eps_d| = 0.3972: the caller's ring warned once, when it was built.
    with pytest.warns(OffResonanceWarning):
        params = RingParams.from_x(0.4, 1.2, 1.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncation_suite(params).passed


# At x = 1e-20 the true residual, about 1e-40, is far below rounding on
# |A| ~ 2e-20; at x = 6.7e153, |q| is about 0.9 and the residual is not
# quadratic in Gamma/eps_d.  The old ratio windows failed at both.
@pytest.mark.parametrize(
    "x, passed, resolved",
    [(0.4, True, True), (2.0, True, True), (6.7e153, True, True), (1e-20, False, False)],
)
def test_truncation_identity_across_couplings(x, passed, resolved):
    result = truncation_suite(RingParams.from_x(x, 0.75, 1.25))
    assert (result.passed, result.resolved) == (passed, resolved), result.detail


def test_truncation_residual_off_by_1e_10_fails(monkeypatch, ref_ring):
    true_amplitude = verify.exact_amplitude

    def off(params, phi):
        # Moves A - t0 - t1, and so the residual r, by 1e-10 relative.
        a = true_amplitude(params, phi)
        return a + 1e-10 * (a - amplitude_t0(params, phi) - amplitude_t1(params, phi))

    monkeypatch.setattr(verify, "exact_amplitude", off)
    result = truncation_suite(ref_ring)
    assert (result.passed, result.resolved) == (False, True)
    assert "(relative 1.000e-10) over 12 of 12 points" in result.detail


NAN = complex(np.nan, np.nan)


def _nan_identity_residual(family):
    report = smatrix.rigidity_report(family)
    return replace(report, identity_residual=np.full_like(report.identity_residual, np.nan))


@pytest.mark.parametrize(
    "route, fake, run",
    [
        ("exact_amplitude", lambda rings, phis: np.full(len(rings), NAN), lambda: calibration_suite(3)),
        (
            "second_order_amplitude",
            lambda rings, phis: np.full(len(rings), NAN),
            lambda: second_order_suite(4),
        ),
        (
            "diagram_components",
            lambda params, phi: DiagramComponents(NAN, NAN, NAN, NAN),
            lambda: diagram_sum_suite(5),
        ),
        ("rigidity_report", _nan_identity_residual, lambda: rigidity_suite(6)),
    ],
    ids=["calibration", "second-order", "diagram-sum", "rigidity"],
)
def test_nan_route_fails_its_suite(monkeypatch, route, fake, run):
    monkeypatch.setattr(verify, route, fake)
    result = run()
    assert result.passed is False
    assert "nan" in result.detail


def _reported_gaps(monkeypatch, run):
    """The per-draw gaps that ``run()`` passes to ``verify._report``."""
    captured = []
    report = verify._report

    def capture(name, label, gaps, tol):
        captured.append(np.fromiter(gaps, float))
        return report(name, label, captured[-1], tol)

    monkeypatch.setattr(verify, "_report", capture)
    run()
    (gaps,) = captured
    return gaps


def _scalar_ring_draws(seed, n_draws):
    """The single-visit suites' draws made one scalar at a time."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_draws):
        x = rng.uniform(0.05, 3.0)
        v = rng.uniform(0.1, 1.5)
        gamma = x * v * v / (1.0 + x * x)
        ratio = rng.uniform(0.02, 0.24)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        params, phi = RingParams.from_x(x, v, sign * gamma / ratio), rng.uniform(-np.pi, np.pi)
        draws.append((params, phi, complex(amplitude_t1(params, phi))))
    return draws


@pytest.mark.parametrize("seed", [0, 12346, 2147483001])
def test_ring_draws_equal_scalar_draws(seed):
    assert list(zip(*verify._ring_draws(seed, 100))) == _scalar_ring_draws(seed, 100)


# The stacked suites against one resolvent per draw, bit for bit.
@pytest.mark.parametrize("seed", [0, 12345, 2147483000])
def test_calibration_gaps_equal_per_draw_solves(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(verify.CALIBRATION_DRAWS):
        params = RingParams.from_x(rng.uniform(0.05, 3.0), 0.0, 1.0)
        phi = rng.uniform(-np.pi, np.pi)
        expected.append(abs(verify.exact_amplitude(params, phi) - amplitude_t0(params, phi)))
    gaps = _reported_gaps(monkeypatch, lambda: calibration_suite(seed))
    assert gaps.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", [1, 12346, 2147483001])
def test_second_order_gaps_equal_per_draw_solves(monkeypatch, seed):
    expected = [
        abs(second_order_amplitude(params, phi) - t1) / abs(t1)
        for params, phi, t1 in _scalar_ring_draws(seed, verify.SECOND_ORDER_DRAWS)
    ]
    gaps = _reported_gaps(monkeypatch, lambda: second_order_suite(seed))
    assert gaps.tobytes() == np.array(expected).tobytes()


# `abring verify --seed s` runs the diagram-sum suite at s + 2.  At each of
# these seeds it draws a ring near x = 1, phi = pi/2, where t1 nearly
# vanishes while the four path classes do not.
@pytest.mark.parametrize("seed", [107, 136, 196, 258, 284])
def test_diagram_sum_passes_where_t1_vanishes(seed):
    result = diagram_sum_suite(seed + 2)
    assert result.passed is True, result.detail


def test_diagram_route_off_by_1e_10_of_the_class_scale_fails(monkeypatch):
    def shifted(params, phi):
        c = diagram_components(params, phi)
        x = params.x
        scale = 2.0 * abs(params.gamma / params.eps_d) * (1.0 + x) ** 2 / (1.0 + x * x)
        return replace(c, c_lr=c.c_lr + 1e-10 * scale)

    monkeypatch.setattr(verify, "diagram_components", shifted)
    result = diagram_sum_suite(5)
    assert result.passed is False
    assert result.detail.startswith("max |sum - t1| / sum |c| = 1.000e-10 over 1000 draws")


# rigidity_suite(s).detail for three seeds, as computed one family at a time.
@pytest.mark.parametrize(
    "seed, detail",
    [
        (0, "max identity residual = 2.442e-15 (tol 1e-12); factorized max asymmetry = 2.220e-15; "
            "generic max asymmetry = 0.8697 (> 0.01)"),
        (7, "max identity residual = 2.442e-15 (tol 1e-12); factorized max asymmetry = 2.220e-15; "
            "generic max asymmetry = 0.8697 (> 0.01)"),
        (12345, "max identity residual = 2.331e-15 (tol 1e-12); "
                "factorized max asymmetry = 2.331e-15; generic max asymmetry = 0.9671 (> 0.01)"),
    ],
)
def test_rigidity_detail_is_unchanged_by_stacking(seed, detail):
    result = rigidity_suite(seed)
    assert result.passed is True
    assert result.detail == detail


def test_rigidity_stacks_hold_at_most_32_families_and_cover_all(monkeypatch):
    checked = []  # (matrix dim, families) per unitarity check, in call order
    original = smatrix._unitarity_defect
    def recording(m):
        checked.append((m.shape[-1], m.shape[0]))
        return original(m)

    monkeypatch.setattr(smatrix, "_unitarity_defect", recording)
    assert rigidity_suite(12345).passed
    # S is the only matrix checked, once per stack, and the generic stacks come first.
    assert {dim for dim, _ in checked} == {4}
    families = [n for _, n in checked]
    assert max(families) <= 32
    split = next(i for i in range(len(families) + 1) if sum(families[:i]) == 1000)
    assert (sum(families[:split]), sum(families[split:])) == (1000, 100)


SWAP = np.eye(4)[[2, 3, 0, 1]]


def test_rigidity_failure_names_the_planted_family(monkeypatch):
    # Family 41 of the generic stack (seed 6 + 41 = 47) becomes S = swap for
    # phi > 0 and 1 for phi < 0: unitary, not reciprocal, so its identity
    # residual is +-1 at every grid phase, and the first phase is named.
    planted_seed = 47

    def planted(seeds):
        family = smatrix.generic_family(seeds)
        if planted_seed not in seeds:
            return family
        k = list(seeds).index(planted_seed)

        def s_of_phi(phi):
            m = family.s_of_phi(phi)
            m[k] = np.where((phi > 0)[..., None, None], SWAP, np.eye(4))
            return m

        return smatrix.TwoParticleSMatrix(s_of_phi)

    monkeypatch.setattr(verify, "generic_family", planted)
    result = rigidity_suite(6)
    assert result.passed is False
    phi0 = repr(float(smatrix.symmetric_phi_grid()[0]))
    assert f"; worst identity residual at generic seed {planted_seed}, phi={phi0};" in result.detail
    assert "; worst factorized asymmetry at factorized seeds (" in result.detail


def test_rigidity_failure_names_the_factorized_family(monkeypatch):
    # A NaN factorized report fails; the first family is the worst case.
    def nan_factorized(ring_seeds, detector_seeds):
        family = smatrix.factorized_family(ring_seeds, detector_seeds)
        return smatrix.TwoParticleSMatrix(lambda phi: family.s_of_phi(phi) * np.nan)

    monkeypatch.setattr(verify, "factorized_family", nan_factorized)
    monkeypatch.setattr(smatrix, "_check_defect", lambda defect, phi, what: None)
    result = rigidity_suite(6)
    assert result.passed is False
    phi0 = repr(float(smatrix.symmetric_phi_grid()[0]))
    assert result.detail.endswith(
        f"; worst identity residual at factorized seeds (10006, 20006), phi={phi0}"
        f"; worst factorized asymmetry at factorized seeds (10006, 20006), phi={phi0}"
    )
