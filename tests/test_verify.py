"""The bundled cross-validation suites."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from abring import smatrix, verify
from abring.ring import DiagramComponents, RingParams, diagram_components
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


def test_individual_suites_quick_variants(ref_ring):
    assert calibration_suite(3, n_draws=50).passed
    assert second_order_suite(4, n_draws=20).passed
    assert truncation_suite(ref_ring).passed
    assert diagram_sum_suite(5, n_draws=50).passed
    assert rigidity_suite(6, n_families=20, n_factorized=10).passed


def test_truncation_scaling_fails_without_error_when_dot_is_decoupled():
    # At |V| = 0 all three residuals are exactly 0 at this x.
    params = RingParams.from_x(0.06973244147157191, 0.0, 1.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = truncation_suite(params)
    assert result.passed is False
    assert result.detail == (
        "residual 0.000000e+00; eps_d x4 ratio nan in (12.0, 20.0), x2 ratio nan in (3.4, 4.6)"
    )


NAN = complex(np.nan, np.nan)


def _nan_identity_residual(family):
    report = smatrix.rigidity_report(family)
    return replace(report, identity_residual=np.full_like(report.identity_residual, np.nan))


@pytest.mark.parametrize(
    "route, fake, run",
    [
        ("exact_amplitude", lambda params, phi: NAN, lambda: calibration_suite(3, n_draws=20)),
        ("second_order_amplitude", lambda params, phi: NAN, lambda: second_order_suite(4, 20)),
        (
            "diagram_components",
            lambda params, phi: DiagramComponents(NAN, NAN, NAN, NAN),
            lambda: diagram_sum_suite(5, n_draws=20),
        ),
        ("rigidity_report", _nan_identity_residual, lambda: rigidity_suite(6, 5, 2)),
    ],
    ids=["calibration", "second-order", "diagram-sum", "rigidity"],
)
def test_nan_route_fails_its_suite(monkeypatch, route, fake, run):
    monkeypatch.setattr(verify, route, fake)
    result = run()
    assert result.passed is False
    assert "nan" in result.detail


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
    result = diagram_sum_suite(5, n_draws=50)
    assert result.passed is False
    assert result.detail.startswith("max |sum - t1| / sum |c| = 1.000e-10 over 50 draws")
