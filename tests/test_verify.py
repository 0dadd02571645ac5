"""The bundled cross-validation suites."""

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
