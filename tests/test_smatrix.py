"""Two-particle S-matrix constructions and the rigidity identity."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from abring import (
    ValidityError,
    reciprocal_from_generator,
    rigidity_report,
    seeded_generator,
    symmetric_phi_grid,
)
from abring import smatrix
from abring.smatrix import (
    TwoParticleSMatrix,
    factorized_family,
    factorized_s,
    generic_family,
    random_symmetric_unitary,
    reciprocal_ring_family,
)

GRID = symmetric_phi_grid()


def right_lead(m):
    """Probability of ending in the right lead, |S_31|^2 + |S_41|^2, per matrix."""
    return np.abs(m[..., 2, 0]) ** 2 + np.abs(m[..., 3, 0]) ** 2


class TestGrid:
    def test_exact_negation_closure(self):
        grid = symmetric_phi_grid()
        assert grid.size == smatrix.RIGIDITY_GRID_POINTS
        assert np.all(np.diff(grid) > 0) and -np.pi < grid[0] and grid[-1] < np.pi
        assert set(map(float, -grid)) == set(map(float, grid))
        assert grid[::-1].tobytes() == (-grid).tobytes()


class TestSeededGenerator:
    def test_seeded_generator_is_periodic_and_unitary(self):
        u = seeded_generator(42)
        for phi in (0.0, 0.3, -1.7):
            m = u(phi)
            assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-13)
            assert_allclose(u(phi + 2.0 * np.pi), m, atol=1e-12)


class TestReciprocalFromGenerator:
    def test_identity_generator(self):
        s = reciprocal_from_generator(lambda phi: np.eye(4))
        assert_allclose(s.at(0.7), np.eye(4), atol=1e-15)
        assert right_lead(s.at(0.7)) == 0.0

    def test_even_generator_gives_symmetric_s(self):
        q = seeded_generator(5)(0.0)

        def even_u(phi):
            return q * np.exp(1j * np.cos(phi))

        s = reciprocal_from_generator(even_u)
        for phi in (0.2, 1.0, -2.2):
            m = s.at(phi)
            assert_allclose(m, m.T, atol=1e-14)

    def test_invariants_over_seeded_families(self):
        # at() checks unitarity; reciprocity is S(phi) = S(-phi)^T.
        phis = GRID[::8]
        for seed in range(100):
            s = reciprocal_from_generator(seeded_generator(seed))
            assert_allclose(s.at(phis), np.swapaxes(s.at(-phis), -1, -2), rtol=0, atol=1e-12)

    def test_rejects_non_unitary_generator(self):
        s = reciprocal_from_generator(lambda phi: np.eye(4) * 1.01)
        with pytest.raises(ValueError):
            s.at(0.0)


class TestFactorized:
    def test_product_satisfies_rigidity_condition(self):
        for seed in range(30):
            s = factorized_s(
                reciprocal_ring_family(seed), random_symmetric_unitary(1000 + seed)
            )
            for phi in GRID[::8]:
                m = s.at(float(phi))
                assert abs(abs(m[0, 1]) ** 2 - abs(m[1, 0]) ** 2) < 1e-14

    def test_identity_detector_reduces_to_ring(self):
        ring = reciprocal_ring_family(3)
        s = factorized_s(ring, np.eye(2))
        for phi in (0.0, 0.9, -1.4):
            assert_allclose(right_lead(s.at(phi)), abs(ring(phi)[1, 0]) ** 2, rtol=1e-13)

    def test_identity_ring_blocks_transfer(self):
        s = factorized_s(lambda phi: np.eye(2), random_symmetric_unitary(8))
        for phi in (0.0, 0.9, -1.4):
            assert right_lead(s.at(phi)) == 0.0

    def test_rejects_non_unitary_detector(self):
        # S^dagger S - 1 = 1 (x) (D^dagger D - 1), so S.at refuses it at any phase.
        s = factorized_s(reciprocal_ring_family(0), np.eye(2) * 1.01)
        match = r"^scattering matrix S\(phi\) is not unitary at phi=0\.3 \(defect 2\.010e-02\)$"
        with pytest.raises(ValidityError, match=match):
            s.at(0.3)

    def test_rejects_non_square_detector(self):
        match = r"^detector scattering matrix must be square, got shape \(2, 3\)$"
        with pytest.raises(ValueError, match=match):
            factorized_s(reciprocal_ring_family(0), np.ones((2, 3)))

    def test_rejects_asymmetric_detector(self):
        # A phase-independent scatterer must be symmetric to be reciprocal.
        asym = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        match = r"^detector matrix is not symmetric \(defect 2\.000e\+00\)$"
        with pytest.raises(ValidityError, match=match):
            factorized_s(reciprocal_ring_family(0), asym)

    def test_rejects_nan_detector(self):
        # Refused when the family is built, by the symmetry check.
        match = r"^detector matrix is not symmetric \(defect nan\)$"
        with pytest.raises(ValidityError, match=match):
            factorized_s(reciprocal_ring_family(0), np.full((2, 2), np.nan))

    def test_rejects_non_unitary_ring(self):
        s = factorized_s(lambda phi: np.eye(2) * 0.99, random_symmetric_unitary(8))
        with pytest.raises(ValueError):
            s.at(0.0)


class TestTransmission:
    """The report's T(phi) = |S_31|^2 + |S_41|^2."""

    def test_identity_matrix(self):
        s = reciprocal_from_generator(lambda phi: np.eye(4))
        assert np.all(rigidity_report(s).t_pos == 0.0)

    def test_full_swap(self):
        swap = np.zeros((4, 4), dtype=complex)
        swap[2, 0] = swap[3, 1] = swap[0, 2] = swap[1, 3] = 1.0
        s = TwoParticleSMatrix(lambda phi: swap)
        assert np.all(rigidity_report(s).t_pos == 1.0)

    def test_column_unitarity_identity(self):
        for seed in range(50):
            s = reciprocal_from_generator(seeded_generator(seed))
            m = s.at(GRID)
            assert_allclose(
                rigidity_report(s).t_pos,
                1.0 - np.abs(m[:, 0, 0]) ** 2 - np.abs(m[:, 1, 0]) ** 2,
                rtol=0,
                atol=1e-12,
            )


class TestRigidityReport:
    def test_identity_residual_small_for_generic_families(self):
        worst = 0.0
        for seed in range(100):
            report = rigidity_report(reciprocal_from_generator(seeded_generator(seed)))
            worst = max(worst, report.max_identity_residual)
        assert worst < 1e-12

    def test_factorized_families_are_rigid(self):
        for seed in range(50):
            s = factorized_s(
                reciprocal_ring_family(seed), random_symmetric_unitary(2000 + seed)
            )
            report = rigidity_report(s)
            assert report.max_asymmetry < 1e-12
            assert report.max_identity_residual < 1e-12

    def test_generic_families_break_rigidity(self):
        asymmetries = [
            rigidity_report(reciprocal_from_generator(seeded_generator(seed))).max_asymmetry
            for seed in range(100)
        ]
        assert max(asymmetries) > 0.01
        assert np.median(asymmetries) > 0.01

    def test_identity_s_trivial_report(self):
        report = rigidity_report(reciprocal_from_generator(lambda phi: np.eye(4)))
        assert report.max_asymmetry == 0.0
        assert report.max_identity_residual == 0.0
        assert np.all(report.t_pos == 0.0)

    def test_reproducible_for_fixed_seed(self):
        a = rigidity_report(reciprocal_from_generator(seeded_generator(77)))
        b = rigidity_report(reciprocal_from_generator(seeded_generator(77)))
        assert np.array_equal(a.t_pos, b.t_pos)
        assert np.array_equal(a.identity_residual, b.identity_residual)


class TestFamilyBuilders:
    def test_builders_equal_their_spelled_out_construction(self):
        for seed in range(10):
            generic = reciprocal_from_generator(seeded_generator(seed))
            factorized = factorized_s(
                reciprocal_ring_family(seed + 1), random_symmetric_unitary(seed + 2)
            )
            assert np.array_equal(generic_family(seed).at(GRID), generic.at(GRID))
            built = factorized_family(seed + 1, seed + 2)
            assert np.array_equal(built.at(GRID), factorized.at(GRID))


def _generic(seed):
    return generic_family(seed)


def _factorized(seed):
    return factorized_family(10_000 + seed, 20_000 + seed)


class TestBatchedParity:
    """Whole-grid evaluation reproduces per-phase evaluation bit for bit."""

    @pytest.mark.parametrize("family", [_generic, _factorized])
    def test_stack_equals_per_phase_matrices(self, family):
        for seed in range(20):
            s = family(seed)
            assert np.array_equal(s.at(GRID), np.array([s.at(p) for p in GRID]))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", [12348, list(range(2**31 - 8, 2**31 + 8))], ids=["int", "16-seeds"])
    def test_generator_equals_one_product_per_phase(self, dim, seed):
        # The generator's draws, spelled out: per seed the Gaussian of Q0,
        # that of Q1, then the windings; U(phi) is then one d x d product
        # per phase, where the generator makes one GEMM per family.
        def per_phase(s):
            rng = np.random.default_rng(s)
            x = rng.standard_normal((2, 2, dim, dim))
            q0, q1 = smatrix._orthonormalize(x)
            windings = rng.integers(-2, 3, size=dim)
            return np.array([(q0 * np.exp(1j * windings * phi)) @ q1 for phi in GRID])

        expected = per_phase(seed) if isinstance(seed, int) else np.array([per_phase(s) for s in seed])
        assert np.array_equal(seeded_generator(seed, dim)(GRID), expected)

    def test_mirrored_grid_evaluates_the_generator_once(self):
        u0 = seeded_generator(4)
        calls = []
        s = reciprocal_from_generator(lambda phi: calls.append(phi.shape) or u0(phi))
        s.at(GRID)
        assert calls == [GRID.shape]
        # Not closed under negation; an odd grid holds 0.0, whose negation is -0.0.
        odd = np.pi * (2 * np.arange(65) - 64) / 65
        assert odd[32] == 0.0
        for phis in (GRID[1:], odd):
            calls.clear()
            assert np.array_equal(s.at(phis), np.array([s.at(p) for p in phis]))
            assert calls[:2] == [phis.shape, phis.shape]

    def test_factorized_stack_equals_np_kron(self):
        for seed in range(20):
            ring = reciprocal_ring_family(10_000 + seed)
            det = random_symmetric_unitary(20_000 + seed)
            expected = np.array([np.kron(ring(p), det) for p in GRID])
            assert np.array_equal(factorized_s(ring, det).at(GRID), expected)

    @pytest.mark.parametrize("family", [_generic, _factorized])
    def test_report_equals_scalar_formulas(self, family):
        for seed in range(20):
            s = family(seed)
            mats = [s.at(p) for p in GRID]
            t = np.array([abs(m[2, 0]) ** 2 + abs(m[3, 0]) ** 2 for m in mats])
            t_neg = np.array([abs(s.at(-p)[2, 0]) ** 2 + abs(s.at(-p)[3, 0]) ** 2 for p in GRID])
            d = np.array([abs(m[0, 1]) ** 2 - abs(m[1, 0]) ** 2 for m in mats])
            report = rigidity_report(s)
            assert np.array_equal(report.phis, GRID)
            assert np.array_equal(report.t_pos, t)
            assert np.array_equal(report.t_neg, t_neg)
            assert np.array_equal(report.s12sq_minus_s21sq, d)
            assert np.array_equal(report.identity_residual, (t - t_neg) - d)

    def test_transmission_over_a_phase_array(self):
        s = _generic(3)
        t = right_lead(s.at(GRID))
        assert t.shape == GRID.shape
        assert np.array_equal(t, [right_lead(s.at(p)) for p in GRID])
        assert s.at(GRID[0]).shape == (4, 4)  # a scalar phase gives one matrix

    def test_phase_independent_family_broadcasts(self):
        swap = np.eye(4)[[2, 3, 0, 1]]
        s = TwoParticleSMatrix(lambda phi: swap)
        assert s.at(GRID).shape == (GRID.size, 4, 4)
        assert s.at(0.3).shape == (4, 4)
        assert np.all(rigidity_report(s).t_pos == 1.0)

    def test_rejects_stack_that_does_not_fit_phases(self):
        s = TwoParticleSMatrix(lambda phi: np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            s.at(GRID)


def _bump(phi):
    """Factor 1 + 0.01 cos(phi): the unitarity defect is worst nearest phi = 0."""
    return 1.0 + 0.01 * np.cos(phi)[..., None, None]


class TestFailureNamesWorstPhase:
    PHIS = np.array([-2.0, 0.5, 2.5, -1.0])

    # Unitarity is checked on S itself, so every route names S(phi).
    def test_generator(self):
        s = reciprocal_from_generator(lambda phi: np.eye(4) * _bump(phi))
        with pytest.raises(ValidityError, match=r"S\(phi\) is not unitary at phi=0\.5 "):
            s.at(self.PHIS)

    def test_ring(self):
        s = factorized_s(lambda phi: np.eye(2) * _bump(phi), random_symmetric_unitary(8))
        with pytest.raises(ValidityError, match=r"S\(phi\) is not unitary at phi=0\.5 "):
            s.at(self.PHIS)


class TestNanIsRejected:
    """A NaN defect fails every check and is named as the worst."""

    NAN_FAMILY = staticmethod(lambda phi: np.full(np.shape(phi) + (4, 4), np.nan))

    def test_at_scalar_phase(self):
        s = TwoParticleSMatrix(self.NAN_FAMILY)
        with pytest.raises(ValidityError, match=r"not unitary at phi=0\.3 \(defect nan\)"):
            s.at(0.3)

    def test_infinite_entry_names_its_phase(self):
        family = generic_family(3)

        def one_infinite_entry(phi):
            m = family.s_of_phi(phi)
            m[7, 1, 2] = np.inf
            return m

        phi = re.escape(repr(float(GRID[7])))
        with pytest.raises(ValidityError, match=rf"not unitary at phi={phi} \(defect (inf|nan)\)$"):
            TwoParticleSMatrix(one_infinite_entry).at(GRID)

    def test_defect_check_names_the_nan_phase(self):
        defect, phis = np.array([0.0, np.nan, 0.0]), np.array([0.5, -1.0, 2.0])
        with pytest.raises(ValidityError, match=r"^broken at phi=-1\.0 \(defect nan\)$"):
            smatrix._check_defect(defect, phis, "broken")


class TestPhaseEntry:
    """``at`` takes finite real phases and refuses the rest before it evaluates the family."""

    @pytest.mark.parametrize("phi", ["0.3", True, np.nan, [0.3, np.inf], 0.3j, None, [0.3, True]])
    def test_phase_that_is_not_finite_and_real_rejected(self, phi):
        calls = []
        s = TwoParticleSMatrix(lambda p: calls.append(p) or np.eye(4))
        match = r"^phase must be a finite real number or an array of them, got "
        for family in (s, generic_family(3)):
            with pytest.raises(ValidityError, match=match):
                family.at(phi)
        assert calls == []

    def test_real_phases_are_float64(self):
        family = generic_family(3)
        assert family.at([0.3, -1.0]).tobytes() == family.at(np.array([0.3, -1.0])).tobytes()
        assert family.at(np.float32(0.5)).tobytes() == family.at(0.5).tobytes()
        assert family.at(2).tobytes() == family.at(2.0).tobytes()


class TestUnitarityBoundary:
    """S is checked once per evaluated stack, and nothing else is checked per phase."""

    @pytest.mark.parametrize(
        "build",
        [lambda: generic_family(5), lambda: factorized_family(6, 7)],
        ids=["generic", "factorized"],
    )
    def test_one_check_per_stack_on_s(self, build, monkeypatch):
        s = build()  # a factorized detector is checked for symmetry only
        checked = []
        original = smatrix._unitarity_defect
        monkeypatch.setattr(
            smatrix, "_unitarity_defect", lambda m: checked.append(m.shape) or original(m)
        )
        s.at(GRID)
        assert checked == [(GRID.size, 4, 4)]

    @pytest.mark.parametrize("defect, rejected", [(2e-12, True), (5e-13, False)])
    def test_defect_threshold(self, defect, rejected):
        # A generic S scaled at phi = GRID[5] by sqrt(1 + defect), so that
        # S^dagger S = (1 + defect) 1 there, to rounding.
        family = generic_family(5)

        def scaled(phi):
            m = family.s_of_phi(phi)
            return m * np.where(phi == GRID[5], np.sqrt(1.0 + defect), 1.0)[..., None, None]

        s = TwoParticleSMatrix(scaled)
        if rejected:
            phi = re.escape(repr(float(GRID[5])))
            defect_text = r"\(defect (1\.99\d|2\.00\d)e-12\)"  # 2e-12, to rounding
            with pytest.raises(ValidityError, match=rf"not unitary at phi={phi} {defect_text}$"):
                s.at(GRID)
        else:
            assert np.array_equal(s.at(GRID)[5], family.at(GRID)[5] * np.sqrt(1.0 + defect))

    def test_non_unitary_generator_with_unitary_s_is_accepted(self):
        # U(phi) = exp(0.3 sin phi) U0(phi) is not unitary, but the factor
        # cancels in U(phi) U(-phi)^T, so S is the unitary generic family.
        u0 = seeded_generator(4)

        def u(phi):
            return np.exp(0.3 * np.sin(phi))[..., None, None] * u0(phi)

        s = reciprocal_from_generator(u)
        assert_allclose(s.at(GRID), generic_family(4).at(GRID), atol=1e-14)


# Seeds near 0, near 2^31 and above 2^31 + 20,000, the top of the offsets
# that the verification suite adds to a benchmark seed.
STACK_SEEDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1] + list(
    range(2**31 + 20_000, 2**31 + 20_010)
)


class TestSeedStacks:
    """A sequence of seeds builds the per-seed families, stacked on a leading axis, bit for bit."""

    def test_generic(self):
        stack = generic_family(STACK_SEEDS).at(GRID)
        assert stack.shape == (len(STACK_SEEDS), GRID.size, 4, 4)
        for k, seed in enumerate(STACK_SEEDS):
            assert np.array_equal(stack[k], generic_family(seed).at(GRID))

    def test_ring(self):
        stack = reciprocal_ring_family(STACK_SEEDS)(GRID)
        for k, seed in enumerate(STACK_SEEDS):
            assert np.array_equal(stack[k], reciprocal_ring_family(seed)(GRID))

    def test_detector(self):
        stack = random_symmetric_unitary(STACK_SEEDS)
        assert stack.shape == (len(STACK_SEEDS), 2, 2)
        for k, seed in enumerate(STACK_SEEDS):
            assert np.array_equal(stack[k], random_symmetric_unitary(seed))

    def test_factorized(self):
        detectors = [seed + 10_000 for seed in STACK_SEEDS]
        stack = factorized_family(STACK_SEEDS, detectors).at(GRID)
        for k, (ring, det) in enumerate(zip(STACK_SEEDS, detectors)):
            assert np.array_equal(stack[k], factorized_family(ring, det).at(GRID))

    def test_scalar_phase_and_generator(self):
        u = seeded_generator(STACK_SEEDS[:3])
        assert u(0.3).shape == (3, 4, 4)
        assert np.array_equal(u(0.3)[2], seeded_generator(STACK_SEEDS[2])(0.3))
        assert generic_family(STACK_SEEDS[:3]).at(0.3).shape == (3, 4, 4)

    @pytest.mark.parametrize(
        "build", [lambda: generic_family([]), lambda: random_symmetric_unitary([]),
                  lambda: seeded_generator([]), lambda: factorized_family([], [])],
        ids=["generic", "detector", "generator", "factorized"],
    )
    def test_empty_seed_sequence_is_rejected(self, build):
        with pytest.raises(ValueError, match="^a sequence of seeds must not be empty$"):
            build()

    @pytest.mark.parametrize(
        "rings, detectors, counts",
        [
            ([1, 2], [3], "2 ring seeds and 1 detector seeds"),
            ([1, 2, 3], [4, 5], "3 ring seeds and 2 detector seeds"),
            (1, [4, 5], "an int ring seed and 2 detector seeds"),
            ([1, 2], 3, "2 ring seeds and an int detector seed"),
        ],
    )
    def test_factorized_seeds_must_pair_up(self, rings, detectors, counts):
        with pytest.raises(ValueError, match=f"must pair up element by element, got {counts}$"):
            factorized_family(rings, detectors)

    def test_report_gains_a_family_axis(self):
        seeds = STACK_SEEDS[:5]
        stacked = rigidity_report(generic_family(seeds))
        assert np.array_equal(stacked.phis, GRID)
        for k, seed in enumerate(seeds):
            single = rigidity_report(generic_family(seed))
            for field in ("t_pos", "t_neg", "s12sq_minus_s21sq", "identity_residual"):
                assert np.array_equal(getattr(stacked, field)[k], getattr(single, field))
        singles = [rigidity_report(generic_family(seed)) for seed in seeds]
        assert stacked.max_asymmetry == max(r.max_asymmetry for r in singles)
        assert stacked.max_identity_residual == max(r.max_identity_residual for r in singles)

    def test_nan_family_in_a_stack_is_rejected(self):
        family = generic_family(STACK_SEEDS[:4])

        def one_nan_family(phi):
            m = family.s_of_phi(phi)
            m[1] = np.nan
            return m

        s = TwoParticleSMatrix(one_nan_family)
        with pytest.raises(ValidityError, match=r"not unitary at phi=-3\.09\d* \(defect nan\)"):
            s.at(GRID)

    def test_failure_names_the_phase_within_a_family_stack(self):
        # Family 1 of 3 is off by a factor 1 + 0.01 cos(phi): worst at phi = 0.5.
        phis = np.array([-2.0, 0.5, 2.5, -1.0])
        family = generic_family([3, 4, 5])

        def bumped(phi):
            m = family.s_of_phi(phi)
            m[1] = m[1] * _bump(phi)
            return m

        with pytest.raises(ValidityError, match=r"S\(phi\) is not unitary at phi=0\.5 "):
            TwoParticleSMatrix(bumped).at(phis)
