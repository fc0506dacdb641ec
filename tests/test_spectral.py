"""Discretized operators: the exact defect bound state, Morse counts against
the proven values, kernel checks, parity of eigenvectors, and the quadratic
form with the sampled wave."""

import collections
import math

import numpy as np
import pytest

from peakwave import validate_params
from peakwave.errors import ConvergenceError, DomainError, GridError, RegimeError
from peakwave import spectral
from peakwave.spectral import (
    GridSpec,
    OperatorKind,
    Sector,
    discretize_operator,
    inertia_below,
    kernel_residual,
    lowest_eigenpairs,
    morse_index,
    negative_direction_check,
    quadratic_form_discrete,
    quadratic_form_phi,
    spectrum_report,
)

P_AA_POS = validate_params(1.0, 1.0, -2.0, 1.0)
P_AA_NEG = validate_params(1.0, 1.0, -2.0, -1.0)
P_AR_POS = validate_params(2.0, -1.0, -0.5, 1.0)
P_DELTA = validate_params(1.0, 1.0, -2.0, 2.0)

L_AA = 30.0 / math.sqrt(2.0)


def grid_for(p, n=2001):
    return spectral.default_grid(p, n_points=n)


def lowest_eigenvalue(kind, p, grid):
    op = discretize_operator(kind, p, grid)
    return lowest_eigenpairs(op, 1)[0][0]


class TestGridSpec:
    def test_full_line_requires_odd(self):
        with pytest.raises(GridError):
            GridSpec(10.0, 2000)
        with pytest.raises(GridError):
            GridSpec(-1.0, 2001)

    @pytest.mark.parametrize("half_width,n_points,sector", [
        (1e308, 3, Sector.FULL_LINE), (1e308, 5, Sector.FULL_LINE), (math.inf, 3, Sector.FULL_LINE),
        (math.inf, 2, Sector.EVEN_SECTOR),
    ])
    def test_non_finite_spacing_rejected(self, half_width, n_points, sector):
        with pytest.raises(GridError, match="not finite"):
            GridSpec(half_width, n_points, sector)

    def test_node_mirror_symmetry_is_exact(self):
        x = GridSpec(21.0, 4001).nodes()
        assert np.all(x == -x[::-1])
        assert x[2000] == 0.0

    def test_spacing_identity(self):
        g = GridSpec(12.0, 481)
        assert g.spacing * (g.n_points - 1) == pytest.approx(2.0 * g.half_width, rel=1e-15)

    def test_even_half(self):
        g = GridSpec(12.0, 481)
        ge = g.even_half()
        assert ge.sector is Sector.EVEN_SECTOR
        assert ge.spacing == pytest.approx(g.spacing, rel=1e-15)
        assert ge.n_points == 241


class TestDiscretizeOperator:
    def test_resolution_precondition(self):
        with pytest.raises(GridError):
            discretize_operator(OperatorKind.L1, P_AA_POS, GridSpec(L_AA, 501))

    def test_extent_precondition(self):
        with pytest.raises(GridError):
            discretize_operator(OperatorKind.L1, P_AA_POS, GridSpec(5.0, 2001))

    def test_symmetric_by_construction(self):
        op = discretize_operator(OperatorKind.L1, P_AA_POS, grid_for(P_AA_POS))
        # One shared off-diagonal array: the matrix equals its transpose.
        assert op.offdiagonal.shape == (op.size - 1,)
        v = np.sin(np.linspace(0.0, 3.0, op.size))
        w = np.cos(np.linspace(0.0, 2.0, op.size))
        assert float(v @ op.apply(w)) == pytest.approx(float(w @ op.apply(v)), rel=1e-12)

    def test_delta_lump_on_center_diagonal(self):
        g = grid_for(P_DELTA)
        with_delta = discretize_operator(OperatorKind.FREE_WITH_DELTA, P_DELTA, g)
        h = g.spacing
        assert with_delta.diagonal[g.center_index] == pytest.approx(2.0 / h**2 - P_DELTA.z / h, rel=1e-14)


class TestDeltaBoundState:
    def test_eigenvalue_reproduced(self):
        lam = lowest_eigenvalue(OperatorKind.FREE_WITH_DELTA, P_DELTA, grid_for(P_DELTA, 4001))
        assert lam == pytest.approx(-1.0, abs=2e-3)

    def test_convergence_under_refinement(self):
        # Node-centered symmetric lumping superconverges: the measured
        # eigenvalue rate is ~2, comfortably at least first order.
        errors = []
        spacings = []
        for n in (2001, 4001, 8001):
            g = grid_for(P_DELTA, n)
            lam = lowest_eigenvalue(OperatorKind.FREE_WITH_DELTA, P_DELTA, g)
            errors.append(abs(lam + 1.0))
            spacings.append(g.spacing)
        slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
        assert slope >= 0.8
        assert errors[0] > errors[1] > errors[2]

    def test_no_bound_state_for_repulsive_delta(self):
        g = grid_for(P_AA_NEG)
        op = discretize_operator(OperatorKind.FREE_WITH_DELTA, P_AA_NEG, g)
        assert inertia_below(op, -spectral.zero_exclusion_shift(g, P_AA_NEG)) == 0

    def test_eigenvector_matches_exact_bound_state(self):
        g = grid_for(P_DELTA, 4001)
        op = discretize_operator(OperatorKind.FREE_WITH_DELTA, P_DELTA, g)
        lam, vec = lowest_eigenpairs(op, 1)[0]
        x = g.nodes()
        exact = np.sqrt(P_DELTA.z / 2.0) * np.exp(-P_DELTA.z * np.abs(x) / 2.0)
        if vec[g.center_index] < 0:
            vec = -vec
        assert float(np.max(np.abs(vec - exact))) < g.spacing


class TestInertia:
    def test_gershgorin_extremes(self):
        op = discretize_operator(OperatorKind.L1, P_AA_POS, grid_for(P_AA_POS))
        lo, hi = op.gershgorin_bounds()
        assert inertia_below(op, lo - 1.0) == 0
        assert inertia_below(op, hi + 1.0) == op.size

    def test_single_negative_eigenvalue_positive_strength(self):
        op = discretize_operator(OperatorKind.L1, P_AA_POS, grid_for(P_AA_POS))
        assert inertia_below(op, -1e-6) == 1

    def test_consistency_with_eigenvalues(self):
        op = discretize_operator(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG))
        for lam, _ in lowest_eigenpairs(op, 2):
            delta = 1e-9 * max(1.0, abs(lam))
            assert inertia_below(op, lam + delta) - inertia_below(op, lam - delta) == 1


class TestMorseIndex:
    @pytest.mark.parametrize("z,expected", [(0.5, 1), (1.0, 1), (2.0, 1),
                                            (-0.3, 2), (-0.7, 2), (-1.2, 2)])
    def test_counts_full_line(self, z, expected):
        p = validate_params(1.0, 1.0, -2.0, z)
        assert morse_index(OperatorKind.L1, p, grid_for(p)) == expected

    @pytest.mark.parametrize("p", [P_AA_POS, P_AA_NEG, P_AR_POS])
    def test_second_operator_has_none(self, p):
        assert morse_index(OperatorKind.L2, p, grid_for(p)) == 0

    @pytest.mark.parametrize("p", [P_AA_POS, P_AA_NEG, P_AR_POS])
    def test_even_sector_count_is_one(self, p):
        assert morse_index(OperatorKind.L1, p, grid_for(p).even_half()) == 1

    def test_stable_across_three_grids(self):
        for n in (2001, 4001, 8001):
            assert morse_index(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG, n)) == 2

    def test_ar_counts(self):
        assert morse_index(OperatorKind.L1, P_AR_POS, grid_for(P_AR_POS)) == 1
        p = validate_params(2.0, -1.0, -0.5, -1.0)
        assert morse_index(OperatorKind.L1, p, grid_for(p)) == 2


class TestEigenpairs:
    def test_k_bound(self):
        op = discretize_operator(OperatorKind.L2, P_AA_POS, grid_for(P_AA_POS))
        with pytest.raises(DomainError):
            lowest_eigenpairs(op, 6)

    def test_ground_state_parallel_to_wave(self):
        g = grid_for(P_AA_POS, 4001)
        op = discretize_operator(OperatorKind.L2, P_AA_POS, g)
        lam, vec = lowest_eigenpairs(op, 1)[0]
        phi = spectral.ProfileEvaluator.from_params(P_AA_POS).value(g.nodes())
        h = g.spacing
        cosine = abs(float(np.sum(vec * phi)) * h) / math.sqrt(
            float(np.sum(vec**2)) * h * float(np.sum(phi**2)) * h
        )
        assert cosine > 1.0 - 1e-6

    def test_second_eigenvector_is_odd_for_negative_strength(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        g = grid_for(p, 4001)
        op = discretize_operator(OperatorKind.L1, p, g)
        _, vec = lowest_eigenpairs(op, 2)[1]
        odd_part = 0.5 * (vec - vec[::-1])
        ratio = math.sqrt(float(np.sum(odd_part**2)) / float(np.sum(vec**2)))
        assert ratio > 1.0 - 1e-4


class TestSteinEigenvectors:
    # Nearly degenerate box states, where orthogonality is hardest to keep.
    POINTS = [((1.0, 1.0, -2.0, 1.0), OperatorKind.L2),
              ((1.0, 1.0, -3.0, 2.0), OperatorKind.FREE_WITH_DELTA)]

    @staticmethod
    def pairs(point, kind):
        p = validate_params(*point)
        g = grid_for(p, 4001)
        return g, lowest_eigenpairs(discretize_operator(kind, p, g), 3)

    @pytest.mark.parametrize("point,kind", POINTS)
    def test_h_weighted_gram_is_identity(self, point, kind):
        g, pairs = self.pairs(point, kind)
        vecs = np.array([v for _, v in pairs])
        gram = vecs @ vecs.T * g.spacing
        assert float(np.max(np.abs(gram - np.eye(3)))) < 1e-12

    @pytest.mark.parametrize("point,kind", POINTS)
    def test_largest_entry_at_nonnegative_x_is_positive(self, point, kind):
        g, pairs = self.pairs(point, kind)
        c = g.center_index
        for _, v in pairs:
            right = v[c:]
            assert right[int(np.argmax(np.abs(right)))] > 0.0

    def test_stein_failure_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "dstein", lambda d, e, w, *_: (np.zeros((len(d), len(w))), 1))
        op = discretize_operator(OperatorKind.L2, P_AA_POS, grid_for(P_AA_POS))
        with pytest.raises(ConvergenceError):
            lowest_eigenpairs(op, 2)


class TestKernelResidual:
    def test_l2_zero_mode_small_at_reference_spacing(self):
        # h ~ 0.01: n chosen so spacing lands at the reference value.
        n = 2 * round(L_AA / 0.01) + 1
        report = kernel_residual(P_AA_POS, GridSpec(L_AA, n))
        assert report.l2_zero_abs < 5e-4

    def test_l2_zero_mode_second_order(self):
        values = []
        for n in (2001, 4001):
            g = grid_for(P_AA_POS, n)
            values.append(kernel_residual(P_AA_POS, g).l2_zero_abs)
        ratio = values[0] / values[1]
        assert 2.5 < ratio < 6.5

    def test_l1_gap_bounded_away_from_zero(self):
        for n in (2001, 4001):
            report = kernel_residual(P_AA_NEG, grid_for(P_AA_NEG, n))
            assert report.l1_distance_to_zero > 0.01


class TestSpectrumReport:
    def test_listed_below_essential_edge(self):
        report = spectrum_report(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG), k=3)
        assert report.essential_edge == -P_AA_NEG.omega
        assert report.negative_count == 2
        assert all(lam < report.essential_edge for lam, _ in report.lowest_pairs)

    @pytest.mark.parametrize("kind,p", [(OperatorKind.L1, P_AA_POS), (OperatorKind.L1, P_AA_NEG),
                                        (OperatorKind.L2, P_AA_POS)])
    def test_each_eigenvalue_bisected_once(self, kind, p, monkeypatch):
        calls = collections.Counter()
        real = spectral._eigenvalue_by_index

        def counting(op, index, *args, **kwargs):
            calls[index] += 1
            return real(op, index, *args, **kwargs)

        monkeypatch.setattr(spectral, "_eigenvalue_by_index", counting)
        spectrum_report(kind, p, grid_for(p), k=3)
        assert calls == {0: 1, 1: 1, 2: 1}

    def test_free_delta_edge_is_zero(self):
        report = spectrum_report(OperatorKind.FREE_WITH_DELTA, P_DELTA, grid_for(P_DELTA), k=1)
        assert report.essential_edge == 0.0
        assert report.negative_count == 1


class TestQuadraticForm:
    def test_negative_attractive_attractive(self):
        assert quadratic_form_phi(P_AA_POS) < 0.0

    def test_negative_in_ar_window(self):
        assert quadratic_form_phi(P_AR_POS) < 0.0

    def test_discrete_agreement(self):
        for p in (P_AA_POS, P_AR_POS):
            g = grid_for(p, 8001)
            q = quadratic_form_phi(p)
            d = quadratic_form_discrete(p, g)
            assert abs(d - q) / abs(q) < 1e-4


class TestNegativeDirectionCheck:
    def test_window_point(self):
        assert negative_direction_check(P_AR_POS) is True

    def test_outside_window(self):
        p = validate_params(2.0, -1.0, -0.5, -1.0)  # negative strength: outside
        assert negative_direction_check(p) is False

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            negative_direction_check(P_AA_POS)

    def test_window_implies_negative_form(self):
        for (l1, l2, omega, z) in [(2.0, -1.0, -0.5, 1.0), (2.0, -1.0, -0.6, 0.9),
                                   (4.0, -2.0, -1.0, 1.2)]:
            p = validate_params(l1, l2, omega, z)
            if negative_direction_check(p):
                assert p.lambda1 / (2.0 * p.lambda2) + spectral.phi_center_sq(p) < 0.0
                assert quadratic_form_phi(p) < 0.0
