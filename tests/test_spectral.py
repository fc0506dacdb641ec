"""Discretized operators: the exact defect bound state, Morse counts against
the proven values, parity blocks and their counts, bisected eigenvalues
against LAPACK, kernel checks, parity of eigenvectors (from the LAPACK
oracle), and the quadratic form with the sampled wave."""

import collections
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakwave import validate_params
from peakwave.errors import DomainError, GridError, InstabilityError, RegimeError
from peakwave import spectral
from peakwave.spectral import (
    GridSpec,
    OperatorKind,
    Space,
    discretize_operator,
    inertia_below,
    kernel_residual,
    lowest_eigenvalues,
    negative_direction_check,
    parity_blocks,
    parity_counts,
    quadratic_form_discrete,
    spectrum_report,
)

from oracles import even_sector_operator, lapack_eigenvalues, lapack_eigenvector
from oracles import negative_direction_window, phi_center_sq, quadratic_form_phi

P_AA_POS = validate_params(1.0, 1.0, -2.0, 1.0)
P_AA_NEG = validate_params(1.0, 1.0, -2.0, -1.0)
P_AR_POS = validate_params(2.0, -1.0, -0.5, 1.0)
P_DELTA = validate_params(1.0, 1.0, -2.0, 2.0)

L_AA = 30.0 / math.sqrt(2.0)


def grid_for(p, n=2001):
    return spectral.default_grid(p, n_points=n)


def lowest_eigenvalue(kind, p, grid):
    return lowest_eigenvalues(discretize_operator(kind, p, grid), 1, math.inf)[0]


class TestGridSpec:
    def test_full_line_requires_odd(self):
        with pytest.raises(GridError):
            GridSpec(10.0, 2000)
        with pytest.raises(GridError):
            GridSpec(-1.0, 2001)

    @pytest.mark.parametrize("half_width,n_points", [(1e308, 3), (1e308, 5), (math.inf, 3)])
    def test_non_finite_spacing_rejected(self, half_width, n_points):
        with pytest.raises(GridError, match="not finite"):
            GridSpec(half_width, n_points)

    def test_node_mirror_symmetry_is_exact(self):
        x = GridSpec(21.0, 4001).nodes()
        assert np.all(x == -x[::-1])
        assert x[2000] == 0.0

    def test_spacing_identity(self):
        g = GridSpec(12.0, 481)
        assert g.spacing * (g.n_points - 1) == pytest.approx(2.0 * g.half_width, rel=1e-15)

    def test_parity_blocks_of_a_grid(self):
        p = validate_params(1.0, 1.0, -2.0, -1.0)
        g = GridSpec(30.0, 2401)
        even, odd = parity_blocks(discretize_operator(OperatorKind.L1, p, g))
        assert (even.size, odd.size) == (1201, 1200)
        assert even.spacing == odd.spacing == g.spacing
        assert even.origin_row == odd.origin_row == 0


class TestDiscretizeOperator:
    def test_resolution_precondition(self):
        with pytest.raises(GridError):
            discretize_operator(OperatorKind.L1, P_AA_POS, GridSpec(L_AA, 501))

    def test_extent_precondition(self):
        with pytest.raises(GridError):
            discretize_operator(OperatorKind.L1, P_AA_POS, GridSpec(5.0, 2001))

    @pytest.mark.parametrize("omega", [-1e151, -1e155])
    def test_overflowing_coupling_at_extreme_frequency(self, omega):
        # The default grid resolves the wave, so h ~ 1/sqrt(-omega) and 2/h^4
        # overflows; the counts would otherwise read NaN pivots (or, at
        # -1e155, zero_exclusion_shift would raise OverflowError).
        p = validate_params(1.0, 1.0, omega, 1.0)
        with pytest.raises(GridError, match="2/h\\^4"):
            spectrum_report(OperatorKind.L1, p, grid_for(p, 4001))

    def test_even_block_coupling_sets_the_overflow_bound(self):
        # On the extent floor 30/nu at nu = 1e75, n = 6669 gives h = 8.998e-78:
        # the full line's 1/h^4 is finite, but the even block's center
        # coupling sqrt(2)/h^2 squares to inf.
        p = validate_params(1.0, 1.0, -1e150, 1.0)
        grid = GridSpec(30.0 / 1e75, 6669)
        h = grid.spacing
        assert math.isfinite(1.0 / h**4) and not math.isfinite(2.0 / h**4)
        with pytest.raises(GridError, match="2/h\\^4"):
            discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)

    def test_extent_bound_is_relative(self):
        # 30/sqrt(-omega) = 3e-10 is far below the old absolute slack 1e-9, which
        # let a box 300 times too short through and read a count of 0 for L1.
        p = validate_params(1.0, 1.0, -1e22, 1.0)
        with pytest.raises(GridError, match="extent bound"):
            parity_counts(OperatorKind.L1, p, GridSpec(1e-12, 2001))

    def test_resolution_bound_is_relative(self):
        # h = 9.5e-79 is six times the bound 1.58e-79, far below the old 1e-12 slack.
        p = validate_params(1.0, 1.0, -1e155, 1.0)
        with pytest.raises(GridError, match="resolution bound"):
            discretize_operator(OperatorKind.L1, p, spectral.default_grid(p, 201))

    def test_bounds_keep_their_slack_at_unit_frequency(self):
        p = validate_params(1.0, 1.0, -1.0, 1.0)
        for grid in (GridSpec(30.0 - 0.9e-9, 1201), GridSpec(30.0, 1201), GridSpec(0.05 * 600 + 5e-10, 1201)):
            discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)
        for grid in (GridSpec(30.0 - 1.1e-9, 1201), GridSpec(0.05 * 600 + 7e-10, 1201)):
            with pytest.raises(GridError):
                discretize_operator(OperatorKind.FREE_WITH_DELTA, p, grid)

    @pytest.mark.parametrize("omega, grid", [
        (-1e300, GridSpec(1e-170, 3)),
        # On the extent floor at omega = -1e308, with h^2 below the smallest subnormal.
        (-1e308, GridSpec(30.0 / math.sqrt(1e308), 10**10 + 1)),
    ], ids=["short-box", "h-squared-underflows"])
    def test_vanishing_spacing_is_a_grid_error(self, omega, grid):
        p = validate_params(1.0, 1.0, omega, 1.0)
        with pytest.raises(GridError):
            discretize_operator(OperatorKind.L1, p, grid)

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
        vec = lapack_eigenvector(op, 0)
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
        for lam in lowest_eigenvalues(op, 2, math.inf):
            delta = 1e-9 * max(1.0, abs(lam))
            assert inertia_below(op, lam + delta) - inertia_below(op, lam - delta) == 1


class TestMorseIndex:
    @pytest.mark.parametrize("z,expected", [(0.5, 1), (1.0, 1), (2.0, 1),
                                            (-0.3, 2), (-0.7, 2), (-1.2, 2)])
    def test_counts_full_line(self, z, expected):
        p = validate_params(1.0, 1.0, -2.0, z)
        assert sum(parity_counts(OperatorKind.L1, p, grid_for(p))) == expected

    @pytest.mark.parametrize("p", [P_AA_POS, P_AA_NEG, P_AR_POS])
    def test_second_operator_has_none(self, p):
        assert sum(parity_counts(OperatorKind.L2, p, grid_for(p))) == 0

    @pytest.mark.parametrize("p", [P_AA_POS, P_AA_NEG, P_AR_POS])
    def test_even_sector_count_is_one(self, p):
        # The second negative direction of a negative defect is odd.
        assert parity_counts(OperatorKind.L1, p, grid_for(p)) == (1, 1 if p.z < 0.0 else 0)
        assert parity_counts(OperatorKind.L2, p, grid_for(p)) == (0, 0)

    def test_stable_across_three_grids(self):
        for n in (2001, 4001, 8001):
            assert sum(parity_counts(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG, n))) == 2

    def test_ar_counts(self):
        assert sum(parity_counts(OperatorKind.L1, P_AR_POS, grid_for(P_AR_POS))) == 1
        p = validate_params(2.0, -1.0, -0.5, -1.0)
        assert sum(parity_counts(OperatorKind.L1, p, grid_for(p))) == 2


def seeded_points(seed, count):
    """Points of the unit box, the (2, -1) box and general focusing pairs, in turn."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        if i % 3 == 1:
            # Focusing-defocusing: Z^2/4 < -omega < 3/4.
            z = rng.uniform(0.25, 1.15) * rng.choice((-1.0, 1.0))
            points.append((2.0, -1.0, -rng.uniform(z * z / 4.0 + 0.05, 0.7), z))
            continue
        # Unit box, or its image under the scaling onto a general focusing pair.
        z = rng.uniform(0.2, 1.8) * rng.choice((-1.0, 1.0))
        l1, l2 = (1.0, 1.0) if i % 3 == 0 else (rng.uniform(0.3, 3.0), rng.uniform(0.1, 3.0))
        omega_u = -rng.uniform(max(1.3 * z * z / 4.0 + 0.2, 1.2), 6.0)
        points.append((l1, l2, omega_u * l1 * l1 / l2, z * l1 / math.sqrt(l2)))
    return [validate_params(*point) for point in points]


class TestParityBlocks:
    """The parity blocks are slices of the full-line operator, and their
    counts add up to the count on the whole of it."""

    POINTS = seeded_points(1801, 18)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("n", [2001, 4001])
    def test_even_block_is_the_ghost_point_assembly(self, kind, n):
        for p in self.POINTS[:6]:
            g = grid_for(p, n)
            even, _ = parity_blocks(discretize_operator(kind, p, g))
            ref = even_sector_operator(kind, p, g)
            assert np.array_equal(even.diagonal, ref.diagonal), (p, kind, n)
            assert np.array_equal(even.offdiagonal, ref.offdiagonal), (p, kind, n)
            assert even.spacing == ref.spacing

    def test_odd_block_is_the_dirichlet_slice(self):
        op = discretize_operator(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG))
        _, odd = parity_blocks(op)
        c = op.origin_row
        assert np.array_equal(odd.diagonal, op.diagonal[c + 1:])
        assert np.array_equal(odd.offdiagonal, op.offdiagonal[c + 1:])

    @pytest.mark.parametrize("kind", [OperatorKind.L1, OperatorKind.L2])
    def test_full_count_is_even_plus_odd(self, kind):
        for p in self.POINTS:
            g = grid_for(p)
            n_even, n_odd = parity_counts(kind, p, g)
            for grid in (g, g.refined()):
                op = discretize_operator(kind, p, grid)
                shift = -spectral.zero_exclusion_shift(grid, p)
                assert n_even + n_odd == inertia_below(op, shift), (p, kind, grid.n_points)
            assert sum(parity_counts(kind, p, g)) == n_even + n_odd

    def test_blocks_share_the_spectrum(self):
        op = discretize_operator(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG))
        full = lowest_eigenvalues(op, 3, math.inf)
        halves = sorted(lam for block in parity_blocks(op) for lam in lowest_eigenvalues(block, 2, math.inf))
        assert halves[:3] == pytest.approx(full, abs=1e-9)


class TestRefinementCheck:
    """A count that moves under refinement raises InstabilityError naming the
    operator, the parity that moved and both (even, odd) pairs."""

    @pytest.mark.parametrize("moved_size,parity,pairs", [
        (2001, "even", ("(1, 1)", "(2, 1)")),
        (2000, "odd", ("(1, 1)", "(1, 2)")),
    ])
    def test_moved_parity_is_named(self, moved_size, parity, pairs, monkeypatch):
        # Refining n = 2001 gives blocks of 2001 (even) and 2000 (odd) rows.
        real = spectral.inertia_below
        monkeypatch.setattr(spectral, "inertia_below",
                            lambda op, shift: real(op, shift) + (op.size == moved_size))
        with pytest.raises(InstabilityError) as info:
            parity_counts(OperatorKind.L1, P_AA_NEG, grid_for(P_AA_NEG))
        message = str(info.value)
        assert message.startswith(f"{parity} negative count of L1 ")
        assert f"{pairs[0]} -> {pairs[1]}" in message
        assert "(even, odd)" in message


class TestEigenpairs:
    def test_k_bound(self):
        op = discretize_operator(OperatorKind.L2, P_AA_POS, grid_for(P_AA_POS))
        with pytest.raises(DomainError):
            lowest_eigenvalues(op, 6, math.inf)

    def test_ground_state_parallel_to_wave(self):
        g = grid_for(P_AA_POS, 4001)
        op = discretize_operator(OperatorKind.L2, P_AA_POS, g)
        vec = lapack_eigenvector(op, 0)
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
        vec = lapack_eigenvector(op, 1)
        odd_part = 0.5 * (vec - vec[::-1])
        ratio = math.sqrt(float(np.sum(odd_part**2)) / float(np.sum(vec**2)))
        assert ratio > 1.0 - 1e-4


class TestEigenvaluesAgainstLapack:
    """Inertia bisection agrees with LAPACK's own bisection to within the
    width of its bracket, on the full line and the even block, and a spectrum
    report lists the same values below the essential edge."""

    # Both signs of Z in both regimes, and general focusing pairs up to omega = -33.
    POINTS = seeded_points(99, 6)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("sector", list(Space))
    def test_bisection_matches_lapack(self, kind, sector):
        for p in self.POINTS:
            g = grid_for(p, 1201)
            op = discretize_operator(kind, p, g)
            if sector is Space.EVEN_H1:
                op = parity_blocks(op)[0]
            lams = lowest_eigenvalues(op, 5, math.inf)
            ref = lapack_eigenvalues(op, 5)
            assert max(abs(a - b) for a, b in zip(lams, ref)) <= 1e-10, (p, kind, sector)
            report = spectrum_report(kind, p, g, k=3, sector=sector)
            below = [lam for lam in ref[:3] if lam < report.essential_edge]
            assert report.eigenvalues == lowest_eigenvalues(op, 3, report.essential_edge), (p, kind, sector)
            assert len(report.eigenvalues) == len(below), (p, kind, sector)
            assert all(abs(a - b) <= 1e-10 for a, b in zip(report.eigenvalues, below)), (p, kind, sector)

    # Other seeded points than POINTS.
    LISTED_POINTS = seeded_points(2903, 6)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("sector", list(Space))
    def test_report_lists_what_lies_below_the_edge(self, kind, sector):
        # Exactly min(k, count below the edge) values: strictly increasing,
        # under the edge, and LAPACK's to 1e-10.
        for p in self.LISTED_POINTS:
            g = grid_for(p, 1201)
            op = discretize_operator(kind, p, g)
            if sector is Space.EVEN_H1:
                op = parity_blocks(op)[0]
            report = spectrum_report(kind, p, g, k=3, sector=sector)
            lams = report.eigenvalues
            assert len(lams) == min(3, inertia_below(op, report.essential_edge)), (p, kind, sector)
            assert all(a < b for a, b in zip(lams, lams[1:])), (p, kind, sector)
            assert all(lam < report.essential_edge for lam in lams), (p, kind, sector)
            ref = lapack_eigenvalues(op, 3)
            assert all(abs(a - b) <= 1e-10 for a, b in zip(lams, ref)), (p, kind, sector)

    def test_bracket_narrower_than_one_stops_relative_to_it(self):
        # At omega = -1e-12 the bracket up to the edge is 9.3e-12 wide; an
        # absolute stop of 1e-10 bisected nothing and returned one midpoint
        # for both eigenvalues below the edge.  The stop 1e-10*width resolves
        # them, to 1e-9*|omega| of LAPACK.
        p = validate_params(1.0, 1.0, -1e-12, 1e-7)
        g = grid_for(p, 2001)
        op = discretize_operator(OperatorKind.L1, p, g)
        report = spectrum_report(OperatorKind.L1, p, g, k=3)
        ref = lapack_eigenvalues(op, 2)
        assert len(report.eigenvalues) == 2
        assert report.eigenvalues == pytest.approx(ref, rel=0.0, abs=1e-9 * -p.omega)
        assert report.eigenvalues[0] < 0.0 < report.eigenvalues[1] < report.essential_edge
        assert report.kernel_residual == report.eigenvalues[1]


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
        assert all(lam < report.essential_edge for lam in report.eigenvalues)

    @pytest.mark.parametrize("kind,p", [(OperatorKind.L1, P_AA_POS), (OperatorKind.L1, P_AA_NEG),
                                        (OperatorKind.L2, P_AA_POS)])
    def test_each_eigenvalue_bisected_once(self, kind, p, monkeypatch):
        # Each listed index once, on the bracket cut at the edge; any other
        # index only when the kernel residual needs it, on the whole span.
        calls = collections.Counter()
        real = spectral._eigenvalue_by_index

        def counting(op, index, upper):
            calls[index, upper] += 1
            return real(op, index, upper)

        monkeypatch.setattr(spectral, "_eigenvalue_by_index", counting)
        report = spectrum_report(kind, p, grid_for(p), k=3)
        listed = range(len(report.eigenvalues))
        if kind is OperatorKind.L1:
            below = inertia_below(discretize_operator(kind, p, grid_for(p)), 0.0)
            residual = {j for j in (below - 1, below) if j >= 0}
        else:
            residual = {0}
        expected = collections.Counter({(j, report.essential_edge): 1 for j in listed})
        expected.update((j, math.inf) for j in residual if j not in listed)
        assert calls == expected

    def test_free_delta_edge_is_zero(self):
        report = spectrum_report(OperatorKind.FREE_WITH_DELTA, P_DELTA, grid_for(P_DELTA), k=1)
        assert report.essential_edge == 0.0
        assert report.negative_count == 1

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("sector", list(Space))
    def test_n_points_is_the_size_measured(self, kind, sector, monkeypatch):
        sizes = []
        real = spectral.lowest_eigenvalues
        monkeypatch.setattr(spectral, "lowest_eigenvalues",
                            lambda op, k, below: sizes.append(op.size) or real(op, k, below))
        grid = grid_for(P_AA_NEG, 1201)
        report = spectrum_report(kind, P_AA_NEG, grid, k=1, sector=sector)
        assert report.n_points == sizes[0] == (1201 if sector is Space.FULL_H1 else 601)


class TestZeroExclusionShift:
    @pytest.mark.parametrize("omega", [-1.0, -2.0, -50.0, -1e12])
    def test_unchanged_for_unit_and_larger_frequencies(self, omega):
        # The relative floor 1e-6*|omega| equals the old 1e-6*max(1, |omega|) there.
        p = validate_params(1.0, 1.0, omega, 0.5)
        for n in (1201, 2001, 4001):
            grid = grid_for(p, n)
            old = max(1e-6 * max(1.0, abs(omega)), 3.0 * grid.spacing**2 * omega**2)
            assert spectral.zero_exclusion_shift(grid, p) == old

    def test_small_frequency_counts_its_negative_eigenvalue(self):
        # The L1 eigenvalue -2.92e-8 sits above an absolute floor of -1e-6; with
        # the floor 1e-6*|omega| the shift is 3*h^2*omega^2 = 2.7e-11 (h = 300),
        # which counts it, as the proven n = 1 for Z > 0 requires.
        p = validate_params(1.0, 1.0, -1e-8, 1e-5)
        report = spectrum_report(OperatorKind.L1, p, grid_for(p), k=2)
        assert report.eigenvalues[0] == pytest.approx(-2.92e-8, rel=1e-2)
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

    @given(l1=st.floats(0.1, 10.0), l2=st.floats(-10.0, -0.01), z_frac=st.floats(-0.999, 0.999),
           omega_frac=st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_window_over_admissible_points(self, l1, l2, z_frac, omega_frac):
        # validate_params owns the window's outer bounds, so testing only the
        # two it leaves gives the full window's answer on every admissible point.
        z = z_frac * math.sqrt(3.0) * l1 / (2.0 * math.sqrt(-l2))
        lo, hi = z * z / 4.0, -3.0 * l1 * l1 / (16.0 * l2)
        p = validate_params(l1, l2, -(lo + omega_frac * (hi - lo)), z)
        assert negative_direction_check(p) is negative_direction_window(p), p

    def test_window_implies_negative_form(self):
        for (l1, l2, omega, z) in [(2.0, -1.0, -0.5, 1.0), (2.0, -1.0, -0.6, 0.9),
                                   (4.0, -2.0, -1.0, 1.2)]:
            p = validate_params(l1, l2, omega, z)
            if negative_direction_check(p):
                assert p.lambda1 / (2.0 * p.lambda2) + phi_center_sq(p) < 0.0
                assert quadratic_form_phi(p) < 0.0
