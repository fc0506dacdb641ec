"""Index bookkeeping against the proven classification, in both spaces."""

import collections
import math
import random
import re

import numpy as np
import pytest

from peakwave import validate_params
from peakwave.errors import DegenerateError, GridError, InstabilityError, PreconditionError
from peakwave import spectral, stability, vk
from peakwave.spectral import OperatorKind
from peakwave.stability import Outcome, Provenance, Space, classify_analytic, classify_numeric, compare


def grid_for(p, n=2001):
    return spectral.default_grid(p, n_points=n)


class TestClassifyNumeric:
    def test_stable_positive_strength(self):
        p = validate_params(1.0, 1.0, -2.0, 1.0)
        v = classify_numeric(p, grid_for(p))[Space.FULL_H1]
        assert (v.n_hessian, v.p_index, v.outcome) == (1, 1, Outcome.ORBITALLY_STABLE)
        assert v.provenance is Provenance.NUMERIC_PIPELINE

    def test_unstable_negative_strength_full_space(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        v = classify_numeric(p, grid_for(p))[Space.FULL_H1]
        assert (v.n_hessian, v.p_index, v.outcome) == (2, 1, Outcome.ORBITALLY_UNSTABLE)

    def test_stable_negative_strength_even_space(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        v = classify_numeric(p, grid_for(p))[Space.EVEN_H1]
        assert (v.n_hessian, v.p_index, v.outcome) == (1, 1, Outcome.ORBITALLY_STABLE)

    def test_below_threshold_inherits_even_instability(self):
        p = validate_params(1.0, 1.0, -2.0, -1.0)
        v = classify_numeric(p, grid_for(p))[Space.FULL_H1]
        assert v.outcome is Outcome.ORBITALLY_UNSTABLE
        assert (v.n_hessian, v.p_index) == (2, 0)
        assert "even sector" in v.note

    def test_zero_strength_precondition(self):
        p = validate_params(1.0, 1.0, -2.0, 0.0)
        with pytest.raises(PreconditionError):
            classify_numeric(p, grid_for(p))

    def test_refinement_invariance(self):
        for z in (1.0, -0.5):
            p = validate_params(1.0, 1.0, -2.0, z)
            coarse = classify_numeric(p, grid_for(p, 2001))[Space.FULL_H1]
            fine = classify_numeric(p, grid_for(p, 4001))[Space.FULL_H1]
            assert coarse.outcome is fine.outcome
            assert coarse.n_hessian == fine.n_hessian


class TestErrorOrder:
    """A point that fails several checks raises the first in one order: Z = 0,
    L2's zero check, L1's gap, the slope index's DegenerateError, then L1's
    and L2's counts moving under refinement."""

    POINT = (1.0, 1.0, -2.0, -1.0)
    #: Each failure, in that order, with the error and message it raises alone.
    FAILURES = {
        "z0": (PreconditionError, "Z = 0 carries a translation zero mode of L1"),
        "l2_zero": (PreconditionError, "L2 lowest eigenvalue 1.0 too far from 0"),
        "l1_gap": (PreconditionError, "L1 spectrum approaches 0 within 0.0;"),
        "p_index": (DegenerateError, "slope index made degenerate"),
        "l1_count": (InstabilityError, "odd negative count of L1 changed under refinement"),
        "l2_count": (InstabilityError, "odd negative count of L2 changed under refinement"),
    }

    def arm(self, monkeypatch, failures):
        """The point, with `failures` made to fail on its default grid."""
        z = 0.0 if "z0" in failures else self.POINT[3]
        residual = {kind: value for name, kind, value in
                    (("l2_zero", OperatorKind.L2, 1.0), ("l1_gap", OperatorKind.L1, 0.0)) if name in failures}
        real_residual = spectral.kernel_residual
        monkeypatch.setattr(spectral, "kernel_residual",
                            lambda kind, blocks: residual[kind] if kind in residual else real_residual(kind, blocks))
        if "p_index" in failures:
            def degenerate(p):
                raise DegenerateError("slope index made degenerate")
            monkeypatch.setattr(vk, "p_index", degenerate)
        if {"l1_count", "l2_count"} & failures:
            # The refined grid's odd blocks have 2000 rows, for both operators alike.
            real_count = spectral.inertia_below
            monkeypatch.setattr(spectral, "inertia_below",
                                lambda op, shift: real_count(op, shift) + (op.size == 2000))
        return validate_params(*self.POINT[:3], z)

    @pytest.mark.parametrize("earlier, later", list(zip(FAILURES, list(FAILURES)[1:])))
    def test_earlier_error_wins(self, earlier, later, monkeypatch):
        p = self.arm(monkeypatch, {earlier, later})
        error, message = self.FAILURES[earlier]
        with pytest.raises(error, match=re.escape(message)):
            classify_numeric(p, grid_for(p))
        # The later check fails too: alone it raises its own error.  L2's
        # count only moves with L1's, so it is counted on its own.
        monkeypatch.undo()
        p = self.arm(monkeypatch, {later})
        error, message = self.FAILURES[later]
        with pytest.raises(error, match=re.escape(message)):
            if later == "l2_count":
                spectral.parity_counts(OperatorKind.L2, p, grid_for(p))
            else:
                classify_numeric(p, grid_for(p))

    def test_gap_wins_over_a_degenerate_slope_at_a_real_point(self):
        # Near the threshold at omega = -0.19 the slope index alone is
        # degenerate, and L1's nearest eigenvalue lies inside the shift.
        p = validate_params(1.0, 1.0, -0.19, -math.sqrt(3.0) / 2.0)
        with pytest.raises(DegenerateError):
            vk.p_index(p)
        with pytest.raises(PreconditionError,
                           match=re.escape("L1 spectrum approaches 0 within 3.381880454612713e-05;")):
            classify_numeric(p, grid_for(p))


class TestClassifyAnalytic:
    def test_ar_stable(self):
        p = validate_params(2.0, -1.0, -0.5, 1.0)
        v = classify_analytic(p)[Space.FULL_H1]
        assert v.outcome is Outcome.ORBITALLY_STABLE
        assert v.provenance is Provenance.ANALYTIC_TABLE

    def test_ar_unstable_full(self):
        p = validate_params(2.0, -1.0, -0.5, -1.0)
        assert classify_analytic(p)[Space.FULL_H1].outcome is Outcome.ORBITALLY_UNSTABLE

    def test_ar_stable_even(self):
        p = validate_params(2.0, -1.0, -0.5, -1.0)
        assert classify_analytic(p)[Space.EVEN_H1].outcome is Outcome.ORBITALLY_STABLE

    def test_unit_below_threshold_unstable_everywhere(self):
        p = validate_params(1.0, 1.0, -2.0, -1.0)
        assert classify_analytic(p)[Space.EVEN_H1].outcome is Outcome.ORBITALLY_UNSTABLE
        assert classify_analytic(p)[Space.FULL_H1].outcome is Outcome.ORBITALLY_UNSTABLE

    def test_unit_between_threshold_and_zero(self):
        p = validate_params(1.0, 1.0, -2.0, -0.5)
        assert classify_analytic(p)[Space.FULL_H1].outcome is Outcome.ORBITALLY_UNSTABLE
        assert classify_analytic(p)[Space.EVEN_H1].outcome is Outcome.ORBITALLY_STABLE

    def test_general_focusing_pair_scaled(self):
        # The scaled strength 1 * sqrt(2) / 2 > 0: the unit table says stable.
        p = validate_params(2.0, 2.0, -3.0, 1.0)
        v = classify_analytic(p)[Space.FULL_H1]
        assert (v.n_hessian, v.p_index, v.outcome) == (1, 1, Outcome.ORBITALLY_STABLE)
        assert v.provenance is Provenance.ANALYTIC_TABLE

    @pytest.mark.parametrize("pair", [(2.0, 3.0), (3.0, 2.0), (1.0, 0.1)])
    @pytest.mark.parametrize("z_u", [-1.2, -0.5, 0.7])
    def test_general_focusing_pair_equals_unit_preimage(self, pair, z_u):
        l1, l2 = pair
        unit = validate_params(1.0, 1.0, -3.0, z_u)
        p = validate_params(l1, l2, -3.0 * l1 * l1 / l2, z_u * l1 / math.sqrt(l2))
        assert classify_analytic(p) == classify_analytic(unit)

    def test_degenerate_at_scaled_threshold(self):
        p = validate_params(2.0, 3.0, -4.0, vk.ZSTAR_REFERENCE * 2.0 / math.sqrt(3.0))
        with pytest.raises(DegenerateError):
            classify_analytic(p)

    def test_ar_zero_strength_is_degenerate(self):
        p = validate_params(2.0, -1.0, -0.5, 0.0)
        with pytest.raises(DegenerateError, match="Z != 0 only"):
            classify_analytic(p)

    def test_degenerate_at_threshold(self):
        zstar = vk.find_zstar()
        p = validate_params(1.0, 1.0, -2.0, zstar)
        with pytest.raises(DegenerateError):
            classify_analytic(p)

    def test_outcome_constant_in_frequency_for_ar(self):
        for z in (0.7, -0.7):
            outcomes = set()
            for omega in np.linspace(-0.70, -z * z / 4.0 - 0.05, 6):
                p = validate_params(2.0, -1.0, float(omega), z)
                outcomes.add(classify_analytic(p)[Space.FULL_H1].outcome)
            assert len(outcomes) == 1


ODD_NOTE = "index difference odd: nonlinear instability inferred from the linearized flow"
INHERITED_NOTE = ("full-space index difference is even; instability inherited from the "
                  "invariant even sector")


def _criterion(n, p):
    """Equal indices: stable; odd difference: unstable; even nonzero: undecided."""
    if n == p:
        return Outcome.ORBITALLY_STABLE
    if abs(n - p) % 2 == 1:
        return Outcome.ORBITALLY_UNSTABLE
    return Outcome.INDETERMINATE


class TestVerdictRule:
    @pytest.mark.parametrize("p_idx", [0, 1])
    @pytest.mark.parametrize("n_full,n_even", [(n, m) for n in range(4) for m in range(n + 1)])
    def test_every_index_triple(self, n_full, n_even, p_idx):
        provenance = Provenance.NUMERIC_PIPELINE
        verdicts = stability._verdicts(n_full, n_even, p_idx, provenance)
        even_outcome = _criterion(n_even, p_idx)
        full_outcome = _criterion(n_full, p_idx)
        full_note = ODD_NOTE if full_outcome is Outcome.ORBITALLY_UNSTABLE else ""
        # An even nonzero full-space difference inherits instability proven in
        # the invariant even sector, and is undecided otherwise.
        if full_outcome is Outcome.INDETERMINATE and even_outcome is Outcome.ORBITALLY_UNSTABLE:
            full_outcome, full_note = Outcome.ORBITALLY_UNSTABLE, INHERITED_NOTE
        even_note = ODD_NOTE if even_outcome is Outcome.ORBITALLY_UNSTABLE else ""
        expected = {Space.FULL_H1: (n_full, full_outcome, full_note),
                    Space.EVEN_H1: (n_even, even_outcome, even_note)}
        assert verdicts == {space: stability.Verdict(n, p_idx, outcome, provenance, note)
                            for space, (n, outcome, note) in expected.items()}


class TestAnalyticClauses:
    """The twelve clauses of the two proven tables, with indices and notes."""

    STABLE, UNSTABLE = Outcome.ORBITALLY_STABLE, Outcome.ORBITALLY_UNSTABLE

    @pytest.mark.parametrize(
        "point,space,expected",
        [
            ((1.0, 1.0, -2.0, 1.0), Space.FULL_H1, (1, 1, STABLE, "")),
            ((1.0, 1.0, -2.0, 1.0), Space.EVEN_H1, (1, 1, STABLE, "")),
            ((1.0, 1.0, -2.0, -0.5), Space.FULL_H1, (2, 1, UNSTABLE, ODD_NOTE)),
            ((1.0, 1.0, -2.0, -0.5), Space.EVEN_H1, (1, 1, STABLE, "")),
            ((1.0, 1.0, -2.0, -1.0), Space.FULL_H1, (2, 0, UNSTABLE, INHERITED_NOTE)),
            ((1.0, 1.0, -2.0, -1.0), Space.EVEN_H1, (1, 0, UNSTABLE, ODD_NOTE)),
            ((2.0, -1.0, -0.5, 1.0), Space.FULL_H1, (1, 1, STABLE, "")),
            ((2.0, -1.0, -0.5, 1.0), Space.EVEN_H1, (1, 1, STABLE, "")),
            ((2.0, -1.0, -0.5, -0.5), Space.FULL_H1, (2, 1, UNSTABLE, ODD_NOTE)),
            ((2.0, -1.0, -0.5, -0.5), Space.EVEN_H1, (1, 1, STABLE, "")),
            ((2.0, -1.0, -0.5, -1.0), Space.FULL_H1, (2, 1, UNSTABLE, ODD_NOTE)),
            ((2.0, -1.0, -0.5, -1.0), Space.EVEN_H1, (1, 1, STABLE, "")),
        ],
    )
    def test_clause(self, point, space, expected):
        v = classify_analytic(validate_params(*point))[space]
        assert (v.n_hessian, v.p_index, v.outcome, v.note) == expected
        assert v.provenance is Provenance.ANALYTIC_TABLE


class TestIndexRelations:
    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_even_equals_full_for_positive_strength(self, z):
        p = validate_params(1.0, 1.0, -2.0, z)
        verdicts = classify_numeric(p, grid_for(p))
        assert verdicts[Space.EVEN_H1].n_hessian == verdicts[Space.FULL_H1].n_hessian == 1

    @pytest.mark.parametrize("z", [-0.5, -1.2])
    def test_even_drops_one_for_negative_strength(self, z):
        p = validate_params(1.0, 1.0, -2.0, z)
        verdicts = classify_numeric(p, grid_for(p))
        assert verdicts[Space.EVEN_H1].n_hessian == verdicts[Space.FULL_H1].n_hessian - 1


class TestCompare:
    @pytest.mark.parametrize(
        "point",
        [
            (1.0, 1.0, -2.0, 1.0),
            (1.0, 1.0, -2.0, -0.5),
            (1.0, 1.0, -3.0, -1.2),
            (2.0, -1.0, -0.5, 1.0),
            (2.0, -1.0, -0.5, -0.8),
        ],
    )
    def test_agreement(self, point):
        p = validate_params(*point)
        assert compare(p) is True

    @pytest.mark.parametrize(
        "point",
        [
            (1.0, 1.0, -2.0, 1.0),    # stable: n = p
            (1.0, 1.0, -2.0, -0.5),   # odd difference
            (1.0, 1.0, -2.0, -1.0),   # even difference, inherited from the even sector
        ],
    )
    def test_one_numeric_pass_per_point(self, point, monkeypatch):
        calls = collections.Counter()

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(spectral, "kernel_residual")
        counting(vk, "p_index")
        counting(spectral, "parity_counts")
        p = validate_params(*point)
        verdicts = classify_numeric(p, grid_for(p))
        # Each operator's kernel is measured once on its parity blocks, and one
        # (n_even, n_odd) pair per operator gives both spaces' indices.
        assert calls == {"kernel_residual": 2, "p_index": 1, "parity_counts": 2}
        assert list(verdicts) == list(Space)
        calls.clear()
        assert compare(p) is True
        assert calls == {"kernel_residual": 2, "p_index": 1, "parity_counts": 2}

    @pytest.mark.parametrize("pair", [(2.0, 3.0), (3.0, 2.0), (1.0, 0.1)])
    def test_agreement_general_focusing_pairs(self, pair):
        # Seeded unit-box points mapped through the exact scaling.
        l1, l2 = pair
        rng = random.Random(f"{l1}/{l2}")
        for _ in range(2):
            z_u = rng.uniform(-1.8, 2.2)
            while abs(z_u) < 0.2 or abs(z_u - vk.ZSTAR_REFERENCE) < 0.05:
                z_u = rng.uniform(-1.8, 2.2)
            omega_u = -rng.uniform(max(1.3 * z_u * z_u / 4.0 + 0.2, 1.2), 6.0)
            p = validate_params(l1, l2, omega_u * l1 * l1 / l2, z_u * l1 / math.sqrt(l2))
            assert compare(p) is True, (p.omega, p.z)

    @pytest.mark.parametrize("z", [1e-5, -1e-5])
    def test_small_frequency_agrees(self, z):
        # |omega| = 1e-8: the L1 gap (about 1.4e-9) clears the relative shift
        # 1e-14, where the old absolute floor 1e-6 raised PreconditionError.
        p = validate_params(1.0, 1.0, -1e-8, z)
        assert compare(p) is True

    @pytest.mark.parametrize("omega, z", [(-1e12, 5e5), (-1e12, -5e5), (-1e12, -8e5),
                                          (-1e16, 5e7), (-1e16, -8e7)])
    def test_large_frequency_agrees(self, omega, z):
        # The slope is about 2e-13 at omega = -1e12, so an absolute guard
        # |slope| > 1e-9 refused every such point; the relative one does not.
        p = validate_params(1.0, 1.0, omega, z)
        assert compare(p) is True

    @pytest.mark.parametrize("point", [(1.0, 1.0, -1e-200, 5e-101), (1.0, 1.0, -1e-200, -5e-101),
                                       (2.0, -1.0, -1e-200, 5e-101), (2.0, -1.0, -1e-200, -5e-101)])
    def test_underflowing_couplings_are_refused(self, point):
        # On the default grid 1/h^4 = 1.2e-394 rounds to 0: the counts read 0
        # negative eigenvalues, and compare returned False instead of raising.
        with pytest.raises(GridError, match="1/h\\^4 underflows"):
            compare(validate_params(*point))

    @pytest.mark.parametrize("z", [5e-79, -5e-79])
    def test_agrees_just_above_the_underflow_bound(self, z):
        assert compare(validate_params(1.0, 1.0, -1.4e-157, z)) is True

    def test_shared_exclusion_near_threshold(self):
        zstar = vk.find_zstar()
        p = validate_params(1.0, 1.0, -2.0, zstar)
        with pytest.raises(DegenerateError):
            compare(p)
