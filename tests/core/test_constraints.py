"""Tests for repro.core.constraints."""

import numpy as np
import pytest

from repro.cellcycle.parameters import CellCycleParameters
from repro.core.basis import SplineBasis
from repro.core.constraints import (
    ConstraintSet,
    PositivityConstraint,
    RNAConservationConstraint,
    RateContinuityConstraint,
    build_constraint_set,
    default_constraints,
)


@pytest.fixture(scope="module")
def basis():
    return SplineBasis(num_basis=10)


@pytest.fixture(scope="module")
def params():
    return CellCycleParameters()


class TestConstraintSet:
    def test_empty(self, basis):
        cs = ConstraintSet.empty(basis.num_basis)
        assert not cs.has_equalities and not cs.has_inequalities

    def test_violations_reporting(self, basis):
        cs = ConstraintSet.empty(basis.num_basis)
        cs.add_equalities(np.ones((1, basis.num_basis)), np.zeros(1), "sum_zero")
        cs.add_inequalities(np.eye(basis.num_basis), np.zeros(basis.num_basis), "positive")
        good = np.zeros(basis.num_basis)
        bad = np.full(basis.num_basis, -1.0)
        assert build_violation(cs, good) == (0.0, 0.0)
        eq_violation, ineq_violation = build_violation(cs, bad)
        assert eq_violation == pytest.approx(basis.num_basis)
        assert ineq_violation == pytest.approx(1.0)


def build_violation(constraint_set, coefficients):
    report = constraint_set.violations(coefficients)
    return report["equality"], report["inequality"]


class TestPositivityConstraint:
    def test_rows_are_basis_values(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        PositivityConstraint(grid_size=51).apply(cs, basis, params)
        assert cs.inequality_matrix.shape == (51, basis.num_basis)
        assert np.allclose(cs.inequality_vector, 0.0)

    def test_negative_profile_violates(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        PositivityConstraint(grid_size=101).apply(cs, basis, params)
        negative = -np.ones(basis.num_basis)
        assert cs.violations(negative)["inequality"] > 0.9

    def test_positive_profile_satisfies(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        PositivityConstraint(grid_size=101).apply(cs, basis, params)
        positive = np.full(basis.num_basis, 2.0)
        assert cs.violations(positive)["inequality"] == 0.0

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            PositivityConstraint(grid_size=1)


class TestRNAConservation:
    def test_constant_profile_satisfies(self, basis, params):
        """For constant f: f(1) - 0.4 f(0) - 0.6 <f> = c (1 - 0.4 - 0.6) = 0."""
        cs = ConstraintSet.empty(basis.num_basis)
        RNAConservationConstraint().apply(cs, basis, params)
        constant = np.full(basis.num_basis, 3.0)
        assert abs((cs.equality_matrix @ constant)[0]) < 1e-8

    def test_row_matches_manual_evaluation(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        RNAConservationConstraint().apply(cs, basis, params)
        rng = np.random.default_rng(1)
        alpha = rng.normal(size=basis.num_basis)
        # Manual evaluation of f(1) - 0.4 f(0) - 0.6 E[f(phi_sst)].
        grid = np.linspace(0.0, 1.0, 40001)
        density = params.transition_phase_density(grid)
        density = density / np.trapezoid(density, grid)
        f = basis.profile(alpha, grid)
        expected = (
            basis.profile(alpha, np.array([1.0]))[0]
            - 0.4 * basis.profile(alpha, np.array([0.0]))[0]
            - 0.6 * np.trapezoid(density * f, grid)
        )
        assert float((cs.equality_matrix @ alpha)[0]) == pytest.approx(expected, abs=1e-6)

    def test_single_equality_row(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        RNAConservationConstraint().apply(cs, basis, params)
        assert cs.equality_matrix.shape == (1, basis.num_basis)


class TestRateContinuity:
    def test_constant_profile_requires_zero_level(self, basis, params):
        """A non-zero constant cannot satisfy rate continuity (see Sec. 3.2)."""
        cs = ConstraintSet.empty(basis.num_basis)
        RateContinuityConstraint().apply(cs, basis, params)
        constant = np.full(basis.num_basis, 2.0)
        zero = np.zeros(basis.num_basis)
        assert abs(float((cs.equality_matrix @ constant)[0])) > 1e-3
        assert abs(float((cs.equality_matrix @ zero)[0])) < 1e-12

    def test_row_is_finite_and_single(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        RateContinuityConstraint().apply(cs, basis, params)
        assert cs.equality_matrix.shape == (1, basis.num_basis)
        assert np.all(np.isfinite(cs.equality_matrix))

    def test_row_matches_manual_evaluation(self, basis, params):
        cs = ConstraintSet.empty(basis.num_basis)
        RateContinuityConstraint().apply(cs, basis, params)
        rng = np.random.default_rng(2)
        alpha = rng.normal(size=basis.num_basis)
        grid = np.linspace(0.0, 1.0, 40001)
        density = params.transition_phase_density(grid)
        density = density / np.trapezoid(density, grid)
        # beta is only needed where the density is positive; elsewhere (in
        # particular at grid == 1, where 1 - grid vanishes) it stays zero.
        beta = np.divide(
            0.4, 1.0 - grid, out=np.zeros_like(grid), where=density > 1e-300
        )
        beta_density = beta * density
        beta0 = np.trapezoid(beta_density, grid)
        f = basis.profile(alpha, grid)
        f_prime = basis.profile_derivative(alpha, grid)
        lhs = (
            beta0 * basis.profile(alpha, np.array([1.0]))[0]
            - beta0 * basis.profile(alpha, np.array([0.0]))[0]
            - np.trapezoid(beta_density * f, grid)
        )
        rhs = (
            0.4 * basis.profile_derivative(alpha, np.array([0.0]))[0]
            + 0.6 * np.trapezoid(density * f_prime, grid)
            - basis.profile_derivative(alpha, np.array([1.0]))[0]
        )
        assert float((cs.equality_matrix @ alpha)[0]) == pytest.approx(lhs - rhs, abs=1e-5)


class TestDefaultConstraints:
    def test_full_stack(self):
        constraints = default_constraints()
        names = {type(c).__name__ for c in constraints}
        assert names == {
            "PositivityConstraint",
            "RNAConservationConstraint",
            "RateContinuityConstraint",
        }

    def test_toggles(self):
        assert default_constraints(positivity=False, rna_conservation=False, rate_continuity=False) == []
        only_positivity = default_constraints(rna_conservation=False, rate_continuity=False)
        assert len(only_positivity) == 1

    def test_build_constraint_set_counts_rows(self, basis, params):
        cs = build_constraint_set(default_constraints(positivity_grid=31), basis, params)
        assert cs.inequality_matrix.shape[0] == 31
        assert cs.equality_matrix.shape[0] == 2
