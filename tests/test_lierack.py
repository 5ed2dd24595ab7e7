"""Numeric exponentials and integrated linear rack operations.

scipy's expm serves as an independent oracle for the exponential; all other
expectations are analytic (nilpotent series truncate, so(3) exponentials are
rotations, central differences converge quadratically).
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rackgraph.liealg import nilpotent_pair, so3_adjoint, validate_lm_lie
from rackgraph.lierack import (
    LinearLieRack,
    MatrixLMLie,
    derivative_check,
    inert_pair,
    integrate,
    matrix_exp,
    nilpotent_matrix,
    so3_matrix,
    structure_constants,
    validate_matrix_lm_lie,
    verify_rack_numeric,
)


def test_exp_zero_is_identity_exactly():
    assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))


def test_exp_scalar():
    out = matrix_exp(np.array([[1.0]]))
    assert abs(out[0, 0] - math.e) < 1e-14


def test_exp_nilpotent_truncates_exactly():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(matrix_exp(n), np.eye(2) + n)


def test_exp_times_exp_of_negative():
    # the absolute residual is bounded by the product of the factor norms
    # times machine epsilon (conditioning, not implementation), so the
    # norm-10 cases are asserted relative to that scale
    rng = np.random.default_rng(42)
    for size in (2, 3, 5):
        for target_norm in (0.5, 3.0, 10.0):
            a = rng.uniform(-1.0, 1.0, (size, size))
            a *= target_norm / np.linalg.norm(a, 1)
            e_pos = matrix_exp(a)
            e_neg = matrix_exp(-a)
            residual = np.max(np.abs(e_pos @ e_neg - np.eye(size)))
            scale = max(1.0, np.linalg.norm(e_pos, 1) * np.linalg.norm(e_neg, 1))
            assert residual / scale < 1e-12, (size, target_norm)
            if target_norm <= 3.0:
                assert residual < 1e-12, (size, target_norm)


def test_exp_matches_scipy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(-2.0, 2.0, (4, 4))
        mine = matrix_exp(a)
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(mine - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@st.composite
def _exp_stacks(draw):
    """Stacks of n x n matrices, 1 <= n <= 5, mixing zero, strictly upper
    triangular (nilpotent), small (no squaring) and large (1-norm up to 50)."""
    n = draw(st.integers(1, 5))
    kinds = st.sampled_from(["zero", "nilpotent", "small", "large"])
    stack = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        entries = draw(st.lists(st.integers(-10, 10), min_size=n * n, max_size=n * n))
        a = np.array(entries, dtype=float).reshape(n, n) / 10.0
        if kind == "zero":
            a = np.zeros((n, n))
        elif kind == "nilpotent":
            a = np.triu(a, 1)
        elif np.linalg.norm(a, 1) > 0:
            low, high = (0.0, 5.0) if kind == "small" else (5.0, 50.0)
            a *= draw(st.floats(low, high)) / np.linalg.norm(a, 1)
        stack.append(a)
    return np.array(stack)


@settings(deadline=None, max_examples=200)
@given(_exp_stacks())
def test_exp_of_a_stack_is_the_exp_of_each_slice(stack):
    out = matrix_exp(stack)
    assert out.shape == stack.shape
    for a, e in zip(stack, out):
        # bit for bit the 2-D call, whatever squaring counts share the stack
        assert np.array_equal(e, matrix_exp(a))
        # relative to the largest entry, times the 1-norm of a: exp's
        # condition number is at least that, and against a 40-digit mpmath
        # reference scipy's own error reaches 1.4e-12 relative on a norm-21
        # non-normal matrix, where matrix_exp's is 2.2e-14
        ref = scipy.linalg.expm(a)
        scale = max(1.0, np.max(np.abs(ref))) * max(1.0, np.linalg.norm(a, 1))
        assert np.max(np.abs(e - ref)) <= 1e-12 * scale


def test_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_so3_exact_structure_validates():
    assert validate_lm_lie(so3_adjoint()).ok


def test_so3_matrix_validates_with_exact_constants():
    l = so3_matrix()
    report = validate_matrix_lm_lie(l)
    assert report.ok, report.violations
    assert report.residuals["commutator_closure"] < 1e-13
    c, _ = structure_constants(l)
    assert abs(c[0, 1, 2] - 1.0) < 1e-12
    assert abs(c[1, 0, 2] + 1.0) < 1e-12


def test_so3_exponentials_are_rotations():
    r = integrate(so3_matrix())
    rng = np.random.default_rng(3)
    for _ in range(10):
        rot = r.pi(rng.uniform(-1.0, 1.0, 3))
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_so3_rack_axioms_sampled():
    r = integrate(so3_matrix())
    report = verify_rack_numeric(r, samples=100, seed=0, tol=1e-9)
    assert report.ok, report.violations
    # exact floats: the sampled stream and the exponential are pinned bit for bit
    assert report.residuals == {
        "self_distributivity": 6.661338147750939e-16,
        "equivariance": 5.48172618408671e-16,
        "pi_zero": 0.0,
    }
    # with tol 0 every residual is a violation, which names the first sample
    # reaching the maximum
    strict = verify_rack_numeric(r, samples=100, seed=0, tol=0.0)
    assert strict.residuals == report.residuals
    assert strict.violations == (
        "self-distributivity residual 6.661e-16 at sample 90",
        "equivariance residual 5.482e-16 at sample 33",
    )


def test_so3_derivative_quadratic_convergence():
    r = integrate(so3_matrix())
    report = derivative_check(r, so3_adjoint(), h=1e-3)
    assert report.ok, report.violations
    assert 3.0 <= report.residuals["ratio"] <= 5.0


def test_nilpotent_rack_is_exact():
    l = nilpotent_matrix()
    r = integrate(l)
    x = np.array([0.75, -0.5])
    expected = x @ (np.eye(2) + np.asarray(l.rho[0]))
    assert np.array_equal(r.rack_op(x, np.array([0.0, 1.0])), expected)
    assert verify_rack_numeric(r, samples=50, seed=5).ok


def test_nilpotent_derivative_is_exact():
    r = integrate(nilpotent_matrix())
    report = derivative_check(r, nilpotent_pair(), h=1e-3)
    assert report.ok
    assert report.residuals["err_h"] < 1e-13
    assert "ratio" not in report.residuals


def test_inert_pair_residuals_are_zero():
    r = integrate(inert_pair())
    x = np.array([0.3, 0.9])
    assert np.array_equal(r.rack_op(x, np.array([1.0, -1.0])), x)
    report = verify_rack_numeric(r, samples=20, seed=2)
    assert report.ok
    assert report.residuals["self_distributivity"] == 0.0
    assert report.residuals["equivariance"] == 0.0
    assert report.residuals["pi_zero"] == 0.0


def test_rack_op_linear_in_first_argument():
    r = integrate(so3_matrix())
    rng = np.random.default_rng(11)
    for _ in range(10):
        x1, x2, y = rng.uniform(-1.0, 1.0, (3, 3))
        lhs = r.rack_op(2.0 * x1 + 3.0 * x2, y)
        rhs = 2.0 * r.rack_op(x1, y) + 3.0 * r.rack_op(x2, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_perturbed_structure_map_is_detected():
    l = so3_matrix()
    f = np.eye(3)
    f[0, 1] += 1e-2
    broken = MatrixLMLie.make(l.basis, l.rho, f)
    # validation refuses it outright
    assert not validate_matrix_lm_lie(broken).ok
    # and the sampled rack checks see an equivariance defect of the same order
    report = verify_rack_numeric(LinearLieRack(broken), samples=50, seed=9)
    assert not report.ok
    assert report.residuals == {
        "self_distributivity": 0.00903679085661524,
        "equivariance": 0.008457980756333083,
        "pi_zero": 0.0,
    }
    assert report.violations == (
        "self-distributivity residual 9.037e-03 at sample 39",
        "equivariance residual 8.458e-03 at sample 29",
    )


def test_dependent_basis_rejected():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    bad = MatrixLMLie.make([n, n], np.zeros((2, 2, 2)), np.zeros((2, 2)))
    report = validate_matrix_lm_lie(bad)
    assert not report.ok
    assert any("dependent" in v for v in report.violations)
    with pytest.raises(ValueError):
        integrate(bad)


def test_commutator_escaping_span_rejected():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    bad = MatrixLMLie.make([n, n.T], np.zeros((2, 2, 2)), np.zeros((2, 2)))
    report = validate_matrix_lm_lie(bad)
    assert not report.ok
    assert any("span" in v for v in report.violations)


def test_make_shape_errors():
    with pytest.raises(ValueError):
        MatrixLMLie.make(np.zeros((1, 2, 3)), np.zeros((1, 2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        MatrixLMLie.make(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        MatrixLMLie.make(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.zeros((3, 1)))
