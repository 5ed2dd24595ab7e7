"""Numeric integration of matrix Lie algebra pairs to linear rack operations.

Data lives in double precision: a Lie algebra given by basis matrices inside
gl(m), a right module X = R^dim_x with one action matrix per basis element
(row-vector convention, so composition reads x . rho(a) rho(b)), and a
structure map f from X to Lie algebra coordinates.  Integration only ever
exponentiates single Lie algebra elements:

    x <| y = x . exp(rho(f(y)))        pi(x) = exp(f(x) in gl(m))

Exponentials are taken in stacks, each matrix of one Lie algebra element, so
a sampled check exponentiates like elements of all its samples in one call.
No group is materialized and no products of exponentials are combined
symbolically.  Tolerances: 1e-10 for structure validation, 1e-9 for the
sampled rack axioms, 1e-12 for linear-algebra identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

import numpy as np

# denominator coefficients of the degree-13 diagonal Pade approximant,
# scaled to integers: b_k = (26 - k)! / (k! (13 - k)!)
_PADE13 = tuple(float(factorial(26 - k) // (factorial(k) * factorial(13 - k))) for k in range(14))
_PADE13_THETA = 5.371920351148152


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp of one square matrix or of each matrix of a stack (..., n, n):
    scaling and squaring with a degree-13 Pade core.  Each matrix has its own
    squaring count; the core and the solve run once over the stack."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix_exp needs a square matrix or a stack of them")
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm of each matrix
    if not np.all(np.isfinite(norm)):
        raise ValueError("matrix_exp needs finite entries")
    squarings = np.ceil(np.log2(np.maximum(norm, _PADE13_THETA) / _PADE13_THETA)).astype(int)
    a = a / (2.0**squarings)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * eye
    )
    # normalize by b[0] so the pivots of the solve are near 1; without this
    # LAPACK's reciprocal-pivot scaling costs one ulp even at a = 0
    out = np.linalg.solve((v - u) / b[0], (v + u) / b[0])
    for step in range(squarings.max(initial=0)):
        more = squarings > step  # square only the matrices still scaled down
        out[more] = out[more] @ out[more]
    return out


@dataclass
class NumericReport:
    ok: bool
    residuals: dict
    violations: tuple = ()


@dataclass
class MatrixLMLie:
    """Lie algebra basis in gl(m) with a right module and structure map."""

    m: int
    dim_x: int
    basis: np.ndarray  # (dim_g, m, m)
    rho: np.ndarray  # (dim_g, dim_x, dim_x)
    f: np.ndarray  # (dim_x, dim_g)

    @staticmethod
    def make(basis, rho, f) -> "MatrixLMLie":
        basis = np.asarray(basis, dtype=float)
        rho = np.asarray(rho, dtype=float)
        f = np.asarray(f, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        dim_g, m = basis.shape[0], basis.shape[1]
        if rho.ndim != 3 or rho.shape[0] != dim_g or rho.shape[1] != rho.shape[2]:
            raise ValueError("one square action matrix per basis element")
        dim_x = rho.shape[1]
        if f.shape != (dim_x, dim_g):
            raise ValueError("f must map X coordinates to Lie algebra coordinates")
        return MatrixLMLie(m, dim_x, basis, rho, f)

    @property
    def dim_g(self) -> int:
        return self.basis.shape[0]


def structure_constants(l: MatrixLMLie) -> tuple[np.ndarray, float]:
    """Least-squares structure constants of the basis commutators and the
    largest reconstruction residual (NaN when a commutator overflows)."""
    ng, m = l.dim_g, l.m
    flat = l.basis.reshape(ng, m * m).T  # columns are basis matrices
    c = np.zeros((ng, ng, ng))
    residuals = []
    for i in range(ng):
        for j in range(ng):
            comm = l.basis[i] @ l.basis[j] - l.basis[j] @ l.basis[i]
            coeffs, *_ = np.linalg.lstsq(flat, comm.reshape(m * m), rcond=None)
            c[i, j] = coeffs
            rebuilt = np.tensordot(coeffs, l.basis, axes=(0, 0))
            residuals.append(np.max(np.abs(rebuilt - comm)))
    return c, float(np.max(residuals, initial=0.0))


def _largest(label: str, values, tol: float, violations: list, sampled: bool = False):
    """Largest residual, or None when one is not finite.  That, or a largest
    residual >= tol, is a violation; a sampled one names the first sample."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    worst = None if bad.any() else float(np.max(values, initial=0.0))
    if worst is None or worst >= tol:
        text = "is not finite" if worst is None else f"{worst:.3e}"
        where = f" at sample {np.argmax(bad if worst is None else values)}" if sampled else ""
        violations.append(f"{label} {text}{where}")
    return worst


@np.errstate(over="ignore", invalid="ignore")
def validate_matrix_lm_lie(l: MatrixLMLie, tol: float = 1e-10) -> NumericReport:
    """Basis independence, commutator closure, module axiom, equivariance.
    A residual that overflows is not finite, and a violation."""
    violations: list[str] = []
    ng, m, rho = l.dim_g, l.m, l.rho

    flat = l.basis.reshape(ng, m * m)
    rank = np.linalg.matrix_rank(flat) if flat.size else 0
    if rank != ng:
        violations.append(f"basis matrices dependent: rank {rank} of {ng}")

    c, closure = structure_constants(l)
    module = [
        np.abs(np.tensordot(c[a, b], rho, axes=(0, 0)) - (rho[a] @ rho[b] - rho[b] @ rho[a])).max()
        for a in range(ng)
        for b in range(ng)
    ]
    # f(x . rho(a)) vs [f(x), e_a] in coordinates, on basis rows of X
    equi = [np.abs(rho[a] @ l.f - l.f @ c[:, a, :]).max(initial=0.0) for a in range(ng)]
    residuals = {
        "commutator_closure": _largest(
            "commutators leave the basis span: residual", closure, tol, violations
        ),
        "module_axiom": _largest("module axiom residual", module, tol, violations),
        "equivariance": _largest("equivariance residual", equi, tol, violations),
    }
    return NumericReport(not violations, residuals, tuple(violations))


def _expand(v, f: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_a (v . f)_a mats[a], for one row vector v or a stack of them."""
    v = np.asarray(v, dtype=float)
    flat = (v[..., None, :] @ f) @ mats.reshape(len(mats), -1)
    return flat.reshape(v.shape[:-1] + mats.shape[1:])


def _times(v, e: np.ndarray) -> np.ndarray:
    """Row vector times matrix, slice by slice over a stack."""
    return (np.asarray(v, dtype=float)[..., None, :] @ e)[..., 0, :]


def _exp_where_finite(a: np.ndarray) -> np.ndarray:
    """matrix_exp of each matrix of the stack whose entries sum to a finite
    value, NaN for the others, so that an overflow reaches the residuals."""
    out = np.full(a.shape, np.nan)
    finite = np.isfinite(np.abs(a).sum(axis=(-2, -1)))
    out[finite] = matrix_exp(a[finite])
    return out


@dataclass
class LinearLieRack:
    """Evaluators of the rack operation's generator and of the
    augmentation for a validated input; each takes one element of X or a
    stack of them (..., dim_x)."""

    lie: MatrixLMLie

    def ambient_element(self, x) -> np.ndarray:
        """f(x) expanded in the gl(m) basis."""
        return _expand(x, self.lie.f, self.lie.basis)

    def action_generator(self, y) -> np.ndarray:
        """rho(f(y)), the infinitesimal right translation by y."""
        return _expand(y, self.lie.f, self.lie.rho)

    def pi(self, x) -> np.ndarray:
        return matrix_exp(self.ambient_element(x))


@np.errstate(over="ignore", invalid="ignore")
def verify_rack_numeric(
    r: LinearLieRack, samples: int = 100, seed: int = 0, tol: float = 1e-9
) -> NumericReport:
    """Self-distributivity and equivariance on sampled triples; pi(0) = I.

    Three stacked stages: draw every triple (x, y, z); exponentiate rho f(y),
    rho f(z), +-f(y) and f(x) of all samples; form x E_y, x E_z and y E_z
    (E_v = exp rho f(v)) and exponentiate rho f(y E_z) and f(x E_y).

    Coordinate k of the draws, in C order over (sample, x|y|z, coordinate),
    is -1 + 2 u_k for the k-th u of random.Random(seed).random(), a sequence
    that Python keeps the same for a seed across versions."""
    n = samples * 3 * r.lie.dim_x
    rand = random.Random(seed).random
    draws = -1.0 + 2.0 * np.fromiter((rand() for _ in range(n)), float, n)
    x, y, z = draws.reshape(samples, 3, r.lie.dim_x).transpose(1, 0, 2)
    e_y, e_z = _exp_where_finite(r.action_generator(np.stack([y, z])))
    f_y = r.ambient_element(y)
    e, e_inv, pi_x = _exp_where_finite(np.stack([f_y, -f_y, r.ambient_element(x)]))
    x_y = _times(x, e_y)
    rhs = _times(_times(x, e_z), _exp_where_finite(r.action_generator(_times(y, e_z))))
    sd = np.abs(_times(x_y, e_z) - rhs).max(axis=-1)
    eq = np.abs(_exp_where_finite(r.ambient_element(x_y)) - e_inv @ pi_x @ e).max(axis=(-2, -1))
    pi0 = float(np.max(np.abs(r.pi(np.zeros(r.lie.dim_x)) - np.eye(r.lie.m))))

    violations: list[str] = []
    max_sd = _largest("self-distributivity residual", sd, tol, violations, sampled=True)
    max_eq = _largest("equivariance residual", eq, tol, violations, sampled=True)
    if pi0 > 1e-14:
        violations.append(f"pi(0) differs from the identity by {pi0:.3e}")
    residuals = {"self_distributivity": max_sd, "equivariance": max_eq, "pi_zero": pi0}
    return NumericReport(not violations, residuals, tuple(violations))


# ---------------------------------------------------------------------------
# sample data


def so3_matrix() -> MatrixLMLie:
    """so(3) acting on R^3 in the adjoint way, with the identity structure
    map; exponentials are rotations."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    # row convention: rho[a][i] = coordinates of [e_i, e_a]
    rho = np.array([[eps[i, a] for i in range(3)] for a in range(3)])
    return MatrixLMLie.make(rho.copy(), rho, np.eye(3))


def nilpotent_matrix() -> MatrixLMLie:
    """One nilpotent generator acting on the plane; exponentials truncate."""
    basis = [[[0.0, 1.0], [0.0, 0.0]]]
    rho = [[[0.0, 0.0], [1.0, 0.0]]]
    f = [[0.0], [1.0]]
    return MatrixLMLie.make(basis, rho, f)


def inert_pair() -> MatrixLMLie:
    """Zero action and zero structure map: the integrated rack is trivial."""
    basis = [[[1.0, 0.0], [0.0, -1.0]]]
    rho = [np.zeros((2, 2))]
    f = np.zeros((2, 1))
    return MatrixLMLie.make(basis, rho, f)
