"""Numeric integration of matrix Lie algebra pairs to linear rack operations.

Data lives in double precision: a Lie algebra given by basis matrices inside
gl(m), a right module X = R^dim_x with one action matrix per basis element
(row-vector convention, so composition reads x . rho(a) rho(b)), and a
structure map f from X to Lie algebra coordinates.  Integration only ever
exponentiates single Lie algebra elements:

    rack_op(x, y) = x . exp(rho(f(y)))        pi(x) = exp(f(x) in gl(m))

No group is materialized and no products of exponentials are combined
symbolically.  Tolerances: 1e-10 for structure validation, 1e-9 for the
sampled rack axioms, 1e-12 for linear-algebra identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import LMLieAlgebra, leibniz_bracket

# denominator coefficients of the degree-13 diagonal Pade approximant
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a degree-13 Pade core."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exp needs finite entries")
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        a = a / (2.0**squarings)
    b = _PADE13
    eye = np.eye(n)
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
    for _ in range(squarings):
        out = out @ out
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
    largest reconstruction residual."""
    ng, m = l.dim_g, l.m
    flat = l.basis.reshape(ng, m * m).T  # columns are basis matrices
    c = np.zeros((ng, ng, ng))
    worst = 0.0
    for i in range(ng):
        for j in range(ng):
            comm = l.basis[i] @ l.basis[j] - l.basis[j] @ l.basis[i]
            coeffs, *_ = np.linalg.lstsq(flat, comm.reshape(m * m), rcond=None)
            c[i, j] = coeffs
            rebuilt = np.tensordot(coeffs, l.basis, axes=(0, 0))
            worst = max(worst, float(np.max(np.abs(rebuilt - comm))))
    return c, worst


def validate_matrix_lm_lie(l: MatrixLMLie, tol: float = 1e-10) -> NumericReport:
    """Basis independence, commutator closure, module axiom, equivariance."""
    violations: list[str] = []
    residuals: dict = {}
    ng, m = l.dim_g, l.m

    flat = l.basis.reshape(ng, m * m)
    rank = np.linalg.matrix_rank(flat) if flat.size else 0
    if rank != ng:
        violations.append(f"basis matrices dependent: rank {rank} of {ng}")

    c, closure = structure_constants(l)
    residuals["commutator_closure"] = closure
    if closure >= tol:
        violations.append(f"commutators leave the basis span: residual {closure:.3e}")

    module_res = 0.0
    for a in range(ng):
        for b in range(ng):
            want = np.tensordot(c[a, b], l.rho, axes=(0, 0))
            got = l.rho[a] @ l.rho[b] - l.rho[b] @ l.rho[a]
            module_res = max(module_res, float(np.max(np.abs(want - got))))
    residuals["module_axiom"] = module_res
    if module_res >= tol:
        violations.append(f"module axiom residual {module_res:.3e}")

    equi_res = 0.0
    for a in range(ng):
        # f(x . rho(a)) vs [f(x), e_a] in coordinates, on basis rows of X
        lhs = l.rho[a] @ l.f
        rhs = l.f @ c[:, a, :]
        equi_res = max(equi_res, float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)
    residuals["equivariance"] = equi_res
    if equi_res >= tol:
        violations.append(f"equivariance residual {equi_res:.3e}")

    return NumericReport(not violations, residuals, tuple(violations))


@dataclass
class LinearLieRack:
    """Rack operation and augmentation evaluators for a validated input."""

    lie: MatrixLMLie

    def ambient_element(self, x) -> np.ndarray:
        """f(x) expanded in the gl(m) basis."""
        coords = np.asarray(x, dtype=float) @ self.lie.f
        return np.tensordot(coords, self.lie.basis, axes=(0, 0))

    def action_generator(self, y) -> np.ndarray:
        """rho(f(y)), the infinitesimal right translation by y."""
        coords = np.asarray(y, dtype=float) @ self.lie.f
        return np.tensordot(coords, self.lie.rho, axes=(0, 0))

    def pi(self, x) -> np.ndarray:
        return matrix_exp(self.ambient_element(x))

    def rack_op(self, x, y) -> np.ndarray:
        return np.asarray(x, dtype=float) @ matrix_exp(self.action_generator(y))

    def act(self, x, ys) -> np.ndarray:
        """Right action by a word of exponentials, one per element of ys."""
        out = np.asarray(x, dtype=float)
        for y in ys:
            out = out @ matrix_exp(self.action_generator(y))
        return out


def integrate(l: MatrixLMLie, tol: float = 1e-10) -> LinearLieRack:
    report = validate_matrix_lm_lie(l, tol)
    if not report.ok:
        raise ValueError("input fails numeric validation: " + "; ".join(report.violations))
    return LinearLieRack(l)


def verify_rack_numeric(
    r: LinearLieRack, samples: int = 100, seed: int = 0, tol: float = 1e-9
) -> NumericReport:
    """Self-distributivity and equivariance on sampled triples; pi(0) = I."""
    rng = np.random.default_rng(seed)
    nx = r.lie.dim_x
    violations: list[str] = []

    max_sd = 0.0
    max_eq = 0.0
    sd_witness = eq_witness = None
    for k in range(samples):
        x, y, z = rng.uniform(-1.0, 1.0, (3, nx))
        lhs = r.rack_op(r.rack_op(x, y), z)
        rhs = r.rack_op(r.rack_op(x, z), r.rack_op(y, z))
        sd = float(np.max(np.abs(lhs - rhs)))
        if sd > max_sd:
            max_sd, sd_witness = sd, k
        e = matrix_exp(r.ambient_element(y))
        e_inv = matrix_exp(-r.ambient_element(y))
        eq = float(np.max(np.abs(r.pi(r.rack_op(x, y)) - e_inv @ r.pi(x) @ e)))
        if eq > max_eq:
            max_eq, eq_witness = eq, k
    pi0 = float(np.max(np.abs(r.pi(np.zeros(nx)) - np.eye(r.lie.m))))

    if max_sd >= tol:
        violations.append(f"self-distributivity residual {max_sd:.3e} at sample {sd_witness}")
    if max_eq >= tol:
        violations.append(f"equivariance residual {max_eq:.3e} at sample {eq_witness}")
    if pi0 > 1e-14:
        violations.append(f"pi(0) differs from the identity by {pi0:.3e}")

    residuals = {"self_distributivity": max_sd, "equivariance": max_eq, "pi_zero": pi0}
    return NumericReport(not violations, residuals, tuple(violations))


def derivative_check(
    r: LinearLieRack,
    l_exact: LMLieAlgebra,
    h: float = 1e-3,
    samples: int = 20,
    seed: int = 1,
) -> NumericReport:
    """Central differences of rack_op(x, t y) at t = 0 against the exact
    derived bracket, with the n^2 convergence ratio between h and h/2."""
    if l_exact.dim_m != r.lie.dim_x or l_exact.dim_g != r.lie.dim_g:
        raise ValueError("exact structure dimensions do not match")
    nx = r.lie.dim_x
    if nx == 0:
        return NumericReport(True, {"err_h": 0.0, "err_h_half": 0.0})
    table = np.array(leibniz_bracket(l_exact).bracket, dtype=float)
    pairs = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, nx))

    def max_error(step: float) -> float:
        worst = 0.0
        for x, y in pairs:
            diff = (r.rack_op(x, step * y) - r.rack_op(x, -step * y)) / (2.0 * step)
            exact = np.einsum("i,j,ijk->k", x, y, table)
            worst = max(worst, float(np.max(np.abs(diff - exact))))
        return worst

    err_h = max_error(h)
    err_half = max_error(h / 2.0)

    residuals = {"err_h": err_h, "err_h_half": err_half}
    if err_h < 1e-13:
        # the exponential is linear to machine precision on these inputs
        return NumericReport(True, residuals)
    ratio = err_h / err_half if err_half else float("inf")
    residuals["ratio"] = ratio
    ok = 3.0 <= ratio <= 5.0
    violations = () if ok else (f"convergence ratio {ratio:.3f} outside [3, 5]",)
    return NumericReport(ok, residuals, violations)


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
