"""Reference code the tests compare the package against.

No command reaches any of it, so it lives beside the tests and not in the
package.  Tests import it as `from oracles import ...`; pytest puts this
directory on sys.path, and the file is not collected.

- The graph product on normal forms (`ProductCube`, `ArrowWord`,
  `cube_product`, `normalize_word`, `face`): the cube complexes of
  `cubical` read their faces off the rack tables, and these spell out the
  products in the graph of the rack that those faces come from.
- The canonical round-trip isomorphism of a group-like graph
  (`GraphIsomorphism`, `verify_graph_iso`, `roundtrip_graph_iso`) and
  `relabel_arrows`, which transports a graph along an arrow relabelling,
  and `relabel_group`, which renames the elements of a group.
- `graded_primitive_subspace`, the graded primitives of the arrow
  bialgebra's filtration, and `pi_star`, the map x -> pi(x) - 1 that the
  rack's projection induces on graded pieces, both read in the adapted
  rows of `FilteredSpace`.
- The derived Leibniz bracket [m, n] = m ^ f(n) of an exact Lie algebra
  pair (`LeibnizAlgebra`, `verify_leibniz`, `leibniz_bracket`), and
  `derivative_check`, which compares it with central differences of the
  integrated linear rack operation `rack_op`.
- `json_dumps_canonical`, the canonical text through `json.dumps` after a
  normalising copy, which `jsonio.canonical_json` writes in one pass.
- `rref_fractions`, the reduced echelon form over Q kept in Fraction
  arithmetic, which `linalg.rref` computes on primitive integer rows.
- `rref_scan`, `linalg.rref` as it was before it kept a column index: each
  new lead is cleared out of the pivot rows by a scan of all of them.
- `validate_lm_lie_sums` and `verify_e_truncation_sums`, the identity
  checks of `liealg` with each identity one `sparse_sum` of generated
  product terms, which the package adds into one dict in place.
- `verify_hopf_sums`, the structure identity check of the arrow bialgebra
  with each side of an identity one `sparse_sum` of its terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from rackgraph.graphs import GroupLikeGraph, graph_to_rack, rack_to_graph
from rackgraph.hopf import FiltrationLevels, LMBialgebra
from rackgraph.liealg import (
    _Q,
    GradedLieTruncation,
    LMLieAlgebra,
    _d_sign,
    _sigma,
    _vector,
)
from rackgraph.lierack import LinearLieRack, NumericReport, _times, matrix_exp
from rackgraph.linalg import FieldSpec, FilteredSpace, Subspace, nullspace, sparse_sum
from rackgraph.racks import AugmentedRack, FiniteGroup, ValidationReport

# ---------------------------------------------------------------------------
# the graph product on normal forms
#
# An n-cube is a word of n arrows in the graph of the rack, normalized to the
# form (g; x1..xn) with a single leading vertex g and all letters drawn from
# X (the arrows at the identity).  Words multiply by the graph product, which
# on normal forms reads
#
#     (g; x1..xk) * (h; y1..ym) = (g h; x1^h .. xk^h, y1..ym).
#
# Faces replace the i-th factor by its source or target vertex and
# renormalize: the source face deletes letter i, the target face multiplies
# the leading vertex by pi(xi) and conjugates the earlier letters by it.


@dataclass(frozen=True)
class ProductCube:
    leading: int  # vertex (group element)
    letters: tuple[int, ...]  # elements of X

    @property
    def dim(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class ArrowWord:
    """Nonempty word of tokens; ('v', g) is a vertex, ('a', g, x) an arrow g.x."""

    tokens: tuple

    @staticmethod
    def make(tokens) -> "ArrowWord":
        tokens = tuple(tuple(t) for t in tokens)
        if not tokens:
            raise ValueError("empty word")
        for t in tokens:
            if t[0] not in ("v", "a"):
                raise ValueError(f"bad token {t!r}")
        return ArrowWord(tokens)


def cube_product(c1: ProductCube, c2: ProductCube, a: AugmentedRack) -> ProductCube:
    g = a.group.mul[c1.leading][c2.leading]
    h = c2.leading
    moved = tuple(a.action[x][h] for x in c1.letters)
    return ProductCube(g, moved + c2.letters)


def normalize_word(w: ArrowWord, a: AugmentedRack) -> ProductCube:
    acc = ProductCube(a.group.identity, ())
    for t in w.tokens:
        if t[0] == "v":
            cube = ProductCube(t[1], ())
        else:
            cube = ProductCube(t[1], (t[2],))
        acc = cube_product(acc, cube, a)
    return acc


def face(c: ProductCube, i: int, eps: int, a: AugmentedRack) -> ProductCube:
    """i in 1..n; eps 0 = source, 1 = target."""
    n = c.dim
    if not 1 <= i <= n:
        raise ValueError("face index out of range")
    letters = c.letters
    if eps == 0:
        return ProductCube(c.leading, letters[: i - 1] + letters[i:])
    if eps != 1:
        raise ValueError("eps must be 0 or 1")
    p = a.pi[letters[i - 1]]
    lead = a.group.mul[c.leading][p]
    moved = tuple(a.action[x][p] for x in letters[: i - 1])
    return ProductCube(lead, moved + letters[i:])


# ---------------------------------------------------------------------------
# the round-trip isomorphism of group-like graphs


@dataclass(frozen=True)
class GraphIsomorphism:
    """Vertex and arrow bijections between two group-like graphs over the
    same vertex group (vertex map is a group automorphism; here always id)."""

    vertex_map: tuple[int, ...]
    arrow_map: tuple[int, ...]


def verify_graph_iso(q1: GroupLikeGraph, q2: GroupLikeGraph, iso: GraphIsomorphism) -> bool:
    """Does iso carry q1 onto q2 compatibly with s, t, and both actions?"""
    vm, am = iso.vertex_map, iso.arrow_map
    n, na = q1.vertex_group.order, len(q1.arrows)
    if q2.vertex_group.order != n or len(q2.arrows) != na:
        return False
    if sorted(vm) != list(range(n)) or sorted(am) != list(range(na)):
        return False
    for g in range(n):
        for h in range(n):
            if vm[q1.vertex_group.mul[g][h]] != q2.vertex_group.mul[vm[g]][vm[h]]:
                return False
    for a, (s, t) in enumerate(q1.arrows):
        if (vm[s], vm[t]) != q2.arrows[am[a]]:
            return False
    for g in range(n):
        for a in range(na):
            if am[q1.left_act[g][a]] != q2.left_act[vm[g]][am[a]]:
                return False
            if am[q1.right_act[g][a]] != q2.right_act[vm[g]][am[a]]:
                return False
    return True


def roundtrip_graph_iso(q: GroupLikeGraph) -> tuple[GroupLikeGraph, GraphIsomorphism]:
    """Canonical isomorphism q -> rack_to_graph(graph_to_rack(q)),
    a |-> (s(a), s(a)^-1 . a).  Requires unitality (validated group-like input)."""
    rack = graph_to_rack(q)
    std = rack_to_graph(rack)
    grp = q.vertex_group
    e = grp.identity
    xs = [a for a, (s, _) in enumerate(q.arrows) if s == e]
    pos = {a: i for i, a in enumerate(xs)}
    arrow_map = []
    for a, (g, _) in enumerate(q.arrows):
        x = q.left_act[grp.inv[g]][a]
        if q.arrows[x][0] != e:
            raise ValueError("left action does not translate sources")
        arrow_map.append(g * rack.x_size + pos[x])
    iso = GraphIsomorphism(tuple(range(grp.order)), tuple(arrow_map))
    if not verify_graph_iso(q, std, iso):
        raise ValueError("canonical roundtrip map is not an isomorphism")
    return std, iso


def relabel_group(g: FiniteGroup, perm) -> FiniteGroup:
    """The group g with element i renamed perm[i]."""
    mul = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            mul[perm[a]][perm[b]] = perm[g.mul[a][b]]
    return FiniteGroup.make(mul, perm[g.identity])


def relabel_arrows(q: GroupLikeGraph, perm) -> GroupLikeGraph:
    """Transport the structure along an arrow relabeling a -> perm[a]."""
    perm = list(perm)
    na = len(q.arrows)
    if sorted(perm) != list(range(na)):
        raise ValueError("not a permutation of the arrows")
    arrows = [None] * na
    for a in range(na):
        arrows[perm[a]] = q.arrows[a]
    inv = [0] * na
    for a in range(na):
        inv[perm[a]] = a
    n = q.vertex_group.order
    left = [[perm[q.left_act[g][inv[b]]] for b in range(na)] for g in range(n)]
    right = [[perm[q.right_act[g][inv[b]]] for b in range(na)] for g in range(n)]
    return GroupLikeGraph(
        q.vertex_group, tuple(arrows), tuple(map(tuple, left)), tuple(map(tuple, right))
    )


# ---------------------------------------------------------------------------
# graded primitives of the arrow bialgebra


def graded_primitive_subspace(b: LMBialgebra, f: FiltrationLevels, n: int) -> Subspace:
    """Classes [v] in graded piece n of H whose reduced coproduct
    Delta0(v) - v(x)1 - 1(x)v falls one filtration stage deeper.

    Returned in the coordinates of the graded piece's representative basis,
    which are the adapted rows of degree n.
    """
    if n < 1:
        raise ValueError("graded primitives live in positive degrees")
    field = b.field
    h = b.h_dim
    e = b.group.identity
    fg = FilteredSpace(f.levels_g)
    level = [i for i, d in enumerate(fg.degrees) if d >= n]
    piece = [k for k, i in enumerate(level) if fg.degrees[i] == n]
    if not piece:
        return Subspace(field, 0, ())
    def reduced_coproduct(v):
        return sparse_sum(field, (
            term
            for g, c in v.items()
            for term in ((g * h + g, c), (g * h + e, -c), (e * h + g, -c))
        ))

    # coordinates modulo level n+1 of H(x)H: one row per product of degree
    # sum <= n, one column per adapted row of the level
    rows = {
        r * fg.dim + s: {}
        for r, dr in enumerate(fg.degrees)
        for s, ds in enumerate(fg.degrees)
        if dr + ds <= n
    }
    for col, i in enumerate(level):
        for k, x in fg.tensor_coefficients(fg, reduced_coproduct(fg.rows[i])).items():
            if k in rows:
                rows[k][col] = x
    kernel = nullspace(field, len(level), list(rows.values()))
    coords = [{j: kappa[k] for j, k in enumerate(piece) if k in kappa} for kappa in kernel.basis]
    return Subspace.from_vectors(field, len(piece), coords)


def pi_star(a: AugmentedRack, field, levels_x, levels_g) -> tuple:
    """The map x -> pi(x) - 1 induced from graded piece n of the labels to
    graded piece n+1 of the group algebra, for each n before the labels'
    chain repeats: one sparse column per adapted row of degree n of the
    labels, in the coordinates of the adapted rows of degree n+1 of H.
    Raises ValueError when the map is not well defined on cosets."""
    fx, fg = FilteredSpace(levels_x), FilteredSpace(levels_g)
    e = a.group.identity

    def pi_tilde(v):
        return sparse_sum(field, [(a.pi[x], c) for x, c in v.items()] + [(e, -c) for c in v.values()])

    rows, maps = list(zip(fx.rows, fx.degrees)), []
    for n in range(len(levels_x) - 1):
        if any(fg.degree(pi_tilde(r)) < n + 2 for r, d in rows if d >= n + 1):
            raise ValueError("map is not well-defined on cosets")
        piece = [i for i, d in enumerate(fg.degrees) if d == n + 1]
        maps.append(tuple(
            {j: c[i] for j, i in enumerate(piece) if i in c}
            for c in (fg.coefficients(pi_tilde(r)) for r, d in rows if d == n)
        ))
    return tuple(maps)


# ---------------------------------------------------------------------------
# the derived Leibniz bracket


def _products(sign: int, v: dict, rows):
    """sign * sum_m v[m] * rows[m] as (index, value) terms, for sparse v and
    a sequence of sparse rows."""
    return ((z, sign * a * x) for m, a in v.items() for z, x in rows[m].items())


@dataclass(frozen=True)
class LeibnizAlgebra:
    """A bracket on a basis: bracket[i][j] is [e_i, e_j] as a sparse row."""

    dim: int
    bracket: tuple


def verify_leibniz(b: LeibnizAlgebra) -> ValidationReport:
    """Right Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y] on basis triples."""
    n, br = b.dim, b.bracket
    # right[z][t] = [e_t, e_z]
    right = [[br[t][z] for t in range(n)] for z in range(n)]
    violations: list[str] = []
    checked = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                checked += 1
                if sparse_sum(_Q, chain(
                    _products(1, br[y][z], br[x]),
                    _products(-1, br[x][y], right[z]),
                    _products(1, br[x][z], right[y]),
                )):
                    violations.append(f"Leibniz identity fails at ({x}, {y}, {z})")
    return ValidationReport.collect(violations, checked)


def leibniz_bracket(l: LMLieAlgebra) -> LeibnizAlgebra:
    """[m, n] := m ^ f(n), which is a (generally non-Lie) Leibniz bracket."""
    nm = l.dim_m
    table = tuple(
        tuple(
            _vector(sparse_sum(_Q, _products(1, l.f[j], [rho_k[i] for rho_k in l.rho])).items())
            for j in range(nm)
        )
        for i in range(nm)
    )
    out = LeibnizAlgebra(nm, table)
    report = verify_leibniz(out)
    if not report.ok:
        raise AssertionError(f"derived bracket is not Leibniz: {report.violations[0]}")
    return out


def rack_op(r: LinearLieRack, x, y) -> np.ndarray:
    """x <| y = x . exp(rho(f(y))), for one element or a stack of each."""
    return _times(x, matrix_exp(r.action_generator(y)))


def derivative_check(
    r: LinearLieRack,
    l_exact: LMLieAlgebra,
    h: float = 1e-3,
    samples: int = 20,
    seed: int = 1,
) -> NumericReport:
    """Central differences of rack_op(r, x, t y) at t = 0 against the exact
    derived bracket, with the n^2 convergence ratio between h and h/2."""
    if l_exact.dim_m != r.lie.dim_x or l_exact.dim_g != r.lie.dim_g:
        raise ValueError("exact structure dimensions do not match")
    nx = r.lie.dim_x
    if nx == 0:
        return NumericReport(True, {"err_h": 0.0, "err_h_half": 0.0})
    table = np.zeros((nx, nx, nx))
    for i, row in enumerate(leibniz_bracket(l_exact).bracket):
        for j, cell in enumerate(row):
            for k, v in cell.items():
                table[i, j, k] = v
    x, y = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, nx)).transpose(1, 0, 2)
    exact = np.einsum("si,sj,ijk->sk", x, y, table)

    def max_error(step: float) -> float:
        forward, back = rack_op(r, np.stack([x, x]), np.stack([step * y, -step * y]))
        diff = (forward - back) / (2.0 * step)
        return float(np.max(np.abs(diff - exact), initial=0.0))

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
# canonical JSON through the standard encoder


def _normalize(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_dumps_canonical(data) -> str:
    """Sorted keys, two-space indent, ASCII only, a trailing newline; floats
    rounded to 12 significant digits and Fractions as ints or "p/q"."""
    return json.dumps(_normalize(data), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# reduced echelon form over Q in Fraction arithmetic


def rref_fractions(rows) -> list[dict]:
    """The reduced echelon rows of the span of sparse rows over Q, sorted by
    lead, each with lead 1.  Pivot rows are kept fully reduced: from an
    incoming row, each pivot row is subtracted times the row's entry at its
    lead; what is left is divided by its own lead and then cleared out of
    the pivot rows that have an entry there."""
    pivots: dict[int, dict] = {}
    for row in rows:
        v = {k: x for k, x in row.items() if x}
        for k, c in [(k, c) for k, c in v.items() if k in pivots]:
            for j, x in pivots[k].items():
                v[j] = v.get(j, 0) - c * x
        v = {k: x for k, x in v.items() if x}
        if not v:
            continue
        lead = min(v)
        a = v[lead]
        if a != 1:
            inv = a if a == -1 else Fraction(1) / a
            v = {k: x * inv for k, x in v.items()}
        for prow in pivots.values():
            c = prow.get(lead)
            if c:
                for j, x in v.items():
                    w = prow.get(j, 0) - c * x
                    if w:
                        prow[j] = w
                    else:
                        del prow[j]
        pivots[lead] = v
    return [pivots[k] for k in sorted(pivots)]


# ---------------------------------------------------------------------------
# the reduced echelon form with a scan of every pivot row per new lead


def rref_scan(field: FieldSpec, rows) -> list[dict]:
    """Reduced row echelon basis of the span of sparse rows {index: value}.

    Returns the nonzero rows of the reduced echelon form, sorted by leading
    index, each with lead 1 and zero at every other row's lead.  Pivot rows
    stay zero at each other's leads: an incoming row is cleared in one pass,
    then cleared out of the pivot rows.  Rows may keep zero values.  Over
    F_p each incoming row is reduced mod p in one pass, zeros dropped.
    Over Q every step is on integers (after Bareiss 1968): rows come in
    scaled by the lcm of their denominators, and u is cleared at the lead a
    of w by u <- (a / g) u - (c / g) w, c = u's entry there, g = gcd(a, c).
    A pivot row is kept primitive (content 1) with a positive lead, and is
    divided by its lead only on the way out, to ints where that is exact.
    """
    if not field.is_prime_field:
        return _rref_scan_rational(rows)
    p = field.p
    pivots: dict[int, dict] = {}

    def clean(v):
        return {k: y for k, x in v.items() if (y := x % p)}

    for row in rows:
        v = {k: y for k, x in row.items() if (y := int(x) % p)}
        for k, c in [(k, c) for k, c in v.items() if k in pivots]:
            for j, x in pivots[k].items():
                v[j] = v.get(j, 0) - c * x
        v = clean(v)
        if not v:
            continue
        lead = min(v)
        a = v[lead]
        if a != 1:
            inv = pow(a, p - 2, p)
            v = clean({k: x * inv for k, x in v.items()})
        # keep the other pivot rows zero at the new lead
        for prow in pivots.values():
            c = prow.get(lead)
            if c:
                for j, x in v.items():
                    w = (prow.get(j, 0) - c * x) % p
                    if w:
                        prow[j] = w
                    else:
                        del prow[j]
        pivots[lead] = v
    return [pivots[k] for k in sorted(pivots)]


def _rref_scan_rational(rows) -> list[dict]:
    """`rref_scan` over Q: integer pivot rows, one division on the way out."""
    pivots: dict[int, dict] = {}
    for row in rows:
        m = math.lcm(*[x.denominator for x in row.values()])
        v = {k: x.numerator * (m // x.denominator) for k, x in row.items() if x}
        for k in [k for k in v if k in pivots]:
            prow, c = pivots[k], v[k]
            if (a := prow[k]) != 1:
                a, c = a // (g := math.gcd(a, c)), c // g
                if a != 1:
                    v = {j: a * x for j, x in v.items()}
            for j, x in prow.items():
                v[j] = v.get(j, 0) - c * x
        v = {j: x for j, x in v.items() if x}
        if not v:
            continue
        g = math.gcd(*v.values()) * (1 if v[lead := min(v)] > 0 else -1)
        v = {j: x // g for j, x in v.items()} if g != 1 else v
        a = v[lead]
        for k, prow in pivots.items():
            if not (c := prow.get(lead)):
                continue
            if a != 1:
                c //= (g := math.gcd(a, c))
                if (s := a // g) != 1:
                    for j in prow:
                        prow[j] *= s
            for j, x in v.items():
                if w := prow.get(j, 0) - c * x:
                    prow[j] = w
                else:
                    del prow[j]
            # the content divides the lead, so beside a lead 1 it stays 1
            if prow[k] != 1 and (g := math.gcd(*prow.values())) != 1:
                for j in prow:
                    prow[j] //= g
        pivots[lead] = v
    return [
        v if (a := v[k]) == 1 else {j: x // a if x % a == 0 else Fraction(x, a) for j, x in v.items()}
        for k, v in sorted(pivots.items())
    ]


# ---------------------------------------------------------------------------
# the identity checks of liealg, each identity one sparse_sum


def validate_lm_lie_sums(l: LMLieAlgebra) -> ValidationReport:
    """Antisymmetry and Jacobi for g, the module axiom, and equivariance."""
    violations: list[str] = []
    checked = 0
    ng, nm = l.dim_g, l.dim_m
    c, rho, f = l.c, l.rho, l.f

    for i in range(ng):
        for j in range(ng):
            checked += 1
            if sparse_sum(_Q, chain(c[i][j].items(), c[j][i].items())):
                violations.append(f"antisymmetry fails at ({i}, {j})")

    # right[k][t] = [e_t, e_k], so [u, e_k] = sum_t u_t right[k][t]
    right = [[c[t][k] for t in range(ng)] for k in range(ng)]
    for i in range(ng):
        for j in range(ng):
            for k in range(ng):
                checked += 1
                if sparse_sum(_Q, chain(
                    _products(1, c[i][j], right[k]),
                    _products(1, c[j][k], right[i]),
                    _products(1, c[k][i], right[j]),
                )):
                    violations.append(f"Jacobi fails at ({i}, {j}, {k})")

    for a in range(ng):
        for b in range(ng):
            checked += 1
            # row i of rho[a] rho[b] - rho[b] rho[a] against sum_k c[a][b][k] rho[k]
            if any(
                sparse_sum(_Q, chain(
                    _products(1, rho[a][i], rho[b]),
                    _products(-1, rho[b][i], rho[a]),
                    _products(-1, c[a][b], [rho_k[i] for rho_k in rho]),
                ))
                for i in range(nm)
            ):
                violations.append(f"module axiom fails at ({a}, {b})")

    for a in range(ng):
        checked += 1
        # f(m_i ^ e_a) against [f(m_i), e_a]
        if any(
            sparse_sum(_Q, chain(_products(1, rho[a][i], f), _products(-1, f[i], right[a])))
            for i in range(nm)
        ):
            violations.append(f"equivariance fails at action element {a}")

    return ValidationReport.collect(violations, checked)


def verify_e_truncation_sums(t: GradedLieTruncation, l: LMLieAlgebra) -> ValidationReport:
    """Degree <= 1 equals the input; antisymmetry, Jacobi, derivation rule,
    and d.d = 0 hold on all in-range basis tuples.

    The degree <= 1 checks compare table entries as they are.  Each other
    identity is one `sparse_sum` of the rows of the tables, or of their
    products, which holds when the sum is empty.  Every basis tuple counts
    once in `checked`, and the violations come in loop order.
    """
    violations: list[str] = []
    checked = 0

    def record(ok: bool, message: str) -> None:
        nonlocal checked
        checked += 1
        if not ok:
            violations.append(message)

    record(t.dims[0] == l.dim_g, "degree-0 dimension differs from the input")
    record(t.dims[1] == l.dim_m, "degree-1 dimension differs from the input")
    record(t.bracket[(0, 0)] == l.c, "degree (0,0) bracket differs from the input")
    if t.dims[1] == l.dim_m:
        for i in range(l.dim_m):
            for a in range(l.dim_g):
                record(
                    t.bracket[(1, 0)][i][a] == l.rho[a][i],
                    f"degree (1,0) bracket differs from the action at ({i}, {a})",
                )
        record(
            t.differential[1] == l.f,
            "degree-1 differential differs from the structure map",
        )

    D = t.max_degree
    for p in range(D + 1):
        for q in range(D + 1 - p):
            if (p, q) == (0, 0):
                continue
            s = _sigma(p, q, t.convention)
            for i in range(t.dims[p]):
                for j in range(t.dims[q]):
                    lhs, rhs = t.bracket[(p, q)][i][j], t.bracket[(q, p)][j][i]
                    record(
                        not sparse_sum(_Q, chain(
                            lhs.items(), ((k, s * x) for k, x in rhs.items())
                        )),
                        f"antisymmetry fails in degrees ({p}, {q}) at ({i}, {j})",
                    )

    # cell[(p, q)][i][j] is [e_i, e_j], column[(p, q)][j][i] the same row,
    # and diff[n][j] is d e_j
    cell, diff = t.bracket, t.differential
    column = {
        (p, q): [[row[j] for row in rows] for j in range(t.dims[q])]
        for (p, q), rows in cell.items()
    }

    for p in range(D + 1):
        for q in range(D + 1 - p):
            for r in range(D + 1 - p - q):
                if p + q + r == 0:
                    continue
                s = _sigma(p, q, t.convention)
                outer, inner = cell[(p, q + r)], cell[(q, r)]
                pq, pq_r = cell[(p, q)], column[(p + q, r)]
                pr, q_pr = cell[(p, r)], cell[(q, p + r)]
                for i in range(t.dims[p]):
                    for j in range(t.dims[q]):
                        for k in range(t.dims[r]):
                            # [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - s [e_j, [e_i, e_k]]
                            total = sparse_sum(_Q, chain(
                                _products(1, inner[j][k], outer[i]),
                                _products(-1, pq[i][j], pq_r[k]),
                                _products(-s, pr[i][k], q_pr[j]),
                            ))
                            record(
                                not total,
                                f"Jacobi fails in degrees ({p},{q},{r}) at ({i},{j},{k})",
                            )

    for p in range(D + 1):
        for q in range(max(1 - p, 0), D + 1 - p):
            n = p + q
            sign = _d_sign(p, t.convention)
            for i in range(t.dims[p]):
                for j in range(t.dims[q]):
                    # d[e_i, e_j] - [d e_i, e_j] - sign [e_i, d e_j]
                    terms = [_products(1, cell[(p, q)][i][j], diff[n])]
                    if p >= 1:
                        terms.append(_products(-1, diff[p][i], column[(p - 1, q)][j]))
                    if q >= 1:
                        terms.append(_products(-sign, diff[q][j], cell[(p, q - 1)][i]))
                    record(
                        not sparse_sum(_Q, chain.from_iterable(terms)),
                        f"derivation rule fails in degrees ({p},{q}) at ({i},{j})",
                    )

    for n in range(2, D + 1):
        for j in range(t.dims[n]):
            dd = sparse_sum(_Q, _products(1, diff[n][j], diff[n - 1]))
            record(not dd, f"d.d nonzero in degree {n} at basis element {j}")

    return ValidationReport.collect(violations, checked)


# ---------------------------------------------------------------------------
# the identity checks of hopf, each side of an identity one sparse_sum


def verify_hopf_sums(b: LMBialgebra) -> ValidationReport:
    """Exhaustive basis-level check of every structure identity.

    Works entirely from the stored maps, so a corrupted entry in any of
    them is caught and reported with the witness basis element.  Each side
    of an identity is one `sparse_sum` of its (index, value) terms.
    """
    f = b.field
    grp = b.group
    h, na = b.h_dim, b.a_dim
    mul = grp.mul
    la, ra = b.graph.left_act, b.graph.right_act
    off = na * h
    d0, d1, s0, s1, phi = b.delta0, b.delta1, b.s0, b.s1, b.phi
    eps = [col.get(0, 0) for col in b.counit]
    e = grp.identity

    def total(terms) -> dict:
        return sparse_sum(f, terms)

    # the coproducts split into tensor factors: (i, j, c) for g, and
    # (arrow, vertex, c) for each block of an arrow, A(x)H then H(x)A
    pairs0 = [[(k // h, k % h, c) for k, c in col.items()] for col in d0]
    first = [[(k // h, k % h, c) for k, c in col.items() if k < off] for col in d1]
    second = [[((k - off) % na, (k - off) // na, c) for k, c in col.items() if k >= off]
              for col in d1]

    violations: list[str] = []
    checked = 0

    def record(ok: bool, message: str) -> None:
        nonlocal checked
        checked += 1
        if not ok:
            violations.append(message)

    for g in range(h):
        # coassociativity of the vertex coproduct
        lhs = total((pq * h + j, c * c2) for i, j, c in pairs0[g] for pq, c2 in d0[i].items())
        rhs = total((i * h * h + pq, c * c2) for i, j, c in pairs0[g] for pq, c2 in d0[j].items())
        record(lhs == rhs, f"coassociativity fails at vertex {g}")

        # counit on the vertex coproduct, both sides
        want = {g: 1}
        record(total((j, eps[i] * c) for i, j, c in pairs0[g]) == want,
               f"left counit fails at vertex {g}")
        record(total((i, eps[j] * c) for i, j, c in pairs0[g]) == want,
               f"right counit fails at vertex {g}")

        # antipode cancellation on the vertex algebra, both sides
        want = total([(e, eps[g])])
        acc_l = total((mul[i2][j], c * c2) for i, j, c in pairs0[g] for i2, c2 in s0[i].items())
        acc_r = total((mul[i][j2], c * c2) for i, j, c in pairs0[g] for j2, c2 in s0[j].items())
        record(acc_l == want, f"vertex antipode (left) fails at {g}")
        record(acc_r == want, f"vertex antipode (right) fails at {g}")

    for a in range(na):
        # counit on the arrow coproduct: both blocks return the arrow
        want = {a: 1}
        record(total((b2, c * eps[g2]) for b2, g2, c in first[a]) == want,
               f"arrow counit (first block) fails at arrow {a}")
        record(total((b2, c * eps[g2]) for b2, g2, c in second[a]) == want,
               f"arrow counit (second block) fails at arrow {a}")

        # compatibility of phi with the two coproducts
        lhs = total((pq, c * c2) for g2, c in phi[a].items() for pq, c2 in d0[g2].items())
        rhs = total(
            [(t2 * h + g2, c * c2) for b2, g2, c in first[a] for t2, c2 in phi[b2].items()]
            + [(g2 * h + t2, c * c2) for b2, g2, c in second[a] for t2, c2 in phi[b2].items()]
        )
        record(lhs == rhs, f"phi does not intertwine coproducts at arrow {a}")

        # antipode cancellation on arrows, both variants
        acc1 = total(
            [(ra[g2][b3], c * c2) for b2, g2, c in first[a] for b3, c2 in s1[b2].items()]
            + [(la[g3][b2], c * c2) for b2, g2, c in second[a] for g3, c2 in s0[g2].items()]
        )
        acc2 = total(
            [(ra[g3][b2], c * c2) for b2, g2, c in first[a] for g3, c2 in s0[g2].items()]
            + [(la[g2][b3], c * c2) for b2, g2, c in second[a] for b3, c2 in s1[b2].items()]
        )
        record(not acc1, f"arrow antipode cancellation (S first) fails at arrow {a}")
        record(not acc2, f"arrow antipode cancellation (S second) fails at arrow {a}")

        # phi commutes with the antipodes
        lhs = total((g2, c * c2) for b2, c in s1[a].items() for g2, c2 in phi[b2].items())
        rhs = total((g3, c * c2) for g2, c in phi[a].items() for g3, c2 in s0[g2].items())
        record(lhs == rhs, f"phi/antipode square fails at arrow {a}")

        # counit kills phi
        record(not total((0, eps[g2] * c) for g2, c in phi[a].items()),
               f"counit of phi nonzero at arrow {a}")

    for a in range(na):
        for g in range(h):
            # right module map: coproduct of a.g versus coproduct acted by g(x)g
            rhs = total(
                [(ra[p][b2] * h + mul[g2][q2], c * c2)
                 for b2, g2, c in first[a] for p, q2, c2 in pairs0[g]]
                + [(off + mul[g2][p] * na + ra[q2][b2], c * c2)
                   for b2, g2, c in second[a] for p, q2, c2 in pairs0[g]]
            )
            record(d1[ra[g][a]] == rhs, f"right module coproduct fails at arrow {a}, vertex {g}")

            # left module map
            rhs = total(
                [(la[p][b2] * h + mul[q2][g2], c * c2)
                 for b2, g2, c in first[a] for p, q2, c2 in pairs0[g]]
                + [(off + mul[p][g2] * na + la[q2][b2], c * c2)
                   for b2, g2, c in second[a] for p, q2, c2 in pairs0[g]]
            )
            record(d1[la[g][a]] == rhs, f"left module coproduct fails at arrow {a}, vertex {g}")

    return ValidationReport.collect(violations, checked)
