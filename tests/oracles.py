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
  `relabel_arrows`, which transports a graph along an arrow relabelling.
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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from rackgraph.graphs import GroupLikeGraph, graph_to_rack, rack_to_graph
from rackgraph.hopf import FiltrationLevels, LMBialgebra
from rackgraph.liealg import _Q, LMLieAlgebra, _products, _vector
from rackgraph.lierack import LinearLieRack, NumericReport, _times, matrix_exp
from rackgraph.linalg import FilteredSpace, Subspace, nullspace, sparse_sum
from rackgraph.racks import AugmentedRack, ValidationReport

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
        tuple(_vector(_products(1, l.f[j], [rho_k[i] for rho_k in l.rho])) for j in range(nm))
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
