"""The arrow bialgebra of a group-like graph and its augmentation filtration.

The span of the vertices is a group algebra H; the span of the arrows is an
H-bimodule A mapped to H by phi(a) = t(a) - s(a).  The pair carries a
coproduct on each part (group-like on vertices, a(x)t(a) + s(a)(x)a on
arrows), antipodes, and a counit.  Downstream of the structure maps live the
powers of the augmentation ideal, the induced filtration of A, and the
levels of the G-action on the rack labels, whose graded pieces form the
coinvariant module.  Each filtration is held up to its first repeat, whose
level stands for every later index (level_at).  The graded checks read
degrees off bases adapted to these filtrations (linalg.FilteredSpace).

Tensor index conventions, used consistently everywhere:
  H(x)H:  (g, h)  ->  g * |G| + h
  A(x)H:  (a, g)  ->  a * |G| + g
  H(x)A:  (g, a)  ->  g * |A| + a
  A(x)H (+) H(x)A: the A(x)H block comes first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GroupLikeGraph, unit_component
from .linalg import FieldSpec, FilteredSpace, Subspace, sparse_sum
from .racks import AugmentedRack, FiniteGroup, ValidationReport, orbits


@dataclass(frozen=True)
class LMBialgebra:
    """Structure maps of the arrow bialgebra, materialized over a field.

    Each map is a tuple of sparse columns: column j is the image of basis
    element j as {row index: value}, with no zero values and over F_p only
    residues in [0, p).  Shapes (h = |G|, na = number of arrows):
      phi     h x na        a -> t(a) - s(a)
      s0      h x h         g -> g^{-1}
      s1      na x na       a -> -(s(a)^{-1} . a . t(a)^{-1})
      delta0  h^2 x h       g -> g (x) g
      delta1  (na*h + h*na) x na
      counit  1 x h         all ones
    """

    field: FieldSpec
    graph: GroupLikeGraph
    h_dim: int
    a_dim: int
    phi: tuple
    s0: tuple
    s1: tuple
    delta0: tuple
    delta1: tuple
    counit: tuple

    @property
    def group(self) -> FiniteGroup:
        return self.graph.vertex_group


def build_lm_hopf(q: GroupLikeGraph, field: FieldSpec) -> LMBialgebra:
    grp = q.vertex_group
    h = grp.order
    na = len(q.arrows)
    phi, s1, d1 = [], [], []
    for a, (s, t) in enumerate(q.arrows):
        phi.append(sparse_sum(field, [(t, 1), (s, -1)]))
        b = q.left_act[grp.inv[s]][q.right_act[grp.inv[t]][a]]
        s1.append(sparse_sum(field, [(b, -1)]))
        d1.append({a * h + t: 1, na * h + s * na + a: 1})
    return LMBialgebra(
        field=field,
        graph=q,
        h_dim=h,
        a_dim=na,
        phi=tuple(phi),
        s0=tuple({grp.inv[g]: 1} for g in range(h)),
        s1=tuple(s1),
        delta0=tuple({g * h + g: 1} for g in range(h)),
        delta1=tuple(d1),
        counit=tuple({0: 1} for _ in range(h)),
    )


def verify_hopf(b: LMBialgebra) -> ValidationReport:
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


# ---------------------------------------------------------------------------
# augmentation filtration


@dataclass(frozen=True)
class FiltrationLevels:
    """Powers of the augmentation ideal in H and the induced levels in A.

    levels_g[n] is the n-th ideal power (index 0 is all of H), levels_a[n]
    the n-th level of A.  Each chain holds its distinct levels: it ends at
    its first repeat, and its last entry stands for every later index (see
    level_at).  depth is the last level of A that a report shows.
    """

    field: FieldSpec
    levels_g: tuple
    levels_a: tuple
    depth: int


class DepthTooShallow(RuntimeError):
    """An explicit depth ends before a filtration chain repeats."""


def level_at(levels, n: int):
    """Entry n of a chain that ends at its first repeat."""
    return levels[min(n, len(levels) - 1)]


def _chain(first: Subspace, step) -> list:
    """Decreasing subspace chain from `first` up to its first repeat: the
    distinct levels, the last of which `step` maps onto itself."""
    levels = [first]
    while (nxt := step(levels[-1])) != levels[-1]:
        levels.append(nxt)
        if len(levels) > first.ambient_dim + 1:
            raise RuntimeError("filtration chain failed to stabilize")
    return levels


def _difference_span(field: FieldSpec, dim: int, tables):
    """Step map sending a level to the span of sigma(v) - v, over every
    permutation table sigma (sigma[i] is the image of basis vector i) and
    every basis row v of the level.

    Callers pass the tables of a generating set S of the acting group
    (FiniteGroup.generators), not of every element.  On a level L that the
    action maps into itself, S gives the same span as the whole group,
    since gh.v - v = g.(h.v) - h.v + h.v - v with h.v in L, and the step of
    such a level is again one.  Every chain starts from the whole space, so
    all its levels are.  This needs the tables to form an action of the
    group, and two actions to commute when a caller passes both sides."""

    def step(level: Subspace) -> Subspace:
        vecs = [
            sparse_sum(field, [(table[i], v) for i, v in row.items()]
                       + [(i, -v) for i, v in row.items()])
            for table in tables
            for row in level.basis
        ]
        return Subspace.from_vectors(field, dim, vecs)

    return step


def _right_mul_table(group: FiniteGroup, g: int) -> list[int]:
    return [group.mul[i][g] for i in range(group.order)]


def group_ideal_levels(group: FiniteGroup, field: FieldSpec) -> list[Subspace]:
    """[H, I, I^2, ...] up to the first repeat; I^(n+1) = I.I^n is the span
    of (s-1).v over a generating set S of the group."""
    tables = [group.mul[g] for g in group.generators(range(group.order))]
    return _chain(Subspace.full(field, group.order), _difference_span(field, group.order, tables))


def augmentation_filtration(b: LMBialgebra, depth: int | None = None) -> FiltrationLevels:
    """Levels of H and A, and the last level of A to report.  An explicit
    depth is refused when A has more than depth distinct levels or H more
    than depth + 2; without one, the report runs one level past the last
    distinct level of A.

    Level n+1 of A is (s-1).level + level.(s-1) over a generating set S
    of G, which is I.level + level.I: every level is a sub-bimodule, and
    the two actions commute (see _difference_span)."""
    grp = b.group
    la, ra = b.graph.left_act, b.graph.right_act
    tables = [t for g in grp.generators(range(grp.order)) for t in (la[g], ra[g])]
    levels_a = _chain(Subspace.full(b.field, b.a_dim), _difference_span(b.field, b.a_dim, tables))
    levels_g = group_ideal_levels(grp, b.field)
    if depth is None:
        depth = len(levels_a)
    elif len(levels_a) > depth or len(levels_g) > depth + 2:
        raise DepthTooShallow("depth too small to observe stabilization")
    return FiltrationLevels(
        field=b.field, levels_g=tuple(levels_g), levels_a=tuple(levels_a), depth=depth
    )


def _apply_phi(b: LMBialgebra, v: dict) -> dict:
    return sparse_sum(b.field, ((g, c * x) for a, c in v.items() for g, x in b.phi[a].items()))


def _phi_image(b: LMBialgebra, level: Subspace) -> Subspace:
    return Subspace.from_vectors(b.field, b.h_dim, [_apply_phi(b, row) for row in level.basis])


def relative_ideal_levels(b: LMBialgebra, component: tuple[int, ...]) -> list[Subspace]:
    """Levels [full, K, I.K + K.I, ...] up to the first repeat, where K is
    the kernel of the map collapsing each left coset of the subgroup
    spanned by `component`.

    K is the span of v.(t-1) over a generating set of that subgroup, and
    each later step multiplies by s-1 on both sides over a generating set
    S of G.  The component is a normal subgroup, so K and every later
    level are two-sided ideals, on which S gives the span over all of G
    (see _difference_span)."""
    f = b.field
    grp = b.group
    n = grp.order
    full = Subspace.full(f, n)
    first = _difference_span(f, n, [_right_mul_table(grp, t) for t in grp.generators(component)])
    gens = grp.generators(range(n))
    both_sides = [grp.mul[g] for g in gens] + [_right_mul_table(grp, g) for g in gens]
    return [full] + _chain(first(full), _difference_span(f, n, both_sides))


def verify_connected_lemma(b: LMBialgebra, f: FiltrationLevels) -> ValidationReport:
    """phi carries level n of A onto level n+1 of H (relative to the unit
    component when the graph is disconnected); inclusion always holds.

    Checked for n up to f.depth.  One image per distinct level of A; past
    the last index where a chain read here still changes, every verdict
    repeats the one before."""
    component, connected = unit_component(b.graph)
    targets = f.levels_g if connected else relative_ideal_levels(b, component)
    images = [_phi_image(b, level) for level in f.levels_a]
    changing = max(len(images) - 1, len(f.levels_g) - 2, len(targets) - 2)
    violations: list[str] = []
    for n in range(f.depth + 1):
        if n <= changing:
            img = level_at(images, n)
            escapes = not level_at(f.levels_g, n + 1).contains_space(img)
            differs = img != level_at(targets, n + 1)
        if escapes:
            violations.append(f"phi image escapes level {n + 1} of H at level {n}")
        if differs:
            violations.append(
                f"phi image of level {n} differs from the expected level {n + 1}"
            )
    return ValidationReport.collect(violations, 2 * (f.depth + 1))


# ---------------------------------------------------------------------------
# coinvariant module


@dataclass(frozen=True)
class CoinvariantModule:
    """Levels of the G-action span on the rack labels and their graded data.

    levels_x[n] is the span of iterated differences v.g - v, up to the
    first repeat like the chains of FiltrationLevels; p_dims[n] the graded
    dimensions, zero from the repeat on.
    """

    field: FieldSpec
    levels_x: tuple
    p_dims: tuple[int, ...]


def coinvariant_module(
    a: AugmentedRack, field: FieldSpec, depth: int | None = None
) -> CoinvariantModule:
    """An explicit depth, the number of graded dimensions to report, is
    refused when the labels have more than depth distinct levels; without
    one, the report ends with the first zero.

    Level n+1 of the labels is the span of v.s - v over a generating set S
    of the group, which is the span over all of it because a.action is an
    action (see _difference_span)."""
    f = field
    m = a.x_size

    gens = a.group.generators(range(a.group.order))
    tables = [[a.action[x][g] for x in range(m)] for g in gens]
    levels_x = _chain(Subspace.full(f, m), _difference_span(f, m, tables))
    if depth is None:
        depth = len(levels_x)
    elif len(levels_x) > depth:
        raise DepthTooShallow("depth too small to observe stabilization")

    p_dims = tuple(
        level_at(levels_x, n).dim - level_at(levels_x, n + 1).dim for n in range(depth)
    )
    norbits = len(orbits(a))
    if p_dims[0] != norbits:
        raise AssertionError(
            f"degree-0 graded dimension {p_dims[0]} != orbit count {norbits}"
        )
    return CoinvariantModule(field=f, levels_x=tuple(levels_x), p_dims=p_dims)


# ---------------------------------------------------------------------------
# graded structure


def _delta1_prime_vector(b: LMBialgebra, v: dict) -> dict:
    """a (x) phi(a), extended linearly, as a vector in A(x)H."""
    h = b.h_dim
    return sparse_sum(
        b.field, ((a * h + g, c * x) for a, c in v.items() for g, x in b.phi[a].items())
    )


def _raises_at(fa: FilteredSpace, image_degrees: list, n: int) -> bool:
    """Every adapted row of degree >= n maps to degree >= n + 1."""
    return all(t > n for d, t in zip(fa.degrees, image_degrees) if d >= n)


def verify_graded_structure(
    b: LMBialgebra, f: FiltrationLevels, c: CoinvariantModule
) -> ValidationReport:
    """Graded dimension identity, filtration raising of the reduced arrow
    coproduct, and degree raising of phi.

    All three read degrees off adapted bases of A and H: level m of the
    filtration of A(x)H is spanned by the products of adapted rows whose
    degrees sum to at least m, so no tensor level is ever row-reduced."""
    if b.field != f.field or b.field != c.field:
        raise ValueError("field mismatch")
    fa, fg = FilteredSpace(f.levels_a), FilteredSpace(f.levels_g)
    violations: list[str] = []
    checked = 0

    n_max = len(f.levels_g) + len(c.levels_x) + len(f.levels_a) - 2
    for n in range(n_max + 1):
        lhs = fa.graded_dim(n)
        rhs = 0
        for p in range(n + 1):
            q = n - p
            pq_dim = c.p_dims[q] if q < len(c.p_dims) else 0
            rhs += fg.graded_dim(p) * pq_dim
        checked += 1
        if lhs != rhs:
            violations.append(
                f"graded dimension identity fails at degree {n}: {lhs} != {rhs}"
            )

    coproduct_deg = [fa.tensor_degree(fg, _delta1_prime_vector(b, row)) for row in fa.rows]
    for n in range(f.depth + 1):
        checked += 1
        if not _raises_at(fa, coproduct_deg, n):
            violations.append(
                f"reduced arrow coproduct does not raise the filtration at level {n}"
            )

    phi_deg = [fg.degree(_apply_phi(b, row)) for row in fa.rows]
    for n in range(f.depth + 1):
        checked += 1
        if not _raises_at(fa, phi_deg, n):
            violations.append(f"phi does not raise the degree at level {n}")

    return ValidationReport.collect(violations, checked)
