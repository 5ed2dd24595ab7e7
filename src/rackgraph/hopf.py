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
from .linalg import FieldSpec, FilteredSpace, Subspace, add_products, drop_zeros, sparse_sum
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
    """Basis-level check of every structure identity.

    Works entirely from the stored maps, so a corrupted entry in any of
    them is caught and reported with the witness basis element.  Each
    identity adds both of its sides into one dict in place, one minus the
    other, and holds when every value there is 0 in the field; a violation
    message is made only for an identity that fails.  There are 5 |G|
    vertex identities, 7 |A| arrow identities and 2 |A| |G| module-map
    identities, all counted in `checked`.

    The module-map identities, D1(a.g) = D1(a).D0(g) on the right and
    D1(g.a) = D0(g).D1(a) on the left, are evaluated only at e and at the
    generating set S of G (`FiniteGroup.generating_set`), after uncounted
    guards D0(gs) = D0(g)D0(s) and D0(sg) = D0(s)D0(g) for g in G and s in
    S.  When they all hold, so does every module-map identity, by induction
    on the length of g as a word in S (G is finite, so every element but e
    is a nonempty word in S), for every arrow a at once: on the right side,
      D1(a.gs) = D1((a.g).s) = D1(a.g).D0(s) = (D1(a).D0(g)).D0(s)
               = D1(a).(D0(g)D0(s)) = D1(a).D0(gs),
    by the identity at s for the arrow a.g, the one at g for a, and the
    guard; the left side is its mirror, with sg.  The first and fourth
    steps need `b.graph` to be group-like: the actions are actions and the
    vertex product is associative, so A(x)H + H(x)A is a left and a right
    H(x)H-module.  Every command checks that before this runs.  When a
    guard or an identity at e or S fails, every module-map identity is
    evaluated, so `checked` and the violations are those of the full check.
    """
    grp = b.group
    h, na = b.h_dim, b.a_dim
    mul = grp.mul
    la, ra = b.graph.left_act, b.graph.right_act
    off = na * h
    d0, d1, s0, s1, phi = b.delta0, b.delta1, b.s0, b.s1, b.phi
    eps = [col.get(0, 0) for col in b.counit]
    e = grp.identity
    mod = b.field.p

    # the coproducts split into tensor factors: (i, j, c) for g, and
    # (arrow, vertex, c) for each block of an arrow, A(x)H then H(x)A
    pairs0 = [[(k // h, k % h, c) for k, c in col.items()] for col in d0]
    first = [[(k // h, k % h, c) for k, c in col.items() if k < off] for col in d1]
    second = [[((k - off) % na, (k - off) // na, c) for k, c in col.items() if k >= off]
              for col in d1]

    violations: list[str] = []
    checked = 0

    def zero(acc: dict) -> bool:
        if mod:
            return not any(x % mod for x in acc.values())
        return not any(acc.values())

    def record(acc: dict, message: str, *args) -> None:
        """Count one identity, one side minus the other in acc."""
        nonlocal checked
        checked += 1
        if not zero(acc):
            violations.append(message.format(*args))

    for g in range(h):
        # coassociativity of the vertex coproduct
        acc: dict = {}
        for i, j, c in pairs0[g]:
            for pq, c2 in d0[i].items():
                k = pq * h + j
                acc[k] = acc.get(k, 0) + c * c2
            for pq, c2 in d0[j].items():
                k = i * h * h + pq
                acc[k] = acc.get(k, 0) - c * c2
        record(acc, "coassociativity fails at vertex {}", g)

        # counit on the vertex coproduct, both sides
        left, right = {g: -1}, {g: -1}
        for i, j, c in pairs0[g]:
            left[j] = left.get(j, 0) + eps[i] * c
            right[i] = right.get(i, 0) + eps[j] * c
        record(left, "left counit fails at vertex {}", g)
        record(right, "right counit fails at vertex {}", g)

        # antipode cancellation on the vertex algebra, both sides
        left, right = {e: -eps[g]}, {e: -eps[g]}
        for i, j, c in pairs0[g]:
            for i2, c2 in s0[i].items():
                k = mul[i2][j]
                left[k] = left.get(k, 0) + c * c2
            for j2, c2 in s0[j].items():
                k = mul[i][j2]
                right[k] = right.get(k, 0) + c * c2
        record(left, "vertex antipode (left) fails at {}", g)
        record(right, "vertex antipode (right) fails at {}", g)

    for a in range(na):
        # counit on the arrow coproduct: both blocks return the arrow
        acc1, acc2 = {a: -1}, {a: -1}
        for b2, g2, c in first[a]:
            acc1[b2] = acc1.get(b2, 0) + c * eps[g2]
        for b2, g2, c in second[a]:
            acc2[b2] = acc2.get(b2, 0) + c * eps[g2]
        record(acc1, "arrow counit (first block) fails at arrow {}", a)
        record(acc2, "arrow counit (second block) fails at arrow {}", a)

        # compatibility of phi with the two coproducts
        acc = add_products({}, 1, phi[a], d0)
        for b2, g2, c in first[a]:
            for t2, c2 in phi[b2].items():
                k = t2 * h + g2
                acc[k] = acc.get(k, 0) - c * c2
        for b2, g2, c in second[a]:
            for t2, c2 in phi[b2].items():
                k = g2 * h + t2
                acc[k] = acc.get(k, 0) - c * c2
        record(acc, "phi does not intertwine coproducts at arrow {}", a)

        # antipode cancellation on arrows, both variants
        acc1, acc2 = {}, {}
        for b2, g2, c in first[a]:
            for b3, c2 in s1[b2].items():
                k = ra[g2][b3]
                acc1[k] = acc1.get(k, 0) + c * c2
            for g3, c2 in s0[g2].items():
                k = ra[g3][b2]
                acc2[k] = acc2.get(k, 0) + c * c2
        for b2, g2, c in second[a]:
            for g3, c2 in s0[g2].items():
                k = la[g3][b2]
                acc1[k] = acc1.get(k, 0) + c * c2
            for b3, c2 in s1[b2].items():
                k = la[g2][b3]
                acc2[k] = acc2.get(k, 0) + c * c2
        record(acc1, "arrow antipode cancellation (S first) fails at arrow {}", a)
        record(acc2, "arrow antipode cancellation (S second) fails at arrow {}", a)

        # phi commutes with the antipodes
        acc = add_products(add_products({}, 1, s1[a], phi), -1, phi[a], s0)
        record(acc, "phi/antipode square fails at arrow {}", a)

        # counit kills phi
        record({0: sum(eps[g2] * c for g2, c in phi[a].items())},
               "counit of phi nonzero at arrow {}", a)

    def module_map(act, prod, a: int, g: int) -> dict:
        """The coproduct of act[g][a] minus the coproduct of a acted on by
        g (x) g, in one dict: act is one side's action on arrows, and
        prod[x][y] is x * y for the right side, y * x for the left."""
        acc = dict(d1[act[g][a]])
        get = acc.get
        for p, q2, c2 in pairs0[g]:
            for b2, g2, c in first[a]:
                k = act[p][b2] * h + prod[g2][q2]
                acc[k] = get(k, 0) - c * c2
            for b2, g2, c in second[a]:
                k = off + prod[g2][p] * na + act[q2][b2]
                acc[k] = get(k, 0) - c * c2
        return acc

    def multiplicative(x: int, y: int) -> bool:
        """D0(xy) = D0(x)D0(y) in H(x)H."""
        acc = dict(d0[mul[x][y]])
        for i, j, c in pairs0[x]:
            for i2, j2, c2 in pairs0[y]:
                k = mul[i][i2] * h + mul[j][j2]
                acc[k] = acc.get(k, 0) - c * c2
        return zero(acc)

    mul_left = tuple(zip(*mul))  # mul_left[x][y] = y * x
    gens = grp.generating_set
    if all(multiplicative(g, s) and multiplicative(s, g) for s in gens for g in range(h)) and all(
        zero(module_map(ra, mul, a, g)) and zero(module_map(la, mul_left, a, g))
        for g in (e, *gens)
        for a in range(na)
    ):
        checked += 2 * na * h
    else:
        for a in range(na):
            for g in range(h):
                record(module_map(ra, mul, a, g),
                       "right module coproduct fails at arrow {}, vertex {}", a, g)
                record(module_map(la, mul_left, a, g),
                       "left module coproduct fails at arrow {}, vertex {}", a, g)

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
    (FiniteGroup.generating_set or FiniteGroup.generators), not of every
    element.  On a level L that the
    action maps into itself, S gives the same span as the whole group,
    since gh.v - v = g.(h.v) - h.v + h.v - v with h.v in L, and the step of
    such a level is again one.  Every chain starts from the whole space, so
    all its levels are.  This needs the tables to form an action of the
    group, and two actions to commute when a caller passes both sides.

    Each sigma(v) - v is built in one dict, as sigma(v) with v taken off in
    place; it may keep zeros, and over F_p values in (-p, p), which `rref`
    reduces as each row comes in."""

    def step(level: Subspace) -> Subspace:
        vecs = []
        for table in tables:
            for row in level.basis:
                w = {table[i]: v for i, v in row.items()}
                get = w.get
                for i, v in row.items():
                    w[i] = get(i, 0) - v
                vecs.append(w)
        return Subspace.from_vectors(field, dim, vecs)

    return step


def _right_mul_table(group: FiniteGroup, g: int) -> list[int]:
    return [group.mul[i][g] for i in range(group.order)]


def group_ideal_levels(group: FiniteGroup, field: FieldSpec) -> list[Subspace]:
    """[H, I, I^2, ...] up to the first repeat; I^(n+1) = I.I^n is the span
    of (s-1).v over a generating set S of the group."""
    tables = [group.mul[g] for g in group.generating_set]
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
    tables = [t for g in grp.generating_set for t in (la[g], ra[g])]
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
    return drop_zeros(b.field, add_products({}, 1, v, b.phi))


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
    gens = grp.generating_set
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

    tables = [[a.action[x][g] for x in range(m)] for g in a.group.generating_set]
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
    acc: dict = {}
    get = acc.get
    for a, c in v.items():
        for g, x in b.phi[a].items():
            acc[a * h + g] = get(a * h + g, 0) + c * x
    return drop_zeros(b.field, acc)


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
