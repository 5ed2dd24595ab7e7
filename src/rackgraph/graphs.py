"""Directed multigraphs with vertex multiplication and two-sided vertex actions
on arrows, and the correspondence between those graphs and augmented racks.

A multiplicative structure on a graph Q is a graph morphism Q x Q -> Q; on
vertices it is a semigroup multiplication, on arrows it is the pair of tables
left_act[g][a] = g.a and right_act[g][a] = a.g (both vertex-major).  Group-like
means the vertex semigroup is a group and the identity acts trivially on
arrows.  The rack attached to a group-like graph lives on the arrows with
source 1; the graph attached to an augmented rack has arrow set G x X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .racks import AugmentedRack, FiniteGroup, ValidationReport, validate_group


@dataclass(frozen=True)
class DirectedMultigraph:
    vertex_count: int
    arrows: tuple  # tuple of (source, target)

    @staticmethod
    def make(vertex_count: int, arrows) -> "DirectedMultigraph":
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError("arrow endpoint out of range")
        return DirectedMultigraph(vertex_count, arrows)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def source(self, a: int) -> int:
        return self.arrows[a][0]

    def target(self, a: int) -> int:
        return self.arrows[a][1]


@dataclass(frozen=True)
class MultiplicativeGraph:
    graph: DirectedMultigraph
    vertex_mul: tuple  # vertex_mul[g][h]
    left_act: tuple  # left_act[g][a]
    right_act: tuple  # right_act[g][a]

    @staticmethod
    def make(graph, vertex_mul, left_act, right_act) -> "MultiplicativeGraph":
        return MultiplicativeGraph(
            graph,
            tuple(tuple(r) for r in vertex_mul),
            tuple(tuple(r) for r in left_act),
            tuple(tuple(r) for r in right_act),
        )


@dataclass(frozen=True)
class GroupLikeGraph:
    graph: DirectedMultigraph
    vertex_group: FiniteGroup
    left_act: tuple
    right_act: tuple

    def as_multiplicative(self) -> MultiplicativeGraph:
        return MultiplicativeGraph.make(
            self.graph, self.vertex_group.mul, self.left_act, self.right_act
        )


def validate_multiplicative(m: MultiplicativeGraph) -> ValidationReport:
    violations: list[str] = []
    g = m.graph
    nv = g.vertex_count
    na = g.arrow_count
    checked = 0
    mul = m.vertex_mul
    for a in range(nv):
        for b in range(nv):
            for c in range(nv):
                checked += 1
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    violations.append(f"vertex associativity fails at ({a},{b},{c})")
    # morphism property: actions are compatible with source and target
    for v in range(nv):
        for a in range(na):
            checked += 4
            la, ra = m.left_act[v][a], m.right_act[v][a]
            if g.source(la) != mul[v][g.source(a)]:
                violations.append(f"s(v.a) != v.s(a) at ({v},{a})")
            if g.target(la) != mul[v][g.target(a)]:
                violations.append(f"t(v.a) != v.t(a) at ({v},{a})")
            if g.source(ra) != mul[g.source(a)][v]:
                violations.append(f"s(a.v) != s(a).v at ({v},{a})")
            if g.target(ra) != mul[g.target(a)][v]:
                violations.append(f"t(a.v) != t(a).v at ({v},{a})")
    # mixed associativity
    for u in range(nv):
        for v in range(nv):
            for a in range(na):
                checked += 3
                if m.left_act[mul[u][v]][a] != m.left_act[u][m.left_act[v][a]]:
                    violations.append(f"(uv).a != u.(v.a) at ({u},{v},{a})")
                if m.right_act[v][m.right_act[u][a]] != m.right_act[mul[u][v]][a]:
                    violations.append(f"(a.u).v != a.(uv) at ({u},{v},{a})")
                if m.right_act[v][m.left_act[u][a]] != m.left_act[u][m.right_act[v][a]]:
                    violations.append(f"(u.a).v != u.(a.v) at ({u},{v},{a})")
    return ValidationReport.collect(violations, checked)


def validate_group_like(q: GroupLikeGraph) -> ValidationReport:
    group_rep = validate_group(q.vertex_group)
    base = validate_multiplicative(q.as_multiplicative())
    violations = list(group_rep.violations) + list(base.violations)
    checked = group_rep.checked + base.checked
    e = q.vertex_group.identity
    for a in range(q.graph.arrow_count):
        checked += 2
        if q.left_act[e][a] != a:
            violations.append(f"1.a != a at arrow {a}")
        if q.right_act[e][a] != a:
            violations.append(f"a.1 != a at arrow {a}")
    return ValidationReport.collect(violations, checked)


# ---------------------------------------------------------------------------
# the correspondence


def _arrow_index(x_size: int, g: int, x: int) -> int:
    return g * x_size + x


def rack_to_graph(a: AugmentedRack) -> GroupLikeGraph:
    """Arrows G x X with s(g,x) = g, t(g,x) = g pi(x),
    h.(g,x) = (hg,x) and (g,x).h = (gh, x^h)."""
    grp = a.group
    n, m = grp.order, a.x_size
    arrows = []
    for g in range(n):
        for x in range(m):
            arrows.append((g, grp.mul[g][a.pi[x]]))
    graph = DirectedMultigraph.make(n, arrows)
    left = [
        [_arrow_index(m, grp.mul[h][g], x) for g in range(n) for x in range(m)]
        for h in range(n)
    ]
    right = [
        [_arrow_index(m, grp.mul[g][h], a.action[x][h]) for g in range(n) for x in range(m)]
        for h in range(n)
    ]
    return GroupLikeGraph(graph, grp, tuple(tuple(r) for r in left), tuple(tuple(r) for r in right))


def graph_to_rack(q: GroupLikeGraph) -> AugmentedRack:
    """X = arrows with source 1; x ^ g = g^-1.x.g; pi = target restricted to X."""
    grp = q.vertex_group
    e = grp.identity
    xs = [a for a in range(q.graph.arrow_count) if q.graph.source(a) == e]
    pos = {a: i for i, a in enumerate(xs)}
    action = []
    for a in xs:
        row = []
        for g in range(grp.order):
            moved = q.right_act[g][q.left_act[grp.inv[g]][a]]
            row.append(pos[moved])
        action.append(row)
    pi = [q.graph.target(a) for a in xs]
    return AugmentedRack.make(grp, action, pi)


def unit_component(q: GroupLikeGraph) -> tuple[tuple[int, ...], bool]:
    """Vertices of the connected component of the identity, and whether the
    whole graph is connected.  The component is checked to be the normal
    subgroup generated by the targets of the arrows out of the identity."""
    grp = q.vertex_group
    n = q.graph.vertex_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for (s, t) in q.graph.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = {grp.identity}
    stack = [grp.identity]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    component = tuple(sorted(seen))
    rack = graph_to_rack(q)
    generated = grp.subgroup_closure(set(rack.pi))
    if component != generated:
        raise ValueError("unit component is not the subgroup generated by im(pi)")
    if not grp.is_normal(component):
        raise ValueError("unit component is not normal")
    return component, len(component) == n
