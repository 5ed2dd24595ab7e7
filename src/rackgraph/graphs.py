"""Group-like graphs, and the correspondence between them and augmented racks.

A group-like graph is a directed multigraph whose vertices form a finite
group G, with arrows a tuple of (source, target) pairs, together with the
two-sided action of the vertices on the arrows, left_act[g][a] = g.a and
right_act[g][a] = a.g (both vertex-major).  The group law and the actions
make up a multiplicative structure, a graph morphism Q x Q -> Q: the actions
move sources and targets by the group law and associate with it and with
each other, and the identity acts trivially.  The rack attached to a
group-like graph lives on the arrows with source 1; the graph attached to an
augmented rack has arrow set G x X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .racks import AugmentedRack, FiniteGroup, ValidationReport, _group_violations


@dataclass(frozen=True)
class GroupLikeGraph:
    vertex_group: FiniteGroup
    arrows: tuple  # tuple of (source, target)
    left_act: tuple  # left_act[g][a] = g.a
    right_act: tuple  # right_act[g][a] = a.g


def validate_group_like(q: GroupLikeGraph) -> ValidationReport:
    """The group axioms of the vertices, then those of a multiplicative
    graph (vertex associativity, the actions as a graph morphism, mixed
    associativity), then the identity acting trivially.  Both associativity
    checks read one pass over the triples of vertices."""
    grp = q.vertex_group
    mul, la, ra, arrows = grp.mul, q.left_act, q.right_act, q.arrows
    n, na = grp.order, len(arrows)
    violations, triples = _group_violations(grp)
    violations += [f"vertex associativity fails at {t}" for t in triples]
    # morphism property: actions are compatible with source and target
    for v in range(n):
        for a, (s, t) in enumerate(arrows):
            (ls, lt), (rs, rt) = arrows[la[v][a]], arrows[ra[v][a]]
            if ls != mul[v][s]:
                violations.append(f"s(v.a) != v.s(a) at ({v},{a})")
            if lt != mul[v][t]:
                violations.append(f"t(v.a) != v.t(a) at ({v},{a})")
            if rs != mul[s][v]:
                violations.append(f"s(a.v) != s(a).v at ({v},{a})")
            if rt != mul[t][v]:
                violations.append(f"t(a.v) != t(a).v at ({v},{a})")
    # mixed associativity
    for u in range(n):
        for v in range(n):
            uv = mul[u][v]
            lu, lv, luv, ru, rv, ruv = la[u], la[v], la[uv], ra[u], ra[v], ra[uv]
            for a in range(na):
                if luv[a] != lu[lv[a]]:
                    violations.append(f"(uv).a != u.(v.a) at ({u},{v},{a})")
                if rv[ru[a]] != ruv[a]:
                    violations.append(f"(a.u).v != a.(uv) at ({u},{v},{a})")
                if rv[lu[a]] != lu[rv[a]]:
                    violations.append(f"(u.a).v != u.(a.v) at ({u},{v},{a})")
    e = grp.identity
    for a in range(na):
        if la[e][a] != a:
            violations.append(f"1.a != a at arrow {a}")
        if ra[e][a] != a:
            violations.append(f"a.1 != a at arrow {a}")
    checked = 2 * n + 2 * n**3 + 4 * n * na + 3 * n * n * na + 2 * na
    return ValidationReport.collect(violations, checked)


# ---------------------------------------------------------------------------
# the correspondence


def rack_to_graph(a: AugmentedRack) -> GroupLikeGraph:
    """Arrows G x X, arrow (g,x) at index g |X| + x, with s(g,x) = g,
    t(g,x) = g pi(x), h.(g,x) = (hg,x) and (g,x).h = (gh, x^h)."""
    grp = a.group
    n, m = grp.order, a.x_size
    arrows = tuple((g, grp.mul[g][a.pi[x]]) for g in range(n) for x in range(m))
    left = tuple(
        tuple(grp.mul[h][g] * m + x for g in range(n) for x in range(m)) for h in range(n)
    )
    right = tuple(
        tuple(grp.mul[g][h] * m + a.action[x][h] for g in range(n) for x in range(m))
        for h in range(n)
    )
    return GroupLikeGraph(grp, arrows, left, right)


def graph_to_rack(q: GroupLikeGraph) -> AugmentedRack:
    """X = arrows with source 1; x ^ g = g^-1.x.g; pi = target restricted to X."""
    grp = q.vertex_group
    xs = [a for a, (s, _) in enumerate(q.arrows) if s == grp.identity]
    pos = {a: i for i, a in enumerate(xs)}
    action = [
        [pos[q.right_act[g][q.left_act[grp.inv[g]][a]]] for g in range(grp.order)] for a in xs
    ]
    pi = [q.arrows[a][1] for a in xs]
    return AugmentedRack.make(grp, action, pi)


def unit_component(q: GroupLikeGraph) -> tuple[tuple[int, ...], bool]:
    """Vertices of the connected component of the identity, and whether the
    whole graph is connected.  The component is checked to be the normal
    subgroup generated by the targets of the arrows out of the identity."""
    grp = q.vertex_group
    adj: list[set[int]] = [set() for _ in range(grp.order)]
    for s, t in q.arrows:
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
    generated = grp.subgroup_closure({t for s, t in q.arrows if s == grp.identity})
    if component != generated:
        raise ValueError("unit component is not the subgroup generated by im(pi)")
    if not grp.is_normal(component):
        raise ValueError("unit component is not normal")
    return component, len(component) == grp.order
