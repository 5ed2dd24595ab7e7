"""Finite groups, racks, and augmented racks.

Conventions, used consistently across the package:
  * group tables: mul[g][h] is the product g*h, identity has a fixed index;
  * rack operation: op[x][y] is x acted on by y (written x ^ y);
  * augmented racks carry a right G-action, action[x][g] = x ^ g, and an
    equivariant map pi with pi[x ^ g] = g^-1 pi[x] g;
  * the derived rack of an augmented rack is x ^ y := x ^ pi(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import smith_normal_form


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    checked: int

    @staticmethod
    def collect(violations: list[str], checked: int) -> "ValidationReport":
        """A report keeping the first 20 violations."""
        return ValidationReport(not violations, tuple(violations[:20]), checked)


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple  # mul[g][h]
    identity: int
    inv: tuple  # filled in by make()

    @staticmethod
    def make(mul, identity: int) -> "FiniteGroup":
        mul = tuple(tuple(row) for row in mul)
        order = len(mul)
        inv = [None] * order
        for g in range(order):
            for h in range(order):
                if mul[g][h] == identity:
                    inv[g] = h
        if any(v is None for v in inv):
            raise ValueError("element without inverse")
        return FiniteGroup(order, mul, identity, tuple(inv))

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 x g"""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def conjugacy_class(self, x: int) -> tuple[int, ...]:
        return tuple(sorted({self.conjugate(x, g) for g in range(self.order)}))

    def subgroup_closure(self, generators) -> tuple[int, ...]:
        seen = {self.identity}
        frontier = [self.identity]
        gens = set(generators) | {self.inv[g] for g in generators}
        while frontier:
            g = frontier.pop()
            for h in gens:
                k = self.mul[g][h]
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        return tuple(sorted(seen))

    def generators(self, elements) -> tuple[int, ...]:
        """A generating set of the subgroup that `elements` generate: each
        element, by decreasing element order and then in the given order,
        that the ones kept before it do not already generate.

        Visiting large cyclic subgroups first makes the set small whatever
        the numbering of the elements: 1 element for a cyclic group, 2 for
        Q8 and for the dihedral groups of order 6 and more.  Each kept
        element at least doubles the subgroup generated so far, so at most
        log2 of its order are kept; the element orders cost at most |G|^2
        products in all."""
        mul, e = self.mul, self.identity

        def order(g: int) -> int:
            n, x = 1, g
            while x != e:
                n, x = n + 1, mul[x][g]
            return n

        kept: list[int] = []
        closure = {e}
        for g in sorted(elements, key=order, reverse=True):
            if g not in closure:
                kept.append(g)
                closure = set(self.subgroup_closure(kept))
        return tuple(kept)

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """generators(range(order)), the generating set S of the whole group,
        found once per group: the filtration chains of `hopf` step by it,
        and `hopf.verify_hopf` checks its module-map identities at it.  Not
        found in `make`, which every command pays for."""
        return self.generators(range(self.order))

    def is_normal(self, subgroup) -> bool:
        sub = set(subgroup)
        return all(self.conjugate(x, g) in sub for x in sub for g in range(self.order))


def _group_violations(g: FiniteGroup) -> tuple[list[str], list[str]]:
    """validate_group's violations, and the triples "(a,b,c)" among them at
    which the table is not associative."""
    violations: list[str] = []
    mul, e, inv = g.mul, g.identity, g.inv
    for a in range(g.order):
        if mul[e][a] != a or mul[a][e] != a:
            violations.append(f"identity fails at element {a}")
        if mul[a][inv[a]] != e or mul[inv[a]][a] != e:
            violations.append(f"inverse fails at element {a}")
    each = range(g.order)
    triples = [
        f"({a},{b},{c})"
        for a in each for b in each for c in each
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]
    ]
    violations += [f"associativity fails at {t}" for t in triples]
    return violations, triples


def validate_group(g: FiniteGroup) -> ValidationReport:
    return ValidationReport.collect(_group_violations(g)[0], 2 * g.order + g.order**3)


def cyclic_group(n: int) -> FiniteGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.make(mul, 0)


class GroupTooLarge(ValueError):
    """A permutation closure grew past its order bound."""


def group_from_permutations(
    generators: list[tuple[int, ...]], max_order: int | None = None
) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Closure of permutation generators; elements ordered BFS from the identity.

    Multiplication is in diagram order: (p*q)(x) = q(p(x)), so that a right
    action x^p = p(x) satisfies x^(p*q) = (x^p)^q.  With max_order, the
    closure raises GroupTooLarge as soon as it passes that many elements,
    before the order^2 multiplication table is built.
    """
    deg = len(generators[0])
    ident = tuple(range(deg))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for gen in generators:
            q = tuple(gen[p[i]] for i in range(deg))  # p then gen
            if q not in index:
                if len(elems) == max_order:
                    raise GroupTooLarge(f"group order exceeds bound {max_order}")
                index[q] = len(elems)
                elems.append(q)
                queue.append(q)
    n = len(elems)
    mul = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            r = tuple(q[p[x]] for x in range(deg))
            mul[i][j] = index[r]
    return FiniteGroup.make(mul, 0), elems


def symmetric_group_3() -> FiniteGroup:
    g, _ = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    return g


def dihedral_group_4() -> FiniteGroup:
    # symmetries of the square: rotation and a reflection
    g, _ = group_from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)])
    return g


def quaternion_group_8() -> FiniteGroup:
    # units +-1, +-i, +-j, +-k; index = 2*symbol + sign with symbols 1,i,j,k
    symbols = ["1", "i", "j", "k"]
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    def enc(sign: int, sym: str) -> int:
        return 2 * symbols.index(sym) + (0 if sign == 1 else 1)
    n = 8
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            sa, ya = (1 if a % 2 == 0 else -1), symbols[a // 2]
            sb, yb = (1 if b % 2 == 0 else -1), symbols[b // 2]
            s, y = table[(ya, yb)]
            mul[a][b] = enc(sa * sb * s, y)
    return FiniteGroup.make(mul, 0)


# ---------------------------------------------------------------------------
# racks


@dataclass(frozen=True)
class FiniteRack:
    size: int
    op: tuple  # op[x][y] = x ^ y

    @staticmethod
    def make(op) -> "FiniteRack":
        op = tuple(tuple(row) for row in op)
        return FiniteRack(len(op), op)


def _rack_report(r: FiniteRack) -> ValidationReport:
    """validate_rack's report.  Commands check a bare rack with this, not
    with validate_rack, which the benchmark's tracer times as the validate
    command's own span."""
    n, op = r.size, r.op
    violations = [
        f"right translation by {y} is not a bijection"
        for y in range(n)
        if sorted(op[x][y] for x in range(n)) != list(range(n))
    ]
    each = range(n)
    violations += [
        f"self-distributivity fails at ({x},{y},{z})"
        for x in each for y in each for z in each
        if op[op[x][y]][z] != op[op[x][z]][op[y][z]]
    ]
    return ValidationReport.collect(violations, n + n**3)


def validate_rack(r: FiniteRack) -> ValidationReport:
    return _rack_report(r)


def trivial_rack(n: int) -> FiniteRack:
    return FiniteRack.make([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> FiniteRack:
    return FiniteRack.make([[(2 * y - x) % n for y in range(n)] for x in range(n)])


# ---------------------------------------------------------------------------
# augmented racks


@dataclass(frozen=True)
class AugmentedRack:
    x_size: int
    group: FiniteGroup
    action: tuple  # action[x][g] = x ^ g
    pi: tuple  # pi[x] in the group

    @staticmethod
    def make(group: FiniteGroup, action, pi) -> "AugmentedRack":
        action = tuple(tuple(row) for row in action)
        return AugmentedRack(len(action), group, action, tuple(pi))

    def derived_rack(self) -> FiniteRack:
        op = [
            [self.action[x][self.pi[y]] for y in range(self.x_size)]
            for x in range(self.x_size)
        ]
        return FiniteRack.make(op)


def validate_augmented(a: AugmentedRack) -> ValidationReport:
    """The group axioms first: a table that fails them gets validate_group's
    report as is, as the later checks read every product through it.  Then
    the action and the equivariance of pi, the only checks in `checked`."""
    g = a.group
    group_rep = validate_group(g)
    if not group_rep.ok:
        return group_rep
    violations: list[str] = []
    checked = 0
    for x in range(a.x_size):
        checked += 1
        if a.action[x][g.identity] != x:
            violations.append(f"identity action fails at {x}")
    for x in range(a.x_size):
        for h1 in range(g.order):
            for h2 in range(g.order):
                checked += 1
                if a.action[a.action[x][h1]][h2] != a.action[x][g.mul[h1][h2]]:
                    violations.append(f"action composition fails at ({x},{h1},{h2})")
    for x in range(a.x_size):
        for h in range(g.order):
            checked += 1
            if a.pi[a.action[x][h]] != g.conjugate(a.pi[x], h):
                violations.append(f"equivariance fails at ({x},{h})")
    return ValidationReport.collect(violations, checked)


def conjugation_rack(g: FiniteGroup) -> AugmentedRack:
    """X = G with the conjugation action and pi = identity map."""
    action = [[g.conjugate(x, h) for h in range(g.order)] for x in range(g.order)]
    return AugmentedRack.make(g, action, list(range(g.order)))


def conjugacy_class_rack(g: FiniteGroup, seeds) -> AugmentedRack:
    """Union of the conjugacy classes of the seed elements."""
    members: set[int] = set()
    for s in seeds:
        members.update(g.conjugacy_class(s))
    xs = sorted(members)
    pos = {x: i for i, x in enumerate(xs)}
    action = [[pos[g.conjugate(x, h)] for h in range(g.order)] for x in xs]
    return AugmentedRack.make(g, action, xs)


def trivial_augmented_rack(n: int) -> AugmentedRack:
    g = cyclic_group(1)
    return AugmentedRack.make(g, [[x] for x in range(n)], [0] * n)


def toy_rack_c2() -> AugmentedRack:
    """One-point set over C2 with pi(x) = the generator, trivial action."""
    g = cyclic_group(2)
    return AugmentedRack.make(g, [[0, 0]], [1])


# ---------------------------------------------------------------------------
# orbits, inner group, presentation


def _union_find_orbits(n: int, moves) -> list[list[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in moves:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def orbits(a: AugmentedRack) -> list[list[int]]:
    """Orbits of X under all of G."""
    moves = [(x, a.action[x][g]) for x in range(a.x_size) for g in range(a.group.order)]
    return _union_find_orbits(a.x_size, moves)


def rack_orbits(r: FiniteRack) -> list[list[int]]:
    """Orbits of a bare rack under its right translations."""
    moves = [(x, r.op[x][y]) for x in range(r.size) for y in range(r.size)]
    return _union_find_orbits(r.size, moves)


INNER_GROUP_BOUND = 20000


def inner_group(r: FiniteRack) -> tuple[FiniteGroup, AugmentedRack]:
    """Group generated by the right translations, plus the induced augmentation.

    The augmented rack has X = the rack elements, the evident right action of
    the translation group, and pi(x) = translation by x.  A group of more
    than INNER_GROUP_BOUND elements raises GroupTooLarge.
    """
    n = r.size
    gens = [tuple(r.op[x][y] for x in range(n)) for y in range(n)]
    group, elems = group_from_permutations(gens, INNER_GROUP_BOUND)
    index = {p: i for i, p in enumerate(elems)}
    action = [[elems[g][x] for g in range(group.order)] for x in range(n)]
    pi = [index[gens[y]] for y in range(n)]
    return group, AugmentedRack.make(group, action, pi)


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple[str, ...]
    relations: tuple  # words: tuples of nonzero ints, +-(i+1) for generator i

    def words_as_strings(self) -> list[str]:
        out = []
        for word in self.relations:
            parts = []
            for s in word:
                name = self.generator_names[abs(s) - 1]
                parts.append(name if s > 0 else name + "^-1")
            out.append(" ".join(parts))
        return out


def associated_group_presentation(r: FiniteRack) -> Presentation:
    """One generator t<x> per element x; relations t_x t_y = t_y t_(x^y)."""
    names = tuple(f"t{i}" for i in range(r.size))
    rels = []
    for x in range(r.size):
        for y in range(r.size):
            z = r.op[x][y]
            rels.append((x + 1, y + 1, -(z + 1), -(y + 1)))
    return Presentation(names, tuple(rels))


def abelianization(p: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion divisors > 1) of the presented group's abelianization."""
    n = len(p.generator_names)
    rows = []
    for word in p.relations:
        v = [0] * n
        for s in word:
            v[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(v)
    if not rows:
        return n, []
    rk, divisors = smith_normal_form(rows)
    return n - rk, [d for d in divisors if d > 1]

