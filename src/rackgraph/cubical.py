"""Cubical chain complexes attached to an augmented rack.

An n-cube is a word of n arrows in the graph of the rack, normalized to the
form (g; x1..xn) with a single leading vertex g and all letters drawn from X
(the arrows at the identity).  Words multiply by the graph product, which on
normal forms reads

    (g; x1..xk) * (h; y1..ym) = (g h; x1^h .. xk^h, y1..ym).

Faces replace the i-th factor by its source or target vertex and renormalize:
the source face deletes letter i, the target face multiplies the leading
vertex by pi(xi) and conjugates the earlier letters by it.

One builder makes two complexes from the faces, with signs
sum_i (-1)^i (d_i^0 - d_i^1): the full one on basis G x X^n, and the reduced
one on X^n obtained by forgetting the leading vertex.  It reads the faces
off the rack tables directly; the tests compare its columns against the
graph product spelled out on normal forms in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import FieldSpec, eliminate_unit_pivots, rref, smith_normal_form
from .racks import AugmentedRack


@dataclass(frozen=True)
class ChainComplex:
    """Integer chain complex with indexed bases.

    boundaries[n] is the sparse matrix of d_n : C_n -> C_{n-1}, stored as one
    dict {row: coeff} per column; ranks[n] is the dimension of C_n.
    """

    max_degree: int
    ranks: tuple[int, ...]
    boundaries: tuple  # boundaries[n] for n in 1..max_degree (index n-1)
    labels: tuple  # labels[n] = tuple of basis labels for C_n

    def boundary_matrix(self, n: int) -> list[list[int]]:
        """Dense integer rows of the nonzero rows and columns of d_n.

        Zero rows and columns change neither the rank nor the Smith
        divisors, and the reduced complex keeps its cycles as zero columns,
        so they are never made dense."""
        if not 1 <= n <= self.max_degree:
            raise ValueError("degree out of range")
        cols = [col for col in self.boundaries[n - 1] if any(col.values())]
        rows = sorted({i for col in cols for i, v in col.items() if v})
        index = {i: k for k, i in enumerate(rows)}
        dense = [[0] * len(cols) for _ in index]
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    dense[index[i]][j] = v
        return dense


SIZE_CAP = 10**6


class ComplexTooLarge(ValueError):
    """The top chain group of a requested complex is over the size cap."""


def check_size(complex_kind: str, order: int, x_size: int, max_degree: int) -> None:
    """Refuse a bq or eq complex whose top chain group is over SIZE_CAP."""
    base = max(x_size, 1)
    size, formula = base**max_degree, f"{base}^{max_degree}"
    if complex_kind == "eq":
        size, formula = order * size, f"{order} x {formula}, full complex"
    if size > SIZE_CAP:
        raise ComplexTooLarge(f"memory bound exceeded: basis size {size} ({formula}) > cap {SIZE_CAP}")


def _enumerate_tuples(size: int, n: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [t + (x,) for t in out for x in range(size)]
    return out


def _cube_complex(a: AugmentedRack, max_degree: int, heads: list, moved: list) -> ChainComplex:
    """The complex on basis heads x X^n with d = sum_i (-1)^i (d_i^0 - d_i^1).

    heads are the leading parts of the labels, and moved[h][y] is the index
    of head h times pi(y).  The source face d_i^0 deletes letter i; the
    target face d_i^1 moves the head by pi(x_i) and sends each earlier
    letter x to x ^ pi(x_i), which is the derived operation x <| x_i.
    Label (h; x_0..x_{n-1}) has index h m^n + the base-m value of its
    letters, m = |X|, so each face index is found by arithmetic.
    """
    m = a.x_size
    op = a.derived_rack().op
    tuples = [_enumerate_tuples(m, n) for n in range(max_degree + 1)]
    labels = tuple(tuple(h + t for h in heads for t in ts) for ts in tuples)
    # conj[i][p][y]: the base-m value of the i letters of value p, each sent to x <| y
    conj = [[[0] * m]]
    for _ in range(1, max_degree):
        conj.append([[c * m + op[x][y] for y, c in enumerate(r)] for r in conj[-1] for x in range(m)])
    boundaries = []
    for n in range(1, max_degree + 1):
        top = m ** (n - 1)
        faces = [(conj[i], m ** (n - 1 - i), m ** (n - i)) for i in range(n)]
        cols = []
        for h, moved_h in enumerate(moved):
            base, ends = h * top, [k * top for k in moved_h]
            for t in range(m**n):
                col: dict[int, int] = {}
                sign = -1
                for conj_i, q, qm in faces:
                    prefix, rest = divmod(t, qm)
                    y, suffix = divmod(rest, q)
                    j = base + prefix * q + suffix
                    col[j] = col.get(j, 0) + sign
                    j = ends[y] + conj_i[prefix][y] * q + suffix
                    col[j] = col.get(j, 0) - sign
                    sign = -sign
                cols.append({k: v for k, v in col.items() if v})
        boundaries.append(tuple(cols))
    return ChainComplex(max_degree, tuple(map(len, labels)), tuple(boundaries), labels)


def bq_chain_complex(a: AugmentedRack, max_degree: int = 4) -> ChainComplex:
    """Reduced complex on basis X^n (C_0 has rank 1): the full complex with
    the leading vertex forgotten, so its one head is the empty one."""
    check_size("bq", a.group.order, a.x_size, max_degree)
    return _cube_complex(a, max_degree, [()], [[0] * a.x_size])


def eq_chain_complex(a: AugmentedRack, max_degree: int = 4) -> ChainComplex:
    """Full complex on basis G x X^n."""
    check_size("eq", a.group.order, a.x_size, max_degree)
    mul, heads = a.group.mul, range(a.group.order)
    moved = [[mul[g][p] for p in a.pi] for g in heads]
    return _cube_complex(a, max_degree, [(g,) for g in heads], moved)


def assert_boundary_squares_to_zero(c: ChainComplex) -> None:
    """Exact check d_{n-1} d_n = 0 using the sparse columns."""
    for n in range(2, c.max_degree + 1):
        upper = c.boundaries[n - 1]
        lower = c.boundaries[n - 2]
        for j, col in enumerate(upper):
            acc: dict[int, int] = {}
            for i, v in col.items():
                for k, w in lower[i].items():
                    acc[k] = acc.get(k, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d^2 != 0 at degree {n}, column {j}")


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion divisors per degree 0..max_degree-1."""

    betti: tuple[int, ...]
    torsion: tuple  # tuple of tuples of divisors > 1


def reduce_unit_pairs(c: ChainComplex) -> ChainComplex:
    """A smaller complex with the same homology, cut down by unit pairs.

    A +-1 entry of d_n at (b, a) pairs a cell a of C_n with a cell b of
    C_{n-1}.  Dropping both cells, taking the Schur complement on d_n,
    deleting row a of d_{n+1} and column b of d_{n-1} leaves a chain complex
    with the same homology (Kaczynski, Mischaikow and Mrozek, Computational
    Homology, 2004, ch. 4).  `eliminate_unit_pivots` takes the pairs of each
    d_n in turn, from d_1 up, on the rows still alive; a dropped face b
    takes its column of d_{n-1} with it.  Surviving cells keep their labels.
    """
    gone = [set() for _ in range(c.max_degree + 1)]
    left = []  # left[n - 1] = surviving columns of d_n, {cell: {face: coeff}}
    for n in range(1, c.max_degree + 1):
        below = gone[n - 1]
        pivots, cols = eliminate_unit_pivots(
            {i: v for i, v in col.items() if i not in below} for col in c.boundaries[n - 1]
        )
        for i, j in pivots:
            below.add(i)
            gone[n].add(j)
        left.append(cols)
    alive = [[i for i in range(r) if i not in gone[n]] for n, r in enumerate(c.ranks)]
    index = [{old: new for new, old in enumerate(cells)} for cells in alive]
    boundaries = tuple(
        tuple(
            {index[n - 1][i]: v for i, v in left[n - 1].get(j, {}).items()}
            for j in alive[n]
        )
        for n in range(1, c.max_degree + 1)
    )
    return ChainComplex(
        c.max_degree,
        tuple(len(cells) for cells in alive),
        boundaries,
        tuple(tuple(c.labels[n][i] for i in cells) for n, cells in enumerate(alive)),
    )


def homology(c: ChainComplex) -> HomologyResult:
    """Integer homology from Smith normal forms of the boundary matrices.

    The complex is first cut down by `reduce_unit_pairs`; only the small
    boundaries left over go through `smith_normal_form`.  Degree n needs
    d_{n+1}, so only degrees up to max_degree-1 are reported.
    """
    c = reduce_unit_pairs(c)
    ranks_d = [0] * (c.max_degree + 1)
    divisors = [[] for _ in range(c.max_degree + 1)]
    for n in range(1, c.max_degree + 1):
        r, d = smith_normal_form(c.boundary_matrix(n))
        ranks_d[n] = r
        divisors[n] = d
    betti = []
    torsion = []
    for n in range(c.max_degree):
        kernel = c.ranks[n] - ranks_d[n]
        betti.append(kernel - ranks_d[n + 1])
        torsion.append(tuple(d for d in divisors[n + 1] if d > 1))
    return HomologyResult(tuple(betti), tuple(torsion))


def homology_dimensions_over_field(c: ChainComplex, field: FieldSpec) -> tuple[int, ...]:
    """dim H_n(field) for n < max_degree by rank-nullity over the field.

    The rank of d_n is the number of rows `rref` leaves of its stored
    sparse columns, fed by decreasing least index: an earlier pivot row,
    whose lead is larger, then seldom has an entry at the incoming lead to
    clear (the echelon form, so the rank, does not depend on the order).
    Field elimination shares only the storage with the Smith normal form
    route, so the two can be played against each other:
    over the rationals the answer is the Betti vector, over F_p it picks
    up the p-torsion from the two adjacent boundary maps (universal
    coefficients).
    """
    ranks_d = [0] * (c.max_degree + 1)
    for n in range(1, c.max_degree + 1):
        cols = sorted(filter(None, c.boundaries[n - 1]), key=min, reverse=True)
        ranks_d[n] = len(rref(field, cols))
    return tuple(
        (c.ranks[n] - ranks_d[n]) - ranks_d[n + 1] for n in range(c.max_degree)
    )


def betti_numbers_rational(c: ChainComplex) -> tuple[int, ...]:
    """Independent Betti computation: rational ranks and rank-nullity."""
    return homology_dimensions_over_field(c, FieldSpec.rationals())
