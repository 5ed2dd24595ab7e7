"""Exact linear algebra: rationals, prime fields, and integer Smith normal form.

Scalars are ints and `fractions.Fraction`s over Q, ints in [0, p) over F_p.
Subspaces are kept in reduced row echelon form, which makes equality and
membership canonical; over Q `rref` reaches it on integer pivot rows.

Every vector is a sparse dict {index: value} with no zero values, over
F_p its values in [0, p) and over Q ints unless a division made them
Fractions: subspace basis rows, the columns of the Hopf structure maps,
tensors, and coefficients in a filtration's adapted basis.  Three kernels
make them, and no other module repeats their loops: `sparse_sum` adds up
(index, value) terms, `add_products` adds products of rows into one dict
in place (`Subspace.reduce`, the coefficients of a `FilteredSpace`, and
the identity checks and images of `liealg`, `hopf` and `cubical`), and
`drop_zeros` ends both, reducing mod p once and dropping zeros.  Rows on
their way into `rref` may keep zeros, and over F_p any ints: it reduces
each one as it comes in.

A filtration and its quotients have one type, `FilteredSpace`: its adapted
rows of degree d represent V_d / V_(d+1), and the coefficients of a vector
of V_d at them are its coset coordinates.

Every row reduction over a field goes through one sparse kernel, `rref`,
and `Subspace` keeps its output rows as they are.  Boundary matrices are
sparse, with entries mostly +-1, and are never made dense whole.  They
are held as one dict {row: coeff} per column and go through two
independent eliminations: `eliminate_unit_pivots` strips the unit
pivots, so that only a small core, made dense by `dense_rows`, is left for
the Smith normal form, and `rref` over a field gives the ranks for the
cross-check.  The relation rows of a presentation take the same integer
route.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

# input budget of the trial-division primality test in FieldSpec.prime:
# at most sqrt(2^31), about 46000, divisions
MAX_PRIME_BOUND = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (kind='q') or a prime field (kind='fp', char p)."""

    kind: str
    p: int | None = None

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if p >= MAX_PRIME_BOUND:
            raise ValueError(
                f"field characteristic must be below 2^31 = {MAX_PRIME_BOUND}, got {p}"
            )
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        return FieldSpec("fp", p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        # accepted spellings: "q", "f2", "f3", "f<p>"
        if text == "q":
            return FieldSpec.rationals()
        if text.startswith("f") and text[1:].isdigit():
            return FieldSpec.prime(int(text[1:]))
        raise ValueError(f"unknown field spec {text!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "fp"

    def label(self) -> str:
        return "q" if self.kind == "q" else f"f{self.p}"


# ---------------------------------------------------------------------------
# sparse vectors


def sparse_sum(field: FieldSpec, terms) -> dict:
    """The sparse vector sum of (index, value) terms: each index's values
    are added up, reduced mod p once, and zeros are dropped."""
    acc: dict = {}
    get = acc.get
    for k, x in terms:
        acc[k] = get(k, 0) + x
    return drop_zeros(field, acc)


def drop_zeros(field: FieldSpec, acc: dict) -> dict:
    """The sparse vector of a dict of sums: over F_p each value reduced mod
    p, and every zero dropped.  Sums added into one dict in place end here."""
    if p := field.p:
        return {k: y for k, x in acc.items() if (y := x % p)}
    return {k: x for k, x in acc.items() if x}


def add_products(acc: dict, sign: int, v: dict, rows) -> dict:
    """Add sign * sum_m v[m] * rows[m] into acc in place and return acc, for
    sparse acc and v and sparse rows indexed by v's indices; acc may keep
    zeros."""
    get = acc.get
    for m, a in v.items():
        a *= sign
        for z, x in rows[m].items():
            acc[z] = get(z, 0) + a * x
    return acc


# ---------------------------------------------------------------------------
# row echelon kernels


def rref(field: FieldSpec, rows) -> list[dict]:
    """Reduced row echelon basis of the span of sparse rows {index: value}.

    Returns the nonzero rows of the reduced echelon form, sorted by leading
    index, each with lead 1 and zero at every other row's lead.  Pivot rows
    stay zero at each other's leads: an incoming row is cleared in one pass,
    then cleared out of the pivot rows that hold an entry at its lead.  A
    column index finds those rows: for each column, the leads of the pivot
    rows that gained an entry there.  An index entry goes stale when its
    row's entry is cleared, and is skipped when the entry reads 0.  No row
    gains an entry at a column that has become a lead, so its list is
    popped for good.  Rows may keep zero values.  Over F_p each incoming
    row is reduced mod p in one pass, zeros dropped.
    Over Q every step is on integers (after Bareiss 1968): rows come in
    scaled by the lcm of their denominators, and u is cleared at the lead a
    of w by u <- (a / g) u - (c / g) w, c = u's entry there, g = gcd(a, c).
    A pivot row is kept primitive (content 1) with a positive lead, and is
    divided by its lead only on the way out, to ints where that is exact.
    """
    if not field.is_prime_field:
        return _rref_rational(rows)
    p = field.p
    pivots: dict[int, dict] = {}
    holders = defaultdict(list)  # column -> leads of pivot rows with an entry there
    for row in rows:
        v = {k: y for k, x in row.items() if (y := int(x) % p)}
        for k, c in [(k, c) for k, c in v.items() if k in pivots]:
            for j, x in pivots[k].items():
                v[j] = v.get(j, 0) - c * x
        v = drop_zeros(field, v)
        if not v:
            continue
        lead = min(v)
        a = v[lead]
        if a != 1:
            inv = pow(a, p - 2, p)
            v = drop_zeros(field, {k: x * inv for k, x in v.items()})
        # keep the other pivot rows zero at the new lead
        for k in holders.pop(lead, ()):
            prow = pivots[k]
            c = prow.get(lead)
            if c:
                for j, x in v.items():
                    if j in prow:
                        if w := (prow[j] - c * x) % p:
                            prow[j] = w
                        else:
                            del prow[j]
                    else:
                        prow[j] = -c * x % p
                        holders[j].append(k)
        for j in v:
            if j != lead:
                holders[j].append(lead)
        pivots[lead] = v
    return [pivots[k] for k in sorted(pivots)]


def _rref_rational(rows) -> list[dict]:
    """`rref` over Q: integer pivot rows, one division on the way out."""
    pivots: dict[int, dict] = {}
    holders = defaultdict(list)  # column -> leads of pivot rows with an entry there
    for row in rows:
        if (m := math.lcm(*[x.denominator for x in row.values()])) == 1:
            v = {k: x.numerator for k, x in row.items() if x}
        else:
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
        for k in holders.pop(lead, ()):
            prow = pivots[k]
            if not (c := prow.get(lead)):
                continue
            if a != 1:
                c //= (g := math.gcd(a, c))
                if (s := a // g) != 1:
                    for j in prow:
                        prow[j] *= s
            for j, x in v.items():
                if j in prow:
                    if w := prow[j] - c * x:
                        prow[j] = w
                    else:
                        del prow[j]
                else:
                    prow[j] = -c * x
                    holders[j].append(k)
            # the content divides the lead, so beside a lead 1 it stays 1
            if prow[k] != 1 and (g := math.gcd(*prow.values())) != 1:
                for j in prow:
                    prow[j] //= g
        for j in v:
            if j != lead:
                holders[j].append(lead)
        pivots[lead] = v
    return [
        v if (a := v[k]) == 1 else {j: x // a if x % a == 0 else Fraction(x, a) for j, x in v.items()}
        for k, v in sorted(pivots.items())
    ]


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim with a canonical basis: the rows of
    `rref`, sorted by lead, each with lead 1 and zero at the other leads."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple  # sparse rows {index: value}

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors) -> "Subspace":
        rows = [v for v in vectors if v]
        if rows and (min(map(min, rows)) < 0 or max(map(max, rows)) >= ambient_dim):
            raise ValueError("vector index outside the ambient dimension")
        return Subspace(field, ambient_dim, tuple(rref(field, rows)))

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, tuple({i: 1} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivot_rows(self) -> dict:
        """Lead index -> basis row, in the order of the basis."""
        return {min(row): row for row in self.basis}

    def reduce(self, vector: dict) -> dict:
        """v - sum v[k] row_k over the pivots k in v's support.  The basis is
        fully reduced, so this clears every pivot of v in one pass; the
        result depends only on the coset."""
        rows = self.pivot_rows
        at_pivots = {k: c for k, c in vector.items() if k in rows}
        return drop_zeros(self.field, add_products(dict(vector), -1, at_pivots, rows))

    def contains(self, vector: dict) -> bool:
        # the whole space: reducing would clear every entry one by one
        if self.dim == self.ambient_dim:
            return True
        return not self.reduce(vector)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [[A A],[B 0]]; the rows with zero left block
        are, shifted left, the reduced basis of the intersection."""
        self._check_compatible(other)
        n = self.ambient_dim
        stacked = [{**r, **{k + n: x for k, x in r.items()}} for r in self.basis]
        stacked += list(other.basis)
        reduced = rref(self.field, stacked)
        inter = [{k - n: x for k, x in row.items()} for row in reduced if min(row) >= n]
        return Subspace(self.field, n, tuple(inter))

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace mismatch")


def nullspace(field: FieldSpec, ncols: int, rows) -> Subspace:
    """Kernel {v : m v = 0} of the matrix m given by its sparse rows, as a
    canonical subspace of field^ncols.

    The rows are reduced with the column order reversed, so each reduced
    row leads at its largest index.  A free column j then gives the kernel
    vector e_j - sum row[j] e_lead over the rows, whose other entries sit at
    leads above j and so at no other free column: already the canonical
    basis, in order of j."""
    last = ncols - 1

    def flip(row):
        return {last - k: x for k, x in row.items()}

    # lead -> reduced row, leads ascending
    reduced = {max(row): row for row in map(flip, reversed(rref(field, [flip(r) for r in rows])))}
    p = field.p
    basis = [
        {j: 1, **{lead: -row[j] % p if p else -row[j] for lead, row in reduced.items() if j in row}}
        for j in range(ncols)
        if j not in reduced
    ]
    return Subspace(field, ncols, tuple(basis))


# ---------------------------------------------------------------------------
# integer Smith normal form


def dense_rows(columns) -> list[list[int]]:
    """Dense integer rows of the nonzero rows and columns of the matrix
    given by sparse columns {row: coeff}, in increasing row order.

    Zero rows and columns change neither the rank nor the Smith divisors,
    so they are never made dense."""
    cols = [col for col in columns if any(col.values())]
    index = {i: k for k, i in enumerate(sorted({i for col in cols for i, v in col.items() if v}))}
    dense = [[0] * len(cols) for _ in index]
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                dense[index[i]][j] = v
    return dense


def smith_normal_form(rows) -> tuple[int, list[int]]:
    """Return (rank, divisors) with d1 | d2 | ... | dr, all positive, of the
    integer matrix with the given rows.

    Pivot selection always takes a smallest-magnitude nonzero entry, which
    keeps coefficient growth tame on the sparse boundary matrices this
    package produces.
    """
    a = [[int(v) for v in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    divisors: list[int] = []
    t = 0
    while t < min(m, n):
        # smallest |entry| in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[bi], a[t] = a[t], a[bi]
        if bj != t:
            for row in a:
                row[bj], row[t] = row[t], row[bj]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[i], a[t] = a[t], a[i]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[j], row[t] = row[t], row[j]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the remaining block for the divisor chain
            piv = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        divisors.append(abs(a[t][t]))
        t += 1
    for d1, d2 in zip(divisors, divisors[1:]):
        assert d2 % d1 == 0, "divisor chain broken"
    return len(divisors), divisors


# ---------------------------------------------------------------------------
# sparse elimination on columns {row: coeff}


def eliminate_unit_pivots(columns) -> tuple[list[tuple[int, int]], dict[int, dict[int, int]]]:
    """Strip the +-1 pivots of an integer matrix given by sparse columns.

    Taking a unit pivot at (i, j) clears row i by integer column operations
    with column j; column j is then cleared by row operations with row i that
    change nothing else, so the pivot splits off as a divisor 1 of the Smith
    normal form.  Columns are scanned in order and each takes its first +-1
    entry as pivot; fill-in can make new units, so the scan repeats until a
    pass takes none.  Returns the pivots taken as (row, column) pairs and
    the nonzero columns left, {column: {row: coeff}}, none of which meets a
    pivot row; the divisors of the input are one 1 per pivot followed by
    those of what is left.  The input columns are not modified.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    pivots = []
    taken = True
    while taken:
        taken = False
        for j in list(cols):
            col = cols.get(j)
            i = next((i for i, v in col.items() if v in (1, -1)), None) if col else None
            if i is None:
                continue
            pivot = cols.pop(j)
            sign = pivot.pop(i)
            others = rows.pop(i)
            others.discard(j)
            for r in pivot:
                rows[r].discard(j)
            for j2 in others:
                col = cols[j2]
                c = col.pop(i) * sign
                for r, v in pivot.items():
                    old = col.get(r, 0)
                    w = old - c * v
                    if w:
                        if not old:
                            rows[r].add(j2)
                        col[r] = w
                    elif old:
                        del col[r]
                        rows[r].discard(j2)
                if not col:
                    del cols[j2]
            pivots.append((i, j))
            taken = True
    return pivots, cols


# ---------------------------------------------------------------------------
# filtrations


class FilteredSpace:
    """A decreasing filtration of field^n held through an adapted basis.

    Built from a level chain [V_0 = field^n, V_1, ..., V_k] whose last entry
    is stable (V_m = V_k for m > k).  `rows` lists, for each d < k, the
    basis rows of V_d whose leads are not leads of V_(d+1), with degree d,
    then the basis of V_k with degree inf, so level m is spanned by the rows
    of degree >= m.  Rows of degree d represent a basis of V_d / V_(d+1),
    and the coefficients of a vector of V_d at them are its coset
    coordinates.  The inverse of the row matrix comes from one `rref` of the
    rows with the identity appended; coefficients and filtration degrees
    are then products with it.  For tensors of two filtered spaces, level m
    of the sum of V_p (x) W_q over p + q = m is spanned by the products of
    rows whose degrees sum to at least m.
    """

    def __init__(self, levels):
        full = levels[0]
        if full.dim != full.ambient_dim:
            raise ValueError("level 0 must be the whole space")
        field, n = full.field, full.ambient_dim
        rows, degrees = [], []
        for d, (upper, lower) in enumerate(zip(levels, levels[1:])):
            if not upper.contains_space(lower):
                raise ValueError(f"level {d + 1} is not inside level {d}")
            # both bases are in RREF, so the leads of lower are leads of upper
            reps = [row for k, row in upper.pivot_rows.items() if k not in lower.pivot_rows]
            rows += reps
            degrees += [d] * len(reps)
        rows += levels[-1].basis
        degrees += [math.inf] * levels[-1].dim
        augmented = rref(field, [{**row, n + i: 1} for i, row in enumerate(rows)])
        self.field = field
        self.dim = n
        self.rows = tuple(rows)
        self.degrees = tuple(degrees)
        # inverse[k]: the coefficients of the unit vector e_k
        self.inverse = tuple({j - n: x for j, x in row.items() if j >= n} for row in augmented)

    def graded_dim(self, d: int) -> int:
        return self.degrees.count(d)

    def coefficients(self, vector: dict) -> dict:
        """c with sum c_i rows[i] = vector, as a sparse vector."""
        return drop_zeros(self.field, add_products({}, 1, vector, self.inverse))

    def degree(self, vector: dict):
        """Deepest level containing `vector`; inf inside the stable last level."""
        return min((self.degrees[i] for i in self.coefficients(vector)), default=math.inf)

    def tensor_coefficients(self, other: "FilteredSpace", tensor: dict) -> dict:
        """C with tensor = sum C_ij rows_i (x) other.rows_j, both indexed
        i * other.dim + j; C = E^-T W F^-1, applied one side at a time."""
        m = other.dim
        half: dict = {}
        get = half.get
        for k, c in tensor.items():
            base = k - k % m
            for s, x in other.inverse[k % m].items():
                half[base + s] = get(base + s, 0) + c * x
        acc: dict = {}
        get = acc.get
        for k, c in drop_zeros(self.field, half).items():
            col = k % m
            for r, x in self.inverse[k // m].items():
                acc[r * m + col] = get(r * m + col, 0) + c * x
        return drop_zeros(self.field, acc)

    def tensor_degree(self, other: "FilteredSpace", tensor: dict):
        """Smallest deg e_i + deg f_j over the nonzero C_ij (inf for zero)."""
        m = other.dim
        return min(
            (self.degrees[k // m] + other.degrees[k % m]
             for k in self.tensor_coefficients(other, tensor)),
            default=math.inf,
        )

