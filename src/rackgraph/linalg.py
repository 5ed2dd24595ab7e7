"""Exact linear algebra: rationals, prime fields, and integer Smith normal form.

Scalars are ints and `fractions.Fraction`s over the rationals and plain
ints in [0, p) over a prime field.  Subspaces are kept in reduced row echelon
form, which makes equality and membership canonical.

Vectors come in two formats, by one rule.  A vector of an ambient space
field^n is a sparse dict {index: value}: subspace basis rows, the columns
of the Hopf structure maps, tensors, and coefficients in a filtration's
adapted basis.  `sparse_sum` builds such vectors from (index, value)
terms, reducing mod p once and dropping zeros.  A coordinate vector in a
quotient basis is a dense list: the output of `SubquotientBasis.coords`,
the Lie bracket and differential tables built from it, and the entries
of `induced_matrix`.  Linear combinations of those go through `combine`
(sum of c_j * rows[j]) and `bilinear` (a bilinear map from its structure
constants), which accumulate in place, skip zeros, and reduce mod p once
at the end.

Every row reduction over a field goes through one sparse kernel, `rref`,
and `Subspace` keeps its output rows as they are.  Boundary matrices are
sparse, with entries mostly +-1, and are never made dense whole.  They
are held as one dict {row: coeff} per column and go through two
independent eliminations: `eliminate_unit_pivots` strips the unit
pivots, so that only a small core is left for the Smith normal form, and
`rref` over a field gives the ranks for the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain

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

    def zero(self):
        return 0 if self.is_prime_field else Fraction(0)

    def coerce(self, x):
        if self.is_prime_field:
            return int(x) % self.p
        return x if type(x) is Fraction else Fraction(x)

    def label(self) -> str:
        return "q" if self.kind == "q" else f"f{self.p}"


# ---------------------------------------------------------------------------
# linear combinations


def _axpy(acc: list, c, row) -> None:
    """acc += c * row in place, skipping zero entries of row."""
    for k, x in enumerate(row):
        if x:
            acc[k] += c * x


def _settle(field: FieldSpec, acc: list) -> list:
    """Entries of an accumulator in [0, p) over F_p; over Q they are exact."""
    if field.is_prime_field:
        return [x % field.p for x in acc]
    return acc


def combine(field: FieldSpec, coeffs, rows, n: int) -> list:
    """sum_j coeffs[j] * rows[j] in field^n, skipping zero coefficients."""
    acc = [field.zero()] * n
    for c, row in zip(coeffs, rows):
        if c:
            _axpy(acc, c, row)
    return _settle(field, acc)


def bilinear(field: FieldSpec, table, u, v, n: int) -> list:
    """sum_ij u_i v_j * table[i][j] in field^n: a bilinear map from its
    structure constants, skipping zero coefficients."""
    acc = [field.zero()] * n
    for a, cells in zip(u, table):
        if a:
            for b, cell in zip(v, cells):
                if b:
                    _axpy(acc, a * b, cell)
    return _settle(field, acc)


def sparse_sum(field: FieldSpec, terms) -> dict:
    """The sparse vector sum of (index, value) terms: each index's values
    are added up, reduced mod p once, and zeros are dropped."""
    acc: dict = {}
    get = acc.get
    for k, x in terms:
        acc[k] = get(k, 0) + x
    p = field.p
    if p:
        return {k: y for k, x in acc.items() if (y := x % p)}
    return {k: x for k, x in acc.items() if x}


# ---------------------------------------------------------------------------
# row echelon kernels


def rref(field: FieldSpec, rows) -> list[dict]:
    """Reduced row echelon basis of the span of sparse rows {index: value}.

    Returns the nonzero rows of the reduced echelon form, sorted by leading
    index, each with lead 1 and zero at every other row's lead.  The pivot
    rows are kept fully reduced, so the entries of an incoming row at pivot
    indices are exactly the multiples of pivot rows to subtract, and one
    pass clears it.  Over F_p values are reduced mod p; over Q ints stay
    ints until a lead other than +-1 needs a division.
    """
    p = field.p if field.is_prime_field else None
    pivots: dict[int, dict] = {}

    def clean(v):
        if p:
            return {k: y for k, x in v.items() if (y := x % p)}
        return {k: x for k, x in v.items() if x}

    for row in rows:
        v = clean({k: int(x) for k, x in row.items()} if p else row)
        for k, c in [(k, c) for k, c in v.items() if k in pivots]:
            for j, x in pivots[k].items():
                v[j] = v.get(j, 0) - c * x
        v = clean(v)
        if not v:
            continue
        lead = min(v)
        a = v[lead]
        if a != 1:
            if p:
                inv = pow(a, p - 2, p)
            else:
                inv = a if a == -1 else Fraction(1) / a
            v = clean({k: x * inv for k, x in v.items()})
        # keep the other pivot rows zero at the new lead
        for prow in pivots.values():
            c = prow.get(lead)
            if c:
                for j, x in v.items():
                    w = prow.get(j, 0) - c * x
                    if p:
                        w %= p
                    if w:
                        prow[j] = w
                    else:
                        del prow[j]
        pivots[lead] = v
    return [pivots[k] for k in sorted(pivots)]


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
        rows = list(vectors)
        for v in rows:
            if v and (min(v) < 0 or max(v) >= ambient_dim):
                raise ValueError("vector index outside the ambient dimension")
        return Subspace(field, ambient_dim, tuple(rref(field, rows)))

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

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
        return sparse_sum(self.field, chain(vector.items(), (
            (j, -c * x) for k, c in vector.items() if k in rows for j, x in rows[k].items()
        )))

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


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix; field=None means integer entries (for SNF work)."""

    field: FieldSpec | None
    nrows: int
    ncols: int
    entries: tuple  # entries[r][c]

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        """Integer matrix with the given rows."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        return ExactMatrix(None, len(rows), ncols, tuple(tuple(int(v) for v in r) for r in rows))


def nullspace(field: FieldSpec, ncols: int, rows) -> Subspace:
    """Kernel {v : m v = 0} of the matrix m given by its sparse rows, as a
    canonical subspace of field^ncols."""
    reduced = rref(field, rows)
    leads = {min(row) for row in reduced}
    basis = [
        {j: 1, **{min(row): -row[j] for row in reduced if j in row}}
        for j in range(ncols)
        if j not in leads
    ]
    space = Subspace.from_vectors(field, ncols, basis)
    # rank + nullity must always tie out
    assert len(reduced) + space.dim == ncols
    return space


# ---------------------------------------------------------------------------
# integer Smith normal form


def smith_normal_form(matrix) -> tuple[int, list[int]]:
    """Return (rank, divisors) with d1 | d2 | ... | dr, all positive.

    Accepts an ExactMatrix with field=None or a plain list of rows.
    Pivot selection always takes a smallest-magnitude nonzero entry, which
    keeps coefficient growth tame on the sparse boundary matrices this
    package produces.
    """
    if isinstance(matrix, ExactMatrix):
        if matrix.field is not None:
            raise ValueError("smith_normal_form expects integer entries")
        a = [list(r) for r in matrix.entries]
    else:
        a = [[int(v) for v in r] for r in matrix]
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
# quotients


class SubquotientBasis:
    """Basis data for V/W with W <= V <= field^ambient, both in RREF."""

    def __init__(self, v: Subspace, w: Subspace):
        if v.field != w.field or v.ambient_dim != w.ambient_dim:
            raise ValueError("subquotient mismatch")
        if not v.contains_space(w):
            raise ValueError("W not contained in V")
        self.field = v.field
        self.ambient_dim = v.ambient_dim
        self.v = v
        self.w = w
        reps = [(k, row) for k, row in v.pivot_rows.items() if k not in w.pivot_rows]
        self.rep_pivots = [k for k, _ in reps]
        self.rep_rows = [row for _, row in reps]

    @property
    def dim(self) -> int:
        return len(self.rep_rows)

    def coords(self, vector) -> list:
        """Coset coordinates of a vector of V; raises if vector not in V.

        Reducing by W clears W's pivot columns without leaving the coset;
        what is left is a combination of the representative rows alone, so
        its entries at their pivots are the coordinates."""
        u = self.w.reduce(vector)
        if not self.v.contains(u):
            raise ValueError("vector not in the subspace V")
        return [u.get(p, 0) for p in self.rep_pivots]


class FilteredSpace:
    """A decreasing filtration of field^n held through an adapted basis.

    Built from a level chain [V_0 = field^n, V_1, ..., V_k] whose last entry
    is stable (V_m = V_k for m > k).  `rows` lists, for each d < k, the
    SubquotientBasis(V_d, V_(d+1)) representatives with degree d, then the
    basis of V_k with degree inf, so level m is spanned by the rows of degree
    >= m.  The inverse of the row matrix comes from one `rref` of the rows
    with the identity appended; coefficients and filtration degrees are then
    products with it.  For tensors of two filtered spaces, level m of the
    sum of V_p (x) W_q over p + q = m is spanned by the products of rows
    whose degrees sum to at least m.
    """

    def __init__(self, levels):
        full = levels[0]
        if full.dim != full.ambient_dim:
            raise ValueError("level 0 must be the whole space")
        field, n = full.field, full.ambient_dim
        rows, degrees = [], []
        for d in range(len(levels) - 1):
            reps = SubquotientBasis(levels[d], levels[d + 1]).rep_rows
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
        inv = self.inverse
        return sparse_sum(self.field, (
            (i, c * x) for k, c in vector.items() for i, x in inv[k].items()
        ))

    def degree(self, vector: dict):
        """Deepest level containing `vector`; inf inside the stable last level."""
        return min((self.degrees[i] for i in self.coefficients(vector)), default=math.inf)

    def tensor_coefficients(self, other: "FilteredSpace", tensor: dict) -> dict:
        """C with tensor = sum C_ij rows_i (x) other.rows_j, both indexed
        i * other.dim + j; C = E^-T W F^-1, applied one side at a time."""
        m, f = other.dim, self.field
        half = sparse_sum(f, (
            (k - k % m + s, c * x)
            for k, c in tensor.items()
            for s, x in other.inverse[k % m].items()
        ))
        return sparse_sum(f, (
            (r * m + k % m, c * x)
            for k, c in half.items()
            for r, x in self.inverse[k // m].items()
        ))

    def tensor_degree(self, other: "FilteredSpace", tensor: dict):
        """Smallest deg e_i + deg f_j over the nonzero C_ij (inf for zero)."""
        m = other.dim
        return min(
            (self.degrees[k // m] + other.degrees[k % m]
             for k in self.tensor_coefficients(other, tensor)),
            default=math.inf,
        )


def induced_matrix(
    apply_map,
    src: SubquotientBasis,
    dst: SubquotientBasis,
    check_kernel: Subspace | None = None,
) -> ExactMatrix:
    """Matrix of the map induced on quotients by `apply_map` (sparse vector
    -> sparse vector).

    When check_kernel is given, verifies apply_map sends it into the
    denominator of `dst` (well-definedness on cosets).
    """
    if check_kernel is not None:
        for row in check_kernel.basis:
            if not dst.w.contains(apply_map(row)):
                raise ValueError("map is not well-defined on cosets")
    cols = [dst.coords(apply_map(row)) for row in src.rep_rows]
    field = dst.field
    ent = tuple(tuple(field.coerce(col[i]) for col in cols) for i in range(dst.dim))
    return ExactMatrix(field, dst.dim, src.dim, ent)
