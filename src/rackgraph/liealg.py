"""Lie algebra pairs (module over a Lie algebra with an equivariant map) and
the free graded extension up to a degree bound.

Structure data is exact and sparse: every row is a dict {index: value}
over Q with no zero values and with integral values as ints (`_vector`).
Conventions, used throughout:
  c[i][j]    coordinates of [e_i, e_j] in the basis of g
  rho[a]     matrix of the right action of e_a on M, row i = image of m_i,
             so composition reads (m ^ a) ^ b = m . (rho[a] rho[b])
  f[i]       coordinates of f(m_i) in the basis of g

The free graded extension puts g in degree 0 and M in degree 1.  Its
positive degrees are the free Lie (super)algebra L(M) in the chosen sign
convention, which over Q sits inside the tensor algebra T(M) (Ree 1960;
Reutenauer, Free Lie Algebras, 1993) with x -> x and [u, v] -> uv - sigma vu.
The left-normed words ((x1, x2), ...), xn) span L_n, so each degree takes its
basis among them.  Brackets are graded commutators in T(M), and g acts as
the derivation of T(M) that acts on one letter at a time; both act on L
itself, so there is no quotient for them to descend through.
The differential extends d(m) = f(m), d(g) = 0 as a derivation: with the
graded_koszul convention it carries the sign d[u,v] = [du,v] +
(-1)^{deg u}[u,dv] and d.d = 0 always holds; with the plain convention the
rule is unsigned, matching ordinary Lie algebra derivations, and d.d = 0 is
a property of the input (it can fail when iterated actions through the
structure map survive; verification reports this honestly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain

from .linalg import FieldSpec, Subspace, add_products, nullspace, sparse_sum
from .racks import ValidationReport

_Q = FieldSpec.rationals()

KOSZUL = "graded_koszul"
PLAIN = "plain"


def _vector(items) -> dict:
    """The sparse row of (index, value) pairs with distinct indices over Q:
    zeros dropped, integral values as ints, the one form of every row in
    this module."""
    return {k: x.numerator if x.denominator == 1 else x for k, x in items if x}


def _rows(rows) -> tuple:
    return tuple(_vector((k, Fraction(x)) for k, x in enumerate(row)) for row in rows)


@dataclass(frozen=True)
class LMLieAlgebra:
    dim_g: int
    dim_m: int
    c: tuple  # c[i][j] -> sparse row
    rho: tuple  # rho[a][i] -> sparse row
    f: tuple  # f[i] -> sparse row

    @staticmethod
    def make(c, rho, f, dim_g: int | None = None, dim_m: int | None = None) -> "LMLieAlgebra":
        """Check the shapes of dense tables, then keep their rows sparse."""
        ng = len(c) if dim_g is None else dim_g
        nm = len(f) if dim_m is None else dim_m
        if len(c) != ng or any(len(p) != ng for p in c):
            raise ValueError("bracket constants must be dim_g x dim_g x dim_g")
        for plane in c:
            for v in plane:
                if len(v) != ng:
                    raise ValueError("bracket coordinate length mismatch")
        if len(rho) != ng:
            raise ValueError("one action matrix per Lie algebra basis element")
        for mat in rho:
            if len(mat) != nm or any(len(r) != nm for r in mat):
                raise ValueError("action matrices must be dim_m x dim_m")
        if len(f) != nm or any(len(r) != ng for r in f):
            raise ValueError("f must be dim_m x dim_g")
        return LMLieAlgebra(
            ng, nm, tuple(_rows(plane) for plane in c), tuple(_rows(mat) for mat in rho), _rows(f)
        )


def validate_lm_lie(l: LMLieAlgebra) -> ValidationReport:
    """Antisymmetry and Jacobi for g, the module axiom, and equivariance.

    Each identity adds its products of rows into one dict (`add_products`)
    and holds when every value there is zero; `checked` counts each basis
    pair, triple or action element once."""
    violations: list[str] = []
    ng, nm = l.dim_g, l.dim_m
    c, rho, f = l.c, l.rho, l.f

    for i in range(ng):
        for j in range(ng):
            # [e_i, e_j] + [e_j, e_i], the second as row i of c[j]
            if any(add_products(dict(c[i][j]), 1, {i: 1}, c[j]).values()):
                violations.append(f"antisymmetry fails at ({i}, {j})")

    # right[k][t] = [e_t, e_k], so [u, e_k] = sum_t u_t right[k][t]
    right = [[c[t][k] for t in range(ng)] for k in range(ng)]
    for i in range(ng):
        for j in range(ng):
            for k in range(ng):
                acc = add_products({}, 1, c[i][j], right[k])
                add_products(acc, 1, c[j][k], right[i])
                if any(add_products(acc, 1, c[k][i], right[j]).values()):
                    violations.append(f"Jacobi fails at ({i}, {j}, {k})")

    for a in range(ng):
        for b in range(ng):
            # row i of rho[a] rho[b] - rho[b] rho[a] against sum_k c[a][b][k] rho[k]
            for i in range(nm):
                acc = add_products({}, 1, rho[a][i], rho[b])
                add_products(acc, -1, rho[b][i], rho[a])
                if any(add_products(acc, -1, c[a][b], [rho_k[i] for rho_k in rho]).values()):
                    violations.append(f"module axiom fails at ({a}, {b})")
                    break

    for a in range(ng):
        # f(m_i ^ e_a) against [f(m_i), e_a]
        for i in range(nm):
            if any(add_products(add_products({}, 1, rho[a][i], f), -1, f[i], right[a]).values()):
                violations.append(f"equivariance fails at action element {a}")
                break

    return ValidationReport.collect(violations, ng**2 + ng**3 + ng**2 + ng)


# ---------------------------------------------------------------------------
# free graded extension

WORD_BUDGET = 300_000


class TruncationTooLarge(ValueError):
    """A degree bound needs more bracket words than WORD_BUDGET."""


def _sigma(p: int, q: int, convention: str) -> int:
    """Sign in [u,v] = -sign [v,u] for deg u = p, deg v = q."""
    return -1 if convention == KOSZUL and (p * q) % 2 else 1


def _d_sign(p: int, convention: str) -> int:
    """Sign in d[u,v] = [du,v] + sign [u,dv] for deg u = p."""
    return -1 if convention == KOSZUL and p % 2 else 1


def _check_word_budget(m: int, max_degree: int) -> None:
    """Refuse a degree bound that needs more than WORD_BUDGET binary bracket
    words on m letters, Catalan(n-1) m^n of them in degree n.  With no
    letters there are no words, but the checks still loop over every degree,
    so the bound is then held to what one letter allows."""
    counts = [0, max(m, 1)]
    total = counts[1]
    for n in range(2, max_degree + 1):
        counts.append(sum(counts[p] * counts[n - p] for p in range(1, n)))
        total += counts[n]
        if total > WORD_BUDGET:
            raise TruncationTooLarge(
                f"degree bound needs {total} bracket words, over the budget {WORD_BUDGET}"
                if m
                else f"degree bound {max_degree} would need {total} bracket words on one "
                f"generator, over the budget {WORD_BUDGET}"
            )


@dataclass(frozen=True)
class GradedLieTruncation:
    """Degrees 0..max_degree of the free graded extension.

    dims[n] and basis_words[n] describe the degree-n slice (degree 0 is the
    input Lie algebra, so basis_words[0] is empty).  The basis of degree
    n >= 1 is made of left-normed words ((x1, x2), ...), xn), written as
    nested pairs: those, in the product order of their letters, whose
    expansion into T(M) is independent of the expansions of all later ones.
    bracket[(p, q)][i][j] is the bracket of basis elements, defined for
    p + q <= max_degree, and differential[n][j] is d of the j-th basis
    element of degree n (n >= 1), each a sparse row of coordinates in the
    basis of its degree.
    """

    convention: str
    max_degree: int
    dims: tuple[int, ...]
    basis_words: tuple
    bracket: dict
    differential: tuple


def e_functor(l: LMLieAlgebra, max_degree: int, convention: str = KOSZUL) -> GradedLieTruncation:
    if convention not in (KOSZUL, PLAIN):
        raise ValueError(f"unknown convention {convention!r}")
    if max_degree < 1:
        raise ValueError("degree bound must be at least 1")
    m = l.dim_m
    _check_word_budget(m, max_degree)

    # T(M)_n is keyed by the monomial x1...xn read as a base-m integer, so
    # that the product of monomials of degrees p and q is a * m^q + b
    def bracket_of(p: int, u: dict, q: int, v: dict) -> dict:
        """uv - sigma vu in T(M)_(p+q), for u and v of degrees p and q."""
        s = _sigma(p, q, convention)
        return sparse_sum(_Q, chain.from_iterable(
            ((a * m**q + b, x * y), (b * m**p + a, -s * x * y))
            for a, x in u.items()
            for b, y in v.items()
        ))

    def act(a: int, n: int, vec: dict) -> dict:
        """e_a on T(M)_n: the derivation that replaces one letter at a time
        by its image under the action."""
        terms = []
        for k, c in vec.items():
            for t in range(n):
                place = m**t
                x = k // place % m
                for z, r in l.rho[a][x].items():
                    terms.append((k + (z - x) * place, c * r))
        return sparse_sum(_Q, terms)

    # degree by degree: the left-normed words in product order, with
    # P(w y) = P(w) y - sigma y P(w); the basis is the non-leads of the
    # canonical kernel of their expansion, and readers[n] is the span of
    # the basis expansions, each tagged with -e_(m^n + i)
    expansion: dict = {}
    words: dict = {x: {x: 1} for x in range(m)}
    basis_words: list = [()]
    readers: list = [None]
    for n in range(1, max_degree + 1):
        if n > 1:
            words = {
                (w, y): bracket_of(n - 1, pw, 1, {y: 1})
                for w, pw in words.items()
                for y in range(m)
            }
        expansion.update(words)
        rows: dict = {}
        for i, pw in enumerate(words.values()):
            for k, x in pw.items():
                rows.setdefault(k, {})[i] = x
        dependent = {min(v) for v in nullspace(_Q, len(words), rows.values()).basis}
        basis = tuple(w for i, w in enumerate(words) if i not in dependent)
        tagged = [{**words[w], m**n + i: -1} for i, w in enumerate(basis)]
        readers.append(Subspace.from_vectors(_Q, m**n + len(basis), tagged))
        basis_words.append(basis)
    dims = [l.dim_g] + [len(basis) for basis in basis_words[1:]]

    def coords(n: int, vec: dict) -> dict:
        """Basis coordinates of a vector of T(M)_n that lies in L_n: reducing
        it by the tagged span clears its monomials and leaves the tags."""
        rest = readers[n].reduce(vec)
        if any(k < m**n for k in rest):
            raise AssertionError(f"vector outside the free Lie algebra in degree {n}")
        return _vector((k - m**n, x) for k, x in rest.items())

    bracket: dict = {(0, 0): l.c}
    for n in range(1, max_degree + 1):
        table_n0 = tuple(
            tuple(coords(n, act(a, n, expansion[w])) for a in range(l.dim_g))
            for w in basis_words[n]
        )
        bracket[(n, 0)] = table_n0
        bracket[(0, n)] = tuple(
            tuple({k: -x for k, x in table_n0[j][a].items()} for j in range(dims[n]))
            for a in range(l.dim_g)
        )
    for p in range(1, max_degree):
        for q in range(1, max_degree + 1 - p):
            bracket[(p, q)] = tuple(
                tuple(
                    coords(p + q, bracket_of(p, expansion[u], q, expansion[v]))
                    for v in basis_words[q]
                )
                for u in basis_words[p]
            )

    @cache
    def d_word(w, n: int) -> dict:
        """d of the left-normed word w = (u, y) of degree n >= 2, in the basis
        of degree n - 1: d[u, y] = [du, y] + sign [u, f(y)]."""
        u, y = w
        p = n - 1
        if p == 1:
            # [du, y] with du in degree 0 is -[y, du]
            acc = add_products({}, -1, l.f[u], bracket[(1, 0)][y])
        else:
            acc = add_products({}, 1, d_word(u, p), [row[y] for row in bracket[(p - 1, 1)]])
        s, table = _d_sign(p, convention), bracket[(p, 0)]
        for i, a in coords(p, expansion[u]).items():
            add_products(acc, s * a, l.f[y], table[i])
        return _vector(acc.items())

    differential = [(), l.f]
    for n in range(2, max_degree + 1):
        differential.append(tuple(d_word(w, n) for w in basis_words[n]))

    return GradedLieTruncation(
        convention=convention,
        max_degree=max_degree,
        dims=tuple(dims),
        basis_words=tuple(basis_words),
        bracket=bracket,
        differential=tuple(differential),
    )


def verify_e_truncation(t: GradedLieTruncation, l: LMLieAlgebra) -> ValidationReport:
    """Degree <= 1 equals the input; antisymmetry, Jacobi, derivation rule,
    and d.d = 0 hold on all in-range basis tuples.

    The degree <= 1 checks compare table entries as they are.  Each other
    identity adds the rows of the tables, or their products, into one dict
    (`add_products`) and holds when every value there is zero; its message
    is made only when it fails.  Every basis tuple counts once in `checked`,
    and the violations come in loop order.

    Jacobi, L(x,y,z) = [x,[y,z]] - [[x,y],z] - s(x,y)[y,[x,z]], is evaluated
    only at (p,i) <= (q,j) <= (r,k) once every check before it and the
    uncounted degree-(0,0) antisymmetry hold: antisymmetry in degree sums
    <= p+q+r gives L(y,x,z) = -s(x,y)L(x,y,z) and L(x,z,y) = -s(y,z)L(x,y,z),
    so every order holds with it.  Otherwise, or if one fails, every ordered
    triple is evaluated; each counts in `checked` either way.
    """
    violations: list[str] = []
    checked = 0
    dims = t.dims

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
            s, pq, qp = _sigma(p, q, t.convention), t.bracket[(p, q)], t.bracket[(q, p)]
            checked += dims[p] * dims[q]
            for i in range(dims[p]):
                for j in range(dims[q]):
                    # [e_i, e_j] + s [e_j, e_i], the second as row i of qp[j]
                    if any(add_products(dict(pq[i][j]), s, {i: 1}, qp[j]).values()):
                        violations.append(f"antisymmetry fails in degrees ({p}, {q}) at ({i}, {j})")

    # cell[(p, q)][i][j] is [e_i, e_j], column[(p, q)][j][i] the same row,
    # and diff[n][j] is d e_j
    cell, diff = t.bracket, t.differential
    column = {
        (p, q): [[row[j] for row in rows] for j in range(t.dims[q])]
        for (p, q), rows in cell.items()
    }

    triples = [  # the ordered degree triples but (0, 0, 0)
        (p, q, r) for p in range(D + 1) for q in range(D + 1 - p) for r in range(D + 1 - p - q)
    ][1:]
    checked += sum(dims[p] * dims[q] * dims[r] for p, q, r in triples)

    def jacobi(canonical: bool) -> list[str]:
        found = []
        for p, q, r in triples:
            if canonical and not p <= q <= r:
                continue
            s = _sigma(p, q, t.convention)
            outer, inner = cell[(p, q + r)], cell[(q, r)]
            pq, pq_r = cell[(p, q)], column[(p + q, r)]
            pr, q_pr = cell[(p, r)], cell[(q, p + r)]
            for i in range(dims[p]):
                for j in range(i if canonical and p == q else 0, dims[q]):
                    for k in range(j if canonical and q == r else 0, dims[r]):
                        # [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - s [e_j, [e_i, e_k]]
                        acc = add_products({}, 1, inner[j][k], outer[i])
                        add_products(acc, -1, pq[i][j], pq_r[k])
                        if any(add_products(acc, -s, pr[i][k], q_pr[j]).values()):
                            found.append(f"Jacobi fails in degrees ({p},{q},{r}) at ({i},{j},{k})")
        return found

    c0, g = cell[(0, 0)], range(dims[0])
    canonical = not violations and all(c0[i][j] == {k: -x for k, x in c0[j][i].items()} for i in g for j in g)
    found = jacobi(canonical)
    violations += jacobi(False) if canonical and found else found

    for p in range(D + 1):
        for q in range(max(1 - p, 0), D + 1 - p):
            n = p + q
            sign = _d_sign(p, t.convention)
            checked += dims[p] * dims[q]
            for i in range(dims[p]):
                for j in range(dims[q]):
                    # d[e_i, e_j] - [d e_i, e_j] - sign [e_i, d e_j]
                    acc = add_products({}, 1, cell[(p, q)][i][j], diff[n])
                    if p >= 1:
                        add_products(acc, -1, diff[p][i], column[(p - 1, q)][j])
                    if q >= 1:
                        add_products(acc, -sign, diff[q][j], cell[(p, q - 1)][i])
                    if any(acc.values()):
                        violations.append(f"derivation rule fails in degrees ({p},{q}) at ({i},{j})")

    for n in range(2, D + 1):
        checked += dims[n]
        for j in range(dims[n]):
            if any(add_products({}, 1, diff[n][j], diff[n - 1]).values()):
                violations.append(f"d.d nonzero in degree {n} at basis element {j}")

    return ValidationReport.collect(violations, checked)


# ---------------------------------------------------------------------------
# sample data


def sl2_adjoint() -> LMLieAlgebra:
    """Basis h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h; adjoint module."""
    z = [0, 0, 0]
    c = [
        [z, [0, 2, 0], [0, 0, -2]],
        [[0, -2, 0], z, [1, 0, 0]],
        [[0, 0, 2], [-1, 0, 0], z],
    ]
    rho = [[list(c[i][a]) for i in range(3)] for a in range(3)]
    f = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return LMLieAlgebra.make(c, rho, f)


def so3_adjoint() -> LMLieAlgebra:
    """Cross-product structure constants [e_i, e_j] = eps_ijk e_k; adjoint
    module with the identity as structure map."""

    def eps(i, j, k):
        return ((j - i) % 3 == 1 and (k - j) % 3 == 1) - ((i - j) % 3 == 1 and (j - k) % 3 == 1)

    c = [[[eps(i, j, k) for k in range(3)] for j in range(3)] for i in range(3)]
    rho = [[c[i][a] for i in range(3)] for a in range(3)]
    f = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return LMLieAlgebra.make(c, rho, f)


def nilpotent_pair() -> LMLieAlgebra:
    """One-dimensional abelian g acting nilpotently on a plane; the derived
    bracket has [m2, m2] = m1, so it is Leibniz but not Lie."""
    c = [[[0]]]
    rho = [[[0, 0], [1, 0]]]
    f = [[0], [1]]
    return LMLieAlgebra.make(c, rho, f)


def free_generators(m: int) -> LMLieAlgebra:
    """No degree-0 part: M = k^m with zero action and zero structure map."""
    return LMLieAlgebra.make([], [], [[] for _ in range(m)], dim_g=0, dim_m=m)


def one_generator() -> LMLieAlgebra:
    return free_generators(1)
