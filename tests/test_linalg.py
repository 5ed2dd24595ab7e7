"""Exact linear algebra kernel tests.

Expected values here were computed by hand row reduction before the
implementation existed (see comments), then frozen.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import rref_fractions, rref_scan

from rackgraph.linalg import (
    FieldSpec,
    FilteredSpace,
    Subspace,
    add_products,
    drop_zeros,
    eliminate_unit_pivots,
    nullspace,
    rref,
    smith_normal_form,
    sparse_sum,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def sparse(v):
    """A dense row as the sparse vector {index: value} the kernel takes."""
    return {j: x for j, x in enumerate(v) if x}


def test_smith_diag_2_3():
    # diag(2,3): gcd spiral gives diag(1,6)
    r, d = smith_normal_form([[2, 0], [0, 3]])
    assert (r, d) == (2, [1, 6])


def test_smith_zero_matrix():
    r, d = smith_normal_form([[0] * 4 for _ in range(3)])
    assert (r, d) == (0, [])


def test_smith_rank_one():
    # [[2,4],[2,4]]: row2 -= row1 -> [[2,4],[0,0]]; col2 -= 2 col1 -> diag(2,0)
    r, d = smith_normal_form([[2, 4], [2, 4]])
    assert (r, d) == (1, [2])


def test_smith_divisor_chain_and_det():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        r, d = smith_normal_form(m)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        det = _det_fraction(m)
        if det != 0:
            assert r == n
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(det)


def _det_fraction(m):
    # independent determinant: fraction Gaussian elimination
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for i in range(c + 1, n):
            f = a[i][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_f2_sum_of_subspaces():
    # span{e1+e2, e2+e3} + span{e1+e3} has dim 2: e1+e3 = (e1+e2)+(e2+e3)
    a = Subspace.from_vectors(F2, 3, [{0: 1, 1: 1}, {1: 1, 2: 1}])
    b = Subspace.from_vectors(F2, 3, [{0: 1, 2: 1}])
    assert a.add(b).dim == 2
    assert a.add(b) == a


def test_canonical_basis_is_spanning_set_independent():
    a = Subspace.from_vectors(Q, 4, map(sparse, [[1, 2, 3, 4], [0, 1, 1, 1]]))
    b = Subspace.from_vectors(Q, 4, map(sparse, [[1, 3, 4, 5], [2, 5, 7, 9], [0, 2, 2, 2]]))
    assert a == b
    assert a.basis == b.basis


def test_dimension_formula_random():
    rng = random.Random(21)
    for field in (Q, F2, F3):
        for _ in range(30):
            n = rng.randrange(1, 6)
            va = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
            vb = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
            a = Subspace.from_vectors(field, n, map(sparse, va))
            b = Subspace.from_vectors(field, n, map(sparse, vb))
            s = a.add(b)
            i = a.intersect(b)
            assert s.dim == a.dim + b.dim - i.dim
            for row in i.basis:
                assert a.contains(row) and b.contains(row)
            for row in a.basis:
                assert s.contains(row)


def test_membership_and_equality():
    a = Subspace.from_vectors(F3, 3, [{0: 1, 1: 1}, {2: 1}])
    assert a.contains({0: 1, 1: 1, 2: 1})
    assert not a.contains({0: 1})
    assert Subspace.from_vectors(F3, 3, []).dim == 0
    assert Subspace.full(F3, 3).dim == 3


def test_from_vectors_rejects_an_index_outside_the_ambient_space():
    for bad in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
        with pytest.raises(ValueError, match="outside the ambient dimension"):
            Subspace.from_vectors(Q, 3, [{0: 1}, bad])


def _sparse_vectors(n):
    # zero values too: callers may pass them, and they must change nothing
    return st.dictionaries(
        st.integers(0, n - 1), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    )


@settings(deadline=None)
@given(
    st.sampled_from([Q, F2, F3]),
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(_sparse_vectors(n), max_size=5),
        _sparse_vectors(n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    )),
)
def test_reduce_clears_pivots_within_the_coset(field, case):
    n, rows, v, coeffs = case
    if field.is_prime_field:
        # integer entries over F_p
        rows = [{k: int(x) for k, x in row.items()} for row in rows]
        v = {k: int(x) for k, x in v.items()}
    space = Subspace.from_vectors(field, n, rows)
    r = space.reduce(v)
    # no key at any pivot
    assert not set(r) & {min(row) for row in space.basis}
    # v - r lies in the span of the rows
    diff = sparse_sum(field, [*v.items(), *((k, -x) for k, x in r.items())])
    assert len(rref(field, rows + [diff])) == space.dim
    # the result depends only on the coset of v
    shifted = sparse_sum(field, [
        *v.items(), *((k, c * x) for c, row in zip(coeffs, space.basis) for k, x in row.items())
    ])
    assert space.reduce(shifted) == r


def test_rank_nullity_and_image():
    # rank 2: the second row is twice the first
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ker = nullspace(Q, 3, map(sparse, m))
    assert ker.dim == 1
    for row in ker.basis:
        assert all(sum(r[j] * x for j, x in row.items()) == 0 for r in m)


@settings(deadline=None)
@given(
    st.sampled_from([Q, F2, F3]),
    st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(_sparse_vectors(n) if n else st.just({}), max_size=6)
    )),
)
def test_nullspace_is_the_canonical_kernel(field, case):
    n, rows = case
    if field.is_prime_field:
        rows = [{k: int(x) for k, x in row.items()} for row in rows]
    kernel = nullspace(field, n, rows)
    # already in canonical form: re-reducing its basis changes nothing
    assert kernel == Subspace.from_vectors(field, n, kernel.basis)
    for v in kernel.basis:
        for row in rows:
            dot = sum(x * v.get(k, 0) for k, x in row.items())
            assert (dot % field.p if field.is_prime_field else dot) == 0
    assert kernel.dim == n - len(rref(field, rows))


def test_nullspace_vector_meets_several_leads():
    # x0 + x1 + x2 = 0 and x0 + x3 = 0, solved for the last columns: the
    # vector at free column 0 meets both leads, 2 and 3
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 3: 1}]
    assert nullspace(Q, 4, rows).basis == ({0: 1, 2: -1, 3: -1}, {1: 1, 2: -1})
    assert nullspace(F3, 4, rows).basis == ({0: 1, 2: 2, 3: 2}, {1: 1, 2: 2})


def test_filtered_space_coset_coords():
    # the quotient of the whole space by W: representatives are the unit
    # vectors at W's non-pivot columns, of degree 0
    w = Subspace.from_vectors(Q, 3, [{0: 1, 1: 1}])
    fs = FilteredSpace([Subspace.full(Q, 3), w])
    assert fs.rows[:2] == ({1: 1}, {2: 1})
    assert fs.graded_dim(0) == 2
    # e0 and e0 - (e0 + e1) = -e1 lie in one coset mod span{e0 + e1}
    cosets = [
        {i: c for i, c in fs.coefficients(v).items() if fs.degrees[i] == 0}
        for v in ({0: 1}, {1: -1}, {0: 1, 1: 1})
    ]
    assert cosets == [{0: -1}, {0: -1}, {}]
    assert fs.degree({0: 1, 1: 1}) == math.inf


def test_filtered_space_w_pivot_need_not_be_a_non_representative_row():
    # W's row e0 + e1 is not a row of V: it shares V's lead 0, so e1 is the
    # one representative and e0 = -e1 + (e0 + e1) has coset coordinate -1
    fs = FilteredSpace([Subspace.full(Q, 2), Subspace.from_vectors(Q, 2, [{0: 1, 1: 1}])])
    assert fs.rows == ({1: 1}, {0: 1, 1: 1})
    assert fs.degrees == (0, math.inf)
    assert fs.coefficients({0: 1}) == {0: -1, 1: 1}
    assert fs.degree({0: 1}) == fs.degree({1: -1}) == 0


def test_filtered_space_refuses_a_chain_that_is_not_nested():
    v = Subspace.from_vectors(Q, 3, [{0: 1}, {1: 1}])
    with pytest.raises(ValueError, match="level 2 is not inside level 1"):
        FilteredSpace([Subspace.full(Q, 3), v, Subspace.from_vectors(Q, 3, [{2: 1}])])
    with pytest.raises(ValueError, match="level 0 must be the whole space"):
        FilteredSpace([v, Subspace.from_vectors(Q, 3, [{1: 1}])])


def test_prime_field_arithmetic():
    assert FieldSpec.parse("f5").p == 5
    assert FieldSpec.parse("q").kind == "q"
    # 2 (1, 2) + (2, 2) = (4, 6) = (1, 0) mod 3, reduced once and without
    # the zero
    assert sparse_sum(F3, [(0, 2), (1, 4), (0, 2), (1, 2)]) == {0: 1}
    assert sparse_sum(Q, [(0, Fraction(1, 2)), (0, Fraction(1, 2)), (1, 0)]) == {0: 1}


def _sparse_draw(values, size=4):
    # zero values kept, so that the kernel sees them in every argument
    return st.dictionaries(st.integers(0, size - 1), values, max_size=size)


@settings(deadline=None)
@given(st.data(), st.sampled_from([Q, F2, F3]), st.sampled_from([1, -1, 2]))
def test_add_products_equals_sparse_sum_of_the_terms(data, field, sign):
    values = (
        st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
        if field == Q
        else st.integers(-4, 4)
    )
    acc = data.draw(_sparse_draw(values))
    v = data.draw(_sparse_draw(values))
    rows = data.draw(st.lists(_sparse_draw(values), min_size=4, max_size=4))
    terms = [*acc.items(), *((z, sign * a * x) for m, a in v.items() for z, x in rows[m].items())]
    start = dict(acc)
    out = add_products(start, sign, v, rows)
    assert out is start
    assert drop_zeros(field, out) == sparse_sum(field, terms)


def test_add_products_cancels_and_keeps_zeros():
    # 1 * (1, 1) - 1 * (1, 0) cancels at index 0, and acc's 0 at index 2 stays
    out = add_products({2: 0}, 1, {0: 1, 1: -1}, [{0: 1, 1: 1}, {0: 1}])
    assert out == {2: 0, 0: 0, 1: 1}
    assert drop_zeros(F2, out) == {1: 1}


def test_largest_prime_field_reduces_exactly():
    # 2^31 - 1 is prime and the largest characteristic accepted; the second
    # row is c times the first, so exact reduction leaves one row
    p = 2**31 - 1
    field = FieldSpec.prime(p)
    a, b, c = p - 1, p - 2, p - 3
    reduced = rref(field, [{0: a, 1: b}, {0: a * c % p, 1: b * c % p}])
    assert reduced == [{0: 1, 1: b * pow(a, p - 2, p) % p}]
    with pytest.raises(ValueError, match="below 2\\^31"):
        FieldSpec.prime(2**31)


@st.composite
def integer_matrices(draw):
    """Block diagonal of a block with entries -3..3 and a block without
    units, plus zero rows and zero columns, rows and columns shuffled."""
    rows, width = [], 0
    for entry in (st.integers(-3, 3), st.sampled_from([-3, -2, 0, 2, 3])):
        m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        block = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        rows = [r + [0] * n for r in rows] + [[0] * width + r for r in block]
        width += n
    rows += [[0] * width] * draw(st.integers(0, 2))
    width += draw(st.integers(0, 2))
    rows = [r + [0] * (width - len(r)) for r in draw(st.permutations(rows))]
    order = draw(st.permutations(range(width)))
    return [[r[j] for j in order] for r in rows], width


@settings(deadline=None)
@given(integer_matrices())
def test_unit_pivots_then_core_snf_equals_dense_snf(case):
    rows, width = case
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(width)]
    pivots, left = eliminate_unit_pivots(columns)
    pivot_rows = {i for i, _ in pivots}
    assert len(pivot_rows) == len({j for _, j in pivots}) == len(pivots)
    assert all(col and not pivot_rows & set(col) for col in left.values())
    core = [[left[j].get(i, 0) for j in sorted(left)] for i in range(len(rows))]
    r, d = smith_normal_form(core)
    k = len(pivots)
    assert (k + r, [1] * k + d) == smith_normal_form(rows)


def _integer_rows(rows):
    # each row times the lcm of its denominators: same span over Q
    out = []
    for row in rows:
        m = math.lcm(*(Fraction(v).denominator for v in row))
        out.append([int(v * m) for v in row])
    return out


@settings(deadline=None)
@given(
    st.sampled_from([Q, F2, F3, F5]),
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(
                # half zeros, so that rows meet pivots both sparsely and densely
                st.just(Fraction(0)) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                min_size=n,
                max_size=n,
            ),
            max_size=6,
        )
    ),
)
# e2 becomes a pivot row first; the two full rows are independent only
# until they are cleared at index 2, so the third must vanish
@example(Q, [[0, 0, 1], [1, 1, 1], [1, 1, 0]])
def test_rref_rank_and_shape_against_smith_normal_form(field, rows):
    if field.is_prime_field:
        # integer entries; over Q fractional ones take the division path
        rows = [[int(v) for v in row] for row in rows]
    vectors = [{j: v for j, v in enumerate(row) if v} for row in rows]
    reduced = rref(field, vectors)
    # rank oracle: the Smith divisors of the rows scaled to integers; over
    # F_p the rank counts the divisors that p does not divide
    _, divisors = smith_normal_form(_integer_rows(rows))
    if field.is_prime_field:
        assert len(reduced) == sum(1 for d in divisors if d % field.p)
    else:
        assert len(reduced) == len(divisors)
    # shape: lead 1, sorted by lead, zero at every other row's lead, and
    # only nonzero values stored, residues in [1, p) over F_p
    leads = [min(row) for row in reduced]
    assert leads == sorted(set(leads))
    for row in reduced:
        assert row[min(row)] == 1
        if field.is_prime_field:
            assert all(0 < x < field.p for x in row.values())
        else:
            assert all(x for x in row.values())
        assert not set(row) & (set(leads) - {min(row)})
    # span: every input row reduces to zero through the output rows
    for v in vectors:
        left = dict(v)
        for row, lead in zip(reduced, leads):
            c = left.get(lead, 0)
            for k, x in row.items():
                left[k] = left.get(k, 0) - c * x
        assert all(x % field.p == 0 if field.is_prime_field else x == 0 for x in left.values())


@st.composite
def rational_rows(draw):
    """Sparse rows over Q for the integer kernel: leads of +-1, +-2 and +-3,
    Fraction entries with denominators 1-4, a common factor that gives the
    scaled row a content above 1, and zero and repeated rows."""
    n = draw(st.integers(1, 6))
    entry = st.just(0) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        shape = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if shape == "zero":
            rows.append({})
        elif shape == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            lead = draw(st.integers(0, n - 1))
            row = {lead: draw(st.sampled_from([1, -1, 2, -2, 3, -3]))}
            row.update({j: x for j in range(lead + 1, n) if (x := draw(entry))})
            scale = draw(st.sampled_from([1, 2, 6, Fraction(1, 2)]))
            rows.append({j: x * scale for j, x in row.items()})
    return rows


@settings(deadline=None, max_examples=300)
@given(rational_rows())
# the example of the shape test above: the third row vanishes once cleared
@example([{2: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}])
# the second row's lead 2 meets the first pivot row at index 1, which the
# back-substitution clears as 2 row_0 - row_1 = (2, 0, -1), lead 2
@example([{0: 1, 1: 1}, {1: 2, 2: 1}])
def test_rref_over_q_equals_the_fraction_oracle(rows):
    before = [dict(row) for row in rows]
    reduced = rref(Q, rows)
    expected = rref_fractions(rows)
    assert [min(row) for row in reduced] == [min(row) for row in expected]
    assert reduced == expected
    assert rows == before


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([Q, F2, F3, F5]),
    rational_rows().flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))),
)
def test_rref_is_independent_of_the_row_order(field, case):
    # the reduced row echelon form of a span is unique, so homology may feed
    # the rows in whatever order costs least
    rows, shuffled = case
    if field.is_prime_field:
        rows, shuffled = (
            [{j: Fraction(x).numerator for j, x in row.items()} for row in r] for r in case
        )
    assert rref(field, shuffled) == rref(field, rows)


@st.composite
def fed_rows(draw):
    """A field and sparse rows for it, fed by increasing lead, by decreasing
    lead or in a random order.  New rows put entries right of their lead,
    which the back-substitution spreads into the pivot rows above (fill-in);
    combinations of earlier rows, which keep the zeros where their terms
    cancel, vanish once reduced; and empty rows and rows of zeros come in as
    they are."""
    field = draw(st.sampled_from([Q, F2, F3, F5]))
    n = draw(st.integers(1, 8))
    if field.is_prime_field:
        scalar = st.integers(-6, 6)
    else:
        scalar = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["new", "new", "new", "combination", "zero"]))
        if shape == "zero":
            rows.append({j: 0 for j in draw(st.sets(st.integers(0, n - 1), max_size=2))})
        elif shape == "combination" and rows:
            acc: dict = {}
            for _ in range(draw(st.integers(1, 3))):
                c = draw(scalar)
                for j, x in draw(st.sampled_from(rows)).items():
                    acc[j] = acc.get(j, 0) + c * x
            rows.append(acc)
        else:
            lead = draw(st.integers(0, n - 1))
            row = {lead: draw(scalar.filter(lambda x: x % field.p if field.p else x))}
            row.update({j: x for j in range(lead + 1, n) if (x := draw(scalar))})
            rows.append(row)

    def lead(row):
        return min((j for j, x in row.items() if (x % field.p if field.p else x)), default=-1)

    order = draw(st.sampled_from(["increasing", "decreasing", "random"]))
    if order == "random":
        rows = draw(st.permutations(rows))
    else:
        rows.sort(key=lead, reverse=order == "decreasing")
    return field, rows


@settings(deadline=None, max_examples=300)
@given(fed_rows())
# the second row's lead 1 meets the first pivot row, which then gains the
# entry at 2; the third row is the sum of the first two and vanishes
@example((F3, [{0: 1, 1: 1}, {1: 1, 2: 2}, {0: 1, 1: 2, 2: 2}]))
@example((Q, [{0: 1, 1: 1}, {1: 2, 2: 1}, {0: 1, 1: 3, 2: 1}, {1: 0}]))
def test_rref_equals_the_scanning_oracle(case):
    field, rows = case
    before = [dict(row) for row in rows]
    reduced = rref(field, rows)
    expected = rref_scan(field, [dict(row) for row in rows])
    assert reduced == expected
    # the same value types too: ints wherever the division was exact
    assert [{j: type(x) for j, x in row.items()} for row in reduced] == [
        {j: type(x) for j, x in row.items()} for row in expected
    ]
    assert rows == before


def _random_chain(rng, field, n):
    # [full, span(v_0..v_r), span(v_1..v_r), ...] with r < n, run down to
    # zero or stopped at a random depth; the last entry is listed twice
    vecs = [sparse([rng.randrange(-2, 3) for _ in range(n)]) for _ in range(rng.randrange(0, n))]
    levels = [Subspace.full(field, n)]
    for d in range(rng.randrange(1, len(vecs) + 2)):
        levels.append(Subspace.from_vectors(field, n, vecs[d:]))
    levels.append(levels[-1])
    return levels


def test_filtered_space_adapted_basis():
    rng = random.Random(5)
    for field in (Q, F2, F3):
        for _ in range(20):
            n = rng.randrange(1, 6)
            levels = _random_chain(rng, field, n)
            fs = FilteredSpace(levels)
            assert len(fs.rows) == n
            for d in range(len(levels) - 1):
                assert fs.graded_dim(d) == levels[d].dim - levels[d + 1].dim
            assert fs.degrees.count(math.inf) == levels[-1].dim
            for m, level in enumerate(levels):
                deep = [row for row, d in zip(fs.rows, fs.degrees) if d >= m]
                assert Subspace.from_vectors(field, n, deep) == level


def _random_member(rng, field, space):
    coeffs = [rng.randrange(-2, 3) for _ in space.basis]
    return sparse_sum(
        field, ((k, c * y) for c, row in zip(coeffs, space.basis) for k, y in row.items())
    )


def test_filtered_space_coefficients_and_degree():
    rng = random.Random(6)
    for field in (Q, F3):
        for _ in range(30):
            n = rng.randrange(1, 6)
            levels = _random_chain(rng, field, n)
            fs = FilteredSpace(levels)
            v = _random_member(rng, field, rng.choice(levels[:-1]))
            c = fs.coefficients(v)
            back = sparse_sum(
                field, ((k, ci * y) for i, ci in c.items() for k, y in fs.rows[i].items())
            )
            assert back == v
            deepest = max(m for m, level in enumerate(levels) if level.contains(v))
            if deepest == len(levels) - 1:
                assert fs.degree(v) >= deepest
            else:
                assert fs.degree(v) == deepest


def _tensor_level(field, lv, lw, m):
    # level m of V(x)W as the sum over p + q = m of V_p (x) W_q, row reducing
    # every product of level bases (levels past a chain's end repeat its last)
    n, k = lv[0].ambient_dim, lw[0].ambient_dim
    return Subspace.from_vectors(field, n * k, [
        {i * k + j: x * y for i, x in u.items() for j, y in w.items()}
        for p in range(m + 1)
        for u in lv[min(p, len(lv) - 1)].basis
        for w in lw[min(m - p, len(lw) - 1)].basis
    ])


def test_tensor_degree_matches_the_row_reduced_tensor_levels():
    rng = random.Random(8)
    for field in (Q, F2, F3):
        for _ in range(20):
            n, k = rng.randrange(1, 5), rng.randrange(1, 5)
            lv, lw = _random_chain(rng, field, n), _random_chain(rng, field, k)
            top = len(lv) + len(lw)
            # below len(lv) + len(lw) - 4 the level still has rows of finite degree
            start = rng.randrange(0, max(1, top - 4))
            t = _random_member(rng, field, _tensor_level(field, lv, lw, start))
            levels = [_tensor_level(field, lv, lw, m) for m in range(top + 1)]
            deepest = max(m for m, level in enumerate(levels) if level.contains(t))
            degree = FilteredSpace(lv).tensor_degree(FilteredSpace(lw), t)
            if deepest == top:
                assert degree >= top
            else:
                assert degree == deepest
