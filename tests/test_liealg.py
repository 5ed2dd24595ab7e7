"""Lie algebra pairs, the derived Leibniz bracket, and graded truncations.

Frozen dimensions come from independent counts: plain-convention slices of
the free Lie algebra follow the Witt formula (2, 1, 2 for two generators in
degrees 1..3), and signed-convention slices follow the super analogue
computed through the Poincare series of the free associative algebra
(1 generator: 1, 1, 0; 2 generators: 2, 3, 2 in degrees 1..3).
"""

import dataclasses
import functools
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    LeibnizAlgebra,
    leibniz_bracket,
    validate_lm_lie_sums,
    verify_e_truncation_sums,
    verify_leibniz,
)
from rackgraph import liealg
from rackgraph.jsonio import dump_lm_lie, load_path
from rackgraph.liealg import (
    KOSZUL,
    PLAIN,
    LMLieAlgebra,
    _sigma,
    e_functor,
    free_generators,
    nilpotent_pair,
    one_generator,
    sl2_adjoint,
    so3_adjoint,
    validate_lm_lie,
    verify_e_truncation,
)
from rackgraph.linalg import FieldSpec, nullspace


def test_sl2_validates():
    report = validate_lm_lie(sl2_adjoint())
    assert report.ok, report.violations


def test_sl2_leibniz_equals_lie_bracket():
    l = sl2_adjoint()
    b = leibniz_bracket(l)
    for i in range(3):
        for j in range(3):
            assert b.bracket[i][j] == l.c[i][j]


def test_corrupt_structure_constants_detected():
    doc = dump_lm_lie(sl2_adjoint())
    c = doc["c"]
    c[0][1] = [0, 3, 0]
    c[1][0] = [0, -3, 0]
    bad = LMLieAlgebra.make(c, doc["rho"], doc["f"])
    report = validate_lm_lie(bad)
    assert not report.ok
    assert any("Jacobi" in v for v in report.violations)


def test_corrupt_action_detected():
    doc = dump_lm_lie(sl2_adjoint())
    rho = doc["rho"]
    rho[0][0][0] += 1
    bad = LMLieAlgebra.make(doc["c"], rho, doc["f"])
    report = validate_lm_lie(bad)
    assert not report.ok
    assert any("module axiom" in v or "equivariance" in v for v in report.violations)


def test_nilpotent_pair_valid_but_not_lie():
    l = nilpotent_pair()
    assert validate_lm_lie(l).ok
    b = leibniz_bracket(l)
    assert b.bracket[1][1] == {0: 1}
    assert b.bracket[0][1] == {}
    assert b.bracket[1][0] == {}
    # the square of m2 is nonzero, so the bracket is not antisymmetric
    assert b.bracket[1][1]


def test_non_leibniz_table_detected():
    table = tuple(tuple({0: 1} for _ in range(2)) for _ in range(2))
    report = verify_leibniz(LeibnizAlgebra(2, table))
    assert not report.ok
    assert "Leibniz" in report.violations[0]


def test_one_generator_dims_koszul():
    t = e_functor(one_generator(), 3, KOSZUL)
    assert t.dims == (0, 1, 1, 0)


def test_one_generator_dims_plain():
    t = e_functor(one_generator(), 3, PLAIN)
    assert t.dims == (0, 1, 0, 0)


def test_two_generator_witt_dims_plain():
    t = e_functor(free_generators(2), 3, PLAIN)
    assert t.dims == (0, 2, 1, 2)


def test_two_generator_koszul_symmetric_square():
    t = e_functor(free_generators(2), 2, KOSZUL)
    assert t.dims == (0, 2, 3)


def test_nilpotent_truncation_dims_both_conventions():
    assert e_functor(nilpotent_pair(), 3, KOSZUL).dims == (1, 2, 3, 2)
    assert e_functor(nilpotent_pair(), 3, PLAIN).dims == (1, 2, 1, 2)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _witt(m: int, n: int, convention: str) -> int:
    """Witt's formula for the free Lie algebra on m even generators (plain),
    and its super analogue for m odd ones (graded_koszul)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            sign = (-1) ** (n + n // d) if convention == KOSZUL else 1
            total += _mobius(d) * sign * m ** (n // d)
    assert total % n == 0
    return total // n


LM_LIE_FILES = sorted(
    path for path in Path(__file__).resolve().parent.parent.glob("corpus/*.json")
    if load_path(str(path))[0] == "lm_lie"
)


@pytest.mark.parametrize("convention", [KOSZUL, PLAIN])
@pytest.mark.parametrize("path", LM_LIE_FILES, ids=lambda p: p.stem)
def test_dims_follow_witts_formula(path, convention):
    # the free extension on M has the dimensions of the free Lie
    # (super)algebra on dim M generators, whatever g and the action are
    _, l = load_path(str(path))
    dims = e_functor(l, 5, convention).dims
    assert dims == (l.dim_g,) + tuple(_witt(l.dim_m, n, convention) for n in range(1, 6))


def _is_sparse_row(v) -> bool:
    """The one vector format: a dict {index: value} with no zero value and
    with integral values as ints."""
    return isinstance(v, dict) and all(
        x and not (isinstance(x, Fraction) and x.denominator == 1) for x in v.values()
    )


@pytest.mark.parametrize("convention", [KOSZUL, PLAIN])
@pytest.mark.parametrize(
    "path", LM_LIE_FILES + [None], ids=lambda p: p.stem if p else "sl2_rescaled"
)
def test_every_row_is_a_sparse_row(path, convention):
    # the corpus files load with every value a Fraction, and the rescaled
    # sl2 makes integral Fractions in the tables' arithmetic
    l = load_path(str(path))[1] if path else _sl2_rescaled()
    t = e_functor(l, 4, convention)
    rows = [v for table in (*l.c, *l.rho) for v in table] + list(l.f)
    rows += [cell for table in t.bracket.values() for row in table for cell in row]
    rows += [row for rows_n in t.differential for row in rows_n]
    rows += [cell for row in leibniz_bracket(l).bracket for cell in row]
    assert [v for v in rows if not _is_sparse_row(v)] == []


def _all_words(m: int, n: int) -> list:
    """Every binary bracket word with n leaves on the letters 0..m-1: by the
    degree of the left factor, then the left and right factors each in its
    own order."""
    if n == 1:
        return list(range(m))
    return [(u, v) for p in range(1, n) for u in _all_words(m, p) for v in _all_words(m, n - p)]


def _degree(w) -> int:
    return 1 if isinstance(w, int) else _degree(w[0]) + _degree(w[1])


def _expand(w, convention: str) -> dict:
    """The word in the tensor algebra, keyed by letter tuples: a letter is
    itself and [u, v] is uv - sign vu, with sign -1 for two odd degrees in
    the graded_koszul convention."""
    if isinstance(w, int):
        return {(w,): 1}
    u, v = w
    odd = _degree(u) * _degree(v) % 2
    sign = -1 if convention == KOSZUL and odd else 1
    out: dict = {}
    for a, x in _expand(u, convention).items():
        for b, y in _expand(v, convention).items():
            out[a + b] = out.get(a + b, 0) + x * y
            out[b + a] = out.get(b + a, 0) - sign * x * y
    return {k: c for k, c in out.items() if c}


def _substitute(tensor: dict, rho) -> dict:
    """The derivation of the tensor algebra that acts on each letter by rho,
    sparse row x being the image of letter x."""
    out: dict = {}
    for key, c in tensor.items():
        for t, x in enumerate(key):
            for z, r in rho[x].items():
                new = key[:t] + (z,) + key[t + 1:]
                out[new] = out.get(new, 0) + c * r
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("convention", [KOSZUL, PLAIN])
@pytest.mark.parametrize("path", LM_LIE_FILES, ids=lambda p: p.stem)
def test_basis_and_tables_against_every_bracket_word(path, convention):
    # the basis is the words of the full list whose expansion is independent
    # of the expansions of all later words, the non-leads of the canonical
    # kernel; every table, expanded back, is the expansion it stands for
    _, l = load_path(str(path))
    t = e_functor(l, 4, convention)

    def expanded(n: int, coords: dict) -> dict:
        out: dict = {}
        for i, c in coords.items():
            for k, x in _expand(t.basis_words[n][i], convention).items():
                out[k] = out.get(k, 0) + c * x
        return {k: c for k, c in out.items() if c}

    for n in range(1, 5):
        words = _all_words(l.dim_m, n)
        rows: dict = {}
        for i, w in enumerate(words):
            for k, x in _expand(w, convention).items():
                rows.setdefault(k, {})[i] = x
        kernel = nullspace(FieldSpec.rationals(), len(words), list(rows.values()))
        leads = {min(v) for v in kernel.basis}
        assert t.basis_words[n] == tuple(w for i, w in enumerate(words) if i not in leads)
        for i, w in enumerate(t.basis_words[n]):
            for a in range(l.dim_g):
                image = _substitute(_expand(w, convention), l.rho[a])
                assert expanded(n, t.bracket[(n, 0)][i][a]) == image, (n, i, a)
    for (p, q), table in t.bracket.items():
        if p and q:
            for i, u in enumerate(t.basis_words[p]):
                for j, v in enumerate(t.basis_words[q]):
                    assert expanded(p + q, table[i][j]) == _expand((u, v), convention), (p, q, i, j)


@pytest.mark.parametrize(
    "l, degree, convention",
    [
        (sl2_adjoint(), 2, KOSZUL),
        (nilpotent_pair(), 3, KOSZUL),
        (nilpotent_pair(), 3, PLAIN),
        (one_generator(), 3, KOSZUL),
        (free_generators(2), 3, PLAIN),
    ],
)
def test_truncation_identities(l, degree, convention):
    t = e_functor(l, degree, convention)
    report = verify_e_truncation(t, l)
    assert report.ok, report.violations[:3]


def test_plain_convention_reports_dd_failure_for_nonabelian_image():
    # with ordinary signs, d.d on a pair u, v picks up 2 [f(u), f(v)]; the
    # adjoint module with f = id makes that nonzero, and the check says so
    l = sl2_adjoint()
    t = e_functor(l, 2, PLAIN)
    report = verify_e_truncation(t, l)
    assert not report.ok
    assert any("d.d" in v for v in report.violations)
    assert all("derivation" not in v for v in report.violations)


def test_nilpotent_differential_values():
    l = nilpotent_pair()
    t = e_functor(l, 3, KOSZUL)
    assert t.differential[1] == l.f
    assert t.basis_words[2] == ((0, 0), (1, 0), (1, 1))
    # d[m2, m2] = [f(m2), m2] - [m2, f(m2)] = -2 (m2 acted by a) = -2 m1,
    # while the other squares die because f(m1) = 0 and the action kills m1
    assert t.differential[2] == ({}, {}, {0: -2})


def test_empty_module_collapses_to_degree_zero():
    zero3 = [[0, 0], [0, 0]]
    l = LMLieAlgebra.make([zero3, zero3], [[], []], [], dim_g=2, dim_m=0)
    assert validate_lm_lie(l).ok
    t = e_functor(l, 3, KOSZUL)
    assert t.dims == (2, 0, 0, 0)
    assert verify_e_truncation(t, l).ok


def test_bad_arguments():
    with pytest.raises(ValueError):
        e_functor(one_generator(), 3, "twisted")
    with pytest.raises(ValueError):
        e_functor(one_generator(), 0, KOSZUL)
    with pytest.raises(ValueError, match="budget"):
        e_functor(free_generators(12), 5, PLAIN)


def _bumped(rows, at, k, delta):
    """rows, a tuple of sparse rows nested as deep as the index tuple `at`,
    with delta added at index k of the row at `at`."""
    if len(at) > 1:
        return rows[:at[0]] + (_bumped(rows[at[0]], at[1:], k, delta),) + rows[at[0] + 1:]
    row = dict(rows[at[0]])
    row[k] = row.get(k, 0) + delta
    return rows[:at[0]] + ({z: x for z, x in row.items() if x},) + rows[at[0] + 1:]


def test_tampered_table_detected():
    l = nilpotent_pair()
    t = e_functor(l, 2, KOSZUL)
    tables = dict(t.bracket)
    # leak the square of m2 into [m1, m1]; its differential is nonzero,
    # so the derivation rule must notice
    tables[(1, 1)] = _bumped(tables[(1, 1)], (0, 0), 2, 1)
    bad = dataclasses.replace(t, bracket=tables)
    report = verify_e_truncation(bad, l)
    assert not report.ok
    assert report.checked == 64
    assert report.violations == (
        "Jacobi fails in degrees (0,1,1) at (0,0,0)",
        "Jacobi fails in degrees (0,1,1) at (0,0,1)",
        "Jacobi fails in degrees (0,1,1) at (0,1,0)",
        "Jacobi fails in degrees (1,0,1) at (0,0,0)",
        "Jacobi fails in degrees (1,0,1) at (0,0,1)",
        "Jacobi fails in degrees (1,0,1) at (1,0,0)",
        "Jacobi fails in degrees (1,1,0) at (0,0,0)",
        "Jacobi fails in degrees (1,1,0) at (0,1,0)",
        "Jacobi fails in degrees (1,1,0) at (1,0,0)",
        "derivation rule fails in degrees (1,1) at (0,0)",
    )


def test_tampered_degree_three_table_breaks_only_jacobi():
    l = nilpotent_pair()
    t = e_functor(l, 3, PLAIN)
    # add the second degree-3 basis element to the bracket of the first
    # degree-1 and the degree-2 basis elements, on both sides so that
    # antisymmetry holds; d is zero on degrees 2 and 3, so the derivation
    # rule cannot see it and only Jacobi can
    tables = dict(t.bracket)
    for key, delta in (((1, 2), 1), ((2, 1), -1)):
        tables[key] = _bumped(tables[key], (0, 0), 1, delta)
    report = verify_e_truncation(dataclasses.replace(t, bracket=tables), l)
    assert t.dims == (1, 2, 1, 2)
    assert report.checked == 92
    assert report.violations == (
        "Jacobi fails in degrees (0,1,2) at (0,0,0)",
        "Jacobi fails in degrees (0,1,2) at (0,1,0)",
        "Jacobi fails in degrees (0,2,1) at (0,0,0)",
        "Jacobi fails in degrees (0,2,1) at (0,0,1)",
        "Jacobi fails in degrees (1,0,2) at (0,0,0)",
        "Jacobi fails in degrees (1,0,2) at (1,0,0)",
        "Jacobi fails in degrees (1,2,0) at (0,0,0)",
        "Jacobi fails in degrees (1,2,0) at (1,0,0)",
        "Jacobi fails in degrees (2,0,1) at (0,0,0)",
        "Jacobi fails in degrees (2,0,1) at (0,0,1)",
        "Jacobi fails in degrees (2,1,0) at (0,0,0)",
        "Jacobi fails in degrees (2,1,0) at (0,1,0)",
    )


def test_tampered_differential_breaks_d_squared():
    l = nilpotent_pair()
    t = e_functor(l, 3, KOSZUL)
    # d of the first degree-3 element picks up the third degree-2 element,
    # whose own differential is -2 m1
    d = _bumped(t.differential, (3, 0), 2, 1)
    report = verify_e_truncation(dataclasses.replace(t, differential=d), l)
    assert report.checked == 148
    assert report.violations == (
        "derivation rule fails in degrees (0,3) at (0,0)",
        "derivation rule fails in degrees (0,3) at (0,1)",
        "derivation rule fails in degrees (1,2) at (0,1)",
        "derivation rule fails in degrees (1,2) at (1,0)",
        "derivation rule fails in degrees (2,1) at (0,1)",
        "derivation rule fails in degrees (2,1) at (1,0)",
        "derivation rule fails in degrees (3,0) at (0,0)",
        "derivation rule fails in degrees (3,0) at (1,0)",
        "d.d nonzero in degree 3 at basis element 0",
    )


def test_jacobi_is_evaluated_once_per_unordered_triple(monkeypatch):
    # dims (3, 3, 6, 8): 891 ordered basis triples of degree sum 1..3, of
    # which 184 have (p, i) <= (q, j) <= (r, k); each evaluation adds three
    # products, next to 147 for antisymmetry, 339 for the derivation rule
    # and 14 for d.d
    l = sl2_adjoint()
    t = e_functor(l, 3, KOSZUL)
    add, calls = liealg.add_products, []
    monkeypatch.setattr(liealg, "add_products", lambda *args: calls.append(1) or add(*args))
    report = verify_e_truncation(t, l)
    assert report.ok and report.checked == 1212
    assert len(calls) == 147 + 3 * 184 + 339 + 14


def _sl2_rescaled() -> LMLieAlgebra:
    """sl2 in the basis h, e/3, f: [h, e'] = 2e', [h, f] = -2f and
    [e', f] = h/3, so the tables carry non-integral Fractions; adjoint
    module with the identity as structure map."""
    third = Fraction(1, 3)
    z = [0, 0, 0]
    c = [
        [z, [0, 2, 0], [0, 0, -2]],
        [[0, -2, 0], z, [third, 0, 0]],
        [[0, 0, 2], [-third, 0, 0], z],
    ]
    rho = [[list(c[i][a]) for i in range(3)] for a in range(3)]
    return LMLieAlgebra.make(c, rho, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("degree, checked", [(2, 469), (3, 1212), (4, 3018)])
def test_fraction_structure_constants_pass_like_sl2(degree, checked):
    l = _sl2_rescaled()
    assert validate_lm_lie(l).ok
    report = verify_e_truncation(e_functor(l, degree, KOSZUL), l)
    assert report.ok, report.violations[:3]
    assert report.checked == checked
    assert verify_e_truncation(e_functor(sl2_adjoint(), degree, KOSZUL), sl2_adjoint()).checked == checked


def test_tampered_table_by_a_fraction_detected():
    # [e', f] in degree 2 picks up half of the first degree-2 basis element
    # on one side only, so antisymmetry and the Jacobi identities through
    # the (1, 1) table see it, next to the thirds of the degree-0 tables
    l = _sl2_rescaled()
    t = e_functor(l, 3, KOSZUL)
    tables = dict(t.bracket)
    tables[(1, 1)] = _bumped(tables[(1, 1)], (1, 2), 0, Fraction(1, 2))
    report = verify_e_truncation(dataclasses.replace(t, bracket=tables), l)
    assert not report.ok
    assert report.checked == 1212
    assert report.violations == (
        "antisymmetry fails in degrees (1, 1) at (1, 2)",
        "antisymmetry fails in degrees (1, 1) at (2, 1)",
        "Jacobi fails in degrees (0,1,1) at (1,0,2)",
        "Jacobi fails in degrees (0,1,1) at (1,1,2)",
        "Jacobi fails in degrees (0,1,1) at (2,1,0)",
        "Jacobi fails in degrees (0,1,1) at (2,1,2)",
        "Jacobi fails in degrees (1,0,1) at (0,1,2)",
        "Jacobi fails in degrees (1,0,1) at (1,1,2)",
        "Jacobi fails in degrees (1,0,1) at (1,2,0)",
        "Jacobi fails in degrees (1,0,1) at (1,2,2)",
        "Jacobi fails in degrees (1,1,0) at (0,1,2)",
        "Jacobi fails in degrees (1,1,0) at (1,0,2)",
        "Jacobi fails in degrees (1,1,0) at (1,2,0)",
        "Jacobi fails in degrees (1,1,0) at (1,2,1)",
        "Jacobi fails in degrees (1,1,0) at (1,2,2)",
        "Jacobi fails in degrees (1,1,0) at (2,1,0)",
        "Jacobi fails in degrees (1,1,1) at (1,1,2)",
        "Jacobi fails in degrees (1,1,1) at (1,2,1)",
        "Jacobi fails in degrees (1,1,1) at (1,2,2)",
        "Jacobi fails in degrees (1,1,1) at (2,1,2)",
    )


def test_so3_plain_failure_pinned():
    # with unsigned derivations, d.d picks up the cross products of the
    # images under f = id, which the non-abelian so3 keeps; only d.d fails
    l = so3_adjoint()
    report = verify_e_truncation(e_functor(l, 4, PLAIN), l)
    assert not report.ok
    assert report.checked == 2322
    assert report.violations == (
        "d.d nonzero in degree 2 at basis element 0",
        "d.d nonzero in degree 2 at basis element 1",
        "d.d nonzero in degree 2 at basis element 2",
        "d.d nonzero in degree 3 at basis element 0",
        "d.d nonzero in degree 3 at basis element 1",
        "d.d nonzero in degree 3 at basis element 2",
        "d.d nonzero in degree 3 at basis element 4",
        "d.d nonzero in degree 3 at basis element 6",
        "d.d nonzero in degree 3 at basis element 7",
        "d.d nonzero in degree 4 at basis element 0",
        "d.d nonzero in degree 4 at basis element 2",
        "d.d nonzero in degree 4 at basis element 3",
        "d.d nonzero in degree 4 at basis element 4",
        "d.d nonzero in degree 4 at basis element 8",
        "d.d nonzero in degree 4 at basis element 9",
        "d.d nonzero in degree 4 at basis element 13",
        "d.d nonzero in degree 4 at basis element 14",
        "d.d nonzero in degree 4 at basis element 15",
        "d.d nonzero in degree 4 at basis element 17",
    )


# ---------------------------------------------------------------------------
# the reports against the checks that sum each identity in one sparse_sum

_TAMPER_ALGEBRAS = {
    "nilpotent_pair": nilpotent_pair,
    "sl2_adjoint": sl2_adjoint,
    "sl2_rescaled": _sl2_rescaled,
    "free_two": lambda: free_generators(2),
    "so3_adjoint": so3_adjoint,
}


@functools.cache
def _tamper_algebra(name: str) -> LMLieAlgebra:
    return _TAMPER_ALGEBRAS[name]()


@functools.cache
def _tamper_truncation(name: str, degree: int, convention: str):
    return e_functor(_tamper_algebra(name), degree, convention)


def _row_paths(rows, depth: int) -> list:
    """Index paths of the sparse rows nested `depth` deep in `rows`."""
    if not depth:
        return [()]
    return [(i, *at) for i, sub in enumerate(rows) for at in _row_paths(sub, depth - 1)]


def _row_at(rows, at):
    for i in at:
        rows = rows[i]
    return rows


def _tampered(data, tables: dict, partner=None) -> dict:
    """tables maps a name to (nested rows, depth, row width).  One to three
    times, add +-1 or +-1/2 at an index of a drawn row, or delete one of its
    keys; returns the name -> nested rows after that.  partner(name, at), when
    given, names the row (name, at, factor) that antisymmetry ties to a row,
    or None; a draw may then add factor times the same change there too."""
    out = {name: rows for name, (rows, _, _) in tables.items()}
    cells = [
        (name, at)
        for name, (rows, depth, width) in tables.items()
        if width
        for at in _row_paths(rows, depth)
    ]
    if not cells:
        return out
    for _ in range(data.draw(st.integers(1, 3))):
        name, at = data.draw(st.sampled_from(cells))
        row = _row_at(out[name], at)
        if row and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(sorted(row)))
            delta = -row[k]
        else:
            k = data.draw(st.integers(0, tables[name][2] - 1))
            delta = data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2)]))
        out[name] = _bumped(out[name], at, k, delta)
        tied = partner and partner(name, at)
        if tied and data.draw(st.booleans()):
            name, at, factor = tied
            out[name] = _bumped(out[name], at, k, factor * delta)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tampered_truncation_reports_equal_the_sums_oracle(data):
    name = data.draw(st.sampled_from(sorted(_TAMPER_ALGEBRAS)))
    degree = data.draw(st.integers(2, 4))
    convention = data.draw(st.sampled_from([KOSZUL, PLAIN]))
    l, t = _tamper_algebra(name), _tamper_truncation(name, degree, convention)
    tables = {key: (rows, 2, t.dims[sum(key)]) for key, rows in t.bracket.items()}
    tables.update({n: (t.differential[n], 1, t.dims[n - 1]) for n in range(1, degree + 1)})
    # (p, q)[i][j] + delta and (q, p)[j][i] - sigma(p, q) delta keep
    # antisymmetry, so only Jacobi and the derivation rule can see the pair
    out = _tampered(data, tables, lambda key, at: (
        (key[::-1], at[::-1], -_sigma(*key, convention)) if isinstance(key, tuple) else None
    ))
    bad = dataclasses.replace(
        t,
        bracket={key: out[key] for key in t.bracket},
        differential=((), *(out[n] for n in range(1, degree + 1))),
    )
    assert verify_e_truncation(bad, l) == verify_e_truncation_sums(bad, l)


@pytest.mark.parametrize("convention", [KOSZUL, PLAIN])
@pytest.mark.parametrize("name", ["sl2_adjoint", "so3_adjoint"])
def test_degree_zero_table_not_antisymmetric_reports_equal_the_sums_oracle(name, convention):
    # every counted check before Jacobi passes, since the truncation is built
    # from the tampered algebra itself, but [e_i, e_j] + [e_j, e_i] != 0 in
    # degree 0, which the check leaves to validate_lm_lie and does not count
    l = _tamper_algebra(name)
    for i, j, k in itertools.product(range(l.dim_g), repeat=3):
        bad = dataclasses.replace(l, c=_bumped(l.c, (i, j), k, 1))
        t = e_functor(bad, 2, convention)
        assert verify_e_truncation(t, bad) == verify_e_truncation_sums(t, bad), (i, j, k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tampered_lm_lie_reports_equal_the_sums_oracle(data):
    l = _tamper_algebra(data.draw(st.sampled_from(sorted(_TAMPER_ALGEBRAS))))
    out = _tampered(data, {"c": (l.c, 2, l.dim_g), "rho": (l.rho, 2, l.dim_m), "f": (l.f, 1, l.dim_g)})
    bad = dataclasses.replace(l, **out)
    assert validate_lm_lie(bad) == validate_lm_lie_sums(bad)
