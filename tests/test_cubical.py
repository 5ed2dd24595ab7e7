"""Cubical chain complexes: boundaries, products, homology."""

import random

import pytest

from oracles import ArrowWord, ProductCube, cube_product, face, normalize_word
from rackgraph import cubical, linalg
from rackgraph.cubical import (
    assert_boundary_squares_to_zero,
    betti_numbers_rational,
    bq_chain_complex,
    eq_chain_complex,
    homology,
    homology_dimensions_over_field,
    reduce_unit_pairs,
)
from rackgraph.linalg import FieldSpec, smith_normal_form
from rackgraph.racks import (
    AugmentedRack,
    conjugacy_class_rack,
    conjugation_rack,
    cyclic_group,
    dihedral_quandle,
    inner_group,
    orbits,
    symmetric_group_3,
    toy_rack_c2,
    trivial_augmented_rack,
)


def small_corpus():
    s3 = symmetric_group_3()
    transposition = next(x for x in range(6) if len(s3.conjugacy_class(x)) == 3)
    return {
        "conj_c2": conjugation_rack(cyclic_group(2)),
        "conj_c3": conjugation_rack(cyclic_group(3)),
        "s3_transpositions": conjugacy_class_rack(s3, [transposition]),
        "c4_u2": conjugacy_class_rack(cyclic_group(4), [2]),
        "toy_c2": toy_rack_c2(),
        "trivial_2": trivial_augmented_rack(2),
        "dihedral_3": inner_group(dihedral_quandle(3))[1],
        "dihedral_4": inner_group(dihedral_quandle(4))[1],
    }


def test_cube_product_moves_letters_past_vertices():
    a = small_corpus()["s3_transpositions"]
    e = a.group.identity
    for x in range(a.x_size):
        for g in range(a.group.order):
            # an arrow followed by a vertex: the letter gets conjugated
            left = cube_product(ProductCube(e, (x,)), ProductCube(g, ()), a)
            assert left == ProductCube(g, (a.action[x][g],))
            # a vertex followed by an arrow: plain concatenation
            right = cube_product(ProductCube(g, ()), ProductCube(e, (x,)), a)
            assert right == ProductCube(g, (x,))


def test_cube_product_is_associative():
    a = small_corpus()["s3_transpositions"]
    rng = random.Random(7)
    for _ in range(40):
        cubes = []
        for _ in range(3):
            g = rng.randrange(a.group.order)
            letters = tuple(rng.randrange(a.x_size) for _ in range(rng.randrange(3)))
            cubes.append(ProductCube(g, letters))
        c1, c2, c3 = cubes
        lhs = cube_product(cube_product(c1, c2, a), c3, a)
        rhs = cube_product(c1, cube_product(c2, c3, a), a)
        assert lhs == rhs


def test_normalize_word_matches_manual_fold():
    a = small_corpus()["dihedral_3"]
    e = a.group.identity
    # v(g) a(e,x) v(h) a(e,y): normal form (g h; x^h y)
    for g in range(a.group.order):
        for h in range(a.group.order):
            for x in range(a.x_size):
                for y in range(a.x_size):
                    w = ArrowWord.make([("v", g), ("a", e, x), ("v", h), ("a", e, y)])
                    got = normalize_word(w, a)
                    want = ProductCube(a.group.mul[g][h], (a.action[x][h], y))
                    assert got == want


def test_arrow_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        ArrowWord.make([])
    with pytest.raises(ValueError):
        ArrowWord.make([("z", 0)])


def test_face_index_errors():
    a = toy_rack_c2()
    c = ProductCube(0, (0, 0))
    with pytest.raises(ValueError):
        face(c, 0, 0, a)
    with pytest.raises(ValueError):
        face(c, 3, 0, a)
    with pytest.raises(ValueError):
        face(c, 1, 2, a)


def test_builders_match_graph_product_faces():
    # the column of (g; x1..xn) is sum_i (-1)^i (source - target), where the
    # faces replace arrow i of v(g) a(e,x1) .. a(e,xn) by its end vertices
    # e and pi(x_i) and take the normal form in the graph product
    for name, a in small_corpus().items():
        e = a.group.identity
        deg = 3 if a.x_size <= 3 else 2
        eq = eq_chain_complex(a, max_degree=deg)
        bq = bq_chain_complex(a, max_degree=deg)
        for n in range(1, deg + 1):
            eq_rows = {lab: i for i, lab in enumerate(eq.labels[n - 1])}
            bq_rows = {lab: i for i, lab in enumerate(bq.labels[n - 1])}
            bq_cols = {lab: j for j, lab in enumerate(bq.labels[n])}
            for j, (g, *letters) in enumerate(eq.labels[n]):
                cube = ProductCube(g, tuple(letters))
                tokens = [("v", g)] + [("a", e, x) for x in letters]
                full: dict[int, int] = {}
                reduced: dict[int, int] = {}
                for i, x in enumerate(letters, start=1):
                    for eps, end, w in ((0, e, (-1) ** i), (1, a.pi[x], -((-1) ** i))):
                        word = ArrowWord.make(tokens[:i] + [("v", end)] + tokens[i + 1:])
                        f = normalize_word(word, a)
                        assert face(cube, i, eps, a) == f, (name, cube, i, eps)
                        k = eq_rows[(f.leading,) + f.letters]
                        full[k] = full.get(k, 0) + w
                        k = bq_rows[f.letters]
                        reduced[k] = reduced.get(k, 0) + w
                # same entries in the same order: the order of a column's
                # entries fixes the pivots that eliminate_unit_pivots takes
                assert list(eq.boundaries[n - 1][j].items()) == [
                    (k, v) for k, v in full.items() if v
                ], name
                assert list(bq.boundaries[n - 1][bq_cols[tuple(letters)]].items()) == [
                    (k, v) for k, v in reduced.items() if v
                ], name


def test_reduced_degree_one_boundary_vanishes():
    # both faces of a single letter hit the unique empty word
    for a in small_corpus().values():
        c = bq_chain_complex(a, max_degree=1)
        assert c.ranks[0] == 1
        assert all(col == {} for col in c.boundaries[0])


def test_reduced_degree_two_boundary_formula():
    # d(x, y) = (x) - (x <| y); the first pair of faces coincides and cancels
    for a in small_corpus().values():
        op = a.derived_rack().op
        c = bq_chain_complex(a, max_degree=2)
        m = a.x_size
        for x in range(m):
            for y in range(m):
                col = c.boundaries[1][x * m + y]
                z = op[x][y]
                if z == x:
                    assert col == {}
                else:
                    assert col == {x: 1, z: -1}


def test_boundary_squares_to_zero():
    for name, a in small_corpus().items():
        deg = 4 if a.x_size <= 3 else 3
        assert_boundary_squares_to_zero(bq_chain_complex(a, max_degree=deg))
        if a.group.order * a.x_size**deg <= 5000:
            assert_boundary_squares_to_zero(eq_chain_complex(a, max_degree=deg))


def test_trivial_rack_homology_is_free_of_rank_k_to_n():
    for k in (1, 2):
        a = trivial_augmented_rack(k)
        c = bq_chain_complex(a, max_degree=4)
        # every face pair cancels, so the complex has zero differentials
        assert all(col == {} for cols in c.boundaries for col in cols)
        h = homology(c)
        assert h.betti == (1, k, k**2, k**3)
        assert all(t == () for t in h.torsion)


def test_degree_zero_and_one_of_reduced_complex():
    # H_0 = Z and H_1 = Z^(number of orbits of the derived operation)
    for name, a in small_corpus().items():
        c = bq_chain_complex(a, max_degree=2)
        h = homology(c)
        r = a.derived_rack()
        norb = len(orbits(inner_group(r)[1]))
        assert h.betti[0] == 1, name
        assert h.betti[1] == norb, name
        assert h.torsion[0] == (), name
        assert h.torsion[1] == (), name


def test_full_complex_h0_counts_unit_cosets():
    # d(g; x) spans (g pi(x)) - (g): components of G under right
    # translation by the image of pi
    cases = {"conj_c3": 1, "c4_u2": 2, "toy_c2": 1, "s3_transpositions": 1}
    racks = small_corpus()
    for name, expected in cases.items():
        c = eq_chain_complex(racks[name], max_degree=2)
        h = homology(c)
        assert h.betti[0] == expected, name
        assert h.torsion[0] == (), name


def test_full_complex_projects_onto_reduced():
    # forgetting the leading vertex carries each full column to the
    # reduced column of the same letters
    for name, a in small_corpus().items():
        deg = 3 if a.x_size <= 3 else 2
        eq = eq_chain_complex(a, max_degree=deg)
        bq = bq_chain_complex(a, max_degree=deg)
        for n in range(1, deg + 1):
            row_index = {lab: i for i, lab in enumerate(bq.labels[n - 1])}
            col_index = {lab: i for i, lab in enumerate(bq.labels[n])}
            for j, lab in enumerate(eq.labels[n]):
                projected: dict[int, int] = {}
                for i, v in eq.boundaries[n - 1][j].items():
                    t = eq.labels[n - 1][i][1:]
                    k = row_index[t]
                    projected[k] = projected.get(k, 0) + v
                projected = {k: v for k, v in projected.items() if v}
                col = bq.boundaries[n - 1][col_index[lab[1:]]]
                assert projected == col


def test_betti_routes_agree():
    for name, a in small_corpus().items():
        deg = 4 if a.x_size <= 3 else 2
        c = bq_chain_complex(a, max_degree=deg)
        assert homology(c).betti == betti_numbers_rational(c), name


def test_unit_pair_reduction_keeps_homology():
    def dense_homology(c):
        snf = [(0, [])] + [smith_normal_form(c.boundary_matrix(n)) for n in range(1, c.max_degree + 1)]
        betti = tuple(c.ranks[n] - snf[n][0] - snf[n + 1][0] for n in range(c.max_degree))
        torsion = tuple(tuple(d for d in snf[n + 1][1] if d > 1) for n in range(c.max_degree))
        return betti, torsion

    for name, a in small_corpus().items():
        for build in (bq_chain_complex, eq_chain_complex):
            c = build(a, max_degree=3)
            r = reduce_unit_pairs(c)
            assert_boundary_squares_to_zero(r)
            assert all(set(r.labels[n]) <= set(c.labels[n]) for n in range(4)), name
            assert r.ranks == tuple(len(cells) for cells in r.labels)
            assert dense_homology(r) == dense_homology(c), (name, build.__name__)
            h = homology(c)
            assert (h.betti, h.torsion) == dense_homology(c), (name, build.__name__)


def test_boundary_matrix_keeps_only_nonzero_rows_and_columns():
    # every boundary of a trivial rack vanishes: both faces of a cube agree
    c = bq_chain_complex(trivial_augmented_rack(3), max_degree=3)
    for n in range(1, 4):
        m = c.boundary_matrix(n)
        assert m == []
        assert smith_normal_form(m) == (0, [])

    def dense(c, n):
        rows = [[0] * c.ranks[n] for _ in range(c.ranks[n - 1])]
        for j, col in enumerate(c.boundaries[n - 1]):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    for name, a in small_corpus().items():
        reduced = reduce_unit_pairs(eq_chain_complex(a, max_degree=3))
        for c in (bq_chain_complex(a, max_degree=3), reduced):
            for n in range(1, 4):
                m = c.boundary_matrix(n)
                assert all(any(row) for row in m), name
                assert all(any(col) for col in zip(*m)), name
                assert smith_normal_form(m) == smith_normal_form(dense(c, n)), (name, n)


def test_rational_route_never_uses_the_integer_route(monkeypatch):
    c = bq_chain_complex(small_corpus()["dihedral_3"], max_degree=4)
    betti = homology(c).betti

    def refuse(*args, **kwargs):
        raise AssertionError("integer elimination called")

    for module in (linalg, cubical):
        monkeypatch.setattr(module, "eliminate_unit_pivots", refuse)
        monkeypatch.setattr(module, "smith_normal_form", refuse)
    with pytest.raises(AssertionError):
        homology(c)
    assert betti_numbers_rational(c) == betti == (1, 1, 1, 1)


def test_universal_coefficients_consistency():
    # dim over F_p = betti + p-torsion of the two adjacent boundary maps
    for name in ("dihedral_3", "dihedral_4", "c4_u2"):
        a = small_corpus()[name]
        c = bq_chain_complex(a, max_degree=4 if a.x_size <= 3 else 3)
        h = homology(c)
        divisors = [[]]
        for n in range(1, c.max_degree + 1):
            divisors.append(smith_normal_form(c.boundary_matrix(n))[1])
        for p in (2, 3):
            dims = homology_dimensions_over_field(c, FieldSpec.prime(p))
            for n in range(c.max_degree):
                tor = sum(1 for d in divisors[n] if d % p == 0)
                tor += sum(1 for d in divisors[n + 1] if d % p == 0)
                assert dims[n] == h.betti[n] + tor, (name, p, n)


def test_size_cap_enforced():
    a = inner_group(dihedral_quandle(6))[1]
    with pytest.raises(ValueError):
        bq_chain_complex(a, max_degree=9)
    with pytest.raises(ValueError):
        eq_chain_complex(a, max_degree=7)
