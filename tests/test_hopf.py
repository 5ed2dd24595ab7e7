"""Arrow bialgebra, filtration, coinvariants, graded checks."""

import dataclasses
import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import graded_primitive_subspace, pi_star, relabel_group, verify_hopf_sums
from rackgraph.graphs import graph_to_rack, rack_to_graph, unit_component
from rackgraph.hopf import (
    augmentation_filtration,
    build_lm_hopf,
    coinvariant_module,
    group_ideal_levels,
    level_at,
    relative_ideal_levels,
    verify_connected_lemma,
    verify_graded_structure,
    verify_hopf,
)
from rackgraph import cli
from rackgraph.jsonio import canonical_json, dump_augmented, load_path
from rackgraph.linalg import FieldSpec, FilteredSpace, Subspace, sparse_sum
from rackgraph.racks import (
    conjugacy_class_rack,
    conjugation_rack,
    cyclic_group,
    dihedral_group_4,
    dihedral_quandle,
    inner_group,
    quaternion_group_8,
    symmetric_group_3,
    toy_rack_c2,
    trivial_augmented_rack,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
ROOT = Path(__file__).resolve().parent.parent


def sample_racks():
    s3 = symmetric_group_3()
    transposition = next(x for x in range(6) if len(s3.conjugacy_class(x)) == 3)
    return {
        "toy_c2": toy_rack_c2(),
        "conj_c2": conjugation_rack(cyclic_group(2)),
        "conj_c3": conjugation_rack(cyclic_group(3)),
        "s3_transpositions": conjugacy_class_rack(s3, [transposition]),
        "c4_u2": conjugacy_class_rack(cyclic_group(4), [2]),
        "trivial_2": trivial_augmented_rack(2),
        "dihedral_3": inner_group(dihedral_quandle(3))[1],
    }


def hopf_of(rack, field):
    return build_lm_hopf(rack_to_graph(rack), field)


def ends_at_first_repeat(levels, tables):
    """No two consecutive levels are equal, and one more step of the last
    level, over every permutation table, gives it back."""
    last = levels[-1]
    return (
        all(u != v for u, v in zip(levels, levels[1:]))
        and all_elements_chain(last.field, last, tables, 2)[1] == last
    )


def test_structure_maps_on_the_two_element_example():
    # X = {x}, pi(x) = u over the order-two group; arrows indexed g|X|+x
    b = hopf_of(toy_rack_c2(), Q)
    assert (b.h_dim, b.a_dim) == (2, 2)
    # phi(1,x) = u - 1
    assert b.phi[0] == {0: Fraction(-1), 1: Fraction(1)}
    # coproduct of the arrow (1,x): (1,x)(x)u + 1(x)(1,x)
    off = b.a_dim * b.h_dim
    assert b.delta1[0] == {0 * 2 + 1: Fraction(1), off + 0 * 2 + 0: Fraction(1)}
    # antipode of (1,x) is -(1,x) conjugated: s=1, t=u
    assert list(b.s1[0].values()) == [Fraction(-1)]


def test_hopf_identities_hold_for_samples_over_three_fields():
    for name, rack in sample_racks().items():
        for field in (Q, F2, F3):
            report = verify_hopf(hopf_of(rack, field))
            assert report.ok, (name, field.label(), report.violations[:3])
            assert report.checked > 0


# the exact violations after adding 1 at row 0, column 0 of one structure
# map; the same over Q and F3
CORRUPTED_MAP_VIOLATIONS = {
    ('toy_c2', 'phi'): [
        'phi does not intertwine coproducts at arrow 0',
        'phi/antipode square fails at arrow 0',
        'counit of phi nonzero at arrow 0',
        'phi/antipode square fails at arrow 1',
    ],
    ('toy_c2', 's0'): [
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'arrow antipode cancellation (S first) fails at arrow 0',
        'phi/antipode square fails at arrow 0',
        'arrow antipode cancellation (S second) fails at arrow 1',
        'phi/antipode square fails at arrow 1',
    ],
    ('toy_c2', 's1'): [
        'arrow antipode cancellation (S first) fails at arrow 0',
        'arrow antipode cancellation (S second) fails at arrow 0',
        'phi/antipode square fails at arrow 0',
    ],
    ('toy_c2', 'delta0'): [
        'left counit fails at vertex 0',
        'right counit fails at vertex 0',
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'phi does not intertwine coproducts at arrow 0',
        'phi does not intertwine coproducts at arrow 1',
        'right module coproduct fails at arrow 0, vertex 0',
        'left module coproduct fails at arrow 0, vertex 0',
        'right module coproduct fails at arrow 1, vertex 0',
        'left module coproduct fails at arrow 1, vertex 0',
    ],
    ('toy_c2', 'delta1'): [
        'arrow counit (first block) fails at arrow 0',
        'phi does not intertwine coproducts at arrow 0',
        'arrow antipode cancellation (S first) fails at arrow 0',
        'arrow antipode cancellation (S second) fails at arrow 0',
        'right module coproduct fails at arrow 0, vertex 1',
        'left module coproduct fails at arrow 0, vertex 1',
        'right module coproduct fails at arrow 1, vertex 1',
        'left module coproduct fails at arrow 1, vertex 1',
    ],
    ('toy_c2', 'counit'): [
        'left counit fails at vertex 0',
        'right counit fails at vertex 0',
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'arrow counit (second block) fails at arrow 0',
        'counit of phi nonzero at arrow 0',
        'arrow counit (first block) fails at arrow 1',
        'counit of phi nonzero at arrow 1',
    ],
    ('s3_transpositions', 'phi'): [
        'phi does not intertwine coproducts at arrow 0',
        'phi/antipode square fails at arrow 0',
        'counit of phi nonzero at arrow 0',
        'phi/antipode square fails at arrow 3',
    ],
    ('s3_transpositions', 's0'): [
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'arrow antipode cancellation (S first) fails at arrow 0',
        'phi/antipode square fails at arrow 0',
        'arrow antipode cancellation (S first) fails at arrow 1',
        'phi/antipode square fails at arrow 1',
        'arrow antipode cancellation (S first) fails at arrow 2',
        'phi/antipode square fails at arrow 2',
        'arrow antipode cancellation (S second) fails at arrow 3',
        'phi/antipode square fails at arrow 3',
        'arrow antipode cancellation (S second) fails at arrow 7',
        'phi/antipode square fails at arrow 7',
        'arrow antipode cancellation (S second) fails at arrow 17',
        'phi/antipode square fails at arrow 17',
    ],
    ('s3_transpositions', 's1'): [
        'arrow antipode cancellation (S first) fails at arrow 0',
        'arrow antipode cancellation (S second) fails at arrow 0',
        'phi/antipode square fails at arrow 0',
    ],
    ('s3_transpositions', 'delta0'): [
        'left counit fails at vertex 0',
        'right counit fails at vertex 0',
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'phi does not intertwine coproducts at arrow 0',
        'phi does not intertwine coproducts at arrow 1',
        'phi does not intertwine coproducts at arrow 2',
        'phi does not intertwine coproducts at arrow 3',
        'phi does not intertwine coproducts at arrow 7',
        'phi does not intertwine coproducts at arrow 17',
        'right module coproduct fails at arrow 0, vertex 0',
        'left module coproduct fails at arrow 0, vertex 0',
        'right module coproduct fails at arrow 1, vertex 0',
        'left module coproduct fails at arrow 1, vertex 0',
        'right module coproduct fails at arrow 2, vertex 0',
        'left module coproduct fails at arrow 2, vertex 0',
        'right module coproduct fails at arrow 3, vertex 0',
        'left module coproduct fails at arrow 3, vertex 0',
        'right module coproduct fails at arrow 4, vertex 0',
        'left module coproduct fails at arrow 4, vertex 0',
    ],
    ('s3_transpositions', 'delta1'): [
        'arrow counit (first block) fails at arrow 0',
        'phi does not intertwine coproducts at arrow 0',
        'arrow antipode cancellation (S first) fails at arrow 0',
        'arrow antipode cancellation (S second) fails at arrow 0',
        'right module coproduct fails at arrow 0, vertex 1',
        'left module coproduct fails at arrow 0, vertex 1',
        'right module coproduct fails at arrow 0, vertex 2',
        'left module coproduct fails at arrow 0, vertex 2',
        'right module coproduct fails at arrow 0, vertex 3',
        'left module coproduct fails at arrow 0, vertex 3',
        'right module coproduct fails at arrow 0, vertex 4',
        'left module coproduct fails at arrow 0, vertex 4',
        'right module coproduct fails at arrow 0, vertex 5',
        'left module coproduct fails at arrow 0, vertex 5',
        'right module coproduct fails at arrow 3, vertex 1',
        'left module coproduct fails at arrow 3, vertex 1',
        'left module coproduct fails at arrow 6, vertex 2',
        'right module coproduct fails at arrow 8, vertex 2',
        'left module coproduct fails at arrow 9, vertex 4',
        'right module coproduct fails at arrow 11, vertex 4',
    ],
    ('s3_transpositions', 'counit'): [
        'left counit fails at vertex 0',
        'right counit fails at vertex 0',
        'vertex antipode (left) fails at 0',
        'vertex antipode (right) fails at 0',
        'arrow counit (second block) fails at arrow 0',
        'counit of phi nonzero at arrow 0',
        'arrow counit (second block) fails at arrow 1',
        'counit of phi nonzero at arrow 1',
        'arrow counit (second block) fails at arrow 2',
        'counit of phi nonzero at arrow 2',
        'arrow counit (first block) fails at arrow 3',
        'counit of phi nonzero at arrow 3',
        'arrow counit (first block) fails at arrow 7',
        'counit of phi nonzero at arrow 7',
        'arrow counit (first block) fails at arrow 17',
        'counit of phi nonzero at arrow 17',
    ],

}


@pytest.mark.parametrize("field", [Q, F3], ids=["q", "f3"])
@pytest.mark.parametrize("name", ["phi", "s0", "s1", "delta0", "delta1", "counit"])
@pytest.mark.parametrize("rack,checked", [("toy_c2", 32), ("s3_transpositions", 372)])
def test_corrupted_structure_map_is_detected(rack, checked, name, field):
    b = hopf_of(sample_racks()[rack], field)
    cols = list(getattr(b, name))
    cols[0] = sparse_sum(field, [*cols[0].items(), (0, 1)])
    bad = dataclasses.replace(b, **{name: tuple(cols)})
    report = verify_hopf(bad)
    assert report.checked == checked
    assert list(report.violations) == CORRUPTED_MAP_VIOLATIONS[(rack, name)]


def test_module_map_sides_are_compared_mod_p():
    # over F3, with delta0(g) = 2 g(x)g and both entries of delta1(a) 2, the
    # coproduct of a acted on by g(x)g has entries 4 = 1, as delta1(a.g) has
    b = hopf_of(toy_rack_c2(), F3)
    g, a = 1, 0
    assert b.graph.right_act[g][a] != a
    d0, d1 = list(b.delta0), list(b.delta1)
    d0[g] = {k: 2 for k in d0[g]}
    d1[a] = {k: 2 for k in d1[a]}
    bad = dataclasses.replace(b, delta0=tuple(d0), delta1=tuple(d1))
    report = verify_hopf(bad)
    assert report == verify_hopf_sums(bad)
    assert not report.ok
    assert f"right module coproduct fails at arrow {a}, vertex {g}" not in report.violations


TAMPER_FIELDS = {"q": Q, "f2": F2, "f3": F3}


@functools.cache
def tamper_bialgebra(name: str, field_label: str):
    """The bialgebra of toy_c2, s3_transpositions or the disconnected corpus
    file class_q8_i over the named field."""
    if name == "class_q8_i":
        _, rack = load_path(str(ROOT / "corpus" / "class_q8_i.json"))
    else:
        rack = sample_racks()[name]
    return hopf_of(rack, TAMPER_FIELDS[field_label])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tampered_structure_maps_report_equal_the_sums_oracle(data):
    # one to three times, add +-1 at a row of a drawn column of one of the six
    # structure maps, or delete one of its keys; the columns stay reduced
    b = tamper_bialgebra(
        data.draw(st.sampled_from(["toy_c2", "s3_transpositions", "class_q8_i"])),
        data.draw(st.sampled_from(sorted(TAMPER_FIELDS))),
    )
    h, na = b.h_dim, b.a_dim
    rows = {"phi": h, "s0": h, "s1": na, "delta0": h * h, "delta1": 2 * na * h, "counit": 1}
    maps = {name: list(getattr(b, name)) for name in rows}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(rows)))
        j = data.draw(st.integers(0, len(maps[name]) - 1))
        col = maps[name][j]
        if col and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(sorted(col)))
            maps[name][j] = {i: x for i, x in col.items() if i != k}
        else:
            k = data.draw(st.integers(0, rows[name] - 1))
            term = (k, data.draw(st.sampled_from([1, -1])))
            maps[name][j] = sparse_sum(b.field, [*col.items(), term])
    bad = dataclasses.replace(b, **{name: tuple(cols) for name, cols in maps.items()})
    assert verify_hopf(bad) == verify_hopf_sums(bad)


def tamper_outside_the_generators(b, how: str):
    """b with one structure map changed at the first vertex g outside the
    generating set S and the identity, which the module-map identities at e
    and S do not evaluate: the coproduct of the arrow 0.g gets 1 more at row
    0, the coproduct of g gets 1 more at row 0, or, for every vertex at
    once, the coproduct becomes the multiplicative but wrong g -> g (x) e."""
    grp = b.group
    skipped = set(grp.generators(range(grp.order))) | {grp.identity}
    g = next(v for v in range(grp.order) if v not in skipped)
    if how == "delta1_of_a_g":
        cols = list(b.delta1)
        a_g = b.graph.right_act[g][0]
        cols[a_g] = sparse_sum(b.field, [*cols[a_g].items(), (0, 1)])
        return dataclasses.replace(b, delta1=tuple(cols))
    if how == "delta0_of_g":
        cols = list(b.delta0)
        cols[g] = sparse_sum(b.field, [*cols[g].items(), (0, 1)])
        return dataclasses.replace(b, delta0=tuple(cols))
    h, e = b.h_dim, grp.identity
    return dataclasses.replace(b, delta0=tuple({v * h + e: 1} for v in range(h)))


@pytest.mark.parametrize("how", ["delta1_of_a_g", "delta0_of_g", "delta0_g_tensor_e"])
@pytest.mark.parametrize("field_label", sorted(TAMPER_FIELDS))
@pytest.mark.parametrize("name", ["s3_transpositions", "class_q8_i"])
def test_tampered_outside_the_generators_reports_equal_the_sums_oracle(name, field_label, how):
    bad = tamper_outside_the_generators(tamper_bialgebra(name, field_label), how)
    report = verify_hopf(bad)
    assert not report.ok
    assert report == verify_hopf_sums(bad)


@pytest.mark.parametrize("field_label", ["f2", "f3", "q"])
def test_cyclic_conjugation_rack_follows_the_closed_form(tmp_path, field_label):
    # |G| = 24 = p^k m with p not dividing m: F_p[C_24] = F_p[x]/(x^m - 1)^(p^k)
    # and x - 1 divides x^m - 1 once, so I^n has codimension min(n, p^k);
    # over Q, I^2 = I.  G is abelian, so it acts trivially on X = G and A is
    # |X| copies of H, level by level.  One generator steps every chain, and
    # over F2 the chain of H runs through 9 distinct levels.
    rack = conjugation_rack(cyclic_group(24))
    assert len(rack.group.generators(range(24))) == 1
    path = tmp_path / "conj_c24.json"
    path.write_text(canonical_json(dump_augmented(rack)), encoding="utf-8")
    code, text, _ = cli.render(["hopf", str(path), "--field", field_label])
    report = json.loads(text)
    assert code == 0 and report["ok"]
    field = FieldSpec.parse(field_label)
    top = 1  # p^k, and 1 over Q
    while field.p and 24 % (top * field.p) == 0:
        top *= field.p

    def h_dim(n):
        return 24 - min(n, top)

    assert len(report["filtration_h"]) > top + 1
    assert report["filtration_h"] == [h_dim(n) for n in range(len(report["filtration_h"]))]
    assert report["filtration_a"] == [24 * h_dim(n) for n in range(len(report["filtration_a"]))]
    b = hopf_of(rack, field)
    assert verify_hopf(b) == verify_hopf_sums(b)


def test_filtration_dims_two_element_example_mod_two():
    # (u+1)^2 = 0, so both chains die: dims 2,1,0 on A and on H
    f = augmentation_filtration(hopf_of(toy_rack_c2(), F2))
    assert [s.dim for s in f.levels_a] == [2, 1, 0]
    assert [s.dim for s in f.levels_g] == [2, 1, 0]
    # without a depth the report runs one level past the repeat of A
    assert f.depth == 3


def test_filtration_dims_two_element_example_rational():
    # over the rationals the ideal square equals the ideal
    b = hopf_of(toy_rack_c2(), Q)
    f = augmentation_filtration(b)
    assert [s.dim for s in f.levels_a] == [2, 1]
    assert ends_at_first_repeat(f.levels_a, b.graph.left_act + b.graph.right_act)
    assert [s.dim for s in f.levels_g] == [2, 1]
    assert ends_at_first_repeat(f.levels_g, b.group.mul)
    assert f.depth == 2


def test_rational_ideal_square_equals_ideal_for_finite_groups():
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group_3(), dihedral_group_4()):
        levels = group_ideal_levels(group, Q)
        assert len(levels) == 2
        assert ends_at_first_repeat(levels, group.mul)


@pytest.mark.parametrize(
    "group,ranks",
    [(dihedral_group_4(), [2, 1]), (quaternion_group_8(), [2, 1]), (cyclic_group(4), [1, 1])],
    ids=["d4", "q8", "c4"],
)
def test_augmentation_ideal_powers_follow_jennings(group, ranks):
    # Jennings (1941): over F2, sum_n dim(I^n / I^(n+1)) t^n is the product
    # of (1 + t^i)^(r_i) over the ranks r_i of the Jennings quotients
    series = [1]
    for i, r in enumerate(ranks, start=1):
        for _ in range(r):
            shifted = [0] * i + series
            series = [a + b for a, b in zip(series + [0] * i, shifted)]
    powers = [sum(series[n:]) for n in range(len(series) + 1)]
    levels = group_ideal_levels(group, F2)
    assert [s.dim for s in levels] == powers
    assert ends_at_first_repeat(levels, group.mul)
    # over F3 and Q, I/I^2 = G_ab (x) k = 0 for a 2-group, so I^2 = I
    for field in (F3, Q):
        levels = group_ideal_levels(group, field)
        assert [s.dim for s in levels] == [group.order, group.order - 1]
        assert ends_at_first_repeat(levels, group.mul)


def test_explicit_depth_and_too_shallow_depth():
    # A has the three distinct levels 2, 1, 0: depth 3 is the least that
    # reaches its repeat; a depth sets the reported length, not the chains
    b = hopf_of(toy_rack_c2(), F2)
    unbounded = augmentation_filtration(b)
    f = augmentation_filtration(b, depth=4)
    assert f.depth == 4
    assert f.levels_a == unbounded.levels_a and len(f.levels_a) == 3
    assert f.levels_g == unbounded.levels_g
    assert augmentation_filtration(b, depth=3).depth == 3
    with pytest.raises(RuntimeError):
        augmentation_filtration(b, depth=2)


def test_connected_lemma_for_connected_samples():
    for name in ("toy_c2", "s3_transpositions", "dihedral_3", "conj_c3"):
        rack = sample_racks()[name]
        for field in (Q, F2, F3):
            b = hopf_of(rack, field)
            f = augmentation_filtration(b)
            report = verify_connected_lemma(b, f)
            assert report.ok, (name, field.label(), report.violations[:3])


def test_connected_lemma_disconnected_sample():
    # X = {u^2} inside the cyclic group of order four: the unit component is
    # {1, u^2} and the image of phi at level 0 is the coset-collapse kernel
    rack = sample_racks()["c4_u2"]
    for field in (Q, F2, F3):
        b = hopf_of(rack, field)
        f = augmentation_filtration(b)
        report = verify_connected_lemma(b, f)
        assert report.ok, (field.label(), report.violations[:3])
        rel = relative_ideal_levels(b, (0, 2))
        assert rel[1].dim == 2


def test_coinvariant_levels_s3_transpositions_mod_two():
    rack = sample_racks()["s3_transpositions"]
    c = coinvariant_module(rack, F2)
    # span{x0+x1, x1+x2} in canonical echelon form, stable from level one
    assert c.levels_x[1].basis == ({0: 1, 2: 1}, {1: 1, 2: 1})
    assert len(c.levels_x) == 2
    labels = [[rack.action[x][g] for x in range(rack.x_size)] for g in range(rack.group.order)]
    assert ends_at_first_repeat(c.levels_x, labels)
    assert c.p_dims == (1, 0)


def test_coinvariant_levels_trivial_actions():
    for rack, field, dims in (
        (trivial_augmented_rack(3), Q, (3, 0)),
        (sample_racks()["conj_c2"], F3, (2, 0)),
    ):
        c = coinvariant_module(rack, field)
        assert c.p_dims == dims


def induced_pi(rack, field):
    c = coinvariant_module(rack, field)
    return c, pi_star(rack, field, c.levels_x, group_ideal_levels(rack.group, field))


def test_pi_star_two_element_example_mod_two():
    c, induced = induced_pi(toy_rack_c2(), F2)
    assert c.p_dims[0] == 1
    assert induced[0] == ({0: 1},)
    # I/I^2 is G_ab (x) F2 and degree 0 sends an orbit to the class of pi(x):
    # a transposition is odd in S3, u^2 is twice the generator of C4
    for name, image in (("s3_transpositions", ({0: 1},)), ("c4_u2", ({},))):
        assert induced_pi(sample_racks()[name], F2)[1][0] == image


def test_pi_star_columns_are_sparse_rows():
    # one sparse column per source basis element, with no zero value and
    # with integral values as ints
    columns = 0
    for rack in sample_racks().values():
        for field in (Q, F2, F3, F5):
            c, induced = induced_pi(rack, field)
            for n, mat in enumerate(induced):
                assert len(mat) == c.p_dims[n]
                for column in mat:
                    columns += 1
                    assert isinstance(column, dict), column
                    assert all(
                        x and not (isinstance(x, Fraction) and x.denominator == 1)
                        for x in column.values()
                    ), column
    assert columns


def test_graded_dimension_identity_and_raising():
    for name in ("toy_c2", "s3_transpositions", "c4_u2", "trivial_2", "conj_c2"):
        rack = sample_racks()[name]
        b = hopf_of(rack, F2)
        f = augmentation_filtration(b)
        c = coinvariant_module(rack, F2)
        report = verify_graded_structure(b, f, c)
        assert report.ok, (name, report.violations[:3])


def test_graded_dims_two_element_example():
    f = augmentation_filtration(hopf_of(toy_rack_c2(), F2))
    dims = [level_at(f.levels_a, n).dim for n in range(f.depth + 1)]
    gr = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    assert gr == [1, 1, 0]


def test_module_levels_split_as_tensor_sums():
    # under (g, x) -> g (x) x the n-th level of A is the sum of
    # (ideal power p) (x) (label level q) over p + q = n, which is spanned by
    # the products of adapted rows whose degrees sum to at least n
    for name in ("toy_c2", "s3_transpositions", "c4_u2"):
        rack = sample_racks()[name]
        b = hopf_of(rack, F2)
        f = augmentation_filtration(b)
        c = coinvariant_module(rack, F2)
        fg, fx = FilteredSpace(f.levels_g), FilteredSpace(c.levels_x)
        for n in range(f.depth + 1):
            products = [
                {i * fx.dim + j: u * v % 2 for i, u in gr.items() for j, v in xr.items()}
                for gr, dg in zip(fg.rows, fg.degrees)
                for xr, dx in zip(fx.rows, fx.degrees)
                if dg + dx >= n
            ]
            expected = Subspace.from_vectors(F2, b.a_dim, products)
            assert level_at(f.levels_a, n) == expected, (name, n)


@pytest.mark.parametrize(
    "name,field,depth,checked",
    [("toy_c2", F2, 2, 15), ("s3_transpositions", F3, 3, 11)],
)
def test_corrupted_phi_fails_the_graded_check(name, field, depth, checked):
    rack = sample_racks()[name]
    b = hopf_of(rack, field)
    f = augmentation_filtration(b)
    c = coinvariant_module(rack, field)
    assert verify_graded_structure(b, f, c).ok
    cols = list(b.phi)
    # arrow 0 now maps outside the augmentation ideal
    cols[0] = {g: x for g, x in cols[0].items() if g != 0}
    bad = dataclasses.replace(b, phi=tuple(cols))
    report = verify_graded_structure(bad, f, c)
    assert not report.ok
    assert report.checked == checked
    coproduct = "reduced arrow coproduct does not raise the filtration at level"
    assert list(report.violations) == (
        [f"{coproduct} {n}" for n in range(depth)]
        + [f"phi does not raise the degree at level {n}" for n in range(depth)]
    )


@pytest.mark.parametrize(
    "name,field,depth,failing",
    [("toy_c2", F2, 5, 2), ("s3_transpositions", F3, 4, 5), ("c4_u2", Q, 4, 5)],
)
def test_corrupted_phi_lemma_verdicts_on_the_stable_levels(name, field, depth, failing):
    # depth is 3 past the last index of every chain the lemma reads (c4_u2
    # is disconnected, so it reads the relative ideal levels too); the
    # lemma counts and reports each index up to depth
    rack = sample_racks()[name]
    b = hopf_of(rack, field)
    f = augmentation_filtration(b, depth)
    chains = [f.levels_a, f.levels_g, relative_ideal_levels(b, unit_component(b.graph)[0])]
    assert depth == max(len(chain) for chain in chains) - 1 + 3
    cols = list(b.phi)
    # arrow 0 now maps outside the augmentation ideal
    cols[0] = {g: x for g, x in cols[0].items() if g != 0}
    report = verify_connected_lemma(dataclasses.replace(b, phi=tuple(cols)), f)
    assert report.checked == 2 * (depth + 1)
    assert list(report.violations) == [
        message
        for n in range(failing)
        for message in (
            f"phi image escapes level {n + 1} of H at level {n}",
            f"phi image of level {n} differs from the expected level {n + 1}",
        )
    ]


def test_graded_primitives_follow_the_jennings_series():
    # Quillen: gr F_p[G] is the restricted enveloping algebra of the Lie
    # algebra of the Jennings series, whose primitives are that Lie algebra.
    # For D4 and Q8 the Jennings quotients have ranks 2 and 1
    for group in (dihedral_group_4(), quaternion_group_8()):
        x = next(g for g in range(8) if group.mul[g][g] != group.identity)
        b = hopf_of(conjugacy_class_rack(group, [x]), F2)
        f = augmentation_filtration(b)
        dims = [graded_primitive_subspace(b, f, n).dim for n in (1, 2, 3, 4)]
        assert dims == [2, 1, 0, 0]


def test_pi_star_lands_in_graded_primitives():
    # the D4 and Q8 classes of an element of order 4 give a primitive space
    # of dimension 1 inside a graded piece of dimension 2, so membership
    # there reads the column instead of accepting the whole space
    racks = [(name, sample_racks()[name]) for name in ("toy_c2", "s3_transpositions")]
    for group in (dihedral_group_4(), quaternion_group_8()):
        x = next(g for g in range(8) if group.mul[g][g] != group.identity)
        racks.append((f"order_4_class_{group.order}", conjugacy_class_rack(group, [x])))
    proper = 0
    for name, rack in racks:
        b = hopf_of(rack, F2)
        f = augmentation_filtration(b)
        for n, columns in enumerate(induced_pi(rack, F2)[1]):
            if not columns:
                continue
            prim = graded_primitive_subspace(b, f, n + 1)
            for column in columns:
                assert prim.contains(column), (name, n)
                proper += bool(column) and prim.dim < prim.ambient_dim
    assert proper


# ---------------------------------------------------------------------------
# stepping by a generating set against stepping by every element


def all_elements_chain(field, first, tables, length):
    """`length` levels from `first`, each the span of sigma(v) - v over
    every table sigma (one per non-identity group element) and every basis
    row v of the level before."""
    levels = [first]
    while len(levels) < length:
        rows = [
            sparse_sum(field, [term for i, c in row.items() for term in ((t[i], c), (i, -c))])
            for t in tables
            for row in levels[-1].basis
        ]
        levels.append(Subspace.from_vectors(field, first.ambient_dim, rows))
    return levels


def repeat_last(levels):
    """A chain with its last level once more: the all-element chain one
    step longer, when the chain ends at its first repeat."""
    return list(levels) + [levels[-1]]


def oracle_cases():
    """(name, augmented rack, group-like graph): the conjugation racks of
    the cyclic groups of order 1 to 8, S3, D4, Q8 and Q8 relabelled, and
    every rack-like corpus file.  The relabelled Q8 has identity 5, and
    visited in index order, the elements that the ones before do not
    generate would make a generating set of 3 where 2 suffice."""
    groups = {f"c{n}": cyclic_group(n) for n in range(1, 9)}
    groups.update(s3=symmetric_group_3(), d4=dihedral_group_4(), q8=quaternion_group_8())
    groups["q8_relabelled"] = relabel_group(quaternion_group_8(), [5, 0, 6, 4, 1, 7, 2, 3])
    cases = [(name, conjugation_rack(g)) for name, g in groups.items()]
    graphs = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        kind, obj = load_path(str(path))
        if kind == "rack":
            cases.append((path.stem, inner_group(obj)[1]))
        elif kind == "augmented_rack":
            cases.append((path.stem, obj))
        elif kind == "graph":
            graphs.append((path.stem, graph_to_rack(obj), obj))
    return [(name, rack, rack_to_graph(rack)) for name, rack in cases] + graphs


def test_oracle_cases_cover_the_disconnected_corpus_files():
    disconnected = {name for name, _, q in oracle_cases() if not unit_component(q)[1]}
    assert {"class_c4_u2", "class_d4_r90", "class_q8_i"} <= disconnected


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["q", "f2", "f3", "f5"])
def test_generator_steps_equal_all_element_steps(field):
    for name, rack, q in oracle_cases():
        grp = rack.group
        n = grp.order
        others = [g for g in range(n) if g != grp.identity]
        left = [grp.mul[g] for g in others]
        right = [[grp.mul[i][g] for i in range(n)] for g in others]
        full_h = Subspace.full(field, n)
        b = build_lm_hopf(q, field)
        levels_g = group_ideal_levels(grp, field)
        assert repeat_last(levels_g) == all_elements_chain(
            field, full_h, left, len(levels_g) + 1
        ), name

        f = augmentation_filtration(b)
        assert f.levels_g == tuple(levels_g), name
        arrows = [t for g in others for t in (q.left_act[g], q.right_act[g])]
        assert repeat_last(f.levels_a) == all_elements_chain(
            field, Subspace.full(field, b.a_dim), arrows, len(f.levels_a) + 1
        ), name

        c = coinvariant_module(rack, field)
        labels = [[rack.action[x][g] for x in range(rack.x_size)] for g in others]
        assert repeat_last(c.levels_x) == all_elements_chain(
            field, Subspace.full(field, rack.x_size), labels, len(c.levels_x) + 1
        ), name

        component = unit_component(q)[0]
        in_component = [right[others.index(t)] for t in component if t != grp.identity]
        rel = relative_ideal_levels(b, component)
        kernel = all_elements_chain(field, full_h, in_component, 2)[1]
        assert repeat_last(rel) == [full_h] + all_elements_chain(
            field, kernel, left + right, len(rel)
        ), name
