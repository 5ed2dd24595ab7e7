"""Group-like graphs and the rack correspondence."""

import random

from oracles import relabel_arrows, roundtrip_graph_iso, verify_graph_iso
from rackgraph.graphs import (
    GroupLikeGraph,
    graph_to_rack,
    rack_to_graph,
    unit_component,
    validate_group_like,
)
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


def corpus_racks():
    s3 = symmetric_group_3()
    transposition = next(x for x in range(6) if len(s3.conjugacy_class(x)) == 3)
    out = {
        "conj_c2": conjugation_rack(cyclic_group(2)),
        "conj_s3": conjugation_rack(s3),
        "conj_d4": conjugation_rack(dihedral_group_4()),
        "conj_q8": conjugation_rack(quaternion_group_8()),
        "s3_transpositions": conjugacy_class_rack(s3, [transposition]),
        "c4_u2": conjugacy_class_rack(cyclic_group(4), [2]),
        "toy_c2": toy_rack_c2(),
        "trivial_2": trivial_augmented_rack(2),
        "dihedral_3": inner_group(dihedral_quandle(3))[1],
    }
    return out


def test_rack_to_graph_validates():
    for name, a in corpus_racks().items():
        q = rack_to_graph(a)
        rep = validate_group_like(q)
        assert rep.ok, (name, rep.violations)


def test_roundtrip_rack_exact():
    for name, a in corpus_racks().items():
        back = graph_to_rack(rack_to_graph(a))
        assert back == a, name


def test_roundtrip_graph_iso():
    for name, a in corpus_racks().items():
        q = rack_to_graph(a)
        std, iso = roundtrip_graph_iso(q)
        assert verify_graph_iso(q, std, iso), name


def test_roundtrip_on_relabeled_graphs():
    rng = random.Random(11)
    for name, a in corpus_racks().items():
        q = rack_to_graph(a)
        perm = list(range(len(q.arrows)))
        rng.shuffle(perm)
        q2 = relabel_arrows(q, perm)
        assert validate_group_like(q2).ok
        std, iso = roundtrip_graph_iso(q2)
        assert verify_graph_iso(q2, std, iso), name
        # the rack recovered from the relabeled graph passes validation
        back = graph_to_rack(q2)
        assert back.x_size == a.x_size


def test_unit_component():
    q = rack_to_graph(conjugation_rack(symmetric_group_3()))
    comp, connected = unit_component(q)
    assert connected and len(comp) == 6

    disc = rack_to_graph(conjugacy_class_rack(cyclic_group(4), [2]))
    comp, connected = unit_component(disc)
    assert not connected
    assert comp == (0, 2)

    toy = rack_to_graph(toy_rack_c2())
    comp, connected = unit_component(toy)
    assert connected and comp == (0, 1)


def test_corrupted_action_detected():
    q = rack_to_graph(toy_rack_c2())
    left = [list(r) for r in q.left_act]
    left[1][0], left[1][1] = left[1][1], left[1][0]
    bad = GroupLikeGraph(q.vertex_group, q.arrows, tuple(map(tuple, left)), q.right_act)
    rep = validate_group_like(bad)
    assert rep.checked == 64
    assert rep.violations == (
        "s(v.a) != v.s(a) at (1,0)",
        "t(v.a) != v.t(a) at (1,0)",
        "s(v.a) != v.s(a) at (1,1)",
        "t(v.a) != v.t(a) at (1,1)",
    )


def test_identity_action_required_for_group_like():
    # multiplicative but not unital: one vertex, two loops, identity acting
    # as the constant map onto loop 0 (idempotent, hence associative), so
    # only the unit checks fail, both at loop 1
    q = GroupLikeGraph(cyclic_group(1), ((0, 0), (0, 0)), ((0, 0),), ((0, 0),))
    rep = validate_group_like(q)
    assert rep.checked == 22
    assert rep.violations == ("1.a != a at arrow 1", "a.1 != a at arrow 1")
