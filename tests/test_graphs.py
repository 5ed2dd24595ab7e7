"""Group-like graphs and the rack correspondence."""

import random

from oracles import relabel_arrows, roundtrip_graph_iso, verify_graph_iso
from rackgraph.graphs import (
    DirectedMultigraph,
    MultiplicativeGraph,
    graph_to_rack,
    rack_to_graph,
    unit_component,
    validate_group_like,
    validate_multiplicative,
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
        perm = list(range(q.graph.arrow_count))
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
    bad = MultiplicativeGraph.make(q.graph, q.vertex_group.mul, left, q.right_act)
    assert not validate_multiplicative(bad).ok


def test_identity_action_required_for_group_like():
    # multiplicative but not unital: one vertex, two loops, identity acting
    # as the constant map onto loop 0 (idempotent, hence associative)
    graph = DirectedMultigraph.make(1, [(0, 0), (0, 0)])
    mul = [[0]]
    left = [[0, 0]]
    right = [[0, 0]]
    m = MultiplicativeGraph.make(graph, mul, left, right)
    assert validate_multiplicative(m).ok
    from rackgraph.graphs import GroupLikeGraph
    from rackgraph.racks import cyclic_group as cg

    q = GroupLikeGraph(graph, cg(1), m.left_act, m.right_act)
    assert not validate_group_like(q).ok
