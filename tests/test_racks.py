"""Groups, racks, augmented racks.

Hand-computed expectations: S3 has 3 conjugacy classes ({e}, transpositions,
3-cycles); the transposition class with conjugation is the size-3 dihedral
quandle in disguise; translations of that quandle generate a group of order 6.
"""

import itertools
import random

from rackgraph.racks import (
    AugmentedRack,
    FiniteGroup,
    FiniteRack,
    abelianization,
    associated_group_presentation,
    conjugacy_class_rack,
    conjugation_rack,
    cyclic_group,
    dihedral_group_4,
    dihedral_quandle,
    inner_group,
    orbits,
    quaternion_group_8,
    rack_orbits,
    symmetric_group_3,
    toy_rack_c2,
    trivial_augmented_rack,
    trivial_rack,
    validate_augmented,
    validate_group,
    validate_rack,
)

ALL_GROUPS = {
    "c1": cyclic_group(1),
    "c2": cyclic_group(2),
    "c3": cyclic_group(3),
    "c4": cyclic_group(4),
    "s3": symmetric_group_3(),
    "d4": dihedral_group_4(),
    "q8": quaternion_group_8(),
}


def test_groups_validate():
    for name, g in ALL_GROUPS.items():
        rep = validate_group(g)
        assert rep.ok, (name, rep.violations)


def test_group_orders_and_structure():
    assert ALL_GROUPS["s3"].order == 6
    assert ALL_GROUPS["d4"].order == 8
    q8 = ALL_GROUPS["q8"]
    assert q8.order == 8
    # exactly one element of order 2 in Q8
    order2 = [g for g in range(8) if g != 0 and q8.mul[g][g] == 0]
    assert len(order2) == 1
    s3 = ALL_GROUPS["s3"]
    assert any(s3.mul[a][b] != s3.mul[b][a] for a in range(6) for b in range(6))


def test_generators_keep_each_element_not_yet_generated():
    groups = dict(ALL_GROUPS, **{f"c{n}": cyclic_group(n) for n in range(5, 9)})
    for name, g in groups.items():
        subgroups = {g.subgroup_closure([x, y]) for x in range(g.order) for y in range(g.order)}
        for sub in sorted(subgroups):
            gens = g.generators(sub)
            assert g.subgroup_closure(gens) == sub, (name, sub)
            assert g.generators(list(sub)) == gens
            for i, x in enumerate(gens):
                assert x not in g.subgroup_closure(gens[:i]), (name, sub, gens)
            assert 2 ** len(gens) <= len(sub), (name, sub, gens)
        assert g.subgroup_closure(g.generators(range(g.order))) == tuple(range(g.order))
    assert cyclic_group(1).generators(range(1)) == ()
    assert cyclic_group(8).generators(range(8)) == (1,)
    assert cyclic_group(6).generators([0, 2, 3, 4]) == (2, 3)


def test_conjugacy_classes_s3():
    s3 = ALL_GROUPS["s3"]
    sizes = sorted({len(s3.conjugacy_class(x)) for x in range(6)})
    assert sizes == [1, 2, 3]


def test_conjugation_rack_s3_orbits():
    a = conjugation_rack(ALL_GROUPS["s3"])
    assert validate_augmented(a).ok
    assert validate_rack(a.derived_rack()).ok
    assert len(orbits(a)) == 3
    assert len(rack_orbits(a.derived_rack())) == 3


def test_racks_validate():
    for n in (1, 2, 3):
        assert validate_rack(trivial_rack(n)).ok
    for n in (3, 4, 5, 6):
        assert validate_rack(dihedral_quandle(n)).ok


def test_augmented_validate():
    for n in (1, 2, 3):
        assert validate_augmented(trivial_augmented_rack(n)).ok
    assert validate_augmented(toy_rack_c2()).ok
    for g in ALL_GROUPS.values():
        assert validate_augmented(conjugation_rack(g)).ok


def test_augmented_validate_reports_a_table_that_is_not_a_group():
    # every element has an inverse and the one-point action would pass its
    # checks, but (1*1)*2 = 2 while 1*(1*2) = 1
    group = FiniteGroup.make([[0, 1, 2], [1, 0, 0], [2, 0, 0]], 0)
    a = AugmentedRack.make(group, [[0, 0, 0]], [0])
    assert not validate_group(group).ok
    assert validate_augmented(a) == validate_group(group)


def test_transposition_class_is_dihedral_quandle_3():
    s3 = ALL_GROUPS["s3"]
    transpositions = [x for x in range(6) if len(s3.conjugacy_class(x)) == 3]
    a = conjugacy_class_rack(s3, [transpositions[0]])
    assert validate_augmented(a).ok
    r = a.derived_rack()
    d3 = dihedral_quandle(3)
    assert r.size == 3
    found = False
    for perm in itertools.permutations(range(3)):
        if all(
            perm[r.op[x][y]] == d3.op[perm[x]][perm[y]]
            for x in range(3)
            for y in range(3)
        ):
            found = True
            break
    assert found, "no isomorphism onto the dihedral quandle"


def test_inner_group_dihedral_3():
    group, aug = inner_group(dihedral_quandle(3))
    assert group.order == 6
    assert validate_group(group).ok
    assert validate_augmented(aug).ok
    assert aug.derived_rack() == dihedral_quandle(3)


def test_inner_group_even_dihedral():
    # even case: translations of the size-4 dihedral quandle generate order 4
    group, aug = inner_group(dihedral_quandle(4))
    assert validate_augmented(aug).ok
    assert group.order == 4


def test_presentation_dihedral_3():
    pres = associated_group_presentation(dihedral_quandle(3))
    assert len(pres.generator_names) == 3
    assert len(pres.relations) == 9
    free_rank, torsion = abelianization(pres)
    assert (free_rank, torsion) == (1, [])


def test_abelianization_rank_counts_inner_orbits():
    samples = [
        trivial_rack(3),
        dihedral_quandle(4),
        dihedral_quandle(6),
        conjugation_rack(ALL_GROUPS["s3"]).derived_rack(),
    ]
    for r in samples:
        free_rank, torsion = abelianization(associated_group_presentation(r))
        assert torsion == []
        assert free_rank == len(rack_orbits(r))


def test_single_entry_rack_corruption_detected():
    rng = random.Random(3)
    r = dihedral_quandle(5)
    for _ in range(25):
        x, y = rng.randrange(5), rng.randrange(5)
        old = r.op[x][y]
        new = rng.choice([v for v in range(5) if v != old])
        op = [list(row) for row in r.op]
        op[x][y] = new
        assert not validate_rack(FiniteRack.make(op)).ok


def test_single_entry_action_corruption_detected():
    rng = random.Random(4)
    a = conjugation_rack(ALL_GROUPS["s3"])
    for _ in range(25):
        x, g = rng.randrange(a.x_size), rng.randrange(a.group.order)
        old = a.action[x][g]
        new = rng.choice([v for v in range(a.x_size) if v != old])
        action = [list(row) for row in a.action]
        action[x][g] = new
        assert not validate_augmented(
            AugmentedRack.make(a.group, action, list(a.pi))
        ).ok
