"""Named sample structures and the golden command list.

Everything the test suite and the command line treat as "the corpus" is
constructed here, in one place, so names stay stable: small groups, their
conjugation and conjugacy-class racks, trivial and dihedral racks, a
one-point rack over C2, and the exact/numeric Lie samples.

write_corpus_files() materializes each structure as a canonical JSON file;
golden_commands() lists the command lines whose outputs are frozen under
golden/.  Only exact-arithmetic commands are frozen; floating-point reports
stay out of the golden set so results do not depend on the host's BLAS.
"""

from __future__ import annotations

import os

from . import jsonio, liealg, lierack
from .graphs import rack_to_graph
from .racks import (
    AugmentedRack,
    FiniteGroup,
    FiniteRack,
    conjugacy_class_rack,
    conjugation_rack,
    cyclic_group,
    dihedral_group_4,
    dihedral_quandle,
    quaternion_group_8,
    symmetric_group_3,
    toy_rack_c2,
    trivial_augmented_rack,
    trivial_rack,
)


def groups() -> dict[str, FiniteGroup]:
    return {
        "c1": cyclic_group(1),
        "c2": cyclic_group(2),
        "c3": cyclic_group(3),
        "c4": cyclic_group(4),
        "s3": symmetric_group_3(),
        "d4": dihedral_group_4(),
        "q8": quaternion_group_8(),
    }


def augmented_racks() -> dict[str, AugmentedRack]:
    g = groups()
    out = {f"conj_{name}": conjugation_rack(grp) for name, grp in g.items()}
    # class seeds: S3 transposition 1, C4 square 2, Q8 imaginary unit 2, D4 rotation 1
    out["class_s3_transpositions"] = conjugacy_class_rack(g["s3"], [1])
    out["class_c4_u2"] = conjugacy_class_rack(g["c4"], [2])
    out["class_q8_i"] = conjugacy_class_rack(g["q8"], [2])
    out["class_d4_r90"] = conjugacy_class_rack(g["d4"], [1])
    for n in (1, 2, 3):
        out[f"trivial_aug_{n}"] = trivial_augmented_rack(n)
    out["toy_c2"] = toy_rack_c2()
    return out


def bare_racks() -> dict[str, FiniteRack]:
    out = {f"trivial_{n}": trivial_rack(n) for n in (1, 2, 3)}
    for n in (3, 4, 5, 6):
        out[f"dihedral_{n}"] = dihedral_quandle(n)
    return out


def exact_lie() -> dict[str, liealg.LMLieAlgebra]:
    return {
        "sl2_adjoint": liealg.sl2_adjoint(),
        "so3_adjoint": liealg.so3_adjoint(),
        "nilpotent_pair": liealg.nilpotent_pair(),
        "one_generator": liealg.one_generator(),
        "free_two": liealg.free_generators(2),
    }


def matrix_lie() -> dict[str, lierack.MatrixLMLie]:
    return {
        "so3_matrix": lierack.so3_matrix(),
        "nilpotent_matrix": lierack.nilpotent_matrix(),
        "inert_pair": lierack.inert_pair(),
    }


def corpus_documents() -> dict[str, dict]:
    """name -> JSON document for every corpus input file."""
    docs: dict[str, dict] = {}
    for name, a in augmented_racks().items():
        docs[name] = jsonio.dump_augmented(a)
    for name, r in bare_racks().items():
        docs[name] = jsonio.dump_rack(r)
    for name, l in exact_lie().items():
        docs[name] = jsonio.dump_lm_lie(l)
    for name, l in matrix_lie().items():
        docs[name] = jsonio.dump_matrix_lm_lie(l)
    docs["graph_s3_transpositions"] = jsonio.dump_graph(
        rack_to_graph(augmented_racks()["class_s3_transpositions"])
    )
    return docs


def write_corpus_files(directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, doc in sorted(corpus_documents().items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(doc))
        written.append(path)
    return written


def golden_commands(corpus_dir: str = "corpus") -> list[tuple[str, list[str]]]:
    """The ten frozen command lines.  All outputs are exact integers or
    rationals, never floats, so the bytes are platform-independent."""
    c = lambda name: os.path.join(corpus_dir, f"{name}.json")
    return [
        ("validate_conj_s3", ["validate", c("conj_s3")]),
        ("validate_dihedral_3", ["validate", c("dihedral_3")]),
        ("convert_class_s3", ["convert", c("class_s3_transpositions"), "--to", "graph"]),
        ("convert_graph_s3", ["convert", c("graph_s3_transpositions"), "--to", "rack"]),
        ("homology_dihedral_3", ["homology", c("dihedral_3"), "--complex", "bq", "--max-degree", "3"]),
        ("homology_class_c4_u2", ["homology", c("class_c4_u2"), "--complex", "eq", "--max-degree", "3"]),
        ("homology_trivial_2", ["homology", c("trivial_2"), "--complex", "bq", "--max-degree", "3"]),
        ("hopf_toy_c2", ["hopf", c("toy_c2"), "--field", "f2"]),
        ("dgla_one_generator", ["dgla", c("one_generator"), "--max-degree", "3", "--convention", "graded_koszul"]),
        ("presentation_dihedral_3", ["presentation", c("dihedral_3")]),
    ]
