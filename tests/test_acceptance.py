"""Acceptance gate: twelve criteria, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; plain `-v` shows the same verdicts as test outcomes.

Mutation scope in criterion 1: single entries of the defining tables (op for
bare racks, the action for augmented racks), replaced by a different
in-range value.  For such corruptions detection is provable: a rack column
stops being a bijection, and a corrupted action breaks the identity axiom or
an inverse-composition pair, both of which the validators check
exhaustively.  One-point structures admit no such corruption (every
alternative entry is out of range), so the loop covers structures with at
least two elements.
"""

import random
from pathlib import Path

import pytest

from oracles import (
    derivative_check,
    leibniz_bracket,
    relabel_arrows,
    roundtrip_graph_iso,
    verify_graph_iso,
    verify_leibniz,
)
from rackgraph import cli, corpus, liealg, lierack
from rackgraph.cubical import (
    assert_boundary_squares_to_zero,
    betti_numbers_rational,
    bq_chain_complex,
    eq_chain_complex,
    homology,
)
from rackgraph.graphs import rack_to_graph, graph_to_rack, unit_component
from rackgraph.hopf import (
    augmentation_filtration,
    build_lm_hopf,
    coinvariant_module,
    level_at,
    verify_connected_lemma,
    verify_graded_structure,
    verify_hopf,
)
from rackgraph.linalg import FieldSpec
from rackgraph.racks import (
    AugmentedRack,
    FiniteRack,
    inner_group,
    rack_orbits,
    validate_augmented,
    validate_rack,
)

ROOT = Path(__file__).resolve().parent.parent

BARE = corpus.bare_racks()
# every corpus rack as an augmented rack; bare racks get their inner augmentation
AUGMENTED = {**corpus.augmented_racks(), **{name: inner_group(r)[1] for name, r in BARE.items()}}
SMALL = {n: a for n, a in AUGMENTED.items() if a.x_size <= 6}
EXACT_LIE = corpus.exact_lie()

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


class _stamp:
    def __init__(self, n, label):
        self.n, self.label = n, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.n:02d} {verdict}: {self.label}")
        return False


def _graphs():
    return {name: rack_to_graph(a) for name, a in AUGMENTED.items()}


def _mutate(rng, table, hi):
    rows = [list(r) for r in table]
    while True:
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[0]))
        z = rng.randrange(hi)
        if z != rows[i][j]:
            rows[i][j] = z
            return rows


def test_criterion_01_axiom_suites_and_mutations():
    with _stamp(1, "axiom suites pass, 50/50 single-entry corruptions detected"):
        for name, r in BARE.items():
            assert validate_rack(r).ok, name
        for name, a in AUGMENTED.items():
            assert validate_augmented(a).ok, name
        rng = random.Random(20260819)
        for name, r in BARE.items():
            if r.size < 2:
                continue
            for _ in range(50):
                bad = FiniteRack.make(_mutate(rng, r.op, r.size))
                assert not validate_rack(bad).ok, name
        for name, a in AUGMENTED.items():
            if a.x_size < 2:
                continue
            for _ in range(50):
                bad = AugmentedRack.make(a.group, _mutate(rng, a.action, a.x_size), a.pi)
                assert not validate_augmented(bad).ok, name


def test_criterion_02_roundtrips():
    with _stamp(2, "rack<->graph roundtrip: identity one way, verified iso the other"):
        for name, a in AUGMENTED.items():
            assert graph_to_rack(rack_to_graph(a)) == a, name
        rng = random.Random(77)
        names = sorted(AUGMENTED)
        done = 0
        while done < 20:
            q = rack_to_graph(AUGMENTED[names[done % len(names)]])
            perm = list(range(q.graph.arrow_count))
            rng.shuffle(perm)
            shuffled = relabel_arrows(q, perm)
            std, iso = roundtrip_graph_iso(shuffled)
            assert verify_graph_iso(shuffled, std, iso)
            done += 1


def test_criterion_03_boundary_squares_to_zero():
    with _stamp(3, "d.d = 0 exactly for EQ and BQ up to N = 4, |X| <= 6"):
        assert len(SMALL) >= 18
        for name, a in SMALL.items():
            for build in (bq_chain_complex, eq_chain_complex):
                assert_boundary_squares_to_zero(build(a, max_degree=4))


def test_criterion_04_trivial_rack_homology():
    with _stamp(4, "H_n of the k-point trivial rack is Z^(k^n), k = 1..3, n <= 3"):
        for k in (1, 2, 3):
            h = homology(bq_chain_complex(AUGMENTED[f"trivial_{k}"], max_degree=4))
            for n in range(4):
                assert h.betti[n] == k**n, (k, n)
                assert h.torsion[n] == (), (k, n)


def test_criterion_05_low_degree_homology_vs_orbits():
    label = "H0(BQ) = Z, H1(BQ) free, rank H_n(BQ) = #orbits^n for n <= 3; Z_p in H3 of R_p"
    with _stamp(5, label):
        results = {
            name: homology(bq_chain_complex(a, max_degree=4)) for name, a in AUGMENTED.items()
        }
        for name, a in AUGMENTED.items():
            h = results[name]
            orbits = len(rack_orbits(a.derived_rack()))
            assert h.torsion[0] == () and h.torsion[1] == (), name
            # Etingof and Grana, "On rack cohomology", JPAA 177 (2003)
            assert h.betti == tuple(orbits**n for n in range(4)), name
        # Niebrzydowski and Przytycki, "Homology of dihedral quandles", JPAA 213 (2009)
        for p in (3, 5):
            assert any(d % p == 0 for d in results[f"dihedral_{p}"].torsion[3]), p


def test_criterion_06_betti_cross_validation():
    with _stamp(6, "rational rank-nullity Betti equals Smith-form Betti on every degree"):
        for name, a in SMALL.items():
            c = bq_chain_complex(a, max_degree=3)
            assert tuple(betti_numbers_rational(c)) == homology(c).betti, name
            c = eq_chain_complex(a, max_degree=2)
            assert tuple(betti_numbers_rational(c)) == homology(c).betti, name
        for name, a in AUGMENTED.items():
            c = bq_chain_complex(a, max_degree=2)
            assert tuple(betti_numbers_rational(c)) == homology(c).betti, name


def test_criterion_07_hopf_identities_exhaustive():
    with _stamp(7, "bialgebra and antipode identities exact over Q, F2, F3, all graphs"):
        for name, q in _graphs().items():
            for field in (Q, F2, F3):
                assert verify_hopf(build_lm_hopf(q, field)).ok, (name, field.label())


def test_criterion_08_ideal_power_lemma():
    with _stamp(8, "phi maps level n of A onto level n+1 of H (relative when disconnected)"):
        disconnected = set()
        for name, q in _graphs().items():
            _, connected = unit_component(q)
            if not connected:
                disconnected.add(name)
            for field in (F2, F3):
                b = build_lm_hopf(q, field)
                filt = augmentation_filtration(b)
                assert verify_connected_lemma(b, filt).ok, (name, field.label())
        assert "class_c4_u2" in disconnected


def test_criterion_09_graded_dimension_identity():
    with _stamp(9, "graded dims match the product rule over F2; toy example is (1,1,0)"):
        for name, a in AUGMENTED.items():
            q = rack_to_graph(a)
            b = build_lm_hopf(q, F2)
            filt = augmentation_filtration(b)
            coinv = coinvariant_module(a, F2)
            assert verify_graded_structure(b, filt, coinv).ok, name
            if name == "toy_c2":
                dims_a = [level_at(filt.levels_a, n).dim for n in range(filt.depth + 1)]
                gr = tuple(dims_a[i] - dims_a[i + 1] for i in range(len(dims_a) - 1))
                assert gr[:3] == (1, 1, 0)


def test_criterion_10_free_graded_lie_truncations():
    with _stamp(10, "Leibniz exact; degree <= 1 reduction both conventions; d.d = 0 to D = 3"):
        for name, l in EXACT_LIE.items():
            b = leibniz_bracket(l)
            assert verify_leibniz(b).ok, name
        nil = leibniz_bracket(EXACT_LIE["nilpotent_pair"])
        assert nil.bracket[1][1]  # [m2, m2] != 0: not a Lie bracket
        for name, l in EXACT_LIE.items():
            for conv in (liealg.KOSZUL, liealg.PLAIN):
                t = liealg.e_functor(l, 1, convention=conv)
                assert liealg.verify_e_truncation(t, l).ok, (name, conv)
        for name, l in EXACT_LIE.items():
            t = liealg.e_functor(l, 3, convention=liealg.KOSZUL)
            assert liealg.verify_e_truncation(t, l).ok, name
        for name in ("one_generator", "free_two", "nilpotent_pair"):
            t = liealg.e_functor(EXACT_LIE[name], 3, convention=liealg.PLAIN)
            assert liealg.verify_e_truncation(t, EXACT_LIE[name]).ok, name
        t = liealg.e_functor(EXACT_LIE["one_generator"], 3, convention=liealg.KOSZUL)
        assert t.dims == (0, 1, 1, 0)


def test_criterion_11_integrated_rack_numerics():
    with _stamp(11, "so(3) rack residuals < 1e-9; derivative ratio in [3,5]; pi(0) = I"):
        rack = lierack.LinearLieRack(lierack.so3_matrix())
        rep = lierack.verify_rack_numeric(rack, samples=100, seed=0, tol=1e-9)
        assert rep.ok
        assert rep.residuals["self_distributivity"] < 1e-9
        assert rep.residuals["equivariance"] < 1e-9
        assert rep.residuals["pi_zero"] <= 1e-14
        deriv = derivative_check(rack, liealg.so3_adjoint(), h=1e-3)
        assert deriv.ok
        assert 3.0 <= deriv.residuals["ratio"] <= 5.0


def test_criterion_12_golden_files(monkeypatch):
    with _stamp(12, "ten golden command outputs are bit-identical"):
        monkeypatch.chdir(ROOT)
        commands = corpus.golden_commands()
        assert len(commands) == 10
        for name, argv in commands:
            code, text, _ = cli.render(argv)
            again = cli.render(argv)
            assert code == 0, name
            assert again[0] == 0 and again[1] == text, name
            frozen = Path(f"golden/{name}.json").read_text(encoding="utf-8")
            assert text == frozen, name
