"""Workload command lists and the seeded input generator.

A workload is a list of rackgraph CLI command lines.  Each command names one
input document by its corpus name (argv[1]); the runner writes random
relabellings of each named document of the checkout's corpus/, so the program
only ever sees generated files.  The document names are fixed here, so new
corpus files do not change what a workload measures.

Every check applied to these commands is invariant under relabelling, except
the golden commands.  Those are named here only: their command lines come
from rackgraph.corpus.golden_commands, they read corpus/ itself, and their
output is compared byte for byte against golden/.

This module is pure Python and does not import rackgraph.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

RACK_LIKE = ("rack", "augmented_rack", "graph")


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  argv[1] is a corpus document name, replaced by the
    path of its generated copy when the pass is written out.  A golden
    command has the argv ("golden", <name of its golden/ file>)."""

    argv: tuple[str, ...]
    check: str  # report | presentation | convert | integrate | golden

    @property
    def key(self) -> str:
        """Reference key; integrate's --seed is added per run and not part of it."""
        return " ".join(self.argv)

    @property
    def doc(self) -> str:
        return self.argv[1]


# The golden/ files checked by the small workload: all ten at the commit that
# defined this benchmark.
GOLDEN_NAMES = (
    "validate_conj_s3", "validate_dihedral_3", "convert_class_s3", "convert_graph_s3",
    "homology_dihedral_3", "homology_class_c4_u2", "homology_trivial_2", "hopf_toy_c2",
    "dgla_one_generator", "presentation_dihedral_3",
)

# The corpus documents of the small workload: all 31 at that commit.
SMALL_DOCS = (
    "class_c4_u2", "class_d4_r90", "class_q8_i", "class_s3_transpositions",
    "conj_c1", "conj_c2", "conj_c3", "conj_c4", "conj_d4", "conj_q8", "conj_s3",
    "dihedral_3", "dihedral_4", "dihedral_5", "dihedral_6", "free_two",
    "graph_s3_transpositions", "inert_pair", "nilpotent_matrix", "nilpotent_pair",
    "one_generator", "sl2_adjoint", "so3_adjoint", "so3_matrix", "toy_c2",
    "trivial_1", "trivial_2", "trivial_3", "trivial_aug_1", "trivial_aug_2", "trivial_aug_3",
)


def _reports(*lines: str) -> list[Command]:
    return [Command(tuple(line.split()), "report") for line in lines]


# One pass of each of these takes 0.5 to 1.5 s on a 2-vCPU Xeon VM.  On a
# shared host other tenants only ever add time, and the fastest of several
# short passes is steady where a few passes of many seconds each are not; each
# list still keeps the module named in its workload's reason doing most of the
# work.
FULL = {
    "homology": _reports(
        "homology dihedral_4 --complex bq --max-degree 3",
        "homology class_s3_transpositions --complex eq --max-degree 2",
        "homology dihedral_6 --complex bq --max-degree 2",
        "homology dihedral_3 --complex bq --max-degree 3",
    ),
    "hopf": _reports(
        "hopf class_q8_i --field f2",
        "hopf conj_c4 --field q",
        "hopf class_s3_transpositions --field f3",
    ),
    "dgla": _reports(
        "dgla nilpotent_pair --max-degree 4 --convention graded_koszul",
        "dgla sl2_adjoint --max-degree 3 --convention graded_koszul",
        "dgla free_two --max-degree 4 --convention plain",
    ),
}

# The smallest inputs that still reach the same code, for the benchmark's tests.
QUICK = {
    "homology": _reports("homology dihedral_3 --complex bq --max-degree 2"),
    "hopf": _reports("hopf toy_c2 --field f2", "hopf toy_c2 --field q"),
    "dgla": _reports(
        "dgla one_generator --max-degree 3 --convention graded_koszul",
        "dgla nilpotent_pair --max-degree 2 --convention graded_koszul",
    ),
}

WORKLOADS = ("homology", "hopf", "dgla", "small")


def load_docs(root: str, names) -> dict[str, dict]:
    """The named documents of <root>/corpus."""
    docs = {}
    for name in names:
        with open(os.path.join(root, "corpus", f"{name}.json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def _golden_commands(names) -> list[Command]:
    return [Command(("golden", name), "golden") for name in names]


def _small(root: str, names) -> list[Command]:
    docs = load_docs(root, names)
    out = [Command(("validate", n), "report") for n in names]
    for n in names:
        if docs[n]["kind"] in RACK_LIKE:
            out.append(Command(("convert", n, "--to", "graph"), "convert"))
            out.append(Command(("convert", n, "--to", "rack"), "convert"))
            out.append(Command(("presentation", n), "presentation"))
    for n in names:
        if docs[n]["kind"] == "matrix_lm_lie":
            out.append(Command(("integrate", n), "integrate"))
    return out


def commands(workload: str, root: str, quick: bool = False) -> list[Command]:
    """The command list of one pass of `workload` in the checkout at `root`."""
    if workload in FULL:
        return list((QUICK if quick else FULL)[workload])
    if workload != "small":
        raise KeyError(workload)
    if quick:
        names = ("conj_c2", "dihedral_3", "graph_s3_transpositions", "one_generator", "inert_pair")
        return _small(root, names) + _golden_commands(("validate_dihedral_3", "convert_graph_s3"))
    return _small(root, SMALL_DOCS) + _golden_commands(GOLDEN_NAMES)


# ---------------------------------------------------------------------------
# relabelling


def _perm(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """A random permutation p (new label i stands for old label p[i]) and its inverse."""
    p = list(range(n))
    rng.shuffle(p)
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    return p, inv


def _relabel_group(group: dict, p, inv) -> dict:
    mul = group["mul"]
    n = len(mul)
    return {
        "identity": inv[group["identity"]],
        "mul": [[inv[mul[p[g]][p[h]]] for h in range(n)] for g in range(n)],
    }


def relabel(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy of `doc` with every finite index set permuted.

    racks: X; augmented racks: G and X; graphs: G and X, with arrows kept in
    the (g, x) layout that rack_to_graph writes; exact Lie data: the bases of
    g and M.  Numeric matrix data is returned unchanged.
    """
    kind = doc["kind"]
    out = {"schema": doc["schema"], "kind": kind}
    if kind == "rack":
        op = doc["op"]
        p, inv = _perm(rng, len(op))
        out["op"] = [[inv[op[p[x]][p[y]]] for y in range(len(op))] for x in range(len(op))]
    elif kind == "augmented_rack":
        ng, nx = len(doc["group"]["mul"]), len(doc["action"])
        pg, ig = _perm(rng, ng)
        px, ix = _perm(rng, nx)
        out["group"] = _relabel_group(doc["group"], pg, ig)
        act = doc["action"]
        out["action"] = [[ix[act[px[x]][pg[g]]] for g in range(ng)] for x in range(nx)]
        out["pi"] = [ig[doc["pi"][px[x]]] for x in range(nx)]
    elif kind == "graph":
        ng = len(doc["vertex_group"]["mul"])
        na = len(doc["arrows"])
        nx = na // ng
        pg, ig = _perm(rng, ng)
        px, _ = _perm(rng, nx)
        old = [pg[a // nx] * nx + px[a % nx] for a in range(na)]  # new arrow -> old arrow
        new = [0] * na
        for a, b in enumerate(old):
            new[b] = a
        out["vertex_group"] = _relabel_group(doc["vertex_group"], pg, ig)
        out["arrows"] = [[ig[v] for v in doc["arrows"][old[a]]] for a in range(na)]
        for side in ("left_act", "right_act"):
            act = doc[side]
            out[side] = [[new[act[pg[g]][old[a]]] for a in range(na)] for g in range(ng)]
    elif kind == "lm_lie":
        c, rho, f = doc["c"], doc["rho"], doc["f"]
        ng, nm = len(c), len(f)
        s, _ = _perm(rng, ng)
        t, _ = _perm(rng, nm)
        out["c"] = [[[c[s[i]][s[j]][s[k]] for k in range(ng)] for j in range(ng)] for i in range(ng)]
        out["rho"] = [[[rho[s[a]][t[i]][t[j]] for j in range(nm)] for i in range(nm)] for a in range(ng)]
        out["f"] = [[f[t[i]][s[a]] for a in range(ng)] for i in range(nm)]
    else:
        return doc
    return out


def canonical_text(doc: dict) -> str:
    """The byte layout rackgraph's canonical_json gives integer documents."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_inputs(root: str, cmds: list[Command], seed: int, labelling: int, directory: str) -> dict:
    """Write labelling number `labelling` of every document the commands
    relabel; returns {document name: path}.

    The same (seed, labelling) always gives the same files.
    """
    names = sorted({c.doc for c in cmds if c.check != "golden"})
    docs = load_docs(root, names)
    rng = random.Random(f"{seed}:{labelling}")
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_text(relabel(docs[name], rng)))
        paths[name] = path
    return paths


def concrete_argv(cmd: Command, paths: dict, seed: int) -> list[str] | None:
    """The argv of one command of a pass; None for a golden command, whose
    argv the worker takes from rackgraph.corpus.golden_commands."""
    if cmd.check == "golden":
        return None
    argv = [cmd.argv[0], paths[cmd.doc], *cmd.argv[2:]]
    if cmd.check == "integrate":
        argv += ["--seed", str(seed)]
    return argv
