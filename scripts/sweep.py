#!/usr/bin/env python3
"""Print one hash line per command of a fixed sweep over corpus/.

Run from anywhere in a checkout:

    python3 scripts/sweep.py > sweep.txt

Each line is `<sha256>  <argv>`, the hash taken over the exit code and the
text the command prints, so two checkouts that print the same bytes give
the same file and a byte-identity claim is one `diff`.  `integrate`
reports float residuals, whose last digits may differ between hosts.

The sweep runs every command in one process through `cli.render`, over the
corpus files in name order: `validate`, `convert` both ways and
`presentation` on each; on each rack-like file `hopf` over q, f2, f3 and
f5, and `homology` bq to degrees 1-3 and eq to degrees 1-2 (eq at 3 runs
for minutes on the 8-element racks); `dgla` at degrees 1-5 in both
conventions on each exact Lie algebra; `integrate` with its defaults on
each matrix Lie algebra: 384 commands, about 5 s on a 2-core x86 host.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rackgraph import cli, jsonio, liealg  # noqa: E402

RACK_LIKE = ("rack", "augmented_rack", "graph")


def commands(paths):
    for path in paths:
        kind, _ = jsonio.load_path(path)
        yield ["validate", path]
        yield ["convert", path, "--to", "graph"]
        yield ["convert", path, "--to", "rack"]
        yield ["presentation", path]
        if kind in RACK_LIKE:
            for field in ("q", "f2", "f3", "f5"):
                yield ["hopf", path, "--field", field]
            for complex_kind, top in (("bq", 3), ("eq", 2)):
                for degree in range(1, top + 1):
                    yield ["homology", path, "--complex", complex_kind,
                           "--max-degree", str(degree)]
        elif kind == "lm_lie":
            for convention in (liealg.KOSZUL, liealg.PLAIN):
                for degree in range(1, 6):
                    yield ["dgla", path, "--max-degree", str(degree),
                           "--convention", convention]
        else:
            yield ["integrate", path]


def main(argv) -> int:
    if argv:
        sys.stderr.write("usage: python3 scripts/sweep.py  (takes no arguments)\n")
        return 2
    os.chdir(os.path.join(os.path.dirname(__file__), ".."))
    paths = sorted(
        os.path.join("corpus", name) for name in os.listdir("corpus") if name.endswith(".json")
    )
    for argv in commands(paths):
        code, text, _ = cli.render(argv)
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        print(f"{digest}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
