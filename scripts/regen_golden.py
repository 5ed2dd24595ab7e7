#!/usr/bin/env python3
"""Rewrite corpus/ input files and golden/ expected outputs.

Run from the repository root:

    python3 scripts/regen_golden.py

Only do this deliberately; the tests compare command output against these
files byte for byte.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rackgraph import cli, corpus  # noqa: E402


def main(argv) -> int:
    if argv:
        # even --help: a run rewrites every file
        sys.stderr.write("usage: python3 scripts/regen_golden.py  (takes no arguments)\n")
        return 2
    root = os.path.join(os.path.dirname(__file__), "..")
    os.chdir(root)
    written = corpus.write_corpus_files("corpus")
    print(f"wrote {len(written)} corpus files")
    os.makedirs("golden", exist_ok=True)
    for name, argv in corpus.golden_commands("corpus"):
        code, text, _ = cli.render(argv)
        if code != 0:
            print(f"{name}: exit {code}, refusing to freeze a failing run")
            print(text)
            return 1
        path = os.path.join("golden", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"froze {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
