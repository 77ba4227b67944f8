#!/usr/bin/env python3
"""Report library edges that a dune stanza's own sources never name.

Checks every library and executable stanza in lib/*/dune, bin/dune and
examples/dune. Each entry of a stanza's (libraries ...) field must be
named, as its top module, by that stanza's sources: every .ml/.mli file
in the directory for a library, and <name>.ml for each executable. The
test and benchmark directories are not checked.

Usage: python3 ci/check_lib_edges.py   (from the repository root)
Prints one line per dead edge and exits 1 if there is any.
"""

import glob
import os
import re
import sys

# Libraries whose top module is not their capitalised name.
TOP_MODULE = {"qcheck-core": "QCheck", "bechamel.monotonic_clock": "Monotonic_clock"}


def sexps(text):
    """The top-level s-expressions of a dune file, as nested lists of atoms."""
    text = re.sub(r";[^\n]*", "", text)
    stack = [[]]
    for tok in re.findall(r'\(|\)|"(?:[^"\\]|\\.)*"|[^\s()"]+', text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def field(stanza, key):
    for item in stanza[1:]:
        if isinstance(item, list) and item and item[0] == key:
            return [a for a in item[1:] if isinstance(a, str)]
    return []


def top_module(lib):
    return TOP_MODULE.get(lib, lib[:1].upper() + lib[1:])


def dead_edges(dune):
    d = os.path.dirname(dune)
    with open(dune) as f:
        stanzas = sexps(f.read())
    for st in stanzas:
        if not (isinstance(st, list) and st and st[0] in ("library", "executable", "executables")):
            continue
        if st[0] == "library":
            names = field(st, "name")
            sources = glob.glob(os.path.join(d, "*.ml")) + glob.glob(os.path.join(d, "*.mli"))
        else:
            names = field(st, "name") + field(st, "names")
            sources = [os.path.join(d, n + ".ml") for n in names]
        text = ""
        for src in sources:
            with open(src) as f:
                text += f.read()
        for lib in field(st, "libraries"):
            if not re.search(r"\b%s\b" % re.escape(top_module(lib)), text):
                yield "%s: %s %s lists %s, which its sources never name" % (
                    dune, st[0], " ".join(names), lib)


def main():
    duns = sorted(glob.glob("lib/*/dune")) + ["bin/dune", "examples/dune"]
    dead = [line for dune in duns for line in dead_edges(dune)]
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
