#!/usr/bin/env python3
"""Output-diff sweep: every CLI command on every shipped model and map file.

Each call runs `absaudit.cli.main(argv)` in-process, which must leave the
garbage collector on or off as it found it (the sweep stops otherwise), and
prints one line:

    <exit code> <sha256 of stdout, stderr and exit code> <argv>

so two checkouts give the same lines exactly when every command prints the
same bytes and exits the same way.  The calls are, in text and in JSON:

* per file: validate, graph, dist, audit, classify, push;
* per file and per line that is a lone `}`: validate on a copy without
  that line, so each block's missing-brace and misplaced-row errors show;
* per file and per row of a `mech` block: validate on a copy without that
  row, so each mechanism's gap report shows;
* per file and per row of an `edges` block: audit on a copy without that
  row, so each missing-entry verdict of the morphism layer shows, and
  validate on a copy with that row's two paths swapped, so the words of
  each `edge-map-source` and `edge-map-target` issue show;
* per model with a `dist` block: copies of its file with invalid noise,
  one whose first `dist` row is keyed outside the first term's domain, one
  whose last `dist` row is keyed so (the ranking reaches it after its
  in-order run), one whose first `dist` row weighs 0.5 more and, when the
  block has two rows or more, one whose first weight is -0.25 and whose
  second row gains what the first lost; each is run through
  validate, dist --model, and push --abs for every abstraction reading
  that model as its source;
* per model whose `dist` block is dense (a row for every joint noise value)
  over two noise terms or more: a copy of its file in which 0.6 TOL of
  weight moves from the block's first row to its second, which keeps the
  total (`near_product`), so the table lies just off the product of its
  marginals, where the kernels' test of the whole table gives way to the
  per-term test; each gets the library lines below;
* per model whose first `mech` block has a row: a copy of its file in which
  that block gains the row again, keyed by a label no domain of the model
  holds (`stray_rows`), so the refusal of a stray mechanism input shows;
  each is run through validate;
* per file whose abstraction has per-variable outcome maps: a copy in
  which each row of the first such map sends its key to its first value
  and to the next value of the target variable's domain (the first after
  the last), half each (`split_rows`), so the pushforward repeats its
  columns at the first map and walks the later maps on the repeated rows;
  each is run through push and push --renormalize;
* per file with an abstraction: audit and classify on a copy whose map's
  source lists a parent that no model declares, then on one whose source
  has a self-parent, on one whose source has a cycle, on one whose
  source declares its last variable twice and on one whose source's
  first `exo` line comes before its first `var` line, leaving that
  variable without an exo term (`graph_fault`), so the refusal of each
  graph fault before any verdict shows;
* per model: graph, graph --dot, dist and graph --hom for every ordered
  pair of its nodes; dist --do VAR=VALUE for each variable at the first
  and the last value of its domain; dist --marginal for each variable
  alone and for all variables listed in reverse order;
* graph --hom for every ordered pair of nodes of one generated model, a
  complete DAG on seven nodes whose names sort apart from their
  declaration order (`complete_dag`), so a change in the order of a listed
  hom-set shows: no shipped hom-set holds more than two paths;
* classify on each generated bijection between seven-node DAGs that differ
  by one deep edge, or correspond under a permutation (`bijections`), so
  the hom-set comparisons of type detection show: no shipped bijection
  has more than three nodes;
* audit and classify on each generated map from a twelve-node chain with a
  full edge map, an identity and a coarsening of consecutive pairs
  (`chain_maps`), so the functor audit's path tests show on 78 entries: no
  shipped edge map has more than three;
* every call on a shipped file, on one generated model more: a chain of
  six binary variables, each the parity of its parent and its noise, whose
  `dist` block holds all 64 rows (`parity_chain`), so the read of a `dist`
  block in one split, its closing-brace search and its fall back to the
  row loop show on its copies: no shipped `dist` block has more than 16;
* per row of the edges block of the generated identity chain map alone
  (`CHAIN_IDENTITY_FILE`), the same two calls as per row of a shipped
  `edges` block: audit without the row and validate with its two paths
  swapped, so a key whose prefix is no key, and a non-path among 78
  entries, show;
* per abstraction: graph --dot --abs, audit, audit --require with every
  property name (`REQUIRE`, which the sweep checks against the profile of
  the generated identity chain map before its first call), classify, push
  and push --renormalize, then push --do VAR=VALUE and push --do
  VAR=VALUE --renormalize for each variable of its source (when the file
  declares it) at the first value of its domain; audit --require on each
  generated chain map too, and once with an unknown property name
  (`UNKNOWN_REQUIRE`);
* tables with each --which, and tables --truth (the shipped tables) with
  and without --which;
* the usage errors (unknown command, missing FILE, --format xml) and the
  help of the program and of dist (`ARGPARSE`); argparse writes their
  bytes, and its wording differs between Python versions;
* calls under a lowered or invalid `ABSAUDIT_ENUM_CAP` (`CAPPED`), so the
  capacity exit of the hom-set, the joint and the pushforward shows, and
  the refusal of a cap that is not a positive integer: such a line's argv
  opens with `ABSAUDIT_ENUM_CAP=N`, and the call runs with that variable
  set.

Last come, for each parsable file, then for each invalid-noise copy, for
each stray-row copy and for each near-product copy, one line for the
library call
`emit_document(parse_path(file))` and one line per variable of each of its
models for `mechanism_kernel(model, variable)`:

    <0 or the error's class> <sha256> emit <file>
    <0 or the error's class> <sha256> kernel <file> --model <model> <variable>

where the hash is of the emitted text or the kernel's rows, or of the
error's class and words; the variables of one model are asked in
declaration order of one parsed model, so its later kernels reuse the
noise factors (`Scm.noise_factors`) that its first computed.

The files are copied into a scratch directory and named by their path under
the data directory, so the lines do not depend on where a checkout lives.
With `--shuffle-dist SEED` the rows of every `dist` block of the copies are
shuffled first, which changes no answer.  Run from a checkout's root:

    python3 tools/sweep.py > sweep.txt
    python3 tools/sweep.py > tests/sweep.golden  # after a change of output on purpose
    python3 tools/sweep.py --src ../other/src > other.txt && diff sweep.txt other.txt
    python3 tools/sweep.py --shuffle-dist 1 src/absaudit/data/figures/fig3a.abs
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import math
import os
import pathlib
import random
import re
import shlex
import shutil
import sys
import tempfile
from itertools import combinations_with_replacement, groupby, pairwise, product
from typing import Iterator
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIST_OPEN = re.compile(r"^\s*dist\b.*\{\s*$")
MECH_OPEN = re.compile(r"^\s*mech\b.*\{\s*$")
EDGES_OPEN = re.compile(r"^\s*edges\s+\{\s*$")
SCM_OPEN = re.compile(r"^\s*scm\s+(\S+)\s*\{\s*$")
OUTCOMES_OPEN = re.compile(r"^\s*outcomes\s+(\S+)\s+from\b.*\{\s*$")
COMPLETE = ("z", "n10", "n9", "b", "n2", "a", "m")  # declaration order
COMPLETE_FILE = "generated/complete7.scm"
DEEP = tuple(f"p{i}" for i in range(7))
DEEP_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 2), (1, 3), (3, 5))
# map name -> (its target's edges, the target node of each node of DEEP), by index
BIJECTIONS = {
    "plus": (DEEP_EDGES + ((4, 6),), range(7)),
    "minus": (DEEP_EDGES[:-1], range(7)),
    "flip": (DEEP_EDGES[:4] + ((5, 4),) + DEEP_EDGES[5:], range(7)),
    "perm": (tuple((6 - a, 6 - b) for a, b in DEEP_EDGES), range(6, -1, -1)),
}
BIJECTIONS_FILE = "generated/bijections.abs"
CHAIN = tuple(f"x{i}" for i in range(12))
# map name -> the target node of each node of CHAIN, by index
CHAIN_MAPS = {"identity": range(12), "pairs": [i // 2 for i in range(12)]}
CHAIN_MAPS_FILE = "generated/chain-maps.abs"
CHAIN_IDENTITY_FILE = "generated/chain-identity.abs"
PARITY = tuple(f"v{i}" for i in range(6))
PARITY_FILE = "generated/parity6.scm"
# the calls whose output argparse writes: usage errors, then help
ARGPARSE = (("no-such-command",), ("dist",), ("--format", "xml", "validate", "x.abs"),
            ("--help",), ("dist", "--help"))
# every property name that audit --require accepts, in sorted order
REQUIRE = ",".join((
    "bijective", "deterministic", "faithful", "faithful-parallel", "full", "fully-faithful",
    "functional", "functorial", "injective", "macro-to-micro", "non-deterministic",
    "outcome-bijective", "outcome-deterministic", "outcome-functional", "outcome-injective",
    "outcome-surjective", "perfect-edge-invertible", "perfect-node-invertible",
    "set-edge-invertible", "set-node-invertible", "surjective"))
# the kinds of invalid-noise copy shuffled with `noise_rng`; the others use `last_rng`,
# so a kind added to `bad_noise` moves no shuffle of these
FIRST_ROW = ("bad-key", "bad-total")
UNKNOWN_REQUIRE = ("audit", "figures/fig3a.abs", "--require", "functorial,no-such-property")
UNKNOWN_PARENT = "undeclared"  # the parent name of the `unknown-parent` copies
NEAR_PRODUCT = 0.6e-9  # the weight a `near_product` copy moves: 0.6 TOL
# the kinds of `graph_fault` copy
GRAPH_FAULTS = ("unknown-parent", "self-parent", "cyclic", "dup-variable", "exo-before-var")
CAP_ENV = "ABSAUDIT_ENUM_CAP"
# (cap, argv): each phase just over its cap, then two caps that are refused
CAPPED = (("1", ("graph", COMPLETE_FILE, "--hom", "z", "m")),
          ("1", ("dist", "models/chain3_micro.scm")),
          ("2", ("push", "witnesses/distributional/outcome-splitting.abs")),
          ("0", ("graph", COMPLETE_FILE, "--hom", "z", "m")),
          ("abc", ("dist", "models/chain3_micro.scm")))


def check_require(audit_abstraction, doc) -> None:
    """Raise RuntimeError unless `REQUIRE` lists the `--require` names of
    the profile of the first abstraction of `doc`, so that no verdict of
    the profile misses the `audit --require` calls."""
    a = next(iter(doc.abstractions.values()))
    names = ",".join(sorted(audit_abstraction(a, *doc.resolve(a)).flat()))
    if names != REQUIRE:
        raise RuntimeError(f"REQUIRE lists {REQUIRE}, the profile names {names}")


def run(main, argv: list[str]) -> tuple[object, str, str]:
    """The exit code, stdout and stderr of `main(argv)`; a first token
    `ABSAUDIT_ENUM_CAP=N` sets that variable for the call instead.  Only
    such a call copies and restores `os.environ`, which costs about as much
    as a small call itself.  Raises RuntimeError when the call leaves the
    garbage collector switched otherwise than it found it."""
    env, argv = split_cap(argv)
    out, err = io.StringIO(), io.StringIO()
    collecting = gc.isenabled()
    with (mock.patch.dict(os.environ, [env[0].split("=", 1)]) if env else contextlib.nullcontext(),
          contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception as exc:  # a traceback is an answer to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    if gc.isenabled() != collecting:
        raise RuntimeError(f"main({argv!r}) left the garbage collector "
                           f"{'off' if collecting else 'on'}")
    return code, out.getvalue(), err.getvalue()


def call(main, argv: list[str]) -> str:
    """One sweep line for `main(argv)`."""
    code, out, err = run(main, argv)
    blob = "\0".join((out, err, str(code))).encode()
    return f"{code} {hashlib.sha256(blob).hexdigest()} {shlex.join(argv)}"


def shuffle_dist(text: str, rng: random.Random) -> str:
    """`text` with the rows of every `dist` block in a random order."""
    lines, out, block = text.split("\n"), [], None
    for line in lines:
        if block is None:
            out.append(line)
            if DIST_OPEN.match(line):
                block = []
        elif line.strip() == "}":
            rng.shuffle(block)
            out += block + [line]
            block = None
        else:
            block.append(line)
    return "\n".join(out + (block or []))


def unary_scm(name: str, nodes: tuple[str, ...], edges) -> list[str]:
    """The lines of a model over `nodes` with an edge `nodes[a] -> nodes[b]`
    for each index pair (a, b) of `edges`; every value and noise term is 0."""
    parents = {v: [nodes[a] for a, b in sorted(edges) if nodes[b] == v] for v in nodes}
    out = [f"scm {name} {{"]
    out += [f"  var {v} : 0" + (f" parents {' '.join(parents[v])}" if parents[v] else "")
            for v in nodes]
    out += [f"  exo U_{v} : 0 for {v}" for v in nodes]
    out += ["  dist " + " ".join(f"U_{v}" for v in nodes) + " {",
            "    " + "0 " * len(nodes) + ": 1", "  }"]
    for v in nodes:
        out += [f"  mech {v} {{", "    " + "0 " * (len(parents[v]) + 1) + ": 0", "  }"]
    return out + ["}"]


def complete_dag() -> str:
    """A model whose graph is the complete DAG over `COMPLETE`: each node
    has every earlier one as a parent."""
    edges = [(a, b) for b in range(len(COMPLETE)) for a in range(b)]
    return "\n".join(["absaudit-format 1", "", *unary_scm("complete7", COMPLETE, edges), ""])


def bijections() -> str:
    """Bijections from the seven-node DAG over `DEEP` (a chain with three
    shortcuts), one per entry of `BIJECTIONS`: onto copies with one deep
    edge more, one fewer or one reversed, and a permutation onto a copy
    whose edges correspond."""
    out = ["absaudit-format 1", "", *unary_scm("deep7", DEEP, DEEP_EDGES)]
    nodes = tuple(f"q{i}" for i in range(len(DEEP)))
    for name, (edges, image) in BIJECTIONS.items():
        out += ["", *unary_scm(f"{name}7", nodes, edges), "", f"abs {name} {{",
                "  source deep7", f"  target {name}7", "  direction micro-to-macro", "  nodes {"]
        out += [f"    {u} : {nodes[k]} 1.0" for u, k in zip(DEEP, image)]
        out += ["  }", "}"]
    return "\n".join(out + [""])


def chain_maps(names=tuple(CHAIN_MAPS)) -> str:
    """Maps from the chain over `CHAIN`, one per entry of `CHAIN_MAPS` named
    in `names`, each onto a chain over the images, with a full edge map:
    every path of the source goes onto the path its nodes land on,
    consecutive repeats merged."""
    def chain(name: str, nodes: tuple[str, ...]) -> list[str]:
        return unary_scm(name, nodes, list(pairwise(range(len(nodes)))))

    def token(path: list[str]) -> str:
        return "^".join(path * 2 if len(path) == 1 else path)

    out = ["absaudit-format 1", "", *chain("chain12", CHAIN)]
    for name in names:
        image = CHAIN_MAPS[name]
        nodes = tuple(f"{name}{k}" for k in range(max(image) + 1))
        out += ["", *chain(f"{name}12", nodes), "",
                f"abs {name} {{", "  source chain12", f"  target {name}12",
                "  direction micro-to-macro", "  nodes {"]
        out += [f"    {u} : {nodes[k]} 1.0" for u, k in zip(CHAIN, image)]
        out += ["  }", "  edges {"]
        for i, j in combinations_with_replacement(range(len(CHAIN)), 2):
            landed = [nodes[k] for k, _ in groupby(image[i : j + 1])]
            out.append(f"    {token(list(CHAIN[i : j + 1]))} : {token(landed)}")
        out += ["  }", "}"]
    return "\n".join(out + [""])


def parity_chain() -> str:
    """A model over `PARITY`, a chain in which each variable is the parity
    of its parent and its noise term, with a `dist` block of all 64 noise
    values in row-major order, the r-th weighing (2r + 1) / 4096: each sum
    of weights is exact, so shuffled rows sum alike."""
    out = ["absaudit-format 1", "", "scm parity6 {"]
    out += [f"  var {v} : 0 1" + (f" parents {PARITY[i - 1]}" if i else "")
            for i, v in enumerate(PARITY)]
    out += [f"  exo U_{v} : 0 1 for {v}" for v in PARITY]
    out += ["  dist " + " ".join(f"U_{v}" for v in PARITY) + " {"]
    out += [f"    {' '.join(key)} : {(2 * r + 1) / 4096!r}"
            for r, key in enumerate(product("01", repeat=len(PARITY)))]
    out.append("  }")
    for i, v in enumerate(PARITY):
        out += [f"  mech {v} {{", *(f"    {' '.join(key)} : {key.count('1') % 2}"
                                     for key in product("01", repeat=1 + bool(i))), "  }"]
    return "\n".join(out + ["}", ""])


def cuts(text: str) -> list[tuple[str, str, str]]:
    """(command, tag, copy of `text` with one line changed) for every line
    that is a lone `}` (validate without it, tag `no-brace-N`, N the line
    number), every row of a `mech` block (validate without it, tag
    `no-mech-row-N`) and every row of an `edges` block (audit without it,
    tag `no-edge-row-N`, and validate with its two paths swapped, tag
    `swapped-edge-row-N`)."""
    lines, picked, block = text.split("\n"), [], None
    for i, line in enumerate(lines):
        if line.strip() == "}":
            picked.append((i, "validate", "no-brace", []))
        elif block and (row := line.split("#")[0].split()):
            picked.append((i, *block, []))
            if block[1] == "no-edge-row":
                indent = line[: len(line) - len(line.lstrip())]
                picked.append((i, "validate", "swapped-edge-row", [indent + " ".join(row[::-1])]))
        if MECH_OPEN.match(line):
            block = ("validate", "no-mech-row")
        elif EDGES_OPEN.match(line):
            block = ("audit", "no-edge-row")
        elif line.strip() == "}":
            block = None
    return [(command, f"{tag}-{i + 1}", "\n".join(lines[:i] + new + lines[i + 1:]))
            for i, command, tag, new in picked]


def bad_noise(text: str, doc) -> list[tuple[str, str, str]]:
    """(kind, model, copy of `text`) for each model of `doc` with a `dist`
    block: its first row keyed with a token outside the first noise term's
    domain (kind `bad-key`) or weighing 0.5 more (`bad-total`), its last row
    keyed so (`bad-key-last`), and, when it has two rows or more, its first
    weight set to -0.25 and its second row gaining what the first lost
    (`bad-negative`), so the total stays 1."""
    lines, out, model, rows = text.split("\n"), [], None, None

    def copy(kind: str, *edits: tuple[int, list[str]]) -> None:
        new = lines[:]
        for i, tokens in edits:
            new[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(tokens)
        out.append((kind, model, "\n".join(new)))

    def keyed(row: list[str]) -> list[str]:
        domain = doc.models[model].exogenous[0].domain
        return ["9" * (1 + max(map(len, domain))), *row[1:]]

    for i, line in enumerate(lines):
        row = line.split("#")[0].split()
        if opened := SCM_OPEN.match(line):
            model = opened[1]
        elif DIST_OPEN.match(line):
            rows = []
        elif rows is not None and line.strip() == "}":
            if rows:
                copy("bad-key-last", (rows[-1][0], keyed(rows[-1][1])))
            if len(rows) > 1:
                (first, a), (second, b) = rows[:2]
                copy("bad-negative", (first, [*a[:-1], "-0.25"]),
                     (second, [*b[:-1], repr(float(b[-1]) + float(a[-1]) + 0.25)]))
            rows = None
        elif rows is not None and row:
            if not rows:
                copy("bad-key", (i, keyed(row)))
                copy("bad-total", (i, [*row[:-1], repr(float(row[-1]) + 0.5)]))
            rows.append((i, row))
    return out


def stray_rows(text: str, doc) -> list[tuple[str, str]]:
    """(model, copy of `text`) for each model of `doc` whose first `mech`
    block has a row: after that row, the block gains it again with its
    first token replaced by a label that no domain of the model holds (9s,
    one more than its longest label, as `bad_noise` keys a row), so the
    mechanism holds one stray input."""
    lines, out, model = text.split("\n"), [], None
    for i, line in enumerate(lines):
        if opened := SCM_OPEN.match(line):
            model = opened[1]
        elif model is not None and MECH_OPEN.match(line):
            j = next((j for j in range(i + 1, len(lines)) if lines[j].split("#")[0].split()), i)
            row = lines[j].split("#")[0].split()
            if j > i and row != ["}"]:
                m = doc.models[model]
                longest = max((len(x) for t in (*m.variables, *m.exogenous) for x in t.domain),
                              default=0)
                indent = lines[j][: len(lines[j]) - len(lines[j].lstrip())]
                stray = indent + " ".join(["9" * (1 + longest), *row[1:]])
                out.append((model, "\n".join(lines[: j + 1] + [stray] + lines[j + 1 :])))
            model = None  # the model's first mech block only
    return out


def near_product(text: str, doc) -> list[tuple[str, str]]:
    """(model, copy of `text`) for each model of `doc` whose `dist` block
    holds a row for every joint value of two noise terms or more: the
    block's first row weighs `NEAR_PRODUCT` less and its second row that
    much more."""
    lines, out, model, rows = text.split("\n"), [], None, None
    for i, line in enumerate(lines):
        row = line.split("#")[0].split()
        if opened := SCM_OPEN.match(line):
            model = opened[1]
        elif DIST_OPEN.match(line):
            rows = []
        elif rows is not None and line.strip() == "}":
            noise = doc.models[model].exogenous
            if len(noise) > 1 and len(rows) == math.prod(len(u.domain) for u in noise):
                new = lines[:]
                for (j, tokens), step in zip(rows, (-NEAR_PRODUCT, NEAR_PRODUCT)):
                    indent = lines[j][: len(lines[j]) - len(lines[j].lstrip())]
                    new[j] = indent + " ".join([*tokens[:-1], repr(float(tokens[-1]) + step)])
                out.append((model, "\n".join(new)))
            rows = None
        elif rows is not None and row:
            rows.append((i, row))
    return out


def split_rows(text: str, doc) -> str | None:
    """A copy of `text`, whose one abstraction is that of `doc`, in which
    each row of the first per-variable outcome map sends its key to its
    first value at weight 0.5 and to the next value of the target
    variable's domain (the first after the last) at 0.5; None when the
    abstraction has no per-variable map, or its first one's target variable
    has one value."""
    (a,) = doc.abstractions.values()
    lines, domain = text.split("\n"), None
    for i, line in enumerate(lines):
        if domain is None and (opened := OUTCOMES_OPEN.match(line)) and opened[1] != "*":
            domain = doc.models[a.target_ref].domain_of(opened[1])
            if len(domain) < 2:
                return None
        elif domain is not None and line.strip() == "}":
            return "\n".join(lines)
        elif domain is not None and (row := line.split("#")[0].split()):
            colon = row.index(":")
            first = row[colon + 1]
            after = domain[(domain.index(first) + 1) % len(domain)]
            indent = line[: len(line) - len(line.lstrip())]
            lines[i] = indent + " ".join([*row[: colon + 1], first, "0.5", after, "0.5"])
    return None


def graph_fault(text: str, doc, fault: str) -> str:
    """A copy of `text`, whose one abstraction is that of `doc`, in which the
    map's source has the graph fault `fault`: its last variable lists
    `UNKNOWN_PARENT` (`unknown-parent`) or itself (`self-parent`) as a
    parent, or its first variable lists the last one (`cyclic`), which
    lists the first one too unless it did already or is the same; its last
    `var` line comes twice (`dup-variable`); or its first `exo` line is
    moved above its first `var` line (`exo-before-var`), which leaves that
    term's variable unattached and keeps the order of the `exo` terms, so
    the `dist` header still reads."""
    (a,) = doc.abstractions.values()
    lines, model, found = text.split("\n"), None, {"var": [], "exo": []}
    for i, line in enumerate(lines):
        if opened := SCM_OPEN.match(line):
            model = opened[1]
        elif model == a.source_ref and line.split()[:1] in (["var"], ["exo"]):
            found[line.split()[0]].append(i)
    first, last = found["var"][0], found["var"][-1]

    def name(i: int) -> str:
        return lines[i].split()[1]

    def parents(i: int) -> list[str]:
        row = lines[i].split("#")[0].split()
        return row[row.index("parents") + 1:] if "parents" in row else []

    def add_parent(i: int, parent: str) -> None:
        row = lines[i].split("#")[0].split()
        row += [parent] if "parents" in row else ["parents", parent]
        lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(row)

    if fault == "dup-variable":
        lines.insert(last + 1, lines[last])
    elif fault == "exo-before-var":
        lines.insert(first, lines.pop(found["exo"][0]))
    elif fault == "cyclic":
        if first != last and name(first) not in parents(last):
            add_parent(last, name(first))
        add_parent(first, name(last))
    else:
        add_parent(last, UNKNOWN_PARENT if fault == "unknown-parent" else name(last))
    return "\n".join(lines)


def calls(files: list[str], parse_path, cut: list[tuple[str, str]], faulty: list[str],
          noisy: list[tuple[str, str]], stray: list[str], split: list[str]) -> list[list[str]]:
    """The argv of every sweep call on `files`, on the (command, copy) pairs
    in `cut` whose copy lacks a line, on the copies in `faulty` whose map's
    source has a graph fault, on the (copy, model) pairs in `noisy` with
    invalid noise, on the copies in `stray` whose mechanism holds a stray
    input and on the copies in `split` whose first outcome map's rows are
    split (paths in the working dir)."""
    plain: list[list[str]] = []
    for path in files:
        plain += [[cmd, path] for cmd in ("validate", "graph", "dist", "audit",
                                          "classify", "push")]
        try:
            doc = parse_path(path)
        except Exception:  # the per-file calls report it
            continue
        for name, model in doc.models.items():
            pick = ["--model", name]
            plain += [["graph", path, *pick], ["graph", path, "--dot", *pick],
                      ["dist", path, *pick]]
            nodes = model.variable_names
            plain += [["graph", path, *pick, "--hom", s, t] for s in nodes for t in nodes]
            plain += [["dist", path, *pick, "--do", f"{v.name}={x}"] for v in model.variables
                      for x in dict.fromkeys(v.domain[:1] + v.domain[-1:])]
            plain += [["dist", path, *pick, "--marginal", ",".join(vs)]
                      for vs in [*zip(nodes), nodes[::-1]]]
        for name, a in doc.abstractions.items():
            pick = ["--abs", name]
            plain += [["graph", path, "--dot", *pick], ["audit", path, *pick],
                      ["audit", path, *pick, "--require", REQUIRE],
                      ["classify", path, *pick], ["push", path, *pick],
                      ["push", path, "--renormalize", *pick]]
            source = doc.models.get(a.source_ref)
            plain += [["push", path, *pick, *flag, "--do", f"{v.name}={v.domain[0]}"]
                      for v in (source.variables if source else ()) if v.domain
                      for flag in ([], ["--renormalize"])]
    plain += [["graph", COMPLETE_FILE, "--hom", s, t] for s in COMPLETE for t in COMPLETE]
    plain += [["classify", BIJECTIONS_FILE, "--abs", name] for name in BIJECTIONS]
    plain += [[command, CHAIN_MAPS_FILE, "--abs", name, *extra] for name in CHAIN_MAPS
              for command, extra in (("audit", []), ("audit", ["--require", REQUIRE]),
                                     ("classify", []))]
    plain += [[command, path] for command, path in cut]
    plain += [[command, path] for path in faulty for command in ("audit", "classify")]
    for path, model in noisy:
        plain += [["validate", path], ["dist", path, "--model", model]]
        plain += [["push", path, "--abs", name]
                  for name, a in parse_path(path).abstractions.items()
                  if a.source_ref == model]
    plain += [["validate", path] for path in stray]
    plain += [["push", path, *flag] for path in split for flag in ([], ["--renormalize"])]
    plain += [["tables", "--which", w] for w in ("both", "structural", "distributional")]
    plain += [["tables", "--truth", "tables/structural.tbl"]]
    plain += [["tables", "--which", w, "--truth", f"tables/{w}.tbl"]
              for w in ("structural", "distributional")]
    plain += [list(UNKNOWN_REQUIRE)] if UNKNOWN_REQUIRE[1] in files else []
    plain += [list(argv) for argv in ARGPARSE]
    plain += [[f"{CAP_ENV}={cap}", *argv] for cap, argv in CAPPED
              if argv[1] in (COMPLETE_FILE, *files)]
    return [argv for cmd in plain for argv in (cmd, in_json(cmd))]


def split_cap(argv: list[str]) -> tuple[list[str], list[str]]:
    """A leading `ABSAUDIT_ENUM_CAP=N` token of `argv` (as a list of zero
    or one tokens), and the rest."""
    n = int(bool(argv) and argv[0].startswith(f"{CAP_ENV}="))
    return argv[:n], argv[n:]


def in_json(argv: list[str]) -> list[str]:
    """`argv` with `--format json` after its `ABSAUDIT_ENUM_CAP=N`, if any."""
    env, rest = split_cap(argv)
    return [*env, "--format", "json", *rest]


def library_lines(files: list[str], parse_path, emit_document,
                  mechanism_kernel) -> Iterator[str]:
    """The emit line, then one kernel line per (model, variable), of each
    parsable file in `files`."""
    for path in files:
        try:
            doc = parse_path(path)
        except Exception:  # the per-file calls report it
            continue
        yield hashed(lambda: emit_document(doc), ["emit", path])
        for name, model in doc.models.items():
            for var in model.variable_names:
                yield hashed(lambda: kernel_text(mechanism_kernel(model, var)),
                             ["kernel", path, "--model", name, var])


def kernel_text(k) -> str:
    """The scope and rows of a kernel, as hashed."""
    return repr((k.row_scope, [(key, list(row.items())) for key, row in k.rows.items()]))


def hashed(answer, argv: list[str]) -> str:
    """One sweep line for the library call `answer()`, named by `argv`."""
    try:
        code, blob = "0", answer()
    except Exception as exc:  # a refusal is an answer to compare too
        code, blob = type(exc).__name__, f"{type(exc).__name__}: {exc}"
    return f"{code} {hashlib.sha256(blob.encode()).hexdigest()} {shlex.join(argv)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="model or map files (default: all shipped)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose absaudit runs (default: this checkout's)")
    parser.add_argument("--shuffle-dist", type=int, metavar="SEED",
                        help="shuffle the rows of every dist block of the copies first")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    from absaudit.audit import audit_abstraction
    from absaudit.cli import main as absaudit_main
    from absaudit.scm import mechanism_kernel
    from absaudit.textfmt import emit_document, parse_document, parse_path

    check_require(audit_abstraction, parse_document(chain_maps(["identity"])))

    data = ROOT / "src" / "absaudit" / "data"
    files = [pathlib.Path(f).resolve() for f in args.files] or sorted(
        p for p in data.rglob("*") if p.suffix in (".abs", ".scm"))
    rng = random.Random(args.shuffle_dist)
    noise_rng = random.Random(args.shuffle_dist)  # keeps `rng`'s draws as they were
    last_rng = random.Random(args.shuffle_dist)  # keeps `noise_rng`'s draws as they were
    near_rng = random.Random(args.shuffle_dist)  # keeps `last_rng`'s draws as they were
    here = os.getcwd()
    os.environ["COLUMNS"] = "80"  # help text wraps at the terminal's width
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(data / "tables", pathlib.Path(scratch, "tables"))
        complete = pathlib.Path(scratch, COMPLETE_FILE)
        complete.parent.mkdir()
        complete.write_text(complete_dag(), encoding="utf-8")
        pathlib.Path(scratch, BIJECTIONS_FILE).write_text(bijections(), encoding="utf-8")
        pathlib.Path(scratch, CHAIN_MAPS_FILE).write_text(chain_maps(), encoding="utf-8")
        names, cut, noisy, stray, near, split = [], [], [], [], [], []
        faults = {f: [] for f in GRAPH_FAULTS}
        sources = [(path.relative_to(data) if path.is_relative_to(data) else path.name,
                    path.read_bytes()) for path in files]
        for name, original in sources + [(PARITY_FILE, parity_chain().encode("utf-8"))]:
            copy = pathlib.Path(scratch, name)
            copy.parent.mkdir(parents=True, exist_ok=True)
            text = original
            if args.shuffle_dist is not None:
                text = shuffle_dist(text.decode("utf-8"), rng).encode("utf-8")
            copy.write_bytes(text)
            names.append(str(name))
            for command, tag, trimmed in cuts(text.decode("utf-8")):
                cut.append((command, f"{name}.{tag}"))
                pathlib.Path(scratch, cut[-1][1]).write_text(trimmed, encoding="utf-8")
            try:
                doc = parse_document(original.decode("utf-8"))
            except Exception:  # the per-file calls report it
                continue
            for fault in GRAPH_FAULTS if doc.abstractions else ():
                faults[fault].append(f"{name}.{fault}")
                pathlib.Path(scratch, faults[fault][-1]).write_text(
                    graph_fault(text.decode("utf-8"), doc, fault), encoding="utf-8")
            for kind, model, bad in bad_noise(original.decode("utf-8"), doc):
                if args.shuffle_dist is not None:
                    bad = shuffle_dist(bad, noise_rng if kind in FIRST_ROW else last_rng)
                noisy.append((f"{name}.{kind}-{model}", model))
                pathlib.Path(scratch, noisy[-1][0]).write_text(bad, encoding="utf-8")
            for model, extra in stray_rows(text.decode("utf-8"), doc):
                stray.append(f"{name}.stray-row-{model}")
                pathlib.Path(scratch, stray[-1]).write_text(extra, encoding="utf-8")
            if doc.abstractions and (halved := split_rows(text.decode("utf-8"), doc)):
                split.append(f"{name}.split-rows")
                pathlib.Path(scratch, split[-1]).write_text(halved, encoding="utf-8")
            for model, moved in near_product(original.decode("utf-8"), doc):
                if args.shuffle_dist is not None:
                    moved = shuffle_dist(moved, near_rng)
                near.append(f"{name}.near-product-{model}")
                pathlib.Path(scratch, near[-1]).write_text(moved, encoding="utf-8")
        for command, tag, trimmed in cuts(chain_maps(["identity"])):
            if "edge-row" in tag:
                cut.append((command, f"{CHAIN_IDENTITY_FILE}.{tag}"))
                pathlib.Path(scratch, cut[-1][1]).write_text(trimmed, encoding="utf-8")
        os.chdir(scratch)
        try:
            for line_argv in calls(names, parse_path, cut, sum(faults.values(), []), noisy,
                                   stray, split):
                print(call(absaudit_main, line_argv))
            for line in library_lines(names + [path for path, _ in noisy] + stray + near,
                                      parse_path, emit_document, mechanism_kernel):
                print(line)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
