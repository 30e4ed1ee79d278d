#!/usr/bin/env python3
"""Regenerate every data file shipped inside the package.

All models, figure fixtures, canonical witnesses and ground-truth tables are
built through the library API and written with the canonical serializer, so
the shipped files are by construction parse/emit stable.  Run from the
repository root:

    python3 tools/make_fixtures.py
"""
from __future__ import annotations

import itertools
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from absaudit.abstraction import (
    GLOBAL,
    Abstraction,
    Direction,
    OutcomeMap,
    StructuralMap,
    validate_abstraction,
)
from absaudit.scm import Exogenous, Scm, Variable, validate_scm
from absaudit.textfmt import Document, emit_document

DATA = ROOT / "src" / "absaudit" / "data"

BIN = ("0", "1")
U2 = (("0", 0.5), ("1", 0.5))


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def xor(parents: tuple[str, ...], u: str) -> str:
    """Parity of all inputs: the workhorse binary mechanism."""
    return str((sum(int(p) for p in parents) + int(u)) % 2)


def or_xor(parents: tuple[str, ...], u: str) -> str:
    """Disjunction of the parents, then flipped by the noise term."""
    return str((max(int(p) for p in parents) + int(u)) % 2)


def copy_u(parents: tuple[str, ...], u: str) -> str:
    """Root mechanism that just reads off its noise term."""
    return u


def model(name, spec, dists) -> Scm:
    """Assemble a model from per-variable pieces.

    `spec` is a list of (variable, domain, parents, mechanism-callable);
    `dists` maps each variable to a list of (noise value, probability),
    defining one independent noise term per variable (named U_<variable>).
    """
    domains = {vname: tuple(domain) for vname, domain, _, _ in spec}
    variables, exogenous, mechanisms = [], [], {}
    for vname, domain, parents, mech in spec:
        exo_name = f"U_{vname}"
        variables.append(Variable(vname, tuple(domain), tuple(parents), exo_name))
        exo_domain = tuple(v for v, _ in dists[vname])
        exogenous.append(Exogenous(exo_name, exo_domain, vname))
        table = {}
        for combo in itertools.product(*(domains[p] for p in parents)):
            for u in exo_domain:
                table[(*combo, u)] = mech(combo, u)
        mechanisms[vname] = table
    exo_table = {}
    for picks in itertools.product(*(dists[v.name] for v in variables)):
        prob = 1.0
        for _, p in picks:
            prob *= p
        exo_table[tuple(v for v, _ in picks)] = prob
    built = Scm(name, variables, exogenous, mechanisms, exo_table)
    report = validate_scm(built)
    assert report.ok, (name, [f"{i.code}: {i.message}" for i in report.issues])
    return built


def chain(name: str, nodes: list[str]) -> Scm:
    """A binary parity chain n1 -> n2 -> ... with fair independent noise."""
    spec, prev = [], None
    for n in nodes:
        spec.append((n, BIN, (prev,) if prev else (), xor))
        prev = n
    return model(name, spec, {n: U2 for n in nodes})


def point(name: str, var: str, dist) -> Scm:
    """A single-variable model whose outcome law is the given noise law."""
    return model(name, [(var, tuple(v for v, _ in dist), (), copy_u)], {var: dist})


# --- the recurring smoking models ------------------------------------------

chain3_micro = chain("chain3_micro", ["S", "T", "C"])
chain2_macro = chain("chain2_macro", ["S'", "C'"])
chain3_macro = chain("chain3_macro", ["S'", "T'", "C'"])
chain3_direct_macro = model(
    "chain3_direct_macro",
    [
        ("S'", BIN, (), xor),
        ("T'", BIN, ("S'",), xor),
        ("C'", BIN, ("S'", "T'"), xor),
    ],
    {n: U2 for n in ("S'", "T'", "C'")},
)
chain2_rev_macro = model(
    "chain2_rev_macro",
    [("S'", BIN, ("C'",), xor), ("C'", BIN, (), xor)],
    {n: U2 for n in ("S'", "C'")},
)
confounded_micro = model(
    "confounded_micro",
    [
        ("P", BIN, (), xor),
        ("S", BIN, (), xor),
        ("T", BIN, ("P", "S"), or_xor),
        ("C", BIN, ("T",), xor),
    ],
    {n: U2 for n in ("P", "S", "T", "C")},
)
confounded_macro = model(
    "confounded_macro",
    [
        ("E'", BIN, (), xor),
        ("S'", BIN, ("E'",), xor),
        ("C'", BIN, ("E'", "S'"), or_xor),
    ],
    {n: U2 for n in ("E'", "S'", "C'")},
)

# --- minimal graphs for the structural witnesses ----------------------------

w2_micro = chain("w2_micro", ["A", "B"])
w2_macro = chain("w2_macro", ["X", "Y"])
w3_micro = chain("w3_micro", ["A", "B", "C"])
w3_macro = chain("w3_macro", ["X", "Y", "Z"])
w3direct_micro = model(
    "w3direct_micro",
    [
        ("A", BIN, (), xor),
        ("B", BIN, ("A",), xor),
        ("C", BIN, ("A", "B"), xor),
    ],
    {n: U2 for n in ("A", "B", "C")},
)
w3direct_macro = model(
    "w3direct_macro",
    [
        ("X", BIN, (), xor),
        ("Y", BIN, ("X",), xor),
        ("Z", BIN, ("X", "Y"), xor),
    ],
    {n: U2 for n in ("X", "Y", "Z")},
)
w3gap_macro = model(
    "w3gap_macro",
    [("X", BIN, (), xor), ("Y", BIN, (), xor), ("Z", BIN, ("Y",), xor)],
    {n: U2 for n in ("X", "Y", "Z")},
)
w2rev_macro = model(
    "w2rev_macro",
    [("X", BIN, ("Y",), xor), ("Y", BIN, (), xor)],
    {n: U2 for n in ("X", "Y")},
)

# --- single-variable models for the distributional fixtures -----------------

out2_micro = point("out2_micro", "S", (("0", 0.25), ("1", 0.75)))
out2_macro = point("out2_macro", "S'", (("0", 0.5), ("1", 0.5)))
out3_micro = point("out3_micro", "S", (("0", 0.2), ("1", 0.3), ("2", 0.5)))
out3_macro = point("out3_macro", "S'", (("0", 0.2), ("1", 0.3), ("2", 0.5)))


# ---------------------------------------------------------------------------
# Abstraction builders
# ---------------------------------------------------------------------------

def M(*nodes: str) -> tuple[str, ...]:
    return nodes


def det_rows(mapping: dict[str, str]) -> dict[str, dict[str, float]]:
    return {u: {x: 1.0} for u, x in mapping.items()}


def det_outcomes(target: str, sources, mapping: dict[tuple, tuple]) -> OutcomeMap:
    rows = {key: {val: 1.0} for key, val in mapping.items()}
    return OutcomeMap(target=target, sources=tuple(sources), rows=rows)


def abstraction(
    name: str,
    src: Scm,
    tgt: Scm,
    rows,
    *,
    edges=None,
    pairs=None,
    outcomes=(),
    direction=Direction.MICRO_TO_MACRO,
) -> Abstraction:
    if rows and isinstance(next(iter(rows.values())), str):
        rows = det_rows(rows)
    built = Abstraction(
        name=name,
        source_ref=src.name,
        target_ref=tgt.name,
        direction=direction,
        structure=StructuralMap(rows=rows, edge_map=edges, pairing=pairs),
        outcome_maps=list(outcomes),
    )
    report = validate_abstraction(built, src, tgt)
    assert report.ok, (name, [f"{i.code}: {i.message}" for i in report.issues])
    return built


def write_doc(relpath: str, models, abstractions=()) -> None:
    doc = Document()
    for m in models:
        doc.add_model(m)
    for a in abstractions:
        doc.add_abstraction(a)
    path = DATA / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit_document(doc), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# Standalone models
# ---------------------------------------------------------------------------

write_doc("models/chain3_micro.scm", [chain3_micro])
write_doc("models/confounded_micro.scm", [confounded_micro])


# ---------------------------------------------------------------------------
# Figure fixtures (each file: source model + target model + one abstraction)
# ---------------------------------------------------------------------------

# Shared edge maps, named after what they exercise.
FULL_3CHAIN_EDGES = {
    M("S"): M("S'"),
    M("T"): M("T'"),
    M("C"): M("C'"),
    M("S", "T"): M("S'", "T'"),
    M("T", "C"): M("T'", "C'"),
    M("S", "T", "C"): M("S'", "T'", "C'"),
}
COLLAPSE_ST_EDGES = {
    M("S"): M("S'"),
    M("T"): M("S'"),
    M("C"): M("C'"),
    M("S", "T"): M("S'"),
    M("T", "C"): M("S'", "C'"),
    M("S", "T", "C"): M("S'", "C'"),
}
SKIP_T_EDGES = {
    M("S"): M("S'"),
    M("C"): M("C'"),
    M("S", "T", "C"): M("S'", "C'"),
}
SKIP_T_FLIPPED_EDGES = {
    M("S"): M("S'"),
    M("C"): M("C'"),
    M("S", "T", "C"): M("C'", "S'"),
}


def fig(name, src, tgt, rows, **kw) -> None:
    write_doc(
        f"figures/{name}.abs", [src, tgt], [abstraction(name, src, tgt, rows, **kw)]
    )


# Node-layer figures.
fig(
    "fig2a", chain3_micro, chain3_macro,
    {"S": "S'", "T": "T'", "C": "C'"}, edges=dict(FULL_3CHAIN_EDGES),
)
fig(
    "fig2b", chain3_micro, chain2_macro,
    {"S": "S'", "T": "S'", "C": "C'"}, edges=dict(COLLAPSE_ST_EDGES),
)
fig(
    "fig3a", chain3_micro, chain2_macro,
    {"S": "S'", "T": "S'", "C": "C'"},
    outcomes=[
        det_outcomes(
            "S'", ("S", "T"),
            {
                ("0", "0"): ("0",),
                ("0", "1"): ("0",),
                ("1", "0"): ("1",),
                ("1", "1"): ("1",),
            },
        ),
        det_outcomes("C'", ("C",), {("0",): ("0",), ("1",): ("1",)}),
    ],
)
fig("fig3b", chain3_micro, chain2_macro, {"S": "S'", "C": "C'"})
fig("fig4a", confounded_micro, chain2_macro, {"S": "S'", "P": "S'", "C": "C'"})
fig("fig4b", confounded_micro, confounded_macro, {"S": "S'", "C": "C'"})
fig("fig5a", chain3_micro, chain3_macro, {"S": "T'", "T": "S'", "C": "C'"})
fig("fig5b", chain3_micro, chain2_macro, {"S": "S'", "T": "S'", "C": "C'"})
fig("fig6a", chain3_micro, chain3_macro, {"S": "S'", "T": "T'", "C": "C'"})
fig("fig6b", chain3_micro, chain2_macro, {"S": "S'", "C": "C'"})

# Morphism-layer figures.
fig(
    "fig7a", chain3_micro, chain2_macro,
    {"S": "S'", "C": "C'"}, edges=dict(SKIP_T_EDGES),
)
fig(
    "fig7b", chain3_micro, chain2_rev_macro,
    {"S": "S'", "C": "C'"}, edges=dict(SKIP_T_FLIPPED_EDGES),
)
fig(
    "fig8a", chain3_micro, chain3_macro,
    {"S": "S'", "T": "T'", "C": "C'"}, edges=dict(FULL_3CHAIN_EDGES),
)
fig(
    "fig8b", chain3_micro, chain3_direct_macro,
    {"S": "S'", "T": "T'", "C": "C'"}, edges=dict(FULL_3CHAIN_EDGES),
)
fig(
    "fig9a", chain3_micro, chain2_macro,
    {"S": "S'", "C": "C'"}, edges=dict(SKIP_T_EDGES),
)
fig(
    "fig9b", chain3_micro, chain2_macro,
    {"S": "S'", "T": "S'", "C": "C'"}, edges=dict(COLLAPSE_ST_EDGES),
)

# Outcome-layer figures.
TRIV = {"S": "S'"}
COARSE32 = {("0",): ("0",), ("1",): ("0",), ("2",): ("1",)}
COARSE33 = {("0",): ("0",), ("1",): ("0",), ("2",): ("1",)}
DROP32 = {("1",): ("0",), ("2",): ("1",)}
EMBED23 = {("0",): ("0",), ("1",): ("1",)}
IDENT3 = {("0",): ("0",), ("1",): ("1",), ("2",): ("2",)}

fig(
    "fig10a", out3_micro, out2_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE32)],
)
fig(
    "fig10b", out3_micro, out2_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), DROP32)],
)
fig(
    "fig11a", out3_micro, out2_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE32)],
)
fig(
    "fig11b", out3_micro, out3_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE33)],
)
fig(
    "fig12a", out2_micro, out3_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), EMBED23)],
)
fig(
    "fig12b", out3_micro, out3_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE33)],
)
fig(
    "fig13a", out3_micro, out3_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), IDENT3)],
)
fig(
    "fig13b", out3_micro, out3_macro, TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE33)],
)


# ---------------------------------------------------------------------------
# Canonical witnesses, one self-contained file per taxonomy type
# ---------------------------------------------------------------------------

def witness(kind, type_value, src, tgt, rows, **kw) -> None:
    write_doc(
        f"witnesses/{kind}/{type_value}.abs",
        [src, tgt],
        [abstraction(f"witness_{type_value.replace('-', '_')}", src, tgt, rows, **kw)],
    )


witness(
    "structural", "identity", w2_micro, w2_macro,
    {"A": "X", "B": "Y"},
    edges={M("A"): M("X"), M("B"): M("Y"), M("A", "B"): M("X", "Y")},
    pairs={"A": "X", "B": "Y"},
)
witness(
    "structural", "node-permutation", w2_micro, w2_macro,
    {"A": "Y", "B": "X"},
    pairs={"A": "X", "B": "Y"},
)
witness(
    "structural", "node-coarsening", w3_micro, w2_macro,
    {"A": "X", "B": "Y", "C": "Y"},
    edges={
        M("A"): M("X"),
        M("B"): M("Y"),
        M("C"): M("Y"),
        M("A", "B"): M("X", "Y"),
        M("B", "C"): M("Y"),
        M("A", "B", "C"): M("X", "Y"),
    },
)
witness(
    "structural", "edge-coarsening", w3direct_micro, w3_macro,
    {"A": "X", "B": "Y", "C": "Z"},
    edges={
        M("A"): M("X"),
        M("B"): M("Y"),
        M("C"): M("Z"),
        M("A", "B"): M("X", "Y"),
        M("B", "C"): M("Y", "Z"),
        M("A", "C"): M("X", "Y", "Z"),
        M("A", "B", "C"): M("X", "Y", "Z"),
    },
)
witness(
    "structural", "node-embedding", w2_micro, w3_macro,
    {"A": "Y", "B": "Z"},
    edges={M("A"): M("Y"), M("B"): M("Z"), M("A", "B"): M("Y", "Z")},
)
witness(
    "structural", "edge-embedding", w3_micro, w3direct_macro,
    {"A": "X", "B": "Y", "C": "Z"},
    edges={
        M("A"): M("X"),
        M("B"): M("Y"),
        M("C"): M("Z"),
        M("A", "B"): M("X", "Y"),
        M("B", "C"): M("Y", "Z"),
        M("A", "B", "C"): M("X", "Y", "Z"),
    },
)
witness(
    "structural", "node-dropping", w3_micro, w2_macro,
    {"B": "X", "C": "Y"},
    edges={M("B"): M("X"), M("C"): M("Y"), M("B", "C"): M("X", "Y")},
)
witness(
    "structural", "edge-dropping", w3_micro, w3gap_macro,
    {"A": "X", "B": "Y", "C": "Z"},
    edges={
        M("A"): M("X"),
        M("B"): M("Y"),
        M("C"): M("Z"),
        M("B", "C"): M("Y", "Z"),
    },
)
witness(
    "structural", "causal-reversal", w2_micro, w2rev_macro,
    {"A": "X", "B": "Y"},
    edges={M("A"): M("X"), M("B"): M("Y")},
    pairs={"A": "X", "B": "Y"},
)
witness(
    "structural", "causal-splitting", w2_micro, w2_macro,
    {"A": {"X": 0.5, "Y": 0.5}, "B": {"Y": 1.0}},
)
witness(
    "structural", "abstraction-reversal", w2_macro, w2_micro,
    {"X": "A", "Y": "B"},
    edges={M("X"): M("A"), M("Y"): M("B"), M("X", "Y"): M("A", "B")},
    pairs={"X": "A", "Y": "B"},
    direction=Direction.MACRO_TO_MICRO,
)

witness(
    "distributional", "identity-or-permutation", out2_micro, out2_macro,
    TRIV,
    outcomes=[det_outcomes("S'", ("S",), {("0",): ("1",), ("1",): ("0",)})],
)
witness(
    "distributional", "coarsening", out3_micro, out2_macro,
    TRIV,
    outcomes=[det_outcomes("S'", ("S",), COARSE32)],
)
witness(
    "distributional", "embedding", out2_micro, out3_macro,
    TRIV,
    outcomes=[det_outcomes("S'", ("S",), EMBED23)],
)
witness(
    "distributional", "outcome-dropping", out3_micro, out2_macro,
    TRIV,
    outcomes=[det_outcomes("S'", ("S",), DROP32)],
)
witness(
    "distributional", "outcome-splitting", out2_micro, out2_macro,
    TRIV,
    outcomes=[
        OutcomeMap(
            target="S'",
            sources=("S",),
            rows={
                ("0",): {("0",): 0.5, ("1",): 0.5},
                ("1",): {("1",): 1.0},
            },
        )
    ],
)
witness(
    "distributional", "abstraction-reversal", out2_macro, out2_micro,
    {"S'": "S"},
    direction=Direction.MACRO_TO_MICRO,
    outcomes=[
        OutcomeMap(
            target=GLOBAL,
            sources=("S'",),
            rows={("0",): {("0",): 1.0}, ("1",): {("1",): 1.0}},
            onto=("S",),
        )
    ],
)


# ---------------------------------------------------------------------------
# Ground-truth admissibility tables
# ---------------------------------------------------------------------------

STRUCTURAL_TBL = """\
absaudit-table structural
col Identity
col Node permutation
col Node coarsening
col Edge coarsening
col Node embedding
col Edge embedding
col Node dropping
col Edge dropping
col Causal reversal
col Causal splitting
col Abs. Reversal
row Functionality : Y Y Y Y Y Y N Y Y N -
row Surjectivity : Y Y Y Y N Y N Y Y N -
row Injectivity : Y Y N Y Y Y N Y Y N -
row Bijectivity : Y Y N Y N Y N Y Y N -
row Functoriality : Y N Y Y Y Y N N N N -
row Fullness : Y N Y Y Y N N N N N -
row Faithfulness : Y N Y N Y Y N N N N -
row Fully Faithfulness : Y N Y N Y N N N N N -
row Non-Determinism : - - - - - - - - - Y -
row Macro-to-micro : - - - - - - - - - - Y
"""

DISTRIBUTIONAL_TBL = """\
absaudit-table distributional
col Identity / Permutation
col Coarsening
col Embedding
col Outcome dropping
col Outcome splitting
col Abstraction reversal
row Functionality : Y Y Y N N N
row Surjectivity : Y Y N N N N
row Injectivity : Y N Y N N N
row Bijectivity : Y N N N N N
row Non-Determinism : - - - - Y -
row Macro-to-micro : - - - - - Y
"""

tables = DATA / "tables"
tables.mkdir(parents=True, exist_ok=True)
(tables / "structural.tbl").write_text(STRUCTURAL_TBL, encoding="utf-8")
print(f"wrote {(tables / 'structural.tbl').relative_to(ROOT)}")
(tables / "distributional.tbl").write_text(DISTRIBUTIONAL_TBL, encoding="utf-8")
print(f"wrote {(tables / 'distributional.tbl').relative_to(ROOT)}")
