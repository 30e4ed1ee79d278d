"""Taxonomy: admissibility matrices, witnesses, type detection."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import io
import itertools
import pathlib
import random
import tempfile
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from absaudit import taxonomy
from absaudit.abstraction import Abstraction, Direction, OutcomeMap, StructuralMap
from absaudit.audit import audit_abstraction, audit_node_map
from absaudit.cli import main
from absaudit.errors import ModelError, ParseError
from absaudit.freecat import path_counts
from absaudit.scm import Scm, Variable
from absaudit.textfmt import Document, emit_document, parse_path
from absaudit.taxonomy import (
    DISTRIBUTIONAL_ROWS,
    STRUCTURAL_ROWS,
    Admissibility,
    DistributionalType,
    PropertyMatrix,
    StructuralType,
    canonical_witness,
    detect_types,
    distributional_matrix,
    load_table,
    shipped_table,
    structural_matrix,
    witness_profile,
)

from helpers import (abstraction, chain, det_rows, permuted, random_edge_map, random_model,
                     random_outcome_maps, random_rows, unary_chain, unary_dag)
from oracles import property_cells, structural_types

A, N, X = (
    Admissibility.ADMISSIBLE,
    Admissibility.NOT_APPLICABLE,
    Admissibility.DISALLOWED,
)


# ---------------------------------------------------------------------------
# The two headline matrices
# ---------------------------------------------------------------------------

def test_structural_matrix_matches_ground_truth():
    assert structural_matrix().diff(shipped_table("structural")) == []


def test_distributional_matrix_matches_ground_truth():
    assert distributional_matrix().diff(shipped_table("distributional")) == []


def test_matrix_shapes():
    s = structural_matrix()
    assert len(s.rows) == 10 and len(s.cols) == 11
    d = distributional_matrix()
    assert len(d.rows) == 6 and len(d.cols) == 6
    assert s.rows == STRUCTURAL_ROWS and d.rows == DISTRIBUTIONAL_ROWS


@pytest.mark.parametrize(
    "row, col, want",
    [
        ("Functionality", "Identity", A),
        ("Functionality", "Node dropping", X),
        ("Surjectivity", "Node embedding", X),
        ("Injectivity", "Node coarsening", X),
        ("Faithfulness", "Edge coarsening", X),
        ("Fullness", "Edge embedding", X),
        ("Fully Faithfulness", "Node coarsening", A),
        ("Functoriality", "Node permutation", X),
        ("Non-Determinism", "Causal splitting", A),
        ("Non-Determinism", "Identity", N),
        ("Functionality", "Abs. Reversal", N),
        ("Macro-to-micro", "Abs. Reversal", A),
    ],
)
def test_structural_spot_cells(row, col, want):
    assert structural_matrix().cell(row, col) is want


@pytest.mark.parametrize(
    "row, col, want",
    [
        ("Bijectivity", "Identity / Permutation", A),
        ("Injectivity", "Coarsening", X),
        ("Surjectivity", "Embedding", X),
        ("Functionality", "Outcome dropping", X),
        ("Non-Determinism", "Outcome splitting", A),
        ("Functionality", "Abstraction reversal", X),
        ("Macro-to-micro", "Abstraction reversal", A),
        ("Macro-to-micro", "Coarsening", N),
    ],
)
def test_distributional_spot_cells(row, col, want):
    assert distributional_matrix().cell(row, col) is want


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", list(StructuralType))
def test_structural_witness_detects_itself(t):
    detected = detect_types(*canonical_witness(t))
    assert t.value in detected["structural"]


@pytest.mark.parametrize("t", list(DistributionalType))
def test_distributional_witness_detects_itself(t):
    detected = detect_types(*canonical_witness(t))
    assert t.value in detected["distributional"]


@pytest.mark.parametrize("structural", [True, False])
def test_property_cells_follow_the_presupposition_rule(structural):
    """`_property_cells` gives the oracle's cells on every combination of
    the verdicts it reads: 648 structural profiles (functional,
    deterministic and surjective two-valued, injective three-valued, times
    the three-valued functorial, full and faithful_parallel) and the 24
    outcome summaries."""
    two, three = (True, False), (True, False, None)
    set_maps = [dict(zip(("functional", "deterministic", "surjective", "injective"), flags))
                for flags in itertools.product(two, two, two, three)]
    functors = ([dict(zip(("functorial", "full", "faithful_parallel"), flags))
                 for flags in itertools.product(three, repeat=3)] if structural else [None])
    rows = STRUCTURAL_ROWS if structural else DISTRIBUTIONAL_ROWS
    profiles = list(itertools.product(set_maps, functors))
    assert len(profiles) == (648 if structural else 24)
    for set_map, functor in profiles:
        audit = types.SimpleNamespace(**set_map)
        profile = types.SimpleNamespace(node=audit if structural else None,
                                        outcome_summary=None if structural else audit,
                                        functor=types.SimpleNamespace(**functor or {}))
        cells = taxonomy._property_cells(profile, structural)
        assert dict(zip(rows, cells)) == property_cells(set_map, functor), (set_map, functor)


def test_a_witness_needs_one_abstraction_and_the_layer_its_table_reads(monkeypatch):
    """A witness file with a second abstraction is refused, and so is a
    witness without outcome maps in the distributional table."""
    t = StructuralType.NODE_COARSENING
    profile = witness_profile(t)
    assert profile.outcome_summary is None
    with pytest.raises(ModelError, match="^a distributional witness needs an outcome layer$"):
        taxonomy._property_cells(profile, structural=False)
    doc = Document()
    doc.merge(taxonomy.witness_document("structural", t.value))  # a copy: the shipped one is cached
    a = next(iter(doc.abstractions.values()))
    doc.add_abstraction(dataclasses.replace(a, name=a.name + "_again"))
    monkeypatch.setattr(taxonomy, "witness_document", lambda kind, name: doc)
    with pytest.raises(ModelError, match="^witness file for node-coarsening must hold one"):
        canonical_witness(t)


def test_witness_document_is_a_new_document_each_call():
    """The witness parse is cached, but each call returns its own document:
    adding an abstraction to one leaves the next call's unchanged."""
    doc = taxonomy.witness_document("structural", "node-coarsening")
    a = next(iter(doc.abstractions.values()))
    doc.add_abstraction(dataclasses.replace(a, name=a.name + "_again"))
    again = taxonomy.witness_document("structural", "node-coarsening")
    assert list(again.abstractions) == [a.name] and again.abstractions[a.name] is a
    assert again.models == doc.models and again.models is not doc.models
    assert canonical_witness(StructuralType.NODE_COARSENING)[0] is a


def test_witness_profiles_are_cached_and_consistent():
    p = witness_profile(StructuralType.NODE_COARSENING)
    assert p.node.surjective is True and p.node.injective is False
    q = witness_profile(DistributionalType.OUTCOME_SPLITTING)
    assert q.outcome_summary is not None
    assert q.outcome_summary.deterministic is False


def test_reversal_witness_lists_no_forward_types():
    detected = detect_types(
        *canonical_witness(StructuralType.ABSTRACTION_REVERSAL)
    )
    assert detected["structural"] == [StructuralType.ABSTRACTION_REVERSAL.value]


def test_all_zero_node_row_leaves_its_node_unmapped():
    """`T : S' 0.0` maps nothing: the types are those of the map without
    T's row, as the node audit already reads it."""
    micro, macro = chain("micro", ["S", "T"]), chain("macro", ["S'"])
    zero = abstraction("a", micro, macro, {"S": {"S'": 1.0}, "T": {"S'": 0.0}})
    without = abstraction("a", micro, macro, {"S": "S'"})
    node = audit_node_map(zero, micro, macro)
    assert node.deterministic and not node.functional
    assert detect_types(zero, micro, macro) == detect_types(without, micro, macro)
    assert StructuralType.NODE_DROPPING.value in detect_types(zero, micro, macro)["structural"]


# ---------------------------------------------------------------------------
# Table text format
# ---------------------------------------------------------------------------

def test_tbl_round_trip():
    m = shipped_table("structural")
    again = PropertyMatrix.from_tbl(m.to_tbl())
    assert again.diff(m) == []
    assert again.to_tbl() == m.to_tbl()


def test_load_table(tmp_path):
    p = tmp_path / "t.tbl"
    p.write_text(shipped_table("distributional").to_tbl())
    assert load_table(p).diff(shipped_table("distributional")) == []


def test_shipped_table_unknown():
    with pytest.raises(ModelError, match="unknown table"):
        shipped_table("imaginary")


@pytest.mark.parametrize(
    "text, message",
    [
        ("col A\nrow R : Y\n", "missing 'absaudit-table' header"),
        ("absaudit-table t\ncol A\nrow R\n", "expected 'row LABEL : CELLS'"),
        ("absaudit-table t\ncol A\nrow R : Y N\n", "expected 1 cells, found 2"),
        ("absaudit-table t\ncol A\nrow R : Q\n",
         "unknown admissibility letter 'Q'"),
        ("absaudit-table t\nnonsense\n",
         "expected 'absaudit-table', 'col' or 'row'"),
    ],
)
def test_from_tbl_errors(text, message):
    with pytest.raises(ParseError) as err:
        PropertyMatrix.from_tbl(text)
    assert message in str(err.value)


def test_from_tbl_error_line_numbers():
    with pytest.raises(ParseError) as err:
        PropertyMatrix.from_tbl("absaudit-table t\ncol A\n\nrow R : Q\n")
    assert err.value.line == 4


def test_from_tbl_reads_lines_as_the_model_format_does():
    """A table line may be indented, a run of whitespace inside a title or
    label reads as one space, and blank lines and `#` comments are skipped:
    such a copy of the shipped structural table parses to that table."""
    text = shipped_table("structural").to_tbl()
    for old, new in (("col Node permutation", "   col Node  permutation"),
                     ("row Fully Faithfulness :", "row Fully \t Faithfulness  :"),
                     ("absaudit-table structural", "absaudit-table  structural  # the grid"),
                     ("row Surjectivity", "\n  \nrow Surjectivity")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert PropertyMatrix.from_tbl(text) == shipped_table("structural")


@pytest.mark.parametrize("text, message, line", [
    ("# a table\n\ncol A\nrow R : Y\n", "missing 'absaudit-table' header", 1),
    ("absaudit-table t\ncol A\n# R\nrow R :\n", "expected 'row LABEL : CELLS'", 4),
    ("absaudit-table t\ncol A\nrow R : Y\n\nrow S : Y N\n", "expected 1 cells, found 2", 5),
    ("absaudit-table t\n  col A\n  col B\nrow R : Y Q\n",
     "unknown admissibility letter 'Q'", 4),
    ("absaudit-table t\ncol A\ncol\n", "expected 'absaudit-table', 'col' or 'row'", 3),
])
def test_each_table_error_names_its_own_line(text, message, line):
    with pytest.raises(ParseError) as err:
        PropertyMatrix.from_tbl(text)
    assert (err.value.reason, err.value.line) == (message, line)


def test_admissibility_marks():
    assert A.mark == "✓" and X.mark == "×" and N.mark == "−"
    assert Admissibility.from_letter("Y") is A
    with pytest.raises(ValueError, match="unknown admissibility letter"):
        Admissibility.from_letter("?")


def test_to_text_renders_marks_and_legend():
    text = structural_matrix().to_text()
    assert text.startswith("structural admissibility")
    assert "✓" in text and "×" in text and "−" in text
    assert "= Node coarsening" in text
    assert "= Abs. Reversal" in text


def test_diff_reports_cells():
    m = shipped_table("structural")
    cells = dict(m.cells)
    cells[("Fullness", "Edge embedding")] = A
    other = PropertyMatrix(title=m.title, rows=m.rows, cols=m.cols, cells=cells)
    assert m.diff(other) == ["(Fullness, Edge embedding): × vs ✓"]
    assert m.diff(m) == []


def test_diff_reports_structural_mismatches():
    m = shipped_table("structural")
    other = PropertyMatrix(title="other", rows=m.rows, cols=m.cols,
                           cells=dict(m.cells))
    assert "title: 'structural' vs 'other'" in m.diff(other)


def test_detect_types_memory_is_linear_on_a_wide_identity():
    """On a 300-wide chain identity, type detection holds one path count
    per node at a time (0.3 MB), not one per pair of nodes (10 MB)."""
    n = 300
    xs, ys = [f"X{i}" for i in range(n)], [f"Y{i}" for i in range(n)]
    src, tgt = unary_chain("src", xs), unary_chain("tgt", ys)
    a = abstraction("a", src, tgt, dict(zip(xs, ys)))
    tracemalloc.start()
    try:
        types = detect_types(a, src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert types["structural"] == ["identity"]
    assert peak < 2_000_000


def test_detect_types_checks_every_image_against_the_target():
    """An image outside the target raises `ModelError` naming it, wherever
    it sits in the map: it is checked before any path is counted."""
    src, tgt = chain("src", ["A", "B"]), chain("tgt", ["X", "Y"])
    for rows in ({"A": "X", "B": "Q"}, {"A": "Q", "B": "Y"}, {"A": "Q", "B": "Q"}):
        with pytest.raises(ModelError, match="unknown node 'Q'"):
            detect_types(abstraction("a", src, tgt, rows), src, tgt)


def _count_path_counts(monkeypatch) -> list[tuple[str, ...]]:
    """The sources of every `path_counts` call type detection makes."""
    calls = []
    monkeypatch.setattr(taxonomy, "path_counts",
                        lambda dag, *sources: calls.append(sources) or path_counts(dag, *sources))
    return calls


def test_detect_types_counts_paths_only_where_hom_sets_can_differ(monkeypatch):
    """No path is counted on a 300-wide chain identity, nor on a permutation
    whose edges correspond.  When one edge of a bijection differs, paths
    are counted only from the nodes that reach it and their images, and
    from the images of its ends when the target lacks it."""
    calls = _count_path_counts(monkeypatch)
    n = 300
    xs, ys = [f"X{i}" for i in range(n)], [f"Y{i}" for i in range(n)]
    src, tgt = unary_chain("src", xs), unary_chain("tgt", ys)
    identity = abstraction("a", src, tgt, dict(zip(xs, ys)))
    assert detect_types(identity, src, tgt)["structural"] == ["identity"]
    flipped = unary_chain("tgt", ys[::-1])
    permutation = abstraction("a", src, flipped, dict(zip(xs, ys[::-1])), pairs=dict(zip(xs, ys)))
    assert detect_types(permutation, src, flipped)["structural"] == ["node-permutation"]
    assert calls == []

    # a six-node chain with a shortcut at the top; X3 -> X5 only in one graph
    xs, ys = xs[:6], ys[:6]
    rename = dict(zip(xs, ys))
    base = {u: [v] for u, v in zip(xs, xs[1:])} | {xs[-1]: []}
    base["X0"].append("X2")
    deeper = {u: vs + ["X5"] * (u == "X3") for u, vs in base.items()}
    above = {"X0", "X1", "X2", "X3", "Y0", "Y1", "Y2", "Y3"}
    for micro, macro, label, ends in ((base, deeper, "edge-embedding", set()),
                                      (deeper, base, "edge-coarsening", {"Y3", "Y5"})):
        src = unary_dag("src", micro)
        tgt = unary_dag("tgt", {rename[u]: [rename[v] for v in vs] for u, vs in macro.items()})
        calls.clear()
        assert detect_types(abstraction("a", src, tgt, rename), src, tgt)["structural"] == [label]
        assert set().union(*calls) == above | ends
        assert len(calls) == 1 + 2 * 4 + len(ends)


def test_each_shape_names_one_type_per_layer():
    """The paper's two tables share their set-map columns: each shape of a
    set map has one type on the node layer and one on the outcome layer."""
    assert {shape: (node and node.value, outcome.value)
            for shape, (node, outcome) in taxonomy._SHAPE_TYPES.items()} == {
        "bijection": (None, "identity-or-permutation"),  # identity or permutation by pairing
        "coarsening": ("node-coarsening", "coarsening"),
        "embedding": ("node-embedding", "embedding"),
        "dropping": ("node-dropping", "outcome-dropping"),
        "splitting": ("causal-splitting", "outcome-splitting"),
        "reversal": ("abstraction-reversal", "abstraction-reversal"),
    }


# (shape, {source index: {target index: weight}}, source size, target size)
SET_MAPS = [
    ("bijection", {0: {0: 1.0}}, 1, 1),
    ("coarsening", {0: {0: 1.0}, 1: {0: 1.0}}, 2, 1),
    ("embedding", {0: {0: 1.0}}, 1, 2),
    ("dropping", {}, 1, 1),
    (None, {0: {0: 1.0}, 1: {0: 1.0}}, 2, 2),  # neither onto nor one-to-one
    ("splitting", {0: {0: 0.5, 1: 0.5}}, 1, 2),
]


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("shape, rows, n, m", SET_MAPS)
def test_both_layers_of_one_set_map_read_one_shape_row(shape, rows, n, m, direction):
    """A map whose node layer and lone outcome map are the same set map, on
    nodes and on the values of each model's first node, has the types of one
    `_SHAPE_TYPES` row on both layers (a one-node bijection is an identity),
    or no type on either when it is neither onto nor one-to-one.  From macro
    to micro it is a reversal on both layers, whatever its shape."""
    src, tgt = (Scm(name, [Variable(f"{name}{i}", tuple(map(str, range(k))), (), f"U{i}")
                           for i in range(k)], [], {}, {}) for name, k in (("a", n), ("x", m)))
    values = {(str(i),): {(str(j),): w for j, w in row.items()} for i, row in rows.items()}
    a = abstraction("m", src, tgt,
                    {f"a{i}": {f"x{j}": w for j, w in row.items()} for i, row in rows.items()},
                    outcomes=[OutcomeMap("x0", ("a0",), values)], direction=direction)
    forward = direction is Direction.MICRO_TO_MACRO
    node, outcome = taxonomy._SHAPE_TYPES.get(shape if forward else "reversal", (None, None))
    assert detect_types(a, src, tgt) == {
        "structural": [node.value] if node else ["identity"] if outcome else [],
        "distributional": [outcome.value] if outcome else []}


SHAPES = ("bijection", "permutation", "dropped", "merged", "embedded")
RELATIONS = ("equal", "add", "remove", "independent")
PAIRS6 = list(itertools.combinations(range(6), 2))


def _bits(*pairs: tuple[int, int]) -> int:
    """The `bits` that give a source DAG these edges."""
    return sum(1 << PAIRS6.index(p) for p in pairs)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), bits=st.integers(0, 2 ** len(PAIRS6) - 1),
       shape=st.sampled_from(SHAPES), relation=st.sampled_from(RELATIONS),
       flip=st.integers(0, 20), seed=st.integers(0, 2 ** 16), shuffle=st.booleans())
# the chain x0 -> ... -> x5 with the shortcut x0 -> x2; the target also has
# y3 -> y5, below four ancestors in each graph
@example(n=6, bits=_bits((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)),
         shape="bijection", relation="add", flip=8, seed=0, shuffle=False)
# the identity of a three-chain onto a target declared y2, y0, y1
@example(n=3, bits=_bits((0, 1), (1, 2)), shape="bijection", relation="equal", flip=0, seed=6,
         shuffle=True)
def test_detect_types_matches_the_hom_set_oracle(n, bits, shape, relation, flip, seed, shuffle):
    """Random six-node DAGs: the target is the source's image, that image
    with one edge added or removed, or an independent DAG; the map is a
    bijection, a permutation, or drops, merges or adds a node; the target
    declares its nodes in index order or shuffled."""
    rng = random.Random(seed)
    src_edges = [(a, b) for k, (a, b) in enumerate(PAIRS6) if b < n and bits >> k & 1]
    src_adj = {f"x{i}": [f"x{b}" for a, b in src_edges if a == i] for i in range(n)}
    order = list(range(n))
    if shape == "permutation":
        rng.shuffle(order)
    image = dict(enumerate(order))  # source index -> target index
    if shape == "dropped":
        del image[rng.randrange(n)]
    if shape == "merged" and n > 1:
        a, b = rng.sample(range(n), 2)
        image[b] = image[a]
    # the target nodes ranked by their first preimage; an added node last
    rank = {k: i for i, k in reversed(image.items())} | ({n: n} if shape == "embedded" else {})
    image_edges = {(image[a], image[b]) for a, b in src_edges if a in image and b in image}
    forward = sorted((a, b) for a in rank for b in rank if rank[a] < rank[b])
    edges = {(a, b) for a, b in image_edges if rank[a] < rank[b]}
    absent = [p for p in forward if p not in edges]
    if relation == "add" and absent:
        edges.add(absent[flip % len(absent)])
    if relation == "remove" and edges:
        edges.discard(sorted(edges)[flip % len(edges)])
    if relation == "independent":
        edges = {p for p in forward if rng.random() < 0.4}
    tgt_adj = {f"y{k}": [f"y{b}" for a, b in sorted(edges) if a == k] for k in sorted(rank)}
    if shuffle:
        tgt_adj = dict(rng.sample(list(tgt_adj.items()), len(tgt_adj)))
    pi = {f"x{i}": f"y{k}" for i, k in image.items()}
    src, tgt = unary_dag("src", src_adj), unary_dag("tgt", tgt_adj)
    got = detect_types(abstraction("a", src, tgt, pi), src, tgt)["structural"]
    assert got == structural_types(src_adj, tgt_adj, pi)


# ---------------------------------------------------------------------------
# No label or verdict reads the order in which a file declares things
# ---------------------------------------------------------------------------

SHIPPED_MAPS = sorted(pathlib.Path(str(importlib.resources.files("absaudit") / "data"))
                      .rglob("*.abs"))


def _labels_and_profiles(doc: Document) -> dict[str, tuple]:
    """Each abstraction's `detect_types` labels and `audit_abstraction` profile."""
    out = {}
    for name, a in doc.abstractions.items():
        source, target = doc.resolve(a)
        out[name] = (detect_types(a, source, target),
                     audit_abstraction(a, source, target).to_dict())
    return out


def _cli_json(path, names) -> list[str]:
    """What `--format json` `audit` and `classify` print on each abstraction."""
    out = []
    for command, name in itertools.product(("audit", "classify"), names):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["--format", "json", command, str(path), "--abs", name]) == 0
        out.append(stdout.getvalue())
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**30))
def test_no_label_or_verdict_of_a_random_map_reads_a_declaration_order(seed):
    """A random map, half of the time a bijection between models of one
    size, keeps every label and verdict when both models declare their
    variables and noise terms in another order and every block of the map
    lists its rows in another order."""
    rng = random.Random(seed)
    src, tgt = random_model(rng), random_model(rng)
    bijection = rng.random() < 0.5
    while bijection and len(tgt.variables) != len(src.variables):
        tgt = random_model(rng)
    tgt = dataclasses.replace(tgt, name="tgt")
    names = src.variable_names
    rows = (det_rows(dict(zip(names, rng.sample(tgt.variable_names, len(names)))))
            if bijection else random_rows(rng, src, tgt))
    k = rng.randint(0, min(len(names), len(tgt.variables)))
    pairs = (dict(zip(rng.sample(names, k), rng.sample(tgt.variable_names, k)))
             if rng.random() < 0.3 else None)
    edges = random_edge_map(rng, src, tgt, rows) if rows and rng.random() < 0.5 else None
    a = Abstraction("a", "rnd", "tgt", rng.choice(list(Direction)),
                    StructuralMap(rows, edges, pairs), random_outcome_maps(rng, src, tgt))
    doc = Document({"rnd": src, "tgt": tgt}, {"a": a})
    assert _labels_and_profiles(permuted(doc, rng)) == _labels_and_profiles(doc)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**30))
def test_no_label_or_verdict_of_a_shipped_map_reads_a_declaration_order(seed):
    """Each of the 41 shipped maps, with both models' declarations and the
    rows of every block of the map in another order, keeps every label and
    verdict, and written back with `emit_document` it prints the same
    `audit` and `classify` JSON as the shipped file."""
    rng = random.Random(seed)
    count = 0
    with tempfile.TemporaryDirectory() as directory:
        for path in SHIPPED_MAPS:
            doc = parse_path(path)
            shuffled = permuted(doc, rng)
            assert _labels_and_profiles(shuffled) == _labels_and_profiles(doc), path.name
            copy = pathlib.Path(directory, path.name)
            copy.write_text(emit_document(shuffled), encoding="utf-8")
            assert _cli_json(copy, doc.abstractions) == _cli_json(path, doc.abstractions)
            count += len(doc.abstractions)
    assert count == 41
